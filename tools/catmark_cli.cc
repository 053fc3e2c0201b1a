// catmark — command-line rights protection for categorical CSV data.
//
//   catmark gen     --out data.csv --n 10000 [--items 500] [--sales]
//   catmark embed   --in data.csv --out marked.csv --schema <spec>
//                   --key <passphrase> --wm <bits> [--e 60]
//                   [--prf keyed-hash|hmac-sha256|siphash24]
//                   [--key-attr K] [--target-attr A] [--constraints file.cql]
//                   [--certificate-out cert.txt]
//   catmark detect  --in suspect.csv --schema <spec> --key <passphrase>
//                   ( --certificate cert.txt
//                   | --wm <bits> --payload-length <L> [--e 60] [--prf <p>]
//                     [--key-attr K] [--target-attr A] ) [--alpha 0.001]
//
// --prf selects the keyed-PRF backend (default: the CATMARK_PRF environment
// variable, else the paper's keyed hash). Embed and detect must agree;
// certificates record the backend, so --certificate detection needs no flag.
//   catmark sweep   --in suspect.csv --schema <spec>
//                   ( --certs <dir>              # NAME.cert + NAME.key pairs
//                   | --certificate cert.txt --keys keyfile.txt )
//                   [--alpha 0.001] [--top 10] [--threads N]
//
// `sweep` answers "whose mark is this relation carrying?": every candidate
// certificate/key pair runs through one shared key-agnostic detect plan
// (DetectEngine::DetectMany) and the report ranks candidates by detection
// confidence. With --certs, each NAME.cert in the directory is a candidate
// whose passphrase sits in the sibling NAME.key; with --keys, one
// certificate is tested against `id:passphrase` lines. Exit 0 when the top
// candidate's claim is supported, 2 otherwise.
//   catmark attack  --in marked.csv --out attacked.csv --schema <spec>
//                   --type alter|subset|add|shuffle|remap
//                   [--column A] [--fraction 0.3] [--seed 1]
//   catmark bandwidth --in data.csv --schema <spec> [--e 60] [--q 0.01]
//   catmark stream  --in rows.csv|- --schema <spec> --key <passphrase>
//                   --certificate cert.txt --out grown.csv
//                   [--base marked.csv] [--batch 1024]
//   catmark convert --in data.csv --out data.catm --schema <spec>
//                   [--threads N]
//
// Every --in / --base input is sniffed by content: files in the .catm
// binary columnar format load with zero re-parsing/re-interning, anything
// else parses as CSV (in parallel chunks). Every --out path ending in
// `.catm` writes the binary format, anything else CSV. `convert`
// translates between the two; both directions are lossless and
// deterministic (CSV -> .catm is byte-identical at any --threads count).
//
// `stream` grows a marked relation with new rows, marking fit inserts on
// the fly: rows come from --in (CSV, `-` for stdin) and are marked straight
// off the loaded column store by a StreamSession, in --batch-sized
// InsertRange calls against --base (or an empty relation); the grown
// relation lands in --out. The certificate pins every parameter the session
// needs — keys are verified against its commitment, so the wrong passphrase
// fails before any row is inserted.
//
// Each subcommand accepts only the flags listed for it above (`--sales` is
// the one boolean flag; every other flag takes the next token as its
// value). An unknown flag, a stray argument or a flag missing its value
// exits 1 with a message naming it.
//
// <spec> declares the CSV columns: comma-separated `name:type[:flag]`,
// type in {int,double,str}, flag in {pk,cat}. Example:
//   --schema "Visit_Nbr:int:pk,Item_Nbr:int:cat,Dept_Desc:str:cat"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "core/catmark.h"
#include "common/str_util.h"

namespace catmark {
namespace {

// ------------------------------------------------------------------- flags

/// The flags one subcommand accepts: value flags take the next token,
/// boolean flags stand alone.
struct FlagSpec {
  std::vector<std::string_view> values;
  std::vector<std::string_view> booleans;
};

class Flags {
 public:
  /// Parses argv[first..] against `spec`. An unknown flag, a stray
  /// argument or a value flag with nothing after it is an InvalidArgument
  /// naming the token.
  static Result<Flags> Parse(int argc, char** argv, int first,
                             const FlagSpec& spec) {
    const auto has = [](const std::vector<std::string_view>& names,
                        std::string_view name) {
      return std::find(names.begin(), names.end(), name) != names.end();
    };
    Flags flags;
    for (int i = first; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        return Status::InvalidArgument("unexpected argument '" + arg + "'");
      }
      const std::string name = arg.substr(2);
      if (has(spec.booleans, name)) {
        flags.values_[name] = "true";
      } else if (!has(spec.values, name)) {
        return Status::InvalidArgument("unknown flag " + arg);
      } else if (i + 1 == argc) {
        return Status::InvalidArgument("flag " + arg + " needs a value");
      } else {
        flags.values_[name] = argv[++i];
      }
    }
    return flags;
  }

  std::string Get(const std::string& name,
                  const std::string& fallback = "") const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }
  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  /// --name as a finite number, decimal or scientific ("2.5e-07"), or
  /// `fallback` when absent. The whole value must parse; callers whose
  /// flag has a narrower range check it (or the library does, by Status).
  Result<double> GetDouble(const std::string& name, double fallback) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    const std::optional<double> value = ParseDouble(it->second);
    if (!value.has_value()) {
      return Status::InvalidArgument("--" + name + " '" + it->second +
                                     "' is not a finite number");
    }
    return *value;
  }
  /// --name as an unsigned decimal integer in [min, max] — digits only, no
  /// sign — or `fallback` when absent.
  Result<std::uint64_t> GetUint(
      const std::string& name, std::uint64_t fallback, std::uint64_t min = 0,
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    const std::optional<std::uint64_t> value =
        ParseUint(it->second, min, max);
    if (!value.has_value()) {
      return Status::InvalidArgument(
          "--" + name + " '" + it->second + "' is not an integer in [" +
          std::to_string(min) + ", " + std::to_string(max) + "]");
    }
    return *value;
  }

 private:
  std::map<std::string, std::string> values_;
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "catmark: %s\n", message.c_str());
  return 1;
}

/// Binds `lhs` to a Result's value, or fails the subcommand (exit 1) with
/// the Result's status.
#define CATMARK_CLI_ASSIGN_OR_FAIL_IMPL_(var, lhs, rexpr) \
  auto var = (rexpr);                                     \
  if (!var.ok()) return Fail(var.status().ToString());    \
  lhs = std::move(var).value()
#define CATMARK_CLI_ASSIGN_OR_FAIL(lhs, rexpr)                               \
  CATMARK_CLI_ASSIGN_OR_FAIL_IMPL_(CATMARK_CONCAT_(cli_result_, __LINE__), \
                                   lhs, rexpr)

/// --alpha: the significance level DecideOwnership needs inside (0, 1).
Result<double> GetAlpha(const Flags& flags) {
  CATMARK_ASSIGN_OR_RETURN(const double alpha,
                           flags.GetDouble("alpha", 1e-3));
  if (!(alpha > 0.0 && alpha < 1.0)) {
    return Status::InvalidArgument("--alpha must be in (0, 1)");
  }
  return alpha;
}

/// --threads: a worker count, 0 for auto. Bounded, since worker state is
/// allocated per thread.
Result<std::size_t> GetThreads(const Flags& flags) {
  CATMARK_ASSIGN_OR_RETURN(const std::uint64_t threads,
                           flags.GetUint("threads", 0, 0, 1024));
  return static_cast<std::size_t>(threads);
}

/// Applies --prf to `params`. Absent flag leaves params.prf on auto
/// (CATMARK_PRF or the legacy keyed hash, validated at embed/detect time);
/// an unknown name fails up front with the registered backend list.
Status ApplyPrfFlag(const Flags& flags, WatermarkParams& params) {
  if (!flags.Has("prf")) return Status::OK();
  CATMARK_ASSIGN_OR_RETURN(const PrfKind prf,
                           PrfKindFromName(flags.Get("prf")));
  params.prf = prf;
  return Status::OK();
}

// ------------------------------------------------------------ schema specs

Result<Schema> ParseSchemaSpec(const std::string& spec) {
  std::vector<Column> columns;
  std::string pk;
  for (const std::string& field : StrSplit(spec, ',')) {
    const std::vector<std::string> parts = StrSplit(field, ':');
    if (parts.size() < 2 || parts.size() > 3) {
      return Status::InvalidArgument("bad schema field '" + field +
                                     "' (want name:type[:flag])");
    }
    Column col;
    col.name = std::string(StrTrim(parts[0]));
    const std::string type(StrTrim(parts[1]));
    if (type == "int") {
      col.type = ColumnType::kInt64;
    } else if (type == "double") {
      col.type = ColumnType::kDouble;
    } else if (type == "str") {
      col.type = ColumnType::kString;
    } else {
      return Status::InvalidArgument("unknown type '" + type + "'");
    }
    if (parts.size() == 3) {
      const std::string flag(StrTrim(parts[2]));
      if (flag == "pk") {
        pk = col.name;
      } else if (flag == "cat") {
        col.categorical = true;
      } else {
        return Status::InvalidArgument("unknown flag '" + flag + "'");
      }
    }
    columns.push_back(std::move(col));
  }
  return Schema::Create(std::move(columns), pk);
}

/// Loads --in by content sniff: .catm images through the binary reader,
/// anything else through the (parallel) CSV parser. Both validate against
/// --schema.
Result<Relation> LoadInput(const Flags& flags) {
  const std::string path = flags.Get("in");
  if (path.empty()) return Status::InvalidArgument("--in is required");
  CATMARK_ASSIGN_OR_RETURN(const Schema schema,
                           ParseSchemaSpec(flags.Get("schema")));
  return LoadRelation(path, schema);
}

/// Saves to --out by extension: `.catm` writes the binary format, anything
/// else CSV.
Status SaveOutput(const Relation& rel, const Flags& flags) {
  const std::string path = flags.Get("out");
  if (path.empty()) return Status::InvalidArgument("--out is required");
  return SaveRelation(rel, path);
}

// ------------------------------------------------------------- subcommands

int RunGen(const Flags& flags) {
  const std::string out = flags.Get("out");
  if (out.empty()) return Fail("--out is required");
  // The output format follows the extension: `.catm` binary, else CSV.
  Result<std::size_t> written = Status::Internal("unreachable");
  if (flags.Has("sales")) {
    SalesGenConfig config;
    CATMARK_CLI_ASSIGN_OR_FAIL(config.num_tuples, flags.GetUint("n", 10000));
    CATMARK_CLI_ASSIGN_OR_FAIL(config.num_items,
                               flags.GetUint("items", 500, 2));
    CATMARK_CLI_ASSIGN_OR_FAIL(config.seed, flags.GetUint("seed", 42));
    written = GenerateItemScanFile(config, out);
    std::printf("schema spec: Visit_Nbr:int:pk,Item_Nbr:int:cat,"
                "Store_Nbr:int:cat,Dept_Desc:str:cat,Unit_Qty:int,"
                "Sale_Amount:double\n");
  } else {
    KeyedCategoricalConfig config;
    CATMARK_CLI_ASSIGN_OR_FAIL(config.num_tuples, flags.GetUint("n", 10000));
    CATMARK_CLI_ASSIGN_OR_FAIL(config.domain_size,
                               flags.GetUint("items", 500, 2));
    CATMARK_CLI_ASSIGN_OR_FAIL(config.seed, flags.GetUint("seed", 42));
    written = GenerateKeyedCategoricalFile(config, out);
    std::printf("schema spec: K:int:pk,A:str:cat\n");
  }
  if (!written.ok()) return Fail(written.status().ToString());
  std::printf("wrote %zu tuples to %s\n", written.value(), out.c_str());
  return 0;
}

int RunEmbed(const Flags& flags) {
  WatermarkParams params;
  CATMARK_CLI_ASSIGN_OR_FAIL(params.e, flags.GetUint("e", 60, 1));
  Result<Relation> rel = LoadInput(flags);
  if (!rel.ok()) return Fail(rel.status().ToString());
  const std::string key = flags.Get("key");
  if (key.empty()) return Fail("--key is required");
  Result<BitVector> wm = BitVector::FromString(flags.Get("wm"));
  if (!wm.ok() || wm.value().empty()) {
    return Fail("--wm must be a non-empty bit string, e.g. 1011001110");
  }

  if (const Status s = ApplyPrfFlag(flags, params); !s.ok()) {
    return Fail(s.ToString());
  }
  EmbedOptions options;
  options.key_attr = flags.Get("key-attr", "K");
  options.target_attr = flags.Get("target-attr", "A");

  QualityAssessor assessor;
  if (flags.Has("constraints")) {
    std::ifstream f(flags.Get("constraints"));
    if (!f) return Fail("cannot read " + flags.Get("constraints"));
    std::ostringstream ss;
    ss << f.rdbuf();
    const Result<std::size_t> n =
        CompileConstraints(ss.str(), rel.value().schema(), assessor);
    if (!n.ok()) return Fail(n.status().ToString());
    std::printf("compiled %zu quality constraints\n", n.value());
    if (const Status s = assessor.Begin(rel.value()); !s.ok()) {
      return Fail(s.ToString());
    }
  }

  const WatermarkKeySet keys = WatermarkKeySet::FromPassphrase(key);
  const Embedder embedder(keys, params);
  Result<EmbedReport> report =
      embedder.Embed(rel.value(), options, wm.value(),
                     flags.Has("constraints") ? &assessor : nullptr);
  if (!report.ok()) return Fail(report.status().ToString());
  if (const Status s = SaveOutput(rel.value(), flags); !s.ok()) {
    return Fail(s.ToString());
  }
  std::printf(
      "embedded %zu-bit mark: %zu fit tuples, %zu altered (%.3f%% of data), "
      "%zu vetoed by constraints\n"
      "detector inputs: --payload-length %zu --e %llu --wm-bits %zu "
      "--prf %s\n",
      wm.value().size(), report->fit_tuples, report->altered_tuples,
      100.0 * report->alteration_fraction, report->skipped_by_quality,
      report->payload_length, static_cast<unsigned long long>(params.e),
      wm.value().size(), std::string(PrfKindName(report->prf)).c_str());
  // Same accounting line detect prints: rows scanned vs PRF messages
  // actually hashed, and the embed wall time (excludes load and save).
  const double embed_ms = report->wall_seconds * 1e3;
  const double embed_tps =
      report->wall_seconds > 0.0
          ? static_cast<double>(report->rows_scanned) / report->wall_seconds
          : 0.0;
  std::printf(
      "scanned %zu rows (%zu messages hashed) in %.2f ms (%.2fM rows/s)\n",
      report->rows_scanned, report->messages_hashed, embed_ms,
      embed_tps / 1e6);

  // --certificate-out writes everything detection needs (plus the key
  // commitment) to one file; `detect --certificate` consumes it.
  if (flags.Has("certificate-out")) {
    const WatermarkCertificate cert = WatermarkCertificate::Create(
        keys, params, options, report.value(), wm.value(), {},
        flags.Get("in"));
    if (const Status s =
            ReplaceFile(flags.Get("certificate-out"), cert.Serialize());
        !s.ok()) {
      return Fail(s.ToString());
    }
    std::printf("wrote certificate to %s\n",
                flags.Get("certificate-out").c_str());
  }
  return 0;
}

// Shared wall-time / throughput line. rows_scanned is the relation's row
// count on every path and is what throughput divides by; messages_hashed is
// the (possibly much smaller) number of prepared messages the keyed PRF
// actually ran — printing both keeps the two from being conflated.
void PrintDetectionCost(const DetectionResult& detection) {
  const double ms = detection.wall_seconds * 1e3;
  const double tps = detection.wall_seconds > 0.0
                         ? static_cast<double>(detection.rows_scanned) /
                               detection.wall_seconds
                         : 0.0;
  std::printf(
      "scanned %zu rows (%zu messages hashed) in %.2f ms (%.2fM rows/s)\n",
      detection.rows_scanned, detection.messages_hashed, ms, tps / 1e6);
}

// The one certificate reader: `detect`, `sweep` and `stream` all read
// their --certificate through it.
Result<WatermarkCertificate> LoadCertificateFile(const std::string& path) {
  std::ifstream f(path);
  if (!f) return Status::NotFound("cannot read " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return WatermarkCertificate::Deserialize(ss.str());
}

int RunDetectWithCertificate(const Flags& flags) {
  CATMARK_CLI_ASSIGN_OR_FAIL(const double alpha, GetAlpha(flags));
  Result<Relation> rel = LoadInput(flags);
  if (!rel.ok()) return Fail(rel.status().ToString());
  Result<WatermarkCertificate> cert =
      LoadCertificateFile(flags.Get("certificate"));
  if (!cert.ok()) return Fail(cert.status().ToString());
  const std::string key = flags.Get("key");
  if (key.empty()) return Fail("--key is required");
  Result<CertifiedDetection> result = DetectWithCertificate(
      rel.value(), cert.value(), WatermarkKeySet::FromPassphrase(key), alpha);
  if (!result.ok()) return Fail(result.status().ToString());
  PrintDetectionCost(result->detection);
  std::printf(
      "key commitment verified; matched %zu/%zu bits (threshold %zu), "
      "p-value %.3e\nownership claim: %s\n",
      result->decision.matched_bits, cert->wm.size(),
      result->decision.threshold, result->decision.p_value,
      result->decision.owned ? "SUPPORTED" : "NOT SUPPORTED");
  return result->decision.owned ? 0 : 2;
}

int RunDetect(const Flags& flags) {
  if (flags.Has("certificate")) return RunDetectWithCertificate(flags);
  WatermarkParams params;
  CATMARK_CLI_ASSIGN_OR_FAIL(params.e, flags.GetUint("e", 60, 1));
  // The same range a certificate's payload_length field accepts.
  CATMARK_CLI_ASSIGN_OR_FAIL(
      params.payload_length,
      flags.GetUint("payload-length", 0, 0, kMaxPayloadLength));
  CATMARK_CLI_ASSIGN_OR_FAIL(const double alpha, GetAlpha(flags));
  Result<Relation> rel = LoadInput(flags);
  if (!rel.ok()) return Fail(rel.status().ToString());
  const std::string key = flags.Get("key");
  if (key.empty()) return Fail("--key is required");
  Result<BitVector> wm = BitVector::FromString(flags.Get("wm"));
  if (!wm.ok() || wm.value().empty()) {
    return Fail("--wm must be the owner's mark bits");
  }

  if (const Status s = ApplyPrfFlag(flags, params); !s.ok()) {
    return Fail(s.ToString());
  }
  DetectOptions options;
  options.key_attr = flags.Get("key-attr", "K");
  options.target_attr = flags.Get("target-attr", "A");

  const Detector detector(WatermarkKeySet::FromPassphrase(key), params);
  Result<DetectionResult> detection =
      detector.Detect(rel.value(), options, wm.value().size());
  if (!detection.ok()) return Fail(detection.status().ToString());

  const OwnershipDecision decision =
      DecideOwnership(wm.value(), detection->wm, alpha);
  if (params.payload_length == 0) {
    std::fprintf(stderr,
                 "catmark: warning: --payload-length not given; derived %zu "
                 "from the suspect relation — wrong if tuples were "
                 "added/removed since embedding (see the embed report)\n",
                 detection->payload_length);
  }
  PrintDetectionCost(detection.value());
  std::printf("decoded mark : %s\n", detection->wm.ToString().c_str());
  std::printf("owner's mark : %s\n", wm.value().ToString().c_str());
  std::printf(
      "matched %zu/%zu bits (threshold %zu at alpha %.1e), p-value %.3e\n",
      decision.matched_bits, wm.value().size(), decision.threshold,
      decision.significance, decision.p_value);
  std::printf("ownership claim: %s\n",
              decision.owned ? "SUPPORTED" : "NOT SUPPORTED");
  return decision.owned ? 0 : 2;
}

// ------------------------------------------------------------------- sweep

// First non-empty, non-comment line of a keyfile — the passphrase.
Result<std::string> LoadPassphraseFile(const std::string& path) {
  std::ifstream f(path);
  if (!f) return Status::NotFound("cannot read " + path);
  std::string line;
  while (std::getline(f, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    return line;
  }
  return Status::InvalidArgument("no passphrase in " + path);
}

// --certs <dir>: every NAME.cert file in the directory is one candidate,
// with its passphrase in the sibling NAME.key — the registry-directory
// layout an ownership-dispute service keeps per customer.
Result<std::vector<OwnershipCandidate>> CollectCertDirCandidates(
    const std::string& dir) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    return Status::NotFound("cannot list " + dir + ": " + ec.message());
  }
  std::vector<std::filesystem::path> certs;
  for (const std::filesystem::directory_entry& entry : it) {
    if (entry.path().extension() == ".cert") certs.push_back(entry.path());
  }
  std::sort(certs.begin(), certs.end());
  std::vector<OwnershipCandidate> candidates;
  for (const std::filesystem::path& path : certs) {
    OwnershipCandidate candidate;
    candidate.id = path.stem().string();
    Result<WatermarkCertificate> cert = LoadCertificateFile(path.string());
    if (!cert.ok()) return cert.status();
    candidate.certificate = std::move(cert.value());
    std::filesystem::path keyfile = path;
    keyfile.replace_extension(".key");
    Result<std::string> passphrase = LoadPassphraseFile(keyfile.string());
    if (!passphrase.ok()) return passphrase.status();
    candidate.keys = WatermarkKeySet::FromPassphrase(passphrase.value());
    candidates.push_back(std::move(candidate));
  }
  return candidates;
}

// --certificate <file> --keys <file>: one certificate, many claimed keys —
// `id:passphrase` per line (bare lines get a line-number id). The "which of
// these leaked keys marked this dump?" workload.
Result<std::vector<OwnershipCandidate>> CollectKeyfileCandidates(
    const std::string& cert_path, const std::string& keys_path) {
  Result<WatermarkCertificate> cert = LoadCertificateFile(cert_path);
  if (!cert.ok()) return cert.status();
  std::ifstream f(keys_path);
  if (!f) return Status::NotFound("cannot read " + keys_path);
  std::vector<OwnershipCandidate> candidates;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(f, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    OwnershipCandidate candidate;
    const std::size_t colon = line.find(':');
    std::string passphrase;
    if (colon == std::string::npos) {
      candidate.id = "key#" + std::to_string(lineno);
      passphrase = line;
    } else {
      candidate.id = line.substr(0, colon);
      passphrase = line.substr(colon + 1);
    }
    if (passphrase.empty()) {
      return Status::InvalidArgument("empty passphrase at " + keys_path +
                                     ":" + std::to_string(lineno));
    }
    candidate.certificate = cert.value();
    candidate.keys = WatermarkKeySet::FromPassphrase(passphrase);
    candidates.push_back(std::move(candidate));
  }
  return candidates;
}

int RunSweep(const Flags& flags) {
  ServiceOptions service_options;
  CATMARK_CLI_ASSIGN_OR_FAIL(service_options.num_threads, GetThreads(flags));
  CATMARK_CLI_ASSIGN_OR_FAIL(const double alpha, GetAlpha(flags));
  CATMARK_CLI_ASSIGN_OR_FAIL(const std::uint64_t top_flag,
                             flags.GetUint("top", 10));
  Result<Relation> rel = LoadInput(flags);
  if (!rel.ok()) return Fail(rel.status().ToString());
  Result<std::vector<OwnershipCandidate>> candidates =
      Status::InvalidArgument(
          "sweep needs --certs <dir>, or --certificate <file> with "
          "--keys <file>");
  if (flags.Has("certs")) {
    candidates = CollectCertDirCandidates(flags.Get("certs"));
  } else if (flags.Has("certificate") && flags.Has("keys")) {
    candidates = CollectKeyfileCandidates(flags.Get("certificate"),
                                          flags.Get("keys"));
  }
  if (!candidates.ok()) return Fail(candidates.status().ToString());
  if (candidates->empty()) return Fail("no sweep candidates found");

  const WatermarkService service(service_options);
  Result<SweepReport> report = service.SweepOwnership(
      rel.value(), std::span<const OwnershipCandidate>(candidates.value()),
      alpha);
  if (!report.ok()) return Fail(report.status().ToString());

  for (const auto& [id, status] : report->failed) {
    std::fprintf(stderr, "catmark: warning: candidate %s failed: %s\n",
                 id.c_str(), status.ToString().c_str());
  }
  const double per_key_ms = report->ranked.empty()
                                ? 0.0
                                : report->wall_seconds * 1e3 /
                                      static_cast<double>(
                                          report->ranked.size());
  std::printf(
      "swept %zu candidates over %zu tuples (%zu plans, %zu messages "
      "hashed) in %.2f ms — %.4f ms/key\n",
      candidates->size(), rel.value().NumRows(), report->plans_built,
      report->messages_hashed, report->wall_seconds * 1e3, per_key_ms);

  const std::size_t top =
      std::min<std::size_t>(top_flag, report->ranked.size());
  std::printf("%-5s %-24s %-14s %9s %11s %10s\n", "rank", "candidate",
              "verdict", "bits", "p-value", "commitment");
  for (std::size_t i = 0; i < top; ++i) {
    const SweepMatch& match = report->ranked[i];
    std::printf("%-5zu %-24s %-14s %4zu/%-4zu %11.3e %10s\n", i + 1,
                match.id.c_str(),
                match.decision.owned ? "SUPPORTED" : "not supported",
                match.decision.matched_bits, match.detection.wm.size(),
                match.decision.p_value,
                match.commitment_verified ? "verified" : "MISMATCH");
  }
  if (top < report->ranked.size()) {
    std::printf("... %zu more (raise --top to see them)\n",
                report->ranked.size() - top);
  }
  const bool any_owned =
      !report->ranked.empty() && report->ranked.front().decision.owned;
  return any_owned ? 0 : 2;
}

int RunAttack(const Flags& flags) {
  CATMARK_CLI_ASSIGN_OR_FAIL(const double fraction,
                             flags.GetDouble("fraction", 0.3));
  CATMARK_CLI_ASSIGN_OR_FAIL(const std::uint64_t seed,
                             flags.GetUint("seed", 1));
  Result<Relation> rel = LoadInput(flags);
  if (!rel.ok()) return Fail(rel.status().ToString());
  const std::string type = flags.Get("type");
  const std::string column = flags.Get("column", "A");

  Result<Relation> out = Status::InvalidArgument(
      "--type must be alter|subset|add|shuffle|remap");
  if (type == "alter") {
    out = SubsetAlterationAttack(rel.value(), column, fraction, seed);
  } else if (type == "subset") {
    out = HorizontalPartitionAttack(rel.value(), 1.0 - fraction, seed);
  } else if (type == "add") {
    out = SubsetAdditionAttack(rel.value(), fraction, seed);
  } else if (type == "shuffle") {
    out = ResortAttack(rel.value(), seed);
  } else if (type == "remap") {
    Result<RemapAttackResult> remap =
        BijectiveRemapAttack(rel.value(), column, seed);
    if (!remap.ok()) return Fail(remap.status().ToString());
    out = std::move(remap.value().relation);
  }
  if (!out.ok()) return Fail(out.status().ToString());
  if (const Status s = SaveOutput(out.value(), flags); !s.ok()) {
    return Fail(s.ToString());
  }
  std::printf("%s attack: %zu -> %zu tuples, wrote %s\n", type.c_str(),
              rel.value().NumRows(), out.value().NumRows(),
              flags.Get("out").c_str());
  return 0;
}

int RunBandwidth(const Flags& flags) {
  CATMARK_CLI_ASSIGN_OR_FAIL(const std::uint64_t e,
                             flags.GetUint("e", 60, 1));
  CATMARK_CLI_ASSIGN_OR_FAIL(const double q, flags.GetDouble("q", 0.01));
  Result<Relation> rel = LoadInput(flags);
  if (!rel.ok()) return Fail(rel.status().ToString());
  Result<std::vector<AttributeBandwidth>> all =
      AnalyzeRelationBandwidth(rel.value(), e, q);
  if (!all.ok()) return Fail(all.status().ToString());
  std::printf("%-14s %8s %10s %12s %14s %12s\n", "attribute", "nA",
              "entropy", "direct bits", "assoc bits", "freq bits");
  for (const AttributeBandwidth& bw : all.value()) {
    std::printf("%-14s %8zu %10.2f %12.2f %14zu %12zu\n",
                bw.attribute.c_str(), bw.domain_size, bw.entropy_bits,
                bw.direct_domain_bits, bw.association_bits,
                bw.frequency_bits);
  }
  return 0;
}

int RunStream(const Flags& flags) {
  CATMARK_CLI_ASSIGN_OR_FAIL(const std::size_t batch,
                             flags.GetUint("batch", 1024, 1));
  if (!flags.Has("certificate")) return Fail("--certificate is required");
  Result<WatermarkCertificate> cert =
      LoadCertificateFile(flags.Get("certificate"));
  if (!cert.ok()) return Fail(cert.status().ToString());

  const std::string key = flags.Get("key");
  if (key.empty()) return Fail("--key is required");
  Result<SessionSpec> spec = SessionSpec::FromCertificate(
      cert.value(), WatermarkKeySet::FromPassphrase(key));
  if (!spec.ok()) return Fail(spec.status().ToString());

  Result<Schema> schema = ParseSchemaSpec(flags.Get("schema"));
  if (!schema.ok()) return Fail(schema.status().ToString());

  // New rows: a CSV file, or stdin when --in is `-`.
  const std::string in = flags.Get("in");
  if (in.empty()) return Fail("--in is required (path or - for stdin)");
  Result<Relation> input = [&]() -> Result<Relation> {
    if (in != "-") return LoadRelation(in, schema.value());
    // Read stdin once, straight into one buffer, then parse it in parallel
    // chunks like a file.
    std::string text;
    std::size_t got = 0;
    do {
      text.resize(got + (std::size_t{1} << 20));
      got += std::fread(text.data() + got, 1, text.size() - got, stdin);
    } while (got == text.size());
    if (std::ferror(stdin)) return Status::IoError("cannot read stdin");
    text.resize(got);
    return ReadCsvString(text, schema.value());
  }();
  if (!input.ok()) return Fail(input.status().ToString());

  // The relation to grow: --base when given (CSV or .catm, sniffed), else
  // empty under the schema.
  Relation rel(schema.value());
  if (flags.Has("base")) {
    Result<Relation> base = LoadRelation(flags.Get("base"), schema.value());
    if (!base.ok()) return Fail(base.status().ToString());
    rel = std::move(base).value();
  }

  Result<StreamSession> session =
      StreamSession::Create(std::move(spec).value());
  if (!session.ok()) return Fail(session.status().ToString());

  // Size the grown columns once for every batch: doubling them batch by
  // batch would leave up to half their capacity unused (on huge pages).
  const std::size_t total = input.value().NumRows();
  rel.Reserve(rel.NumRows() + total);
  std::size_t fit = 0, altered = 0, hashed = 0, batches = 0;
  for (std::size_t at = 0; at < total; ++batches) {
    const std::size_t len = std::min(total - at, batch);
    Result<BatchReport> report =
        session->InsertRange(rel, input.value(), at, len);
    if (!report.ok()) return Fail(report.status().ToString());
    fit += report->fit_rows;
    altered += report->altered_rows;
    hashed += report->hashed_keys;
    at += len;
  }
  if (const Status s = SaveOutput(rel, flags); !s.ok()) {
    return Fail(s.ToString());
  }
  std::printf(
      "streamed %zu rows in %zu batches (<= %zu rows each): %zu fit, "
      "%zu altered, %zu keys hashed\nrelation now %zu tuples, wrote %s\n",
      total, batches, batch, fit, altered, hashed, rel.NumRows(),
      flags.Get("out").c_str());
  return 0;
}

int RunConvert(const Flags& flags) {
  const std::string in = flags.Get("in");
  const std::string out = flags.Get("out");
  if (in.empty()) return Fail("--in is required");
  if (out.empty()) return Fail("--out is required");
  CATMARK_CLI_ASSIGN_OR_FAIL(const std::size_t threads, GetThreads(flags));
  Result<Schema> schema = ParseSchemaSpec(flags.Get("schema"));
  if (!schema.ok()) return Fail(schema.status().ToString());
  Result<FileBytes> bytes = FileBytes::Open(in);
  if (!bytes.ok()) return Fail(bytes.status().ToString());
  const std::size_t in_size = bytes->view().size();
  // Sniff the input format; --threads picks the CSV chunk count (0 = auto).
  Result<Relation> rel =
      LooksLikeCatm(bytes->view())
          ? ReadCatmString(bytes->view(), schema.value())
          : ReadCsvString(bytes->view(), schema.value(), threads);
  if (!rel.ok()) return Fail(rel.status().ToString());
  if (const Status s = SaveRelation(rel.value(), out); !s.ok()) {
    return Fail(s.ToString());
  }
  std::error_code ec;
  std::uintmax_t out_size = std::filesystem::file_size(out, ec);
  if (ec) out_size = 0;
  std::printf("converted %s (%zu bytes) -> %s (%ju bytes), %zu tuples\n",
              in.c_str(), in_size, out.c_str(), out_size,
              rel.value().NumRows());
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: catmark "
      "<gen|embed|detect|sweep|attack|bandwidth|stream|convert> "
      "[--flags]\n"
      "see the header of tools/catmark_cli.cc for full flag reference\n");
  return 1;
}

struct Subcommand {
  std::string_view name;
  int (*run)(const Flags&);
  FlagSpec flags;
};

// Each subcommand's flag whitelist; see the header for what each flag does.
const Subcommand kSubcommands[] = {
    {"gen", RunGen, {{"out", "n", "items", "seed"}, {"sales"}}},
    {"embed",
     RunEmbed,
     {{"in", "out", "schema", "key", "wm", "e", "prf", "key-attr",
       "target-attr", "constraints", "certificate-out"}, {}}},
    {"detect",
     RunDetect,
     {{"in", "schema", "key", "certificate", "wm", "payload-length", "e",
       "prf", "key-attr", "target-attr", "alpha"}, {}}},
    {"sweep",
     RunSweep,
     {{"in", "schema", "certs", "certificate", "keys", "alpha", "top",
       "threads"}, {}}},
    {"attack",
     RunAttack,
     {{"in", "out", "schema", "type", "column", "fraction", "seed"}, {}}},
    {"bandwidth", RunBandwidth, {{"in", "schema", "e", "q"}, {}}},
    {"stream",
     RunStream,
     {{"in", "schema", "key", "certificate", "out", "base", "batch"}, {}}},
    {"convert", RunConvert, {{"in", "out", "schema", "threads"}, {}}},
};

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  for (const Subcommand& sub : kSubcommands) {
    if (sub.name != argv[1]) continue;
    const Result<Flags> flags = Flags::Parse(argc, argv, 2, sub.flags);
    if (!flags.ok()) {
      return Fail(std::string(sub.name) + ": " + flags.status().ToString());
    }
    return sub.run(flags.value());
  }
  return Usage();
}

}  // namespace
}  // namespace catmark

int main(int argc, char** argv) { return catmark::Main(argc, argv); }
