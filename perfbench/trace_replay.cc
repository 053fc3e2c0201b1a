// trace_replay — in-process replay of `catmark` jobs with a span around each
// library call, for the benchmark's per-layer metrics.
//
//   trace_replay --host
//   trace_replay --jobs jobs.tsv --trace-out trace.json < passes
//
// jobs.tsv holds one `catmark` command line per line, its arguments separated
// by tabs. Supported subcommands are the ones the benchmark runs: `embed`,
// `detect --certificate`, `sweep --certificate --keys` and `stream`. Each job
// replays the public calls tools/catmark_cli.cc makes for that subcommand, in
// the same order, up to and including the release of everything it built.
// Each line read from standard input runs one pass over the jobs, in file
// order, and is answered with `done <jobs so far>`; end of input ends the
// run.
//
// Spans are flat children of their job and stay in memory until the run
// ends; then the whole run is written as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto). A span is named `<layer>.<call>` after the
// repository module the call lives in. Each job's span carries the counters
// its reports returned (rows, messages hashed, verdicts) in its args.
//
// --host prints the configuration the library resolves in this environment
// (SIMD level, worker count, build type, compiler) as one JSON object.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/str_util.h"
#include "core/catmark.h"
#include "crypto/siphash_simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER __VERSION__
#endif

namespace catmark {
namespace {

using Clock = std::chrono::steady_clock;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// The CLI's flag grammar: `--name value`, or `--name` alone as "true" when it
// is the last token. tools/catmark_cli.cc keeps its flag and schema parsers
// file-local, so the replay carries copies with the same grammar.
class Flags {
 public:
  explicit Flags(const std::vector<std::string>& args) {
    for (std::size_t i = 1; i < args.size(); ++i) {
      if (args[i].rfind("--", 0) != 0) continue;
      if (i + 1 < args.size()) {
        values_[args[i].substr(2)] = args[i + 1];
        ++i;
      } else {
        values_[args[i].substr(2)] = "true";
      }
    }
  }
  std::string Get(const std::string& name,
                  const std::string& fallback = "") const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }
  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  double GetDouble(const std::string& name, double fallback) const {
    return Has(name) ? std::strtod(Get(name).c_str(), nullptr) : fallback;
  }
  std::uint64_t GetUint(const std::string& name, std::uint64_t fallback) const {
    return Has(name) ? std::strtoull(Get(name).c_str(), nullptr, 10) : fallback;
  }

 private:
  std::map<std::string, std::string> values_;
};

// ------------------------------------------------------------------ tracing

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

struct Job {
  std::size_t index = 0;
  std::string command;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::vector<Span> spans;
  // Pre-rendered JSON values of the job's counters and verdicts.
  std::vector<std::pair<std::string, std::string>> args;

  void Count(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    args.emplace_back(key, buf);
  }
  void Note(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) quoted += c;
    }
    args.emplace_back(key, quoted + "\"");
  }
};

// Times one call: the span opens at construction and closes at destruction.
class Scope {
 public:
  Scope(Job& job, const char* name) : job_(job), name_(name), start_(NowNs()) {}
  ~Scope() { job_.spans.push_back({name_, start_, NowNs()}); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Job& job_;
  const char* name_;
  std::int64_t start_;
};

std::size_t FileSize(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::size_t>(size);
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream f(path);
  if (!f) return Status::NotFound("cannot read " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// Same grammar as the CLI's --schema: `name:type[:flag]`, comma-separated.
Result<Schema> ParseSchemaSpec(const std::string& spec) {
  std::vector<Column> columns;
  std::string pk;
  for (const std::string& field : StrSplit(spec, ',')) {
    const std::vector<std::string> parts = StrSplit(field, ':');
    if (parts.size() < 2 || parts.size() > 3) {
      return Status::InvalidArgument("bad schema field '" + field + "'");
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

Result<Relation> LoadInput(const Flags& flags, const std::string& flag,
                           Job& job) {
  const Scope span(job, "relation.load");
  CATMARK_ASSIGN_OR_RETURN(const Schema schema,
                           ParseSchemaSpec(flags.Get("schema")));
  return LoadRelation(flags.Get(flag), schema);
}

// ------------------------------------------------------------- subcommands

// `catmark embed`: load, derive keys, embed, save, write the certificate,
// release.
Status ReplayEmbed(const Flags& flags, Job& job) {
  job.Count("in_bytes", static_cast<double>(FileSize(flags.Get("in"))));
  std::optional<Relation> rel;
  {
    CATMARK_ASSIGN_OR_RETURN(Relation loaded, LoadInput(flags, "in", job));
    rel.emplace(std::move(loaded));
  }
  CATMARK_ASSIGN_OR_RETURN(const BitVector wm,
                           BitVector::FromString(flags.Get("wm")));
  WatermarkParams params;
  params.e = flags.GetUint("e", 60);
  if (flags.Has("prf")) {
    CATMARK_ASSIGN_OR_RETURN(params.prf, PrfKindFromName(flags.Get("prf")));
  }
  EmbedOptions options;
  options.key_attr = flags.Get("key-attr", "K");
  options.target_attr = flags.Get("target-attr", "A");

  std::optional<WatermarkKeySet> keys;
  std::optional<Embedder> embedder;
  {
    const Scope span(job, "core.keys");
    keys.emplace(WatermarkKeySet::FromPassphrase(flags.Get("key")));
    embedder.emplace(*keys, params);
  }
  std::optional<EmbedReport> report;
  {
    const Scope span(job, "core.embed");
    CATMARK_ASSIGN_OR_RETURN(EmbedReport r,
                             embedder->Embed(*rel, options, wm, nullptr));
    report.emplace(std::move(r));
  }
  {
    const Scope span(job, "relation.save");
    CATMARK_RETURN_IF_ERROR(SaveRelation(*rel, flags.Get("out")));
  }
  if (flags.Has("certificate-out")) {
    const Scope span(job, "core.cert");
    const WatermarkCertificate cert = WatermarkCertificate::Create(
        *keys, params, options, *report, wm, {}, flags.Get("in"));
    std::ofstream f(flags.Get("certificate-out"));
    if (!f) return Status::Internal("cannot write certificate");
    f << cert.Serialize();
  }
  job.Count("rows", static_cast<double>(rel->NumRows()));
  job.Count("rows_scanned", static_cast<double>(report->rows_scanned));
  job.Count("messages_hashed", static_cast<double>(report->messages_hashed));
  job.Count("fit_tuples", static_cast<double>(report->fit_tuples));
  {
    const Scope span(job, "core.release");
    embedder.reset();
    keys.reset();
  }
  const Scope span(job, "relation.release");
  rel.reset();
  return Status::OK();
}

// `catmark detect --certificate`: load, read the certificate, derive keys,
// detect and decide, release.
Status ReplayDetect(const Flags& flags, Job& job) {
  job.Count("in_bytes", static_cast<double>(FileSize(flags.Get("in"))));
  std::optional<Relation> rel;
  {
    CATMARK_ASSIGN_OR_RETURN(Relation loaded, LoadInput(flags, "in", job));
    rel.emplace(std::move(loaded));
  }
  std::optional<WatermarkCertificate> cert;
  {
    const Scope span(job, "core.cert");
    CATMARK_ASSIGN_OR_RETURN(const std::string text,
                             ReadFile(flags.Get("certificate")));
    CATMARK_ASSIGN_OR_RETURN(WatermarkCertificate c,
                             WatermarkCertificate::Deserialize(text));
    cert.emplace(std::move(c));
  }
  std::optional<WatermarkKeySet> keys;
  {
    const Scope span(job, "core.keys");
    keys.emplace(WatermarkKeySet::FromPassphrase(flags.Get("key")));
  }
  std::optional<CertifiedDetection> result;
  {
    const Scope span(job, "core.detect");
    CATMARK_ASSIGN_OR_RETURN(
        CertifiedDetection r,
        DetectWithCertificate(*rel, *cert, *keys,
                              flags.GetDouble("alpha", 1e-3)));
    result.emplace(std::move(r));
  }
  job.Count("rows", static_cast<double>(rel->NumRows()));
  job.Count("rows_scanned",
            static_cast<double>(result->detection.rows_scanned));
  job.Count("messages_hashed",
            static_cast<double>(result->detection.messages_hashed));
  job.Count("matched_bits", static_cast<double>(result->decision.matched_bits));
  job.Count("wm_bits", static_cast<double>(cert->wm.size()));
  job.Count("owned", result->decision.owned ? 1.0 : 0.0);
  {
    const Scope span(job, "core.release");
    result.reset();
    keys.reset();
    cert.reset();
  }
  const Scope span(job, "relation.release");
  rel.reset();
  return Status::OK();
}

// `catmark sweep --certificate --keys`: load, build the candidates (one
// certificate, one key set per `id:passphrase` line), sweep, release.
Status ReplaySweep(const Flags& flags, Job& job) {
  job.Count("in_bytes", static_cast<double>(FileSize(flags.Get("in"))));
  std::optional<Relation> rel;
  {
    CATMARK_ASSIGN_OR_RETURN(Relation loaded, LoadInput(flags, "in", job));
    rel.emplace(std::move(loaded));
  }
  std::vector<OwnershipCandidate> candidates;
  {
    const Scope span(job, "core.cert");
    CATMARK_ASSIGN_OR_RETURN(const std::string cert_text,
                             ReadFile(flags.Get("certificate")));
    CATMARK_ASSIGN_OR_RETURN(const WatermarkCertificate cert,
                             WatermarkCertificate::Deserialize(cert_text));
    CATMARK_ASSIGN_OR_RETURN(const std::string keys_text,
                             ReadFile(flags.Get("keys")));
    std::size_t lineno = 0;
    for (std::string line : StrSplit(keys_text, '\n')) {
      ++lineno;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty() || line[0] == '#') continue;
      OwnershipCandidate candidate;
      const std::size_t colon = line.find(':');
      std::string passphrase = line;
      candidate.id = "key#" + std::to_string(lineno);
      if (colon != std::string::npos) {
        candidate.id = line.substr(0, colon);
        passphrase = line.substr(colon + 1);
      }
      candidate.certificate = cert;
      candidate.keys = WatermarkKeySet::FromPassphrase(passphrase);
      candidates.push_back(std::move(candidate));
    }
  }
  std::optional<WatermarkService> service;
  std::optional<SweepReport> report;
  {
    const Scope span(job, "service.sweep");
    ServiceOptions service_options;
    service_options.num_threads =
        static_cast<std::size_t>(flags.GetUint("threads", 0));
    service.emplace(service_options);
    CATMARK_ASSIGN_OR_RETURN(
        SweepReport r,
        service->SweepOwnership(
            *rel, std::span<const OwnershipCandidate>(candidates),
            flags.GetDouble("alpha", 1e-3)));
    report.emplace(std::move(r));
  }
  job.Count("rows", static_cast<double>(rel->NumRows()));
  job.Count("candidates", static_cast<double>(candidates.size()));
  job.Count("rows_scanned",
            static_cast<double>(rel->NumRows() * candidates.size()));
  job.Count("messages_hashed", static_cast<double>(report->messages_hashed));
  job.Count("plans_built", static_cast<double>(report->plans_built));
  job.Count("failed_candidates", static_cast<double>(report->failed.size()));
  std::size_t owned = 0;
  for (const SweepMatch& match : report->ranked) owned += match.decision.owned;
  job.Count("owned", static_cast<double>(owned));
  if (!report->ranked.empty()) job.Note("top_id", report->ranked.front().id);
  {
    const Scope span(job, "service.release");
    report.reset();
    service.reset();
  }
  {
    const Scope span(job, "core.release");
    candidates = {};
  }
  const Scope span(job, "relation.release");
  rel.reset();
  return Status::OK();
}

// `catmark stream`: read the certificate and open the session spec, load the
// new rows and the base, materialize rows, insert batch by batch, save,
// release.
Status ReplayStream(const Flags& flags, Job& job) {
  job.Count("in_bytes", static_cast<double>(FileSize(flags.Get("in")) +
                                            FileSize(flags.Get("base"))));
  std::optional<SessionSpec> spec;
  {
    const Scope span(job, "core.cert");
    CATMARK_ASSIGN_OR_RETURN(const std::string text,
                             ReadFile(flags.Get("certificate")));
    CATMARK_ASSIGN_OR_RETURN(const WatermarkCertificate cert,
                             WatermarkCertificate::Deserialize(text));
    CATMARK_ASSIGN_OR_RETURN(
        SessionSpec s,
        SessionSpec::FromCertificate(
            cert, WatermarkKeySet::FromPassphrase(flags.Get("key"))));
    spec.emplace(std::move(s));
  }
  std::optional<Relation> input;
  {
    CATMARK_ASSIGN_OR_RETURN(Relation loaded, LoadInput(flags, "in", job));
    input.emplace(std::move(loaded));
  }
  std::optional<Relation> rel;
  {
    CATMARK_ASSIGN_OR_RETURN(Relation loaded, LoadInput(flags, "base", job));
    rel.emplace(std::move(loaded));
  }
  const std::size_t base_rows = rel->NumRows();
  std::optional<StreamSession> session;
  {
    const Scope span(job, "service.session");
    CATMARK_ASSIGN_OR_RETURN(StreamSession s,
                             StreamSession::Create(std::move(*spec)));
    session.emplace(std::move(s));
  }
  std::vector<Row> rows;
  {
    const Scope span(job, "relation.row_materialize");
    rows.reserve(input->NumRows());
    for (std::size_t i = 0; i < input->NumRows(); ++i) {
      rows.push_back(input->row(i));
    }
  }
  const std::size_t batch = std::max<std::size_t>(1, flags.GetUint("batch", 1024));
  std::size_t hashed = 0, fit = 0;
  for (std::size_t at = 0; at < rows.size();) {
    const std::size_t len = std::min(rows.size() - at, batch);
    const Scope span(job, "service.insert");
    CATMARK_ASSIGN_OR_RETURN(
        const BatchReport report,
        session->InsertBatch(*rel, std::span<Row>(&rows[at], len)));
    hashed += report.hashed_keys;
    fit += report.fit_rows;
    at += len;
  }
  {
    const Scope span(job, "relation.save");
    CATMARK_RETURN_IF_ERROR(SaveRelation(*rel, flags.Get("out")));
  }
  job.Count("rows", static_cast<double>(rel->NumRows()));
  job.Count("base_rows", static_cast<double>(base_rows));
  job.Count("rows_scanned", static_cast<double>(rows.size()));
  job.Count("messages_hashed", static_cast<double>(hashed));
  job.Count("fit_rows", static_cast<double>(fit));
  {
    const Scope span(job, "relation.release");
    rows = {};
  }
  {
    const Scope span(job, "service.release");
    session.reset();
  }
  const Scope span(job, "relation.release");
  rel.reset();
  input.reset();
  return Status::OK();
}

Status Replay(const std::vector<std::string>& args, Job& job) {
  if (args.empty()) return Status::InvalidArgument("empty job line");
  const Flags flags(args);
  const std::string& command = args[0];
  if (command == "embed") return ReplayEmbed(flags, job);
  if (command == "detect" && flags.Has("certificate")) {
    return ReplayDetect(flags, job);
  }
  if (command == "sweep" && flags.Has("keys")) return ReplaySweep(flags, job);
  if (command == "stream") return ReplayStream(flags, job);
  return Status::InvalidArgument("cannot replay '" + command + "'");
}

// --------------------------------------------------------------- output

std::string Micros(std::int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e3);
  return buf;
}

Status WriteTrace(const std::string& path, const std::vector<Job>& jobs) {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot write " + path);
  const std::int64_t origin = jobs.empty() ? 0 : jobs.front().start_ns;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Job& job : jobs) {
    out << (first ? "\n" : ",\n") << "{\"name\":\"job\",\"cat\":\"trace\","
        << "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << Micros(job.start_ns - origin)
        << ",\"dur\":" << Micros(job.end_ns - job.start_ns)
        << ",\"args\":{\"job\":" << job.index << ",\"command\":\""
        << job.command << "\"";
    for (const auto& [key, value] : job.args) {
      out << ",\"" << key << "\":" << value;
    }
    out << "}}";
    first = false;
    for (const Span& span : job.spans) {
      const std::string name = span.name;
      out << ",\n{\"name\":\"" << name << "\",\"cat\":\""
          << name.substr(0, name.find('.')) << "\",\"ph\":\"X\",\"pid\":1,"
          << "\"tid\":1,\"ts\":" << Micros(span.start_ns - origin)
          << ",\"dur\":" << Micros(span.end_ns - span.start_ns)
          << ",\"args\":{\"job\":" << job.index << "}}";
    }
  }
  out << "\n]}\n";
  out.close();
  if (!out) return Status::Internal("short write to " + path);
  return Status::OK();
}

int PrintHost() {
  std::printf(
      "{\"simd\":\"%s\",\"hardware_simd\":\"%s\",\"threads\":%zu,"
      "\"build_type\":\"%s\",\"compiler\":\"%s\"}\n",
      std::string(SimdLevelName(ActiveSimdLevel())).c_str(),
      std::string(SimdLevelName(HardwareSimdLevel())).c_str(),
      DefaultThreadCount(), PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);
  return 0;
}

int Main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  args.insert(args.begin(), "trace_replay");
  const Flags flags(args);
  if (flags.Has("host")) return PrintHost();
  const std::string trace_out = flags.Get("trace-out");
  if (!flags.Has("jobs") || trace_out.empty()) {
    std::fprintf(stderr,
                 "usage: trace_replay --jobs jobs.tsv --trace-out trace.json "
                 "| --host\n");
    return 1;
  }
  const Result<std::string> text = ReadFile(flags.Get("jobs"));
  if (!text.ok()) {
    std::fprintf(stderr, "trace_replay: %s\n", text.status().ToString().c_str());
    return 1;
  }
  std::vector<std::vector<std::string>> lines;
  for (const std::string& line : StrSplit(text.value(), '\n')) {
    if (!line.empty()) lines.push_back(StrSplit(line, '\t'));
  }
  if (lines.empty()) {
    std::fprintf(stderr, "trace_replay: no jobs\n");
    return 1;
  }

  // One pass over every job line per `pass` line on stdin, so the caller
  // can interleave passes with its own CLI jobs; EOF ends the run.
  std::vector<Job> jobs;
  std::string request;
  while (std::getline(std::cin, request)) {
    for (const std::vector<std::string>& line : lines) {
      // Like the CLI jobs, each replay writes fresh output files.
      const Flags job_flags(line);
      for (const char* flag : {"out", "certificate-out"}) {
        std::error_code ec;
        if (job_flags.Has(flag)) std::filesystem::remove(job_flags.Get(flag), ec);
      }
      Job job;
      job.index = jobs.size();
      job.command = line[0];
      job.start_ns = NowNs();
      const Status status = Replay(line, job);
      job.end_ns = NowNs();
      if (!status.ok()) {
        std::fprintf(stderr, "trace_replay: job %zu (%s): %s\n", job.index,
                     job.command.c_str(), status.ToString().c_str());
        return 1;
      }
      jobs.push_back(std::move(job));
    }
    std::printf("done %zu\n", jobs.size());
    std::fflush(stdout);
  }
  if (const Status s = WriteTrace(trace_out, jobs); !s.ok()) {
    std::fprintf(stderr, "trace_replay: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("replayed %zu jobs, trace in %s\n", jobs.size(),
              trace_out.c_str());
  return 0;
}

}  // namespace
}  // namespace catmark

int main(int argc, char** argv) { return catmark::Main(argc, argv); }
