#include "core/certificate.h"

#include <cstring>
#include <limits>
#include <optional>
#include <set>

#include "common/hex.h"
#include "common/str_util.h"
#include "crypto/sha256.h"

namespace catmark {

namespace {

/// Type-tagged hex encoding of a Value ("i:<hex>", "d:<hex>", "s:<hex>").
std::string EncodeValue(const Value& v) {
  std::vector<std::uint8_t> bytes;
  v.SerializeForHash(bytes);
  // bytes[0] is the type tag from SerializeForHash; reuse it.
  const char tag = v.is_int64() ? 'i' : (v.is_double() ? 'd' : 's');
  return std::string(1, tag) + ":" +
         HexEncode(bytes.data() + 1, bytes.size() - 1);
}

Result<Value> DecodeValue(std::string_view text) {
  if (text.size() < 2 || text[1] != ':') {
    return Status::InvalidArgument("bad value encoding '" +
                                   std::string(text) + "'");
  }
  CATMARK_ASSIGN_OR_RETURN(const std::vector<std::uint8_t> bytes,
                           HexDecode(text.substr(2)));
  const char tag = text[0];
  if (tag == 'i' || tag == 'd') {
    if (bytes.size() != 8) {
      return Status::InvalidArgument("numeric value needs 8 bytes");
    }
    std::uint64_t raw = 0;
    for (std::uint8_t b : bytes) raw = (raw << 8) | b;
    if (tag == 'i') return Value(static_cast<std::int64_t>(raw));
    double d;
    static_assert(sizeof(d) == sizeof(raw));
    std::memcpy(&d, &raw, sizeof(d));
    return Value(d);
  }
  if (tag == 's') {
    if (bytes.size() < 8) {
      return Status::InvalidArgument("string value needs length prefix");
    }
    // Skip the 8-byte length prefix SerializeForHash added.
    return Value(std::string(bytes.begin() + 8, bytes.end()));
  }
  return Status::InvalidArgument("unknown value tag");
}

std::string_view EccName(EccKind kind) { return EccKindName(kind); }

Result<EccKind> EccFromName(std::string_view name) {
  for (const EccKind kind :
       {EccKind::kMajorityVoting, EccKind::kIdentity,
        EccKind::kBlockRepetition, EccKind::kHamming74}) {
    if (EccKindName(kind) == name) return kind;
  }
  return Status::InvalidArgument("unknown ecc '" + std::string(name) + "'");
}

/// A certificate's unsigned integer field: the whole value must be plain
/// decimal digits (no sign, no space) and lie in [min, max]. Claimants
/// write certificates, so a field that fails here is rejected instead of
/// read as 0 or wrapped.
Result<std::uint64_t> ParseUintField(std::string_view key,
                                     std::string_view text, std::uint64_t min,
                                     std::uint64_t max) {
  const std::optional<std::uint64_t> value = ParseUint(text, min, max);
  if (!value.has_value()) {
    return Status::InvalidArgument(
        "certificate field " + std::string(key) + "='" + std::string(text) +
        "' is not an integer in [" + std::to_string(min) + ", " +
        std::to_string(max) + "]");
  }
  return *value;
}

/// A certificate frequency: a finite number in [0, 1] (the histogram is
/// normalized to 1).
Result<double> ParseFrequency(std::string_view text) {
  const std::optional<double> value = ParseDouble(text);
  if (!value.has_value() || *value < 0.0 || *value > 1.0) {
    return Status::InvalidArgument("certificate frequency '" +
                                   std::string(text) +
                                   "' is not a number in [0, 1]");
  }
  return *value;
}

Result<BitIndexMode> BitIndexModeFromName(std::string_view name) {
  if (name == "modulo") return BitIndexMode::kModulo;
  if (name == "msb") return BitIndexMode::kMsbModL;
  return Status::InvalidArgument("unknown bit_index_mode '" +
                                 std::string(name) +
                                 "' (expected modulo or msb)");
}

Result<HashAlgorithm> HashFromName(std::string_view name) {
  for (const HashAlgorithm algo :
       {HashAlgorithm::kMd5, HashAlgorithm::kSha1, HashAlgorithm::kSha256}) {
    if (HashAlgorithmName(algo) == name) return algo;
  }
  return Status::InvalidArgument("unknown hash '" + std::string(name) + "'");
}

}  // namespace

std::string ComputeKeyCommitment(const WatermarkKeySet& keys) {
  Sha256 sha;
  sha.Reset();
  sha.Update(keys.k1.bytes().data(), keys.k1.bytes().size());
  sha.Update(keys.k2.bytes().data(), keys.k2.bytes().size());
  return sha.Finish().ToHex();
}

WatermarkCertificate WatermarkCertificate::Create(
    const WatermarkKeySet& keys, const WatermarkParams& params,
    const EmbedOptions& options, const EmbedReport& report,
    const BitVector& wm, std::vector<double> frequencies,
    std::string description) {
  WatermarkCertificate cert;
  cert.description = std::move(description);
  cert.key_attr = options.key_attr;
  cert.target_attr = options.target_attr;
  cert.params = params;
  // Record the backend the embedding *actually* ran with (params.prf may
  // have been nullopt/auto): dispute-time detection must re-verify with the
  // same primitive, whatever the environment says by then.
  cert.params.prf = report.prf;
  cert.payload_length = report.payload_length;
  cert.wm = wm;
  cert.domain = report.domain;
  cert.frequencies = std::move(frequencies);
  cert.key_commitment_hex = ComputeKeyCommitment(keys);
  return cert;
}

bool WatermarkCertificate::VerifyKeys(const WatermarkKeySet& keys) const {
  return ComputeKeyCommitment(keys) == key_commitment_hex;
}

std::string WatermarkCertificate::Serialize() const {
  std::string out;
  out += "catmark-certificate-v1\n";
  out += "description=" + description + "\n";
  out += "key_attr=" + key_attr + "\n";
  out += "target_attr=" + target_attr + "\n";
  out += "e=" + std::to_string(params.e) + "\n";
  out += "ecc=" + std::string(EccName(params.ecc)) + "\n";
  out += "hash=" + std::string(HashAlgorithmName(params.hash_algo)) + "\n";
  out += "prf=" +
         std::string(PrfKindName(params.prf.value_or(PrfKind::kKeyedHash))) +
         "\n";
  out += "bit_index_mode=" +
         std::string(params.bit_index_mode == BitIndexMode::kModulo
                         ? "modulo"
                         : "msb") +
         "\n";
  out += "min_category_keep=" + std::to_string(params.min_category_keep) +
         "\n";
  out += "payload_length=" + std::to_string(payload_length) + "\n";
  out += "wm=" + wm.ToString() + "\n";
  std::string domain_line = "domain=";
  for (std::size_t i = 0; i < domain.size(); ++i) {
    if (i > 0) domain_line += ',';
    domain_line += EncodeValue(domain.value(i));
  }
  out += domain_line + "\n";
  std::string freq_line = "frequencies=";
  for (std::size_t i = 0; i < frequencies.size(); ++i) {
    if (i > 0) freq_line += ',';
    freq_line += StrFormat("%.17g", frequencies[i]);
  }
  out += freq_line + "\n";
  out += "key_commitment=" + key_commitment_hex + "\n";
  return out;
}

Result<WatermarkCertificate> WatermarkCertificate::Deserialize(
    std::string_view text) {
  const std::vector<std::string> lines = StrSplit(std::string(text), '\n');
  if (lines.empty() || StrTrim(lines[0]) != "catmark-certificate-v1") {
    return Status::InvalidArgument("not a catmark certificate");
  }
  WatermarkCertificate cert;
  // Certificates that predate the PRF subsystem carry no `prf=` field;
  // they were embedded with the legacy keyed hash. Pinning the resolved
  // kind here (instead of leaving auto) keeps dispute-time detection
  // independent of whatever CATMARK_PRF says by then.
  cert.params.prf = PrfKind::kKeyedHash;
  std::set<std::string_view> seen;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string_view line = StrTrim(lines[i]);
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("certificate line missing '='");
    }
    const std::string_view key = line.substr(0, eq);
    const std::string_view value = line.substr(eq + 1);
    // A repeated field would silently let the last copy win.
    if (!seen.insert(key).second) {
      return Status::InvalidArgument("duplicate certificate field '" +
                                     std::string(key) + "'");
    }
    if (key == "description") {
      cert.description = std::string(value);
    } else if (key == "key_attr") {
      cert.key_attr = std::string(value);
    } else if (key == "target_attr") {
      cert.target_attr = std::string(value);
    } else if (key == "e") {
      CATMARK_ASSIGN_OR_RETURN(
          cert.params.e,
          ParseUintField(key, value, 1,
                         std::numeric_limits<std::uint64_t>::max()));
    } else if (key == "ecc") {
      CATMARK_ASSIGN_OR_RETURN(cert.params.ecc, EccFromName(value));
    } else if (key == "hash") {
      CATMARK_ASSIGN_OR_RETURN(cert.params.hash_algo, HashFromName(value));
    } else if (key == "prf") {
      CATMARK_ASSIGN_OR_RETURN(const PrfKind prf, PrfKindFromName(value));
      cert.params.prf = prf;
    } else if (key == "bit_index_mode") {
      CATMARK_ASSIGN_OR_RETURN(cert.params.bit_index_mode,
                               BitIndexModeFromName(value));
    } else if (key == "min_category_keep") {
      CATMARK_ASSIGN_OR_RETURN(
          const std::uint64_t keep,
          ParseUintField(key, value, 0, std::numeric_limits<long>::max()));
      cert.params.min_category_keep = static_cast<long>(keep);
    } else if (key == "payload_length") {
      // The 32-bit bound is the one TuplePlanOptions already assumes.
      // Detection allocates nothing in proportion to this field (its vote
      // tally is sparse), so any value in range costs an ordinary pass.
      CATMARK_ASSIGN_OR_RETURN(
          cert.payload_length,
          ParseUintField(key, value, 1,
                         std::numeric_limits<std::uint32_t>::max()));
    } else if (key == "wm") {
      CATMARK_ASSIGN_OR_RETURN(cert.wm, BitVector::FromString(value));
    } else if (key == "domain") {
      std::vector<Value> values;
      if (!value.empty()) {
        for (const std::string& field : StrSplit(value, ',')) {
          CATMARK_ASSIGN_OR_RETURN(Value v, DecodeValue(field));
          values.push_back(std::move(v));
        }
      }
      if (!values.empty()) {
        CATMARK_ASSIGN_OR_RETURN(cert.domain,
                                 CategoricalDomain::FromValues(values));
      }
    } else if (key == "frequencies") {
      if (!value.empty()) {
        for (const std::string& field : StrSplit(value, ',')) {
          CATMARK_ASSIGN_OR_RETURN(const double f, ParseFrequency(field));
          cert.frequencies.push_back(f);
        }
      }
    } else if (key == "key_commitment") {
      cert.key_commitment_hex = std::string(value);
    } else {
      return Status::InvalidArgument("unknown certificate field '" +
                                     std::string(key) + "'");
    }
  }
  if (cert.wm.empty() || cert.payload_length == 0) {
    return Status::InvalidArgument("certificate missing wm/payload_length");
  }
  if (cert.payload_length < cert.wm.size()) {
    return Status::InvalidArgument(
        "certificate payload_length is shorter than the watermark");
  }
  return cert;
}

Result<CertifiedDetection> DetectWithCertificate(
    const Relation& suspect, const WatermarkCertificate& certificate,
    const WatermarkKeySet& keys, double alpha) {
  if (!certificate.VerifyKeys(keys)) {
    return Status::FailedPrecondition(
        "supplied keys do not match the certificate's key commitment");
  }
  const Detector detector(keys, certificate.params);
  DetectOptions options;
  options.key_attr = certificate.key_attr;
  options.target_attr = certificate.target_attr;
  options.payload_length = certificate.payload_length;
  if (!certificate.domain.empty()) options.domain = certificate.domain;
  CertifiedDetection out;
  CATMARK_ASSIGN_OR_RETURN(
      out.detection,
      detector.Detect(suspect, options, certificate.wm.size()));
  out.decision = DecideOwnership(certificate.wm, out.detection.wm, alpha);
  return out;
}

bool operator==(const WatermarkCertificate& a, const WatermarkCertificate& b) {
  return a.description == b.description && a.key_attr == b.key_attr &&
         a.target_attr == b.target_attr && a.params.e == b.params.e &&
         a.params.ecc == b.params.ecc &&
         a.params.hash_algo == b.params.hash_algo &&
         a.params.prf.value_or(PrfKind::kKeyedHash) ==
             b.params.prf.value_or(PrfKind::kKeyedHash) &&
         a.params.bit_index_mode == b.params.bit_index_mode &&
         a.params.min_category_keep == b.params.min_category_keep &&
         a.payload_length == b.payload_length && a.wm == b.wm &&
         a.domain == b.domain && a.frequencies == b.frequencies &&
         a.key_commitment_hex == b.key_commitment_hex;
}

}  // namespace catmark
