#include "exp/harness.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/check.h"
#include "core/detector.h"
#include "core/keys.h"
#include "gen/sales_gen.h"
#include "random/rng.h"
#include "random/stats.h"

namespace catmark {

namespace {

std::size_t EnvSizeT(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
}

[[noreturn]] void PrintUsageAndExit(const char* argv0, int exit_code) {
  std::fprintf(
      exit_code == 0 ? stdout : stderr,
      "Usage: %s [--n=<tuples>] [--passes=<k>] [--domain=<size>]\n"
      "          [--wm-bits=<b>] [--zipf=<s>] [--seed=<s>]\n"
      "          [--prf=<%s>]\n"
      "          [--dump-relation=<path.csv|path.catm>] [--help]\n"
      "Flags override the CATMARK_N / CATMARK_PASSES / CATMARK_DOMAIN /\n"
      "CATMARK_FULL / CATMARK_PRF environment variables.\n",
      argv0, RegisteredPrfNameList().c_str());
  std::exit(exit_code);
}

std::size_t ParseSizeTOrDie(const char* flag, const char* value,
                            const char* argv0) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  // Leading digit required: strtoull itself would skip whitespace and
  // wrap negative input through 2^64.
  if (!std::isdigit(static_cast<unsigned char>(*value)) || end == nullptr ||
      *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "Invalid value for %s: '%s'\n", flag, value);
    PrintUsageAndExit(argv0, 2);
  }
  return static_cast<std::size_t>(parsed);
}

double ParseDoubleOrDie(const char* flag, const char* value,
                        const char* argv0) {
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  if (*value == '\0' || end == nullptr || *end != '\0') {
    std::fprintf(stderr, "Invalid value for %s: '%s'\n", flag, value);
    PrintUsageAndExit(argv0, 2);
  }
  return parsed;
}

/// Matches `--name=value` or `--name value` (consuming the next argv slot);
/// returns nullptr when `arg` is not `name`.
const char* FlagValue(const char* name, int argc, char** argv, int* i) {
  const char* arg = argv[*i];
  const std::size_t name_len = std::strlen(name);
  if (std::strncmp(arg, name, name_len) != 0) return nullptr;
  if (arg[name_len] == '=') return arg + name_len + 1;
  if (arg[name_len] == '\0') {
    if (*i + 1 >= argc) PrintUsageAndExit(argv[0], 2);
    return argv[++*i];
  }
  return nullptr;
}

}  // namespace

ExperimentConfig ExperimentConfig::FromEnv() {
  ExperimentConfig config;
  const char* full = std::getenv("CATMARK_FULL");
  if (full != nullptr && full[0] == '1') {
    config.num_tuples = 141000;  // the paper's maximum ItemScan sample
  }
  config.num_tuples = EnvSizeT("CATMARK_N", config.num_tuples);
  config.passes = EnvSizeT("CATMARK_PASSES", config.passes);
  config.domain_size = EnvSizeT("CATMARK_DOMAIN", config.domain_size);
  return config;
}

ExperimentConfig ExperimentConfig::FromArgs(int argc, char** argv) {
  ExperimentConfig config = FromEnv();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      PrintUsageAndExit(argv[0], 0);
    }
    const char* value = nullptr;
    if ((value = FlagValue("--n", argc, argv, &i)) != nullptr) {
      config.num_tuples = ParseSizeTOrDie("--n", value, argv[0]);
    } else if ((value = FlagValue("--passes", argc, argv, &i)) != nullptr) {
      config.passes = ParseSizeTOrDie("--passes", value, argv[0]);
    } else if ((value = FlagValue("--domain", argc, argv, &i)) != nullptr) {
      config.domain_size = ParseSizeTOrDie("--domain", value, argv[0]);
    } else if ((value = FlagValue("--wm-bits", argc, argv, &i)) != nullptr) {
      config.wm_bits = ParseSizeTOrDie("--wm-bits", value, argv[0]);
    } else if ((value = FlagValue("--zipf", argc, argv, &i)) != nullptr) {
      config.zipf_s = ParseDoubleOrDie("--zipf", value, argv[0]);
    } else if ((value = FlagValue("--seed", argc, argv, &i)) != nullptr) {
      config.base_seed = ParseSizeTOrDie("--seed", value, argv[0]);
    } else if ((value = FlagValue("--prf", argc, argv, &i)) != nullptr) {
      const Result<PrfKind> prf = PrfKindFromName(value);
      if (!prf.ok()) {
        std::fprintf(stderr, "%s\n", prf.status().ToString().c_str());
        PrintUsageAndExit(argv[0], 2);
      }
      config.prf = prf.value();
    } else if ((value = FlagValue("--dump-relation", argc, argv, &i)) !=
               nullptr) {
      config.dump_relation = value;
    } else {
      std::fprintf(stderr, "Unknown flag: %s\n", argv[i]);
      PrintUsageAndExit(argv[0], 2);
    }
  }
  if (config.num_tuples == 0 || config.passes == 0 || config.domain_size < 2 ||
      config.wm_bits == 0 || !(config.zipf_s >= 0.0)) {
    std::fprintf(stderr, "Invalid configuration: need n > 0, passes > 0, "
                         "domain >= 2, wm-bits > 0, zipf >= 0\n");
    std::exit(2);
  }
  return config;
}

BitVector MakeWatermark(std::size_t bits, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  return BitVector::FromGenerator(bits, [&] { return rng.Next(); });
}

TrialOutcome RunAveragedTrial(const ExperimentConfig& config,
                              const WatermarkParams& params,
                              const AttackFn& attack) {
  // One data set per configuration (the paper watermarks the same sample
  // with 15 different keys to smooth data-dependent biases).
  KeyedCategoricalConfig gen;
  gen.num_tuples = config.num_tuples;
  gen.domain_size = config.domain_size;
  gen.zipf_s = config.zipf_s;
  gen.seed = config.base_seed;
  const Relation original = GenerateKeyedCategorical(gen);

  // The config-level PRF override wins over whatever the caller's params
  // say; otherwise params flow through untouched (auto resolution included).
  WatermarkParams effective_params = params;
  if (config.prf.has_value()) effective_params.prf = config.prf;

  std::vector<double> alterations;
  double fill_sum = 0.0;
  double embed_alteration_sum = 0.0;

  for (std::size_t pass = 0; pass < config.passes; ++pass) {
    const std::uint64_t pass_seed = config.base_seed + 7919 * (pass + 1);
    const WatermarkKeySet keys = WatermarkKeySet::FromSeed(pass_seed);
    const BitVector wm = MakeWatermark(config.wm_bits, pass_seed ^ 0xabcdef);

    Relation marked = original;
    const Embedder embedder(keys, effective_params);
    EmbedOptions embed_options;
    embed_options.key_attr = "K";
    embed_options.target_attr = "A";
    Result<EmbedReport> embed_report =
        embedder.Embed(marked, embed_options, wm);
    CATMARK_CHECK(embed_report.ok()) << embed_report.status().ToString();

    Result<Relation> attacked = attack(marked, pass_seed ^ 0x5eed);
    CATMARK_CHECK(attacked.ok()) << attacked.status().ToString();

    WatermarkParams detect_params = effective_params;
    detect_params.payload_length = embed_report.value().payload_length;
    const Detector detector(keys, detect_params);
    DetectOptions detect_options;
    detect_options.key_attr = "K";
    detect_options.target_attr = "A";
    detect_options.domain = embed_report.value().domain;
    Result<DetectionResult> detection =
        detector.Detect(attacked.value(), detect_options, config.wm_bits);
    CATMARK_CHECK(detection.ok()) << detection.status().ToString();

    const MatchStats match = MatchWatermark(wm, detection.value().wm);
    alterations.push_back(match.mark_alteration * 100.0);
    fill_sum += detection.value().payload_fill;
    embed_alteration_sum += embed_report.value().alteration_fraction * 100.0;
  }

  const MeanStd ms = ComputeMeanStd(alterations);
  TrialOutcome outcome;
  outcome.mean_alteration_pct = ms.mean;
  outcome.stddev_alteration_pct = ms.stddev;
  outcome.mean_payload_fill =
      fill_sum / static_cast<double>(config.passes);
  outcome.mean_embed_alteration_pct =
      embed_alteration_sum / static_cast<double>(config.passes);
  outcome.passes = config.passes;
  return outcome;
}

void PrintTableTitle(const std::string& title) {
  std::printf("\n== %s ==\n", title.c_str());
}

void PrintTableHeader(const std::vector<std::string>& columns) {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    std::printf("%s%-18s", i == 0 ? "" : " ", columns[i].c_str());
  }
  std::printf("\n");
  for (std::size_t i = 0; i < columns.size(); ++i) {
    std::printf("%s%-18s", i == 0 ? "" : " ", "------------------");
  }
  std::printf("\n");
}

void PrintTableRow(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::printf("%s%-18s", i == 0 ? "" : " ", cells[i].c_str());
  }
  std::printf("\n");
}

std::string FormatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace catmark
