// Ablation — ECC choice: majority voting (the paper's code) vs. no ECC vs.
// block repetition vs. Hamming(7,4)+repetition, under the Figure 4 attack.

#include <cstdio>
#include <vector>

#include "attack/attacks.h"
#include "core/channel.h"
#include "exp/harness.h"

namespace catmark {
namespace {

void Run(const ExperimentConfig& config) {
  PrintTableTitle("Ablation: ECC family vs random-alteration attack (e=35)");
  std::printf("N=%zu  |wm|=%zu  passes=%zu\n", config.num_tuples,
              config.wm_bits, config.passes);
  PrintTableHeader({"attack (%)", "majority", "identity", "block-rep",
                    "hamming74"});

  for (const double attack : {0.1, 0.3, 0.5, 0.7}) {
    std::vector<std::string> row;
    row.push_back(FormatDouble(attack * 100.0, 0));
    for (const EccKind ecc :
         {EccKind::kMajorityVoting, EccKind::kIdentity,
          EccKind::kBlockRepetition, EccKind::kHamming74}) {
      WatermarkParams params;
      params.e = 35;
      params.ecc = ecc;
      if (ecc == EccKind::kIdentity) {
        // No-redundancy deployments concentrate the payload on |wm|
        // positions (otherwise most of the channel is wasted and clean
        // decoding already fails); this is the fair baseline.
        params.payload_length = config.wm_bits;
      } else {
        // Small-N runs (CI smoke) can derive a bandwidth N/e below the
        // code's minimum; pin the payload to the floor so every family
        // stays runnable at any N.
        const std::size_t min_payload = MinPayloadLength(ecc, config.wm_bits);
        const std::size_t derived = DerivePayloadLength(
            config.num_tuples, params.e, config.wm_bits);
        if (derived < min_payload) params.payload_length = min_payload;
      }
      const TrialOutcome outcome = RunAveragedTrial(
          config, params,
          [attack](const Relation& rel, std::uint64_t seed) {
            return SubsetAlterationAttack(rel, "A", attack, seed);
          });
      row.push_back(FormatDouble(outcome.mean_alteration_pct));
    }
    PrintTableRow(row);
  }
  std::printf(
      "\nExpected: identity (no redundancy) degrades fastest; majority\n"
      "voting and block repetition track each other under uniform attacks\n"
      "(damage is position-uniform); Hamming+repetition is comparable,\n"
      "trading repetitions for per-codeword correction.\n");
}

}  // namespace
}  // namespace catmark

int main(int argc, char** argv) {
  catmark::Run(catmark::ExperimentConfig::FromArgs(argc, argv));
  return 0;
}
