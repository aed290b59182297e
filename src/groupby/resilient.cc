#include "groupby/resilient.h"

#include <algorithm>
#include <string>
#include <utility>

namespace gpujoin::groupby {

Result<ResilientGroupByResult> RunGroupByResilient(
    vgpu::Device& device, GroupByAlgo algo, const Table& input,
    const GroupBySpec& spec, const GroupByResilienceOptions& options) {
  ResilientGroupByResult res;
  GroupByAlgo current = algo;
  GroupByOptions gopts = options.groupby;

  LadderPolicy policy;
  policy.fn = "RunGroupByResilient";
  policy.op = "groupby";
  policy.algo = GroupByAlgoName(algo);
  policy.max_attempts = options.max_attempts;
  policy.backoff = options.backoff;
  policy.backoff_before_escalate = true;
  policy.attempt_span = [&](int attempt) {
    return "attempt_" + std::to_string(attempt) + ":" +
           GroupByAlgoName(current);
  };
  // The input table is resident and stays so: the driver's rollback
  // watermark includes it.
  policy.attempt = [&]() -> Status {
    GPUJOIN_ASSIGN_OR_RETURN(res.run,
                             RunGroupBy(device, current, input, spec, gopts));
    res.algo_used = current;
    return Status::OK();
  };
  policy.escalate = [&](const Status& error,
                        int /*attempt*/) -> std::optional<LadderRung> {
    if (current == GroupByAlgo::kHashGlobal) {
      current = GroupByAlgo::kHashPartitioned;
      return LadderRung{{"algo_fallback", "GB-HASH-GLOBAL failed (" +
                                              error.message() +
                                              "); falling back to GB-HASH-PART"}};
    }
    if (current != GroupByAlgo::kHashPartitioned) return std::nullopt;
    const int bits = gopts.radix_bits_override;
    if (bits < 16) {
      gopts.radix_bits_override = std::min(bits <= 0 ? 8 : bits + 2, 16);
      return LadderRung{{"retry_more_partition_bits",
                         "GB-HASH-PART failed (" + error.message() +
                             "); retrying with radix_bits=" +
                             std::to_string(gopts.radix_bits_override)}};
    }
    current = GroupByAlgo::kSortBased;
    return LadderRung{{"algo_fallback", "GB-HASH-PART failed (" +
                                            error.message() +
                                            "); falling back to GB-SORT"}};
  };

  GPUJOIN_ASSIGN_OR_RETURN(LadderOutcome ladder,
                           RunDegradationLadder(device, policy));
  res.attempts = ladder.attempts;
  res.degradation = std::move(ladder.degradation);
  return res;
}

}  // namespace gpujoin::groupby
