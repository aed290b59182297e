#include "join/resilient.h"

#include <algorithm>
#include <string>
#include <utility>

#include "join/out_of_core.h"
#include "join/transform.h"
#include "prim/hash_join.h"

namespace gpujoin::join {

namespace {

bool IsRadixPartitioned(JoinAlgo algo) {
  return algo == JoinAlgo::kPhjUm || algo == JoinAlgo::kPhjOm;
}

/// The partition-bit count attempt 1 would use, mirroring JoinDriver's
/// sizing so the retry rung escalates from the actual starting point.
int InitialPartitionBits(const vgpu::Device& device, const HostTable& r,
                         const JoinOptions& opts) {
  if (opts.radix_bits_override > 0) {
    return std::min(opts.radix_bits_override, 16);
  }
  const uint64_t capacity = r.columns[0].type == DataType::kInt32
                                ? prim::SharedHashCapacity<int32_t>(device)
                                : prim::SharedHashCapacity<int64_t>(device);
  return ChoosePartitionBits<int64_t>(r.num_rows(), capacity);
}

/// One full in-memory attempt: upload, join, download. All device state is
/// released on exit (success or failure) by the RAII tables.
Status AttemptInMemory(vgpu::Device& device, JoinAlgo algo, const HostTable& r,
                       const HostTable& s, const JoinOptions& opts,
                       ResilientJoinResult* res) {
  GPUJOIN_ASSIGN_OR_RETURN(Table rd, Table::FromHost(device, r));
  GPUJOIN_ASSIGN_OR_RETURN(Table sd, Table::FromHost(device, s));
  GPUJOIN_ASSIGN_OR_RETURN(JoinRunResult jr, RunJoin(device, algo, rd, sd, opts));
  res->output = jr.output.ToHost();
  res->output_rows = jr.output_rows;
  return Status::OK();
}

}  // namespace

Result<ResilientJoinResult> RunJoinResilient(vgpu::Device& device,
                                             JoinAlgo algo, const HostTable& r,
                                             const HostTable& s,
                                             const ResilienceOptions& options) {
  if (r.columns.empty() || s.columns.empty()) {
    return Status::InvalidArgument("RunJoinResilient: tables need a key column");
  }

  ResilientJoinResult res;
  // In-memory rungs run with `jopts`, escalating partition bits while the
  // algorithm can use them; the out-of-core rungs stream fragment pairs of
  // `frag_bits`, sized to the default out-of-core device budget.
  JoinOptions jopts = options.join;
  int bits = InitialPartitionBits(device, r, options.join);
  bool out_of_core = false;
  int frag_bits = 0;

  LadderPolicy policy;
  policy.fn = "RunJoinResilient";
  policy.op = "join";
  policy.algo = JoinAlgoName(algo);
  policy.max_attempts = options.max_attempts;
  policy.backoff = options.backoff;
  policy.attempt_span = [&](int attempt) {
    return (out_of_core ? "out_of_core_" : "in_memory_") +
           std::to_string(attempt);
  };
  policy.attempt = [&]() -> Status {
    if (!out_of_core) return AttemptInMemory(device, algo, r, s, jopts, &res);
    OutOfCoreOptions oopts;
    oopts.join = options.join;
    oopts.fragment_bits = frag_bits;
    GPUJOIN_ASSIGN_OR_RETURN(OutOfCoreRunResult oc,
                             RunOutOfCoreJoin(device, algo, r, s, oopts));
    res.output = std::move(oc.output);
    res.output_rows = oc.output_rows;
    res.used_out_of_core = true;
    return Status::OK();
  };
  policy.escalate = [&](const Status& error,
                        int attempt) -> std::optional<LadderRung> {
    if (!out_of_core && IsRadixPartitioned(algo) && bits < 16) {
      bits = std::min(bits + 2, 16);
      jopts.radix_bits_override = bits;
      return LadderRung{{"retry_more_partition_bits",
                         "attempt " + std::to_string(attempt) + " failed (" +
                             error.message() +
                             "); retrying in-memory with radix_bits=" +
                             std::to_string(bits)}};
    }
    if (!out_of_core) {
      out_of_core = true;
      frag_bits = DeriveFragmentBits(device, r, s,
                                     OutOfCoreOptions().device_budget_fraction);
    } else if (frag_bits >= 20) {
      return std::nullopt;  // Fragmentation limit reached.
    } else {
      frag_bits = std::min(frag_bits + 2, 20);
    }
    return LadderRung{{"out_of_core_fallback",
                       "in-memory failed (" + error.message() +
                           "); streaming fragment pairs with fragment_bits=" +
                           std::to_string(frag_bits)},
                      /*announce_each_attempt=*/true};
  };

  GPUJOIN_ASSIGN_OR_RETURN(LadderOutcome ladder,
                           RunDegradationLadder(device, policy));
  res.attempts = ladder.attempts;
  res.degradation = std::move(ladder.degradation);
  return res;
}

}  // namespace gpujoin::join
