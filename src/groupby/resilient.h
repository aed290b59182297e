// Resilient grouped aggregation: RunGroupByResilient wraps RunGroupBy with a
// degradation ladder. This file holds only the ladder's policy; the shared
// driver in common/resilience.h owns the mechanics (transient retries,
// rollback leak checks, backoff, lifecycle seams, step recording, and the
// final structured error). The rungs:
//
//   1. Attempt with the requested strategy and options.
//   2. HASH-GLOBAL falls back to HASH-PARTITIONED (the global table is the
//      memory hog; partitioning bounds per-partition state).
//   3. HASH-PARTITIONED retries with more radix bits (8, then +2 up to 16).
//   4. Final fallback to SORT-BASED (lowest footprint: one transformed copy).
//   5. A clean structured ResourceExhausted error carrying the ladder.
//
// The group-by waits out each backoff delay before it picks the next rung,
// so a failure on the sort rung with attempts left still pays one delay.

#ifndef GPUJOIN_GROUPBY_RESILIENT_H_
#define GPUJOIN_GROUPBY_RESILIENT_H_

#include <cstdint>
#include <vector>

#include "common/resilience.h"
#include "common/status.h"
#include "groupby/groupby.h"
#include "storage/table.h"
#include "vgpu/device.h"

namespace gpujoin::groupby {

struct GroupByResilienceOptions {
  /// Base options for every attempt (the ladder only bumps
  /// radix_bits_override on top of these).
  GroupByOptions groupby;
  /// Total attempt budget across the whole ladder (first try included).
  int max_attempts = 4;
  /// Delay schedule between ladder attempts, charged to the simulated clock
  /// (deterministic; see BackoffPolicy). max_attempts above remains the
  /// attempt budget — the policy only paces the retries.
  BackoffPolicy backoff;
};

struct ResilientGroupByResult {
  /// The completed run (device-resident output table and phase stats).
  GroupByRunResult run;
  /// Attempts consumed (1 = first try succeeded, no degradation).
  int attempts = 0;
  /// Strategy that finally completed (== requested when no fallback fired).
  GroupByAlgo algo_used = GroupByAlgo::kHashGlobal;
  /// One entry per ladder step taken; empty on a clean first-attempt run.
  std::vector<DegradationStep> degradation;
};

/// Groups `input` (keys in column 0) by `spec`, degrading along the ladder
/// above instead of failing on ResourceExhausted/OutOfMemory. Non-resource
/// errors propagate immediately.
Result<ResilientGroupByResult> RunGroupByResilient(
    vgpu::Device& device, GroupByAlgo algo, const Table& input,
    const GroupBySpec& spec, const GroupByResilienceOptions& options = {});

}  // namespace gpujoin::groupby

#endif  // GPUJOIN_GROUPBY_RESILIENT_H_
