// Resilient join execution: RunJoinResilient wraps RunJoin with a
// degradation ladder so a device-resident OOM (real or injected) degrades a
// query instead of failing it outright. This file holds only the ladder's
// policy; the shared driver in common/resilience.h owns the mechanics
// (transient retries, rollback leak checks, backoff, lifecycle seams, step
// recording, and the final structured error). The rungs:
//
//   1. In-memory attempt with the caller's options.
//   2. For the radix-partitioned implementations, retries with two more
//      partition bits each (up to 16): smaller per-partition working state.
//   3. Out-of-core fallback: host-side radix fragmentation, fragment_bits
//      derived from a 0.2 device-memory budget and raised by 2 (up to 20)
//      on each failure. One out_of_core_fallback step is recorded before
//      every out-of-core attempt, transient retries included.
//   4. A clean structured ResourceExhausted error carrying the full
//      degradation log.
//
// Every failed attempt must leave the device exactly as it found it: the
// driver verifies the live-byte watermark after each failure and turns a
// leak into an Internal error (the leak-audit contract of vgpu::Device).

#ifndef GPUJOIN_JOIN_RESILIENT_H_
#define GPUJOIN_JOIN_RESILIENT_H_

#include <cstdint>
#include <vector>

#include "common/resilience.h"
#include "common/status.h"
#include "join/join.h"
#include "storage/table.h"
#include "vgpu/device.h"

namespace gpujoin::join {

struct ResilienceOptions {
  /// Base options for every in-memory attempt (the retry ladder only bumps
  /// radix_bits_override on top of these).
  JoinOptions join;
  /// Total attempt budget across the whole ladder (first try included).
  int max_attempts = 4;
  /// Delay schedule between ladder attempts, charged to the simulated clock
  /// (deterministic; see BackoffPolicy). max_attempts above remains the
  /// attempt budget — the policy only paces the retries.
  BackoffPolicy backoff;
};

struct ResilientJoinResult {
  HostTable output;
  uint64_t output_rows = 0;
  /// Attempts consumed (1 = first try succeeded, no degradation).
  int attempts = 0;
  bool used_out_of_core = false;
  /// One entry per ladder step taken; empty on a clean first-attempt run.
  std::vector<DegradationStep> degradation;
};

/// Joins host tables r and s (keys in column 0), degrading along the ladder
/// above instead of failing on ResourceExhausted/OutOfMemory. Non-resource
/// errors (bad inputs, internal faults) propagate immediately.
Result<ResilientJoinResult> RunJoinResilient(vgpu::Device& device,
                                             JoinAlgo algo, const HostTable& r,
                                             const HostTable& s,
                                             const ResilienceOptions& options = {});

}  // namespace gpujoin::join

#endif  // GPUJOIN_JOIN_RESILIENT_H_
