// Degradation log, retry policy and the one degradation-ladder driver
// shared by the resilient query-layer wrappers. Every time a wrapper catches
// a resource failure and moves down its policy ladder (retry, re-plan,
// out-of-core fallback), it records one step so callers can see exactly how
// a query was salvaged, and consults one BackoffPolicy for how long to wait
// (in simulated cycles) before the next attempt. RunDegradationLadder owns
// those mechanics; RunJoinResilient and RunGroupByResilient supply only a
// LadderPolicy: how to run the current rung and which rung comes next.

#ifndef GPUJOIN_COMMON_RESILIENCE_H_
#define GPUJOIN_COMMON_RESILIENCE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"

namespace gpujoin {

namespace vgpu {
class Device;
}  // namespace vgpu

/// One rung taken on a degradation ladder.
struct DegradationStep {
  /// Machine-checkable action name, e.g. "retry_more_partition_bits",
  /// "out_of_core_fallback", "algo_fallback".
  std::string action;
  /// Human-readable context: the error that triggered the step and the
  /// parameters chosen for the next attempt.
  std::string detail;
};

/// Renders a degradation log as one line per step (for error messages).
inline std::string FormatDegradation(const std::vector<DegradationStep>& steps) {
  std::string out;
  for (const DegradationStep& s : steps) {
    out += "  - " + s.action + ": " + s.detail + "\n";
  }
  return out;
}

/// Seeded exponential backoff with jitter, measured in SIMULATED cycles so
/// retry schedules are deterministic and bit-identical on replay (no wall
/// clock, no global RNG — same contract as vgpu::FaultInjector). One policy
/// is shared by every retry loop in the query layer: the resilient join /
/// group-by ladders, the pipeline per-join retry hook, and the service-level
/// admission queue.
struct BackoffPolicy {
  /// Attempt cap for loops that have no cap of their own (first attempt
  /// included). Ladders with an explicit budget (ResilienceOptions::
  /// max_attempts) use the smaller of the two.
  int max_attempts = 4;
  /// Delay charged before retry #1 (i.e. attempt 2). 0 disables delays
  /// while keeping the attempt cap.
  double base_cycles = 50'000;
  /// Growth factor per retry (>= 1).
  double multiplier = 2.0;
  /// Delay ceiling before jitter.
  double max_cycles = 5e7;
  /// Jitter fraction in [0, 1): the delay is scaled by a deterministic
  /// draw from [1 - jitter, 1 + jitter) so synchronized retries de-correlate.
  double jitter = 0.25;
  /// Seed for the jitter stream (splitmix64 of seed ^ retry index).
  uint64_t seed = 0x9e3779b97f4a7c15ull;

  /// True while `attempt` (1-based, first try included) is within budget.
  bool AttemptAllowed(int attempt) const { return attempt <= max_attempts; }

  /// Simulated-cycle delay to charge before retry `retry_index` (1-based:
  /// 1 = the delay between attempts 1 and 2). Deterministic per (policy,
  /// retry_index); never negative.
  double DelayCycles(int retry_index) const {
    if (retry_index < 1 || base_cycles <= 0) return 0;
    double delay = base_cycles;
    for (int i = 1; i < retry_index; ++i) {
      delay = std::min(delay * std::max(multiplier, 1.0), max_cycles);
    }
    delay = std::min(delay, max_cycles);
    if (jitter > 0) {
      // splitmix64 of (seed ^ retry_index) -> uniform in [0, 1).
      uint64_t z = seed ^ (static_cast<uint64_t>(retry_index) *
                           0xbf58476d1ce4e5b9ull);
      z += 0x9e3779b97f4a7c15ull;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      z ^= z >> 31;
      const double u =
          static_cast<double>(z >> 11) / static_cast<double>(1ull << 53);
      delay *= 1.0 - jitter + 2.0 * jitter * u;
    }
    return delay;
  }
};

/// The rung a ladder policy moves to after a resource failure.
struct LadderRung {
  DegradationStep step;
  /// Record `step` again, after its backoff delay, before every transient
  /// retry of this rung as well as on entry (the join's out-of-core rung
  /// announces each fragment-pair stream it starts).
  bool announce_each_attempt = false;
};

/// The policy half of a degradation ladder: what to run and where to go
/// next. RunDegradationLadder supplies everything else.
struct LadderPolicy {
  /// Wrapper name that prefixes the driver's messages ("RunJoinResilient").
  std::string fn;
  /// The "op" metric label ("join", "groupby").
  std::string op;
  /// Requested algorithm, named in the final error and in the enclosing
  /// "query" trace span, "resilient_<op>:<algo>".
  std::string algo;
  /// Total attempt budget across the whole ladder (first try included).
  int max_attempts = 4;
  BackoffPolicy backoff;
  /// Group-by waits out the backoff delay and checks the lifecycle before
  /// it asks for the next rung, so a failure on its last rung still pays
  /// one delay. The join asks first and stops at once when no rung is left.
  bool backoff_before_escalate = false;
  /// Name of the "attempt" trace span around attempt `attempt` (1-based).
  std::function<std::string(int attempt)> attempt_span;
  /// Runs the current rung once, keeping its result on success.
  std::function<Status()> attempt;
  /// Called after attempt `attempt` failed with resource failure `error`
  /// and budget is left: moves the policy to its next rung and returns
  /// that rung, or nullopt when no rung is left.
  std::function<std::optional<LadderRung>(const Status& error, int attempt)>
      escalate;
};

struct LadderOutcome {
  /// Attempts consumed (1 = first try succeeded, no degradation).
  int attempts = 0;
  /// One entry per ladder step taken; empty on a clean first-attempt run.
  std::vector<DegradationStep> degradation;
};

/// Walks `policy`'s ladder on `device` until an attempt succeeds:
///   * a transient failure (kUnavailable) must leave the device at its
///     entry watermark; the driver clears the fault, waits a seeded backoff
///     and retries the same rung, until backoff.max_attempts transient
///     retries are spent (then the fault propagates, still kUnavailable);
///   * a resource failure (Status::IsResourceFailure) must also roll back
///     cleanly; the driver then escalates: backoff delay, lifecycle check,
///     and one recorded step (log entry, `degradation:<action>` trace
///     instant, resilient_degradations_total count);
///   * any other error, or a leak left by a failed attempt (Internal),
///     propagates at once;
///   * when no rung or budget is left, the result is ResourceExhausted
///     naming the last error and the degradation ladder taken.
Result<LadderOutcome> RunDegradationLadder(vgpu::Device& device,
                                           const LadderPolicy& policy);

}  // namespace gpujoin

#endif  // GPUJOIN_COMMON_RESILIENCE_H_
