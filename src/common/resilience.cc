#include "common/resilience.h"

#include "obs/registry.h"
#include "obs/trace.h"
#include "vgpu/device.h"

namespace gpujoin {

namespace {

uint64_t KernelFaults(const vgpu::Device& device) {
  return device.fault_injector().injected_kernel_faults() +
         device.watchdog_trips();
}

}  // namespace

Result<LadderOutcome> RunDegradationLadder(vgpu::Device& device,
                                           const LadderPolicy& policy) {
  if (policy.max_attempts < 1) {
    return Status::InvalidArgument(policy.fn +
                                   ": max_attempts must be >= 1");
  }

  obs::TraceSpan query_span(device, "query",
                            "resilient_" + policy.op + ":" + policy.algo);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const uint64_t baseline_live = device.memory_stats().live_bytes;
  const uint64_t faults0 = device.memory_stats().injected_failures;
  const uint64_t kernel_faults0 = KernelFaults(device);
  LadderOutcome out;

  // A failed attempt must roll the device back to its entry watermark; a
  // mismatch is a leak (or double free) in the error path and is promoted
  // to an Internal error — degrading further would hide it.
  const auto verify_clean_rollback = [&]() -> Status {
    const uint64_t live = device.memory_stats().live_bytes;
    reg.CounterAdd("vgpu_leak_check_total",
                   {{"op", policy.op},
                    {"outcome", live == baseline_live ? "clean" : "leak"}});
    if (live != baseline_live) {
      return Status::Internal(
          policy.fn + ": failed attempt left " + std::to_string(live) +
          " live bytes (entry watermark " + std::to_string(baseline_live) +
          ")\n" + device.LeakReport());
    }
    return Status::OK();
  };
  // Every ladder step waits out its backoff delay, lets a cancel or
  // deadline stop the query, and is then recorded.
  const auto pace = [&](double delay_cycles) -> Status {
    device.AdvanceClock(delay_cycles);
    return obs::CheckLifecycle(device);
  };
  const auto record = [&](const DegradationStep& step) {
    out.degradation.push_back(step);
    obs::TraceInstant(device, "degradation:" + step.action, step.detail);
    reg.CounterAdd("resilient_degradations_total",
                   {{"op", policy.op}, {"action", step.action}});
  };

  std::optional<LadderRung> rung;  // The rung the last escalation entered.
  int attempt = 0;
  int transient_retries = 0;
  Status last_error = Status::OK();
  while (attempt < policy.max_attempts) {
    ++attempt;
    Status st;
    {
      obs::TraceSpan attempt_span(device, "attempt",
                                  policy.attempt_span(attempt));
      st = policy.attempt();
    }
    if (st.ok()) {
      // A query that completes despite injected faults survived them.
      const uint64_t absorbed =
          device.memory_stats().injected_failures - faults0;
      if (absorbed > 0) {
        reg.CounterAdd("vgpu_faults_survived_total", {{"op", policy.op}},
                       absorbed);
      }
      const uint64_t kernel_absorbed = KernelFaults(device) - kernel_faults0;
      if (kernel_absorbed > 0) {
        reg.CounterAdd("vgpu_kernel_faults_survived_total",
                       {{"op", policy.op}}, kernel_absorbed);
      }
      out.attempts = attempt;
      return out;
    }

    if (st.IsUnavailable()) {
      // Transient rung (injected kernel fault, watchdog timeout): the work
      // fits, the backend hiccuped. Unwind, clear the sticky fault, and
      // re-run the SAME rung without consuming a ladder attempt. Once the
      // transient budget is spent the retryable fault propagates so the
      // service layer can hedge backends.
      obs::TraceInstant(device, "transient_fault", st.message());
      reg.CounterAdd("resilient_transient_faults_total", {{"op", policy.op}});
      GPUJOIN_RETURN_IF_ERROR(verify_clean_rollback());
      device.ClearTransientFault();
      ++transient_retries;
      if (transient_retries >= policy.backoff.max_attempts) {
        return Status::Unavailable(
            st.message() + " (attempt " + std::to_string(transient_retries) +
            "; ladder transient-retry budget exhausted)");
      }
      GPUJOIN_RETURN_IF_ERROR(
          pace(policy.backoff.DelayCycles(transient_retries)));
      record({"transient_retry", "transient fault (" + st.message() +
                                     "); retrying same rung, retry " +
                                     std::to_string(transient_retries)});
      --attempt;
      if (rung.has_value() && rung->announce_each_attempt) {
        GPUJOIN_RETURN_IF_ERROR(pace(policy.backoff.DelayCycles(attempt)));
        record(rung->step);
      }
      continue;
    }

    if (!st.IsResourceFailure()) return st;
    obs::TraceInstant(device, "resource_failure", st.message());
    reg.CounterAdd("resilient_resource_failures_total", {{"op", policy.op}});
    GPUJOIN_RETURN_IF_ERROR(verify_clean_rollback());
    last_error = st;
    if (attempt >= policy.max_attempts) break;
    const double delay = policy.backoff.DelayCycles(attempt);
    if (policy.backoff_before_escalate) {
      GPUJOIN_RETURN_IF_ERROR(pace(delay));
    }
    rung = policy.escalate(st, attempt);
    if (!rung.has_value()) break;
    if (!policy.backoff_before_escalate) {
      GPUJOIN_RETURN_IF_ERROR(pace(delay));
    }
    record(rung->step);
  }

  return Status::ResourceExhausted(
      policy.fn + ": " + policy.algo + " failed after " +
      std::to_string(attempt) + " attempt(s); last error: " +
      last_error.message() +
      (out.degradation.empty()
           ? std::string("; no degradation rung applicable")
           : "\ndegradation ladder:\n" + FormatDegradation(out.degradation)));
}

}  // namespace gpujoin
