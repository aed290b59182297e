// Per-backend circuit breakers and service-level fault handling: the
// breaker state machine (closed → open → half-open), quarantine-driven
// hedging of fragments to the surviving backend, transient-retry budgets,
// and the double-entry metric reconciliation the chaos soak relies on
// (trips == transitions{to="open"}, hedge decisions == hedged fragments).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "join/reference.h"
#include "join/resilient.h"
#include "obs/registry.h"
#include "service/health.h"
#include "service/query_service.h"
#include "storage/table.h"
#include "test_util.h"
#include "vgpu/device.h"
#include "vgpu/fault.h"
#include "workload/generator.h"

namespace gpujoin::service {
namespace {

using ::gpujoin::testing::MakeTestDevice;

// ---------------------------------------------------------------------------
// FaultKindOf: bounded fault-domain labels
// ---------------------------------------------------------------------------

TEST(FaultKindTest, RecognizesKnownFaultDomains) {
  EXPECT_EQ(FaultKindOf(Status::Unavailable("kernel_fault: injected at #3")),
            "kernel_fault");
  EXPECT_EQ(FaultKindOf(Status::Unavailable("watchdog_timeout: kernel #2")),
            "watchdog_timeout");
}

TEST(FaultKindTest, FoldsEverythingElseToUnknown) {
  EXPECT_EQ(FaultKindOf(Status::Unavailable("backend hiccup")), "unknown");
  EXPECT_EQ(FaultKindOf(Status::Unavailable("weird_prefix: detail")),
            "unknown");
  EXPECT_EQ(FaultKindOf(Status::Unavailable(": leading colon")), "unknown");
  EXPECT_EQ(FaultKindOf(Status::Unavailable("")), "unknown");
}

// ---------------------------------------------------------------------------
// BackendHealth state machine
// ---------------------------------------------------------------------------

TEST(BackendHealthTest, TripsAfterConsecutiveFailures) {
  BreakerOptions opts;
  opts.trip_threshold = 3;
  BackendHealth health(opts);

  health.RecordFailure(ops::Backend::kVgpu, "kernel_fault", 100);
  health.RecordFailure(ops::Backend::kVgpu, "kernel_fault", 200);
  EXPECT_FALSE(health.Quarantined(ops::Backend::kVgpu, 300));
  EXPECT_EQ(health.StateOf(ops::Backend::kVgpu, "kernel_fault"),
            BreakerState::kClosed);
  EXPECT_EQ(health.trips(), 0u);

  health.RecordFailure(ops::Backend::kVgpu, "kernel_fault", 300);
  EXPECT_TRUE(health.Quarantined(ops::Backend::kVgpu, 400));
  EXPECT_EQ(health.StateOf(ops::Backend::kVgpu, "kernel_fault"),
            BreakerState::kOpen);
  EXPECT_EQ(health.trips(), 1u);

  // The other backend is unaffected.
  EXPECT_FALSE(health.Quarantined(ops::Backend::kCpux, 400));
}

TEST(BackendHealthTest, SuccessResetsTheConsecutiveCount) {
  BreakerOptions opts;
  opts.trip_threshold = 3;
  BackendHealth health(opts);

  health.RecordFailure(ops::Backend::kVgpu, "kernel_fault", 10);
  health.RecordFailure(ops::Backend::kVgpu, "kernel_fault", 20);
  health.RecordSuccess(ops::Backend::kVgpu, 30);
  health.RecordFailure(ops::Backend::kVgpu, "kernel_fault", 40);
  health.RecordFailure(ops::Backend::kVgpu, "kernel_fault", 50);
  // 2 + 2 failures split by a success: never trips.
  EXPECT_FALSE(health.Quarantined(ops::Backend::kVgpu, 60));
  EXPECT_EQ(health.trips(), 0u);
}

TEST(BackendHealthTest, FaultKindsCountIndependentlyButQuarantineJointly) {
  BreakerOptions opts;
  opts.trip_threshold = 2;
  BackendHealth health(opts);

  health.RecordFailure(ops::Backend::kVgpu, "kernel_fault", 10);
  health.RecordFailure(ops::Backend::kVgpu, "watchdog_timeout", 20);
  // One failure per kind: neither breaker trips.
  EXPECT_FALSE(health.Quarantined(ops::Backend::kVgpu, 30));

  health.RecordFailure(ops::Backend::kVgpu, "watchdog_timeout", 40);
  // The watchdog breaker alone quarantines the whole backend.
  EXPECT_TRUE(health.Quarantined(ops::Backend::kVgpu, 50));
  EXPECT_EQ(health.StateOf(ops::Backend::kVgpu, "kernel_fault"),
            BreakerState::kClosed);
  EXPECT_EQ(health.StateOf(ops::Backend::kVgpu, "watchdog_timeout"),
            BreakerState::kOpen);
}

TEST(BackendHealthTest, ProbeWindowMovesOpenToHalfOpen) {
  BreakerOptions opts;
  opts.trip_threshold = 1;
  opts.probe_after_cycles = 1000;
  BackendHealth health(opts);

  health.RecordFailure(ops::Backend::kVgpu, "kernel_fault", 500);
  EXPECT_TRUE(health.Quarantined(ops::Backend::kVgpu, 600));
  // Window not yet elapsed (opened at 500, probe at 1500).
  EXPECT_TRUE(health.Quarantined(ops::Backend::kVgpu, 1499));
  EXPECT_EQ(health.probes(), 0u);

  // Window elapsed: the breaker half-opens and stops quarantining — the
  // next fragment is the probe.
  EXPECT_FALSE(health.Quarantined(ops::Backend::kVgpu, 1500));
  EXPECT_EQ(health.StateOf(ops::Backend::kVgpu, "kernel_fault"),
            BreakerState::kHalfOpen);
  EXPECT_EQ(health.probes(), 1u);
}

TEST(BackendHealthTest, ProbeOutcomeClosesOrReTrips) {
  BreakerOptions opts;
  opts.trip_threshold = 1;
  opts.probe_after_cycles = 1000;
  BackendHealth health(opts);

  // Trip, half-open, probe succeeds → closed.
  health.RecordFailure(ops::Backend::kVgpu, "kernel_fault", 0);
  EXPECT_FALSE(health.Quarantined(ops::Backend::kVgpu, 2000));
  health.RecordSuccess(ops::Backend::kVgpu, 2100);
  EXPECT_EQ(health.StateOf(ops::Backend::kVgpu, "kernel_fault"),
            BreakerState::kClosed);
  EXPECT_EQ(health.closes(), 1u);

  // Trip again, half-open, probe fails → re-trip (no fresh threshold).
  health.RecordFailure(ops::Backend::kVgpu, "kernel_fault", 3000);
  EXPECT_EQ(health.trips(), 2u);
  EXPECT_FALSE(health.Quarantined(ops::Backend::kVgpu, 5000));
  health.RecordFailure(ops::Backend::kVgpu, "kernel_fault", 5100);
  EXPECT_EQ(health.StateOf(ops::Backend::kVgpu, "kernel_fault"),
            BreakerState::kOpen);
  EXPECT_EQ(health.trips(), 3u);
  EXPECT_TRUE(health.Quarantined(ops::Backend::kVgpu, 5200));
}

TEST(BackendHealthTest, TransitionCountsReconcileWithRegistry) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const obs::MetricsSnapshot before = reg.Snapshot();

  BreakerOptions opts;
  opts.trip_threshold = 2;
  opts.probe_after_cycles = 1000;
  BackendHealth health(opts);
  // trip → probe → close → trip → probe → re-trip.
  health.RecordFailure(ops::Backend::kVgpu, "kernel_fault", 0);
  health.RecordFailure(ops::Backend::kVgpu, "kernel_fault", 10);
  EXPECT_FALSE(health.Quarantined(ops::Backend::kVgpu, 2000));
  health.RecordSuccess(ops::Backend::kVgpu, 2100);
  health.RecordFailure(ops::Backend::kVgpu, "kernel_fault", 3000);
  health.RecordFailure(ops::Backend::kVgpu, "kernel_fault", 3100);
  EXPECT_FALSE(health.Quarantined(ops::Backend::kVgpu, 5000));
  health.RecordFailure(ops::Backend::kVgpu, "kernel_fault", 5100);

  const obs::MetricsSnapshot delta = reg.Snapshot().Delta(before);
  const obs::MetricLabels kind = {{"backend", "vgpu"},
                                  {"fault", "kernel_fault"}};
  EXPECT_EQ(health.trips(), 3u);
  EXPECT_EQ(health.probes(), 2u);
  EXPECT_EQ(health.closes(), 1u);
  // Double entry: the trip counter (metered at the failure-threshold site)
  // must equal the open-transitions counter (metered in Transition()).
  EXPECT_EQ(delta.CounterValue("service_breaker_trips_total", kind),
            health.trips());
  EXPECT_EQ(delta.CounterValue(
                "service_breaker_transitions_total",
                {{"backend", "vgpu"}, {"fault", "kernel_fault"}, {"to", "open"}}),
            health.trips());
  EXPECT_EQ(delta.CounterValue("service_breaker_transitions_total",
                               {{"backend", "vgpu"},
                                {"fault", "kernel_fault"},
                                {"to", "half_open"}}),
            health.probes());
  EXPECT_EQ(delta.CounterValue("service_breaker_transitions_total",
                               {{"backend", "vgpu"},
                                {"fault", "kernel_fault"},
                                {"to", "closed"}}),
            health.closes());
  EXPECT_EQ(delta.CounterValue("service_breaker_failures_total", kind), 5u);
}

// ---------------------------------------------------------------------------
// QueryService: transient retries, breaker trips, hedged fragments
// ---------------------------------------------------------------------------

workload::JoinWorkload SmallJoinWorkload(uint64_t seed = 7) {
  workload::JoinWorkloadSpec spec;
  spec.r_rows = 1 << 9;
  spec.s_rows = 1 << 10;
  spec.r_payload_cols = 1;
  spec.s_payload_cols = 1;
  spec.seed = seed;
  return workload::GenerateJoinInput(spec).ValueOrDie();
}

QueryRequest JoinRequest(const workload::JoinWorkload& w,
                         const std::string& name) {
  QueryRequest req;
  req.name = name;
  req.kind = QueryKind::kJoin;
  req.join_algo = join::JoinAlgo::kPhjOm;
  req.r = &w.r;
  req.s = &w.s;
  return req;
}

TEST(ServiceTransientTest, LadderExhaustedFaultIsRetriedByTheService) {
  vgpu::Device device = MakeTestDevice();
  QueryService service(device);
  const workload::JoinWorkload w = SmallJoinWorkload();

  // A ladder with NO transient budget of its own (max_attempts 1): the
  // one-shot fault escapes the ladder as kUnavailable and the service
  // must absorb it with a fragment re-execution.
  device.set_fault_injector(vgpu::FaultInjector::FailNthKernel(1));
  QueryRequest req = JoinRequest(w, "retryme");
  req.join_options.backoff.max_attempts = 1;
  ASSERT_OK_AND_ASSIGN(int id, service.Submit(req));
  ASSERT_OK(service.Drain());
  device.clear_fault_injector();

  const QueryOutcome& out = service.outcome(id);
  ASSERT_OK(out.status);
  EXPECT_GE(out.transient_retries, 1);
  EXPECT_EQ(out.hedged_fragments, 0);  // One-shot: no breaker trip.
  EXPECT_EQ(service.health().trips(), 0u);
  EXPECT_EQ(join::CanonicalRows(out.output),
            join::ReferenceJoinRows(w.r, w.s));
  EXPECT_EQ(service.reserved_bytes(), 0u);
  ASSERT_OK(device.CheckNoLeaks());
}

TEST(ServiceTransientTest, RetryLimitExhaustionIsTerminalAndClean) {
  vgpu::Device device = MakeTestDevice();
  ServiceOptions opts;
  opts.transient_retry_limit = 2;
  opts.breaker.trip_threshold = 1000;  // Never trips: no hedge escape.
  QueryService service(device, opts);
  const workload::JoinWorkload w = SmallJoinWorkload();

  // Every kernel faults, forever: the ladder budget exhausts on every
  // fragment turn, and after transient_retry_limit re-executions the
  // query's kUnavailable becomes terminal — structured, zero leaks.
  device.set_fault_injector(
      vgpu::FaultInjector::FailKernelWithProbability(1.0, /*seed=*/3));
  ASSERT_OK_AND_ASSIGN(int id, service.Submit(JoinRequest(w, "doomed")));
  ASSERT_OK(service.Drain());
  device.clear_fault_injector();
  device.ClearTransientFault();

  const QueryOutcome& out = service.outcome(id);
  ASSERT_TRUE(out.status.IsUnavailable()) << out.status.ToString();
  EXPECT_NE(out.status.message().find("service transient-retry limit"),
            std::string::npos)
      << out.status.ToString();
  EXPECT_EQ(out.transient_retries, 3);  // limit 2 + the terminal attempt.
  EXPECT_EQ(service.reserved_bytes(), 0u);
  ASSERT_OK(device.CheckNoLeaks());
}

TEST(ServiceTransientTest, BreakerTripHedgesFragmentsToCpux) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const obs::MetricsSnapshot before = reg.Snapshot();

  vgpu::Device device = MakeTestDevice();
  ServiceOptions opts;
  opts.breaker.trip_threshold = 3;
  // Keep the breaker open for the whole drain: this test is about the
  // trip → hedge path, not probe re-admission.
  opts.breaker.probe_after_cycles = 1e12;
  opts.transient_retry_limit = 8;
  QueryService service(device, opts);
  const workload::JoinWorkload w1 = SmallJoinWorkload(21);
  const workload::JoinWorkload w2 = SmallJoinWorkload(22);

  // Persistent vgpu kernel faults: the first fragment burns the ladder
  // budget three times, trips the vgpu/kernel_fault breaker, and the
  // remaining turns hedge to the cpux backend — which runs host-side,
  // launches no simulated kernels, and therefore cannot fault.
  device.set_fault_injector(
      vgpu::FaultInjector::FailKernelWithProbability(1.0, /*seed=*/5));
  ASSERT_OK_AND_ASSIGN(int id1, service.Submit(JoinRequest(w1, "hedged1")));
  ASSERT_OK_AND_ASSIGN(int id2, service.Submit(JoinRequest(w2, "hedged2")));
  ASSERT_OK(service.Drain());
  device.clear_fault_injector();
  device.ClearTransientFault();

  // Both queries complete correctly despite a backend that never stops
  // faulting: the answer comes from the surviving backend.
  const QueryOutcome& out1 = service.outcome(id1);
  const QueryOutcome& out2 = service.outcome(id2);
  ASSERT_OK(out1.status);
  ASSERT_OK(out2.status);
  EXPECT_EQ(join::CanonicalRows(out1.output),
            join::ReferenceJoinRows(w1.r, w1.s));
  EXPECT_EQ(join::CanonicalRows(out2.output),
            join::ReferenceJoinRows(w2.r, w2.s));

  // Round-robin interleaves the two queries' fragments, so the three
  // pre-trip failures split across them — but exactly trip_threshold
  // failures ever reach the vgpu backend, and every turn after the trip
  // hedges.
  EXPECT_EQ(out1.transient_retries + out2.transient_retries, 3);
  EXPECT_GE(out1.hedged_fragments, 1);
  EXPECT_GE(out2.hedged_fragments, 1);
  EXPECT_EQ(service.health().trips(), 1u);
  EXPECT_EQ(service.health().StateOf(ops::Backend::kVgpu, "kernel_fault"),
            BreakerState::kOpen);

  // Double-entry reconciliation across the drain: every hedge decision
  // produced exactly one hedged fragment turn, and every breaker trip
  // appears as an open-transition.
  const obs::MetricsSnapshot delta = reg.Snapshot().Delta(before);
  EXPECT_EQ(delta.CounterTotal("service_hedge_decisions_total"),
            delta.CounterTotal("service_hedged_fragments_total"));
  EXPECT_EQ(delta.CounterTotal("service_hedged_fragments_total"),
            static_cast<uint64_t>(out1.hedged_fragments +
                                  out2.hedged_fragments));
  EXPECT_EQ(delta.CounterValue("service_breaker_trips_total",
                               {{"backend", "vgpu"},
                                {"fault", "kernel_fault"}}),
            service.health().trips());
  EXPECT_EQ(delta.CounterValue(
                "service_breaker_transitions_total",
                {{"backend", "vgpu"}, {"fault", "kernel_fault"}, {"to", "open"}}),
            service.health().trips());
  EXPECT_EQ(delta.CounterTotal("service_transient_retries_total"),
            static_cast<uint64_t>(out1.transient_retries +
                                  out2.transient_retries));

  EXPECT_EQ(service.reserved_bytes(), 0u);
  ASSERT_OK(device.CheckNoLeaks());
}

// The hedge never overrides eligibility: cpux cannot run string columns,
// so a fragment forced to vgpu stays there with the vgpu breaker open, no
// hedge is counted, and the service's own retry limit ends the query.
TEST(ServiceTransientTest, ForcedBackendDoesNotHedgeStringsToCpux) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const obs::MetricsSnapshot before = reg.Snapshot();

  vgpu::Device device = MakeTestDevice();
  ServiceOptions opts;
  opts.breaker.trip_threshold = 2;
  opts.breaker.probe_after_cycles = 1e12;
  opts.transient_retry_limit = 4;
  QueryService service(device, opts);
  workload::JoinWorkload w = SmallJoinWorkload(23);
  w.s.columns.push_back(
      HostColumn{"tag", DataType::kInt64, {},
                 std::vector<std::string>(w.s.num_rows(), "x")});

  device.set_fault_injector(
      vgpu::FaultInjector::FailKernelWithProbability(1.0, /*seed=*/5));
  QueryRequest req = JoinRequest(w, "strings");
  req.backend = ops::Backend::kVgpu;
  ASSERT_OK_AND_ASSIGN(int id, service.Submit(req));
  ASSERT_OK(service.Drain());
  device.clear_fault_injector();
  device.ClearTransientFault();

  const QueryOutcome& out = service.outcome(id);
  ASSERT_TRUE(out.status.IsUnavailable()) << out.status.ToString();
  EXPECT_EQ(out.backend, "vgpu");
  EXPECT_EQ(out.hedged_fragments, 0);
  EXPECT_EQ(service.health().trips(), 1u);
  EXPECT_EQ(service.health().StateOf(ops::Backend::kVgpu, "kernel_fault"),
            BreakerState::kOpen);
  const obs::MetricsSnapshot delta = reg.Snapshot().Delta(before);
  EXPECT_EQ(delta.CounterTotal("service_hedge_decisions_total"), 0u);
  EXPECT_EQ(delta.CounterTotal("service_hedged_fragments_total"), 0u);
  EXPECT_EQ(service.reserved_bytes(), 0u);
  ASSERT_OK(device.CheckNoLeaks());
}

TEST(ServiceTransientTest, HalfOpenProbeReAdmitsARecoveredBackend) {
  vgpu::Device device = MakeTestDevice();
  ServiceOptions opts;
  opts.breaker.trip_threshold = 3;
  opts.breaker.probe_after_cycles = 2e6;
  QueryService service(device, opts);
  const workload::JoinWorkload w = SmallJoinWorkload(31);

  // Drain 1: persistent faults trip the vgpu breaker.
  device.set_fault_injector(
      vgpu::FaultInjector::FailKernelWithProbability(1.0, /*seed=*/9));
  ASSERT_OK_AND_ASSIGN(int id1, service.Submit(JoinRequest(w, "tripper")));
  ASSERT_OK(service.Drain());
  device.clear_fault_injector();
  device.ClearTransientFault();
  ASSERT_OK(service.outcome(id1).status);
  ASSERT_EQ(service.health().StateOf(ops::Backend::kVgpu, "kernel_fault"),
            BreakerState::kOpen);

  // The fault is gone and the probe window elapses: the next vgpu
  // fragment is admitted as the probe, succeeds, and closes the breaker —
  // no hedging needed.
  device.AdvanceClock(3e6);
  ASSERT_OK_AND_ASSIGN(int id2, service.Submit(JoinRequest(w, "probe")));
  ASSERT_OK(service.Drain());
  const QueryOutcome& out2 = service.outcome(id2);
  ASSERT_OK(out2.status);
  EXPECT_EQ(out2.hedged_fragments, 0);
  EXPECT_EQ(out2.transient_retries, 0);
  EXPECT_EQ(join::CanonicalRows(out2.output), join::ReferenceJoinRows(w.r, w.s));
  EXPECT_EQ(service.health().StateOf(ops::Backend::kVgpu, "kernel_fault"),
            BreakerState::kClosed);
  EXPECT_GE(service.health().probes(), 1u);
  EXPECT_GE(service.health().closes(), 1u);
  EXPECT_EQ(service.reserved_bytes(), 0u);
  ASSERT_OK(device.CheckNoLeaks());
}

TEST(ServiceTransientTest, ChaosDrainIsDeterministic) {
  // The whole fault → retry → trip → hedge pipeline replays bit-identically:
  // two fresh devices and services, the same seeded fault stream, the same
  // workload — identical outcomes, clocks, and breaker history.
  const workload::JoinWorkload w = SmallJoinWorkload(41);
  auto run_once = [&](std::vector<std::vector<int64_t>>* rows, double* finished,
                      uint64_t* trips, int* retries, int* hedged) {
    vgpu::Device device = MakeTestDevice();
    ServiceOptions opts;
    opts.breaker.probe_after_cycles = 1e12;
    QueryService service(device, opts);
    device.set_fault_injector(
        vgpu::FaultInjector::FailKernelWithProbability(0.4, /*seed=*/77));
    ASSERT_OK_AND_ASSIGN(int id, service.Submit(JoinRequest(w, "chaos")));
    ASSERT_OK(service.Drain());
    device.clear_fault_injector();
    device.ClearTransientFault();
    const QueryOutcome& out = service.outcome(id);
    ASSERT_OK(out.status);
    *rows = join::CanonicalRows(out.output);
    *finished = out.finished_at_cycles;
    *trips = service.health().trips();
    *retries = out.transient_retries;
    *hedged = out.hedged_fragments;
    ASSERT_OK(device.CheckNoLeaks());
  };

  std::vector<std::vector<int64_t>> rows_a, rows_b;
  double fin_a = 0, fin_b = 0;
  uint64_t trips_a = 0, trips_b = 0;
  int retries_a = 0, retries_b = 0, hedged_a = 0, hedged_b = 0;
  run_once(&rows_a, &fin_a, &trips_a, &retries_a, &hedged_a);
  run_once(&rows_b, &fin_b, &trips_b, &retries_b, &hedged_b);

  EXPECT_EQ(rows_a, join::ReferenceJoinRows(w.r, w.s));
  EXPECT_EQ(rows_a, rows_b);
  EXPECT_EQ(fin_a, fin_b);
  EXPECT_EQ(trips_a, trips_b);
  EXPECT_EQ(retries_a, retries_b);
  EXPECT_EQ(hedged_a, hedged_b);
}

}  // namespace
}  // namespace gpujoin::service
