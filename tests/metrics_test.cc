// The metrics registry's determinism contract (DESIGN.md §15): fixed-order
// snapshots whose replay-stable cells are bit-identical at every
// GPUJOIN_SIM_THREADS fan-out, with tracing on or off, and under
// fault-injection replay — plus the bucket math, snapshot algebra, export
// schema, and the cross-layer reconciliation invariants
// (admissions == terminal outcomes, router decisions == routed ops).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "ops/operator.h"
#include "ops/router.h"
#include "service/query_service.h"
#include "test_util.h"
#include "vgpu/device.h"
#include "vgpu/fault.h"
#include "workload/generator.h"

namespace gpujoin::obs {
namespace {

using ::gpujoin::testing::MakeTestDevice;

TEST(HistogramTest, BucketMathAndBounds) {
  // Non-positive and sub-1 values share the underflow bucket [0, 1).
  EXPECT_EQ(HistogramData::BucketIndex(-3.0), -1);
  EXPECT_EQ(HistogramData::BucketIndex(0.0), -1);
  EXPECT_EQ(HistogramData::BucketIndex(0.999), -1);
  EXPECT_EQ(HistogramData::BucketLowerBound(-1), 0.0);
  EXPECT_EQ(HistogramData::BucketUpperBound(-1), 1.0);

  // Octave [1,2) splits into 4 linear sub-buckets of width 0.25.
  EXPECT_EQ(HistogramData::BucketIndex(1.0), 0);
  EXPECT_EQ(HistogramData::BucketIndex(1.24), 0);
  EXPECT_EQ(HistogramData::BucketIndex(1.25), 1);
  EXPECT_EQ(HistogramData::BucketIndex(1.99), 3);
  EXPECT_EQ(HistogramData::BucketIndex(2.0), 4);
  EXPECT_EQ(HistogramData::BucketLowerBound(0), 1.0);
  EXPECT_EQ(HistogramData::BucketUpperBound(0), 1.25);
  EXPECT_EQ(HistogramData::BucketLowerBound(4), 2.0);
  EXPECT_EQ(HistogramData::BucketUpperBound(4), 2.5);

  // Every value lies inside its own bucket's half-open range.
  for (double v : {1.0, 1.9, 2.0, 3.7, 100.0, 1e6, 1e12, 0.4}) {
    const int32_t idx = HistogramData::BucketIndex(v);
    if (v >= 1.0) {
      EXPECT_GE(v, HistogramData::BucketLowerBound(idx)) << v;
    }
    EXPECT_LT(v, HistogramData::BucketUpperBound(idx)) << v;
  }
}

TEST(HistogramTest, QuantileBracketsContainNearestRankSample) {
  HistogramData h;
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) {
    const double v = static_cast<double>(i * i);  // 1 .. 10000, skewed.
    values.push_back(v);
    h.Observe(v);
  }
  EXPECT_EQ(h.count, 100u);
  EXPECT_EQ(h.min, 1.0);
  EXPECT_EQ(h.max, 10000.0);
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    // values is already sorted; nearest-rank = ceil(q*n)-th smallest.
    size_t rank = static_cast<size_t>(q * 100.0 + 0.999999);
    if (rank < 1) rank = 1;
    const double exact = values[rank - 1];
    EXPECT_LE(h.QuantileLowerBound(q), exact) << q;
    EXPECT_GE(h.QuantileUpperBound(q), exact) << q;
    // Log-linear with 4 sub-buckets: the bracket overshoots by < 25%.
    EXPECT_LE(h.QuantileUpperBound(q), exact * 1.25 + 1.0) << q;
  }
}

TEST(RegistryTest, LabelOrderInsensitiveAndClear) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.Clear();
  reg.CounterAdd("x_total", {{"a", "1"}, {"b", "2"}});
  reg.CounterAdd("x_total", {{"b", "2"}, {"a", "1"}});
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap.CounterValue("x_total", {{"b", "2"}, {"a", "1"}}), 2u);
  EXPECT_EQ(snap.CounterTotal("x_total"), 2u);
  reg.Clear();
  EXPECT_EQ(reg.size(), 0u);
}

TEST(RegistryTest, GaugeMaxKeepsHighWatermark) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.Clear();
  reg.GaugeMax("peak", {}, 10);
  reg.GaugeMax("peak", {}, 4);
  reg.GaugeMax("peak", {}, 12);
  reg.GaugeMax("peak", {}, 11);
  const MetricsSnapshot snap = reg.Snapshot();
  const MetricCell* cell = snap.Find("peak");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->gauge, 12.0);
  reg.Clear();
}

TEST(SnapshotTest, DeltaDropsUntouchedCells) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.Clear();
  reg.CounterAdd("a_total", {}, 5);
  reg.HistogramObserve("h", {}, 3.0);
  const MetricsSnapshot before = reg.Snapshot();
  reg.CounterAdd("a_total", {}, 2);
  reg.CounterAdd("b_total", {}, 1);
  const MetricsSnapshot delta = reg.Snapshot().Delta(before);
  // "h" saw no new observations, so the delta drops it entirely.
  EXPECT_EQ(delta.size(), 2u);
  EXPECT_EQ(delta.CounterValue("a_total"), 2u);
  EXPECT_EQ(delta.CounterValue("b_total"), 1u);
  EXPECT_EQ(delta.Histogram("h"), nullptr);
  reg.Clear();
}

TEST(SnapshotTest, MergeIsOrderIndependent) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.Clear();
  reg.CounterAdd("c_total", {{"k", "a"}}, 3);
  reg.HistogramObserve("h", {}, 10.0);
  reg.GaugeMax("g", {}, 7);
  const MetricsSnapshot s1 = reg.Snapshot();
  reg.Clear();
  reg.CounterAdd("c_total", {{"k", "a"}}, 4);
  reg.CounterAdd("c_total", {{"k", "b"}}, 1);
  reg.HistogramObserve("h", {}, 2000.0);
  reg.GaugeMax("g", {}, 5);
  const MetricsSnapshot s2 = reg.Snapshot();
  reg.Clear();

  MetricsSnapshot ab = s1;
  ab.Merge(s2);
  MetricsSnapshot ba = s2;
  ba.Merge(s1);
  EXPECT_EQ(ab.ToPrometheus(), ba.ToPrometheus());
  EXPECT_EQ(ab.CounterValue("c_total", {{"k", "a"}}), 7u);
  const HistogramData* h = ab.Histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  EXPECT_EQ(h->min, 10.0);
  EXPECT_EQ(h->max, 2000.0);
  const MetricCell* g = ab.Find("g");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->gauge, 7.0);  // Gauges merge by max: order-independent.
}

TEST(SnapshotTest, PrometheusSegregatesHostTimingAfterMarker) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.Clear();
  reg.CounterAdd("stable_total", {{"k", "v"}}, 9);
  reg.HistogramObserve("stable_cycles", {}, 42.0);
  reg.HostHistogramObserve("wall_seconds", {}, 0.5);
  const MetricsSnapshot snap = reg.Snapshot();
  reg.Clear();

  const std::string with_host = snap.ToPrometheus(/*include_host_timing=*/true);
  EXPECT_NE(with_host.find("# TYPE stable_total counter"), std::string::npos);
  EXPECT_NE(with_host.find("# TYPE stable_cycles histogram"),
            std::string::npos);
  EXPECT_NE(with_host.find("stable_total{k=\"v\"} 9"), std::string::npos);
  EXPECT_NE(with_host.find("stable_cycles_count 1"), std::string::npos);
  EXPECT_NE(with_host.find("le=\"+Inf\""), std::string::npos);
  const size_t marker =
      with_host.find("# host-timing metrics below (not replay-stable)");
  const size_t host_sample = with_host.find("wall_seconds_count");
  ASSERT_NE(marker, std::string::npos);
  ASSERT_NE(host_sample, std::string::npos);
  EXPECT_GT(host_sample, marker);

  // The replay-stable rendering carries no host samples at all.
  const std::string stable = snap.ToPrometheus(/*include_host_timing=*/false);
  EXPECT_EQ(stable.find("wall_seconds"), std::string::npos);
  EXPECT_NE(stable.find("stable_total"), std::string::npos);
}

TEST(JsonTest, SchemaRoundTrip) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.Clear();
  reg.CounterAdd("a_total", {{"tenant", "t0"}}, 3);
  reg.GaugeMax("peak_bytes", {}, 4096);
  reg.HistogramObserve("wait_cycles", {{"tenant", "t0"}}, 17.0);
  reg.HistogramObserve("wait_cycles", {{"tenant", "t0"}}, 90000.0);
  reg.HostHistogramObserve("wall_seconds", {}, 0.25);
  const MetricsSnapshot snap = reg.Snapshot();
  reg.Clear();

  for (bool host : {true, false}) {
    const std::string json = snap.ToJson("unit_test", host);
    auto doc = ParseJson(json);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    const Status valid = ValidateMetricsReport(*doc);
    EXPECT_TRUE(valid.ok()) << valid.ToString();
  }
}

TEST(JsonTest, SchemaRejectsMalformedReports) {
  const char* bad[] = {
      // Wrong schema version.
      R"({"schema_version":2,"bench":"x","metrics":[]})",
      // Counter with a negative value.
      R"({"schema_version":1,"bench":"x","metrics":[
           {"name":"a_total","type":"counter","host_timing":false,
            "labels":{},"value":-1}]})",
      // Histogram whose bucket counts do not sum to "count".
      R"({"schema_version":1,"bench":"x","metrics":[
           {"name":"h","type":"histogram","host_timing":false,"labels":{},
            "count":3,"sum":10,"min":1,"max":5,
            "buckets":[{"le":2.0,"count":1},{"le":8.0,"count":1}]}]})",
      // Histogram with non-ascending bucket bounds.
      R"({"schema_version":1,"bench":"x","metrics":[
           {"name":"h","type":"histogram","host_timing":false,"labels":{},
            "count":2,"sum":4,"min":1,"max":3,
            "buckets":[{"le":8.0,"count":1},{"le":2.0,"count":1}]}]})",
      // Unknown metric type.
      R"({"schema_version":1,"bench":"x","metrics":[
           {"name":"a","type":"meter","host_timing":false,
            "labels":{},"value":1}]})",
      // host_timing must be a boolean.
      R"({"schema_version":1,"bench":"x","metrics":[
           {"name":"a_total","type":"counter","host_timing":0,
            "labels":{},"value":1}]})",
  };
  for (const char* doc : bad) {
    auto parsed = ParseJson(doc);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_FALSE(ValidateMetricsReport(*parsed).ok()) << doc;
  }
}

// --- Determinism across threads, tracing, and fault replay -----------------

/// Runs a fixed multi-tenant service workload and returns the registry's
/// replay-stable Prometheus rendering.
std::string ServiceWorkloadProm(int sim_threads, bool traced) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.Clear();
  Tracer::Global().Clear();
  Tracer::Global().set_enabled(traced);

  workload::JoinWorkloadSpec jspec;
  jspec.r_rows = 1 << 9;
  jspec.s_rows = 1 << 10;
  jspec.seed = 7;
  auto jw = workload::GenerateJoinInput(jspec);
  GPUJOIN_CHECK_OK(jw.status());
  workload::GroupByWorkloadSpec gspec;
  gspec.rows = 1 << 10;
  gspec.num_groups = 1 << 5;
  gspec.seed = 11;
  auto gw = workload::GenerateGroupByInput(gspec);
  GPUJOIN_CHECK_OK(gw.status());

  vgpu::Device device = MakeTestDevice();
  device.set_parallel_sim(sim_threads);
  service::QueryService svc(device);
  for (int i = 0; i < 2; ++i) {
    service::QueryRequest req;
    req.name = "j" + std::to_string(i);
    req.kind = service::QueryKind::kJoin;
    req.join_algo = join::JoinAlgo::kPhjOm;
    req.r = &jw->r;
    req.s = &jw->s;
    req.tenant = i == 0 ? "alpha" : "beta";
    GPUJOIN_CHECK_OK(svc.Submit(std::move(req)).status());
  }
  service::QueryRequest greq;
  greq.name = "g";
  greq.kind = service::QueryKind::kGroupBy;
  greq.r = &*gw;
  greq.groupby_spec.aggregates = {{1, groupby::AggOp::kSum}};
  greq.tenant = "alpha";
  GPUJOIN_CHECK_OK(svc.Submit(std::move(greq)).status());
  GPUJOIN_CHECK_OK(svc.Drain());

  const std::string prom =
      reg.Snapshot().ToPrometheus(/*include_host_timing=*/false);
  reg.Clear();
  Tracer::Global().set_enabled(false);
  Tracer::Global().Clear();
  return prom;
}

TEST(MetricsDeterminismTest, StableAcrossSimThreadsAndTracing) {
  const std::string baseline = ServiceWorkloadProm(1, /*traced=*/false);
  EXPECT_FALSE(baseline.empty());
  EXPECT_NE(baseline.find("service_admissions_total"), std::string::npos);
  for (int threads : {2, 7, 16}) {
    EXPECT_EQ(baseline, ServiceWorkloadProm(threads, /*traced=*/false))
        << "sim_threads=" << threads;
  }
  EXPECT_EQ(baseline, ServiceWorkloadProm(1, /*traced=*/true));
  EXPECT_EQ(baseline, ServiceWorkloadProm(16, /*traced=*/true));
}

/// One resilient join against a device that fails the Nth allocation: the
/// fault is absorbed by the degradation ladder and metered; replaying the
/// identical run must meter identically.
std::string FaultReplayProm() {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.Clear();

  workload::JoinWorkloadSpec spec;
  spec.r_rows = 1 << 9;
  spec.s_rows = 1 << 10;
  spec.seed = 7;
  auto w = workload::GenerateJoinInput(spec);
  GPUJOIN_CHECK_OK(w.status());

  vgpu::Device device(
      vgpu::DeviceConfig::ScaledToWorkload(vgpu::DeviceConfig::A100(),
                                           uint64_t{1} << 16),
      vgpu::FaultInjector::FailNth(4));
  service::QueryService svc(device);
  service::QueryRequest req;
  req.kind = service::QueryKind::kJoin;
  req.join_algo = join::JoinAlgo::kPhjOm;
  req.r = &w->r;
  req.s = &w->s;
  GPUJOIN_CHECK_OK(svc.Submit(std::move(req)).status());
  GPUJOIN_CHECK_OK(svc.Drain());

  const std::string prom =
      reg.Snapshot().ToPrometheus(/*include_host_timing=*/false);
  reg.Clear();
  return prom;
}

TEST(MetricsDeterminismTest, StableUnderFaultInjectionReplay) {
  const std::string first = FaultReplayProm();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, FaultReplayProm());
}

// --- Reconciliation invariants ---------------------------------------------

TEST(MetricsReconciliationTest, AdmissionsMatchTerminalOutcomes) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.Clear();

  workload::JoinWorkloadSpec spec;
  spec.r_rows = 1 << 9;
  spec.s_rows = 1 << 10;
  spec.seed = 7;
  auto w = workload::GenerateJoinInput(spec);
  GPUJOIN_CHECK_OK(w.status());

  vgpu::Device device = MakeTestDevice();
  // A budget far below the join's estimate forces structured rejections
  // alongside the successes — the invariant must hold across every
  // admission class.
  service::ServiceOptions opts;
  opts.max_queue = 0;
  opts.tenants.push_back({"starved", 1, 0, 0});
  service::QueryService svc(device, opts);
  for (int i = 0; i < 4; ++i) {
    service::QueryRequest req;
    req.name = "q" + std::to_string(i);
    req.kind = service::QueryKind::kJoin;
    req.join_algo = join::JoinAlgo::kPhjOm;
    req.r = &w->r;
    req.s = &w->s;
    if (i % 2 == 1) req.tenant = "starved";
    GPUJOIN_CHECK_OK(svc.Submit(std::move(req)).status());
  }
  GPUJOIN_CHECK_OK(svc.Drain());

  const MetricsSnapshot snap = reg.Snapshot();
  const uint64_t submitted = svc.outcomes().size();
  EXPECT_EQ(snap.CounterTotal("service_admissions_total"), submitted);
  EXPECT_EQ(snap.CounterTotal("service_outcomes_total"), submitted);
  // At least one rejection actually happened, so the invariant was tested
  // across classes, not vacuously.
  EXPECT_GT(snap.CounterValue("service_admissions_total",
                              {{"decision", "rejected"},
                               {"tenant", "starved"}}),
            0u);
  reg.Clear();
}

TEST(MetricsReconciliationTest, RouterDecisionsMatchRoutedOps) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.Clear();

  workload::JoinWorkloadSpec jspec;
  jspec.r_rows = 1 << 9;
  jspec.s_rows = 1 << 10;
  jspec.seed = 7;
  auto jw = workload::GenerateJoinInput(jspec);
  GPUJOIN_CHECK_OK(jw.status());
  workload::GroupByWorkloadSpec gspec;
  gspec.rows = 1 << 10;
  gspec.num_groups = 1 << 5;
  gspec.seed = 11;
  auto gw = workload::GenerateGroupByInput(gspec);
  GPUJOIN_CHECK_OK(gw.status());

  vgpu::Device device = MakeTestDevice();
  ops::Router router(device);
  for (int i = 0; i < 2; ++i) {
    ops::JoinOp op;
    op.algo = join::JoinAlgo::kPhjOm;
    op.r = &jw->r;
    op.s = &jw->s;
    GPUJOIN_CHECK_OK(router.RunJoin(op).status());
  }
  ops::GroupByOp gop;
  gop.input = &*gw;
  gop.spec.aggregates = {{1, groupby::AggOp::kSum}};
  GPUJOIN_CHECK_OK(router.RunGroupBy(gop).status());

  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterTotal("router_decisions_total"), 3u);
  EXPECT_EQ(snap.CounterTotal("router_ops_total"), 3u);
  EXPECT_EQ(snap.CounterTotal("ops_executed_total"), 3u);
  EXPECT_EQ(router.decisions().size(), 3u);
  reg.Clear();
}

}  // namespace
}  // namespace gpujoin::obs
