// service-openloop: a two-tenant QueryService on the default vgpu backend
// (A100 scaled to 2^20), fed an open-loop Poisson arrival schedule on the
// simulated clock.
//
//   batch        priority 0: PHJ-OM joins of 2^15 x 2^16, auto-fragmented,
//                1 query in 8
//   interactive  priority 1: alternating PHJ-OM joins of 2^10 x 2^11 and
//                GB-HASH-PART group-bys of 2^14 rows / 2^8 groups
//
// Every query is submitted with its scheduled arrival_cycles before Drain(),
// so time spent waiting for admission, behind the DWRR scheduler, or in a
// preempted fragment counts toward its latency (arrival to finish). The
// offered rate steps through a fixed ladder; the reference rate's latencies
// are the headline numbers, and the highest rate that keeps the interactive
// p95 under the SLO, fails nothing, and drains its backlog within one batch
// query's solo time is the capacity.
//
// A closed-loop stream of interactive queries (Submit + Drain one at a
// time, one round after each rate) gives the per-query host cost of the
// service stack: the median over queries of each query's best round.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench.h"
#include "groupby/groupby.h"
#include "groupby/reference.h"
#include "join/join.h"
#include "join/reference.h"
#include "service/query_service.h"
#include "stats/estimator.h"
#include "storage/table.h"
#include "vgpu/device.h"
#include "vgpu/profiler.h"
#include "workload/generator.h"

namespace perfbench {

const std::vector<uint64_t>& LadderRates() {
  static const std::vector<uint64_t> kRates = {5000, 10000, 20000, 40000,
                                               80000};
  return kRates;
}

LadderVerdict JudgeRung(double interactive_p95_us, size_t not_ok,
                        double backlog_cycles, double allowance_cycles) {
  LadderVerdict v;
  v.latency_ok = interactive_p95_us <= kServiceSloUs;
  v.none_failed = not_ok == 0;
  v.backlog_ok = backlog_cycles <= allowance_cycles;
  return v;
}

namespace {

using gpujoin::HostTable;
using gpujoin::service::QueryKind;
using gpujoin::service::QueryOutcome;
using gpujoin::service::QueryRequest;
using gpujoin::service::QueryService;
using gpujoin::service::ServiceOptions;
namespace vgpu = gpujoin::vgpu;
namespace workload = gpujoin::workload;

constexpr size_t kQueriesPerRate = 256;
constexpr uint64_t kReferenceRate = 20000;

enum class Shape { kBatchJoin, kSmallJoin, kSmallGroupBy };

struct Inputs {
  workload::JoinWorkload batch;
  workload::JoinWorkload small_join;
  HostTable small_groupby;
};

Inputs Generate(const Config& c) {
  Span span("workload.gen");
  Inputs in;
  workload::JoinWorkloadSpec b;
  b.r_rows = uint64_t{1} << (15 - c.shrink);
  b.s_rows = b.r_rows * 2;
  b.seed = c.seed * 1000 + 1;
  auto bw = workload::GenerateJoinInput(b);
  GPUJOIN_CHECK_OK(bw.status());
  in.batch = std::move(*bw);
  workload::JoinWorkloadSpec j;
  j.r_rows = uint64_t{1} << 10;
  j.s_rows = uint64_t{1} << 11;
  j.seed = c.seed * 1000 + 2;
  auto jw = workload::GenerateJoinInput(j);
  GPUJOIN_CHECK_OK(jw.status());
  in.small_join = std::move(*jw);
  workload::GroupByWorkloadSpec g;
  g.rows = uint64_t{1} << 14;
  g.num_groups = uint64_t{1} << 8;
  g.seed = c.seed * 1000 + 3;
  auto gw = workload::GenerateGroupByInput(g);
  GPUJOIN_CHECK_OK(gw.status());
  in.small_groupby = std::move(*gw);
  return in;
}

uint64_t Tuples(const Inputs& in, Shape shape) {
  switch (shape) {
    case Shape::kBatchJoin:
      return in.batch.r.num_rows() + in.batch.s.num_rows();
    case Shape::kSmallJoin:
      return in.small_join.r.num_rows() + in.small_join.s.num_rows();
    case Shape::kSmallGroupBy:
      return in.small_groupby.num_rows();
  }
  return 0;
}

/// Shape of the i-th query: one batch join in eight, the rest alternate
/// between the two interactive shapes.
Shape ShapeOf(size_t i) {
  if (i % 8 == 0) return Shape::kBatchJoin;
  return (i % 8) % 2 == 1 ? Shape::kSmallJoin : Shape::kSmallGroupBy;
}

QueryRequest MakeRequest(const Inputs& in, Shape shape, size_t i) {
  QueryRequest req;
  req.name = "q" + std::to_string(i);
  if (shape == Shape::kSmallGroupBy) {
    req.kind = QueryKind::kGroupBy;
    req.groupby_algo = gpujoin::groupby::GroupByAlgo::kHashPartitioned;
    req.groupby_spec = SumSpec();
    req.r = &in.small_groupby;
  } else {
    req.kind = QueryKind::kJoin;
    req.join_algo = gpujoin::join::JoinAlgo::kPhjOm;
    const workload::JoinWorkload& w =
        shape == Shape::kBatchJoin ? in.batch : in.small_join;
    req.r = &w.r;
    req.s = &w.s;
  }
  const bool batch = shape == Shape::kBatchJoin;
  req.tenant = batch ? "batch" : "interactive";
  req.priority = batch ? 0 : 1;
  return req;
}

vgpu::DeviceConfig ServiceDeviceConfig(const Config& c) {
  return vgpu::DeviceConfig::ScaledToWorkload(vgpu::DeviceConfig::A100(),
                                              uint64_t{1} << (20 - c.shrink));
}

ServiceOptions MakeServiceOptions() {
  ServiceOptions opts;
  // Room for every query of a rate in the queues: nothing is rejected by
  // backpressure, so overload shows as latency, not as refusals.
  opts.max_queue = kQueriesPerRate;
  opts.tenants.push_back({"batch", 0, 0, kQueriesPerRate});
  opts.tenants.push_back({"interactive", 0, 0, kQueriesPerRate});
  // Split queries above 1% of the budget: the batch joins run as several
  // fragments that interactive queries can preempt between; the small
  // queries stay whole.
  opts.scheduler.fragment_target_fraction = 0.01;
  return opts;
}

/// Poisson arrivals at `rate` queries per simulated second. The schedule is
/// part of the workload's definition and does not follow --seed: with 256
/// arrivals per rate, a fresh schedule per seed moves the tail percentiles
/// and the capacity rung more than any regression worth catching. --seed
/// varies the data every query reads.
std::vector<double> ArrivalCycles(uint64_t rate, double clock_hz) {
  constexpr uint64_t kScheduleSeed = 0x0a11c0de;
  std::mt19937_64 rng(kScheduleSeed * 1000003 + rate);
  std::exponential_distribution<double> gap(static_cast<double>(rate));
  std::vector<double> at(kQueriesPerRate);
  double t = 0;
  for (double& a : at) {
    t += gap(rng);
    a = std::floor(t * clock_hz);
  }
  return at;
}

struct RateRun {
  std::vector<QueryOutcome> outcomes;
  std::vector<Checksum> checksums;
  std::vector<double> arrivals;
  std::vector<Shape> shapes;
  double drain_host_s = 0;
  double setup_s = 0;
  uint64_t peak_bytes = 0;
  vgpu::KernelStats total;
  uint64_t kernels = 0;
  double sim_host_s = 0;
  double sim_cpu_s = 0;
  std::map<std::string, double> kernel_host;
  // The capacity test's inputs (simulated clock).
  double interactive_p95_us = 0;
  size_t interactive_n = 0;  // Samples behind the p95.
  double backlog_cycles = 0;  // Last finish minus last arrival.
  size_t not_ok = 0;
  size_t rejected = 0;
};

double ToUs(const vgpu::DeviceConfig& config, double cycles) {
  return config.CyclesToSeconds(cycles) * 1e6;
}

RateRun RunRate(Report& report, const Config& c, const Inputs& in, uint64_t rate) {
  RateRun run;
  const double t_setup = Now();
  auto device = std::make_unique<vgpu::Device>(
      ServiceDeviceConfig(c), vgpu::FaultInjector{}, nullptr, c.sim_threads);
  PeakWatcher watcher;
  device->set_kernel_observer(&watcher);
  QueryService service(*device, MakeServiceOptions());
  run.arrivals = ArrivalCycles(rate, device->config().clock_ghz * 1e9);
  for (size_t i = 0; i < kQueriesPerRate; ++i) {
    const Shape shape = ShapeOf(i);
    QueryRequest req = MakeRequest(in, shape, i);
    req.arrival_cycles = run.arrivals[i];
    run.shapes.push_back(shape);
    Span span("service.Submit");
    auto id = service.Submit(std::move(req));
    if (!id.ok()) report.Fail("submit: " + id.status().ToString());
  }
  run.setup_s = Now() - t_setup;

  const double t_drain = Now();
  gpujoin::Status st = [&] {
    Span span("service.Drain");
    return service.Drain();
  }();
  run.drain_host_s = Now() - t_drain;
  if (!st.ok()) report.Fail("drain: " + st.ToString());
  // Keep each outcome's checksum, not its rows, so memory stays flat.
  run.outcomes = service.outcomes();
  for (QueryOutcome& o : run.outcomes) {
    run.checksums.push_back(ChecksumOf(o.output));
    o.output = HostTable{};
  }
  run.peak_bytes = watcher.peak(*device);
  run.total = device->total_stats();
  run.kernels = device->kernels_launched();
  run.sim_host_s = device->host_kernel_seconds();
  run.sim_cpu_s = device->host_kernel_cpu_seconds();
  for (const auto& prof : device->profiler().Profiles()) {
    run.kernel_host[prof.name] = prof.host_seconds;
  }
  device->set_kernel_observer(nullptr);

  std::vector<double> interactive;
  double last_finish = 0;
  for (size_t i = 0; i < run.outcomes.size(); ++i) {
    const QueryOutcome& o = run.outcomes[i];
    if (!o.status.ok()) ++run.not_ok;
    if (o.admission == gpujoin::service::AdmissionDecision::kRejected) ++run.rejected;
    last_finish = std::max(last_finish, o.finished_at_cycles);
    if (run.shapes[i] != Shape::kBatchJoin) {
      interactive.push_back(ToUs(device->config(), o.finished_at_cycles - run.arrivals[i]));
    }
  }
  run.interactive_p95_us = Quantile(interactive, 0.95);
  run.interactive_n = interactive.size();
  run.backlog_cycles = last_finish - run.arrivals.back();
  return run;
}

/// Simulated solo time of one batch query through an otherwise idle
/// service: the backlog allowance of the capacity test.
double BatchSoloCycles(const Config& c, const Inputs& in) {
  vgpu::Device device(ServiceDeviceConfig(c), vgpu::FaultInjector{}, nullptr,
                      c.sim_threads);
  QueryService service(device, MakeServiceOptions());
  GPUJOIN_CHECK_OK(service.Submit(MakeRequest(in, Shape::kBatchJoin, 0)).status());
  GPUJOIN_CHECK_OK(service.Drain());
  return device.elapsed_cycles();
}

/// Peak device bytes of one query shape run alone, unfragmented (the
/// quantity the admission estimate predicts).
uint64_t SoloPeakBytes(const Config& c, const Inputs& in, Shape shape) {
  vgpu::Device device(ServiceDeviceConfig(c), vgpu::FaultInjector{}, nullptr,
                      c.sim_threads);
  if (shape == Shape::kSmallGroupBy) {
    auto t = gpujoin::Table::FromHost(device, in.small_groupby);
    GPUJOIN_CHECK_OK(t.status());
    auto res = gpujoin::groupby::RunGroupBy(
        device, gpujoin::groupby::GroupByAlgo::kHashPartitioned, *t, SumSpec());
    GPUJOIN_CHECK_OK(res.status());
    return res->peak_mem_bytes;
  }
  const workload::JoinWorkload& w =
      shape == Shape::kBatchJoin ? in.batch : in.small_join;
  auto r = gpujoin::Table::FromHost(device, w.r);
  GPUJOIN_CHECK_OK(r.status());
  auto s = gpujoin::Table::FromHost(device, w.s);
  GPUJOIN_CHECK_OK(s.status());
  auto res = gpujoin::join::RunJoin(device, gpujoin::join::JoinAlgo::kPhjOm, *r, *s);
  GPUJOIN_CHECK_OK(res.status());
  return res->peak_mem_bytes;
}

}  // namespace

void RunServiceOpenLoop(Report& report) {
  const Config& c = report.config();
  const vgpu::DeviceConfig dc = ServiceDeviceConfig(c);
  const std::vector<uint64_t>& rates = LadderRates();

  std::vector<RateRun> ladder;  // Last pass's runs, one per rate.
  std::map<std::string, double> best_layers;
  double best_traced_s = 1e300;
  BestOf drain_best;   // Host seconds per rate, untraced passes.
  BestOf closed_best;  // Host us per closed-loop query, untraced rounds.
  std::vector<Shape> closed_shapes;  // The schedule's interactive queries.
  for (size_t i = 0; i < kQueriesPerRate; ++i) {
    if (ShapeOf(i) != Shape::kBatchJoin) closed_shapes.push_back(ShapeOf(i));
  }
  double total_tuples = 0;
  std::map<int, Checksum> shape_checksums;  // Pass-0 outputs by shape.
  bool outputs_consistent = true;
  double solo_cycles = 0;  // Backlog allowance of the capacity test.

  const double started = Now();
  for (int pass = 0; MorePasses(c, pass, started); ++pass) {
    const bool traced = BeginPass(c, pass);
    const std::string hk = traced ? "traced." : "";

    const double t_gen = Now();
    const Inputs in = Generate(c);
    double setup_s = Now() - t_gen;
    double drain_s = 0;
    solo_cycles = BatchSoloCycles(c, in);
    report.Exact("batch_solo_cycles", solo_cycles);
    ladder.clear();
    total_tuples = 0;
    std::vector<double> closed_us;  // Every closed-loop query of the pass.
    for (uint64_t rate : rates) {
      ladder.push_back(RunRate(report, c, in, rate));
      RateRun& run = ladder.back();
      setup_s += run.setup_s;
      drain_s += run.drain_host_s;
      if (!traced) drain_best.Add(ladder.size() - 1, run.drain_host_s);
      report.Attempt(run.outcomes.size());
      const std::string rk = "rate" + std::to_string(rate);
      for (size_t i = 0; i < run.outcomes.size(); ++i) {
        const QueryOutcome& o = run.outcomes[i];
        const Shape shape = run.shapes[i];
        total_tuples += static_cast<double>(Tuples(in, shape));
        const std::string qk = rk + ".q" + std::to_string(i);
        report.Exact(qk + ".finished", o.finished_at_cycles);
        report.Exact(qk + ".status", static_cast<double>(o.status.code()));
        report.Exact(qk + ".turns", o.fragment_turns);
        if (!o.status.ok()) {
          report.Fail(qk + ": " + o.status.ToString());
          continue;
        }
        // Fragmented outputs come back in fragment order, so compare as
        // row multisets: every query of a shape must return the same rows.
        const Checksum& cs = run.checksums[i];
        report.ExactChecksum(qk, cs);
        auto [it, inserted] = shape_checksums.try_emplace(static_cast<int>(shape), cs);
        if (!inserted && !(it->second == cs)) outputs_consistent = false;
      }
      report.Exact(rk + ".peak_bytes", static_cast<double>(run.peak_bytes));
      report.Exact(rk + ".cycles", run.total.cycles);
      report.Exact(rk + ".interactive_p95_us", run.interactive_p95_us);
      report.Exact(rk + ".backlog_cycles", run.backlog_cycles);

      // Closed loop: one round of the schedule's interactive queries (4
      // joins to 3 group-bys, so the median falls inside one shape's
      // cluster), one at a time through a fresh service. The device runs at
      // the library's default fan-out of 1, so no worker handoff is timed
      // per kernel. A round follows every rate's Drain, so each query's
      // samples spread over the whole run: a shared host's speed shifts by
      // up to 1.5x for seconds at a time, and each query's best has to
      // catch a fast stretch.
      vgpu::Device device(dc, vgpu::FaultInjector{}, nullptr, 1);
      QueryService service(device, MakeServiceOptions());
      std::vector<double> round_us;
      for (size_t i = 0; i < closed_shapes.size(); ++i) {
        const Shape shape = closed_shapes[i];
        report.Attempt();
        const double t = Now();
        auto id = service.Submit(MakeRequest(in, shape, i));
        gpujoin::Status st = service.Drain();
        round_us.push_back((Now() - t) * 1e6);
        if (!traced) closed_best.Add(i, round_us.back());
        if (!id.ok() || !st.ok() || !service.outcome(*id).status.ok()) {
          report.Fail("closed-loop query " + std::to_string(i) + " failed");
          continue;
        }
        const Checksum cs = ChecksumOf(service.outcome(*id).output);
        auto [it, inserted] = shape_checksums.try_emplace(static_cast<int>(shape), cs);
        if (!inserted && !(it->second == cs)) outputs_consistent = false;
      }
      report.Exact(rk + ".closed.cycles", device.elapsed_cycles());
      report.Host(hk + "closed_round_us_p50", Quantile(round_us, 0.5));
      closed_us.insert(closed_us.end(), round_us.begin(), round_us.end());
    }

    report.Host(hk + "setup_s", setup_s);
    report.Host(hk + "drain_s", drain_s);

    if (traced && drain_s < best_traced_s) {
      best_traced_s = drain_s;
      std::map<std::string, double> l;
      for (const RateRun& run : ladder) {
        l["vgpu.host_s"] += run.sim_host_s;
        l["vgpu.host_cpu_s"] += run.sim_cpu_s;
        for (const auto& [k, v] : run.kernel_host) l["kernel." + k] += v;
      }
      for (const auto& [layer, s] : GlobalTracer().SelfSeconds()) {
        l["span." + layer] = s;
      }
      for (size_t i = 0; i < rates.size(); ++i) {
        if (rates[i] == kReferenceRate) l["drain_host_s"] = ladder[i].drain_host_s;
      }
      l["closed_us_p95"] = Quantile(closed_us, 0.95);
      // Host cost of the admission estimate Submit runs per query.
      const double t = Now();
      constexpr int kEstimates = 1000;
      uint64_t bytes = 0;
      for (int i = 0; i < kEstimates; ++i) {
        bytes += gpujoin::stats::EstimateJoinMemory(in.small_join.r, in.small_join.s)
                     .total_bytes();
      }
      l["estimate_us"] = (Now() - t) * 1e6 / kEstimates;
      if (bytes == 0) report.Fail("admission estimate of 0 bytes");
      best_layers = std::move(l);
    }
    report.EndPass();
  }
  GlobalTracer().set_enabled(false);
  const double rss = PeakRssMb();

  // --- Output checks (once per run) against the host references ---
  const Inputs in = Generate(c);
  {
    const Checksum batch_want = JoinChecksum(in.batch.r, in.batch.s);
    const Checksum join_want =
        ChecksumOf(gpujoin::join::ReferenceJoinRows(in.small_join.r, in.small_join.s));
    const Checksum gb_want = ChecksumOf(
        gpujoin::groupby::ReferenceGroupByRows(in.small_groupby, SumSpec()));
    const std::map<int, Checksum> want = {
        {static_cast<int>(Shape::kBatchJoin), batch_want},
        {static_cast<int>(Shape::kSmallJoin), join_want},
        {static_cast<int>(Shape::kSmallGroupBy), gb_want}};
    for (const auto& [shape, cs] : shape_checksums) {
      if (!(want.at(shape) == cs)) {
        report.Fail("query shape " + std::to_string(shape) +
                    ": output differs from the host reference");
      }
    }
    if (!outputs_consistent) report.Fail("queries of one shape returned different rows");
  }

  // --- Ladder evaluation (simulated clock, exact) ---
  const RateRun* ref = nullptr;
  uint64_t qps_at_slo = 0;
  double peak_bytes = 0;
  uint64_t rejected = 0;
  for (size_t r = 0; r < rates.size(); ++r) {
    const RateRun& run = ladder[r];
    if (rates[r] == kReferenceRate) ref = &run;
    rejected += run.rejected;
    const LadderVerdict v = JudgeRung(run.interactive_p95_us, run.not_ok,
                                      run.backlog_cycles, solo_cycles);
    if (v.meets()) qps_at_slo = std::max(qps_at_slo, rates[r]);
    peak_bytes = std::max(peak_bytes, static_cast<double>(run.peak_bytes));
    report.Layer("service.backlog_us.at_" + std::to_string(rates[r]),
                 ToUs(dc, run.backlog_cycles));
    char buf[240];
    std::snprintf(buf, sizeof(buf),
                  "  rate %7llu q/sim-s: interactive p95 %.3f us (n=%zu, SLO %.1f), "
                  "backlog %.3f us (allowance %.3f), not ok %zu -> %s%s%s%s",
                  static_cast<unsigned long long>(rates[r]), run.interactive_p95_us,
                  run.interactive_n, kServiceSloUs, ToUs(dc, run.backlog_cycles),
                  ToUs(dc, solo_cycles), run.not_ok,
                  v.meets() ? "meets SLO" : "misses SLO:", v.latency_ok ? "" : " p95", v.backlog_ok ? "" : " backlog",
                  v.none_failed ? "" : " failures");
    report.Log(buf);
  }
  if (qps_at_slo == 0 || qps_at_slo == rates.back()) {
    report.Log("  note: the ladder does not bracket the SLO");
  }

  std::vector<double> all_us, interactive_us, wait_us, run_us;
  double join_tuples = 0, join_run = 0, gb_tuples = 0, gb_run = 0;
  double turns = 0, fragments = 0, preemptions = 0, est_ratio = 0;
  std::map<int, double> solo_peak;
  for (Shape s : {Shape::kBatchJoin, Shape::kSmallJoin, Shape::kSmallGroupBy}) {
    solo_peak[static_cast<int>(s)] = static_cast<double>(SoloPeakBytes(c, in, s));
  }
  for (size_t i = 0; i < ref->outcomes.size(); ++i) {
    const QueryOutcome& o = ref->outcomes[i];
    const Shape shape = ref->shapes[i];
    const double us = ToUs(dc, o.finished_at_cycles - ref->arrivals[i]);
    all_us.push_back(us);
    if (shape != Shape::kBatchJoin) interactive_us.push_back(us);
    wait_us.push_back(ToUs(dc, o.wait_cycles));
    run_us.push_back(ToUs(dc, o.run_cycles));
    const double tuples = static_cast<double>(Tuples(in, shape));
    const double run_s = dc.CyclesToSeconds(o.run_cycles);
    if (shape == Shape::kSmallGroupBy) {
      gb_tuples += tuples;
      gb_run += run_s;
    } else {
      join_tuples += tuples;
      join_run += run_s;
    }
    turns += o.fragment_turns;
    fragments += o.fragments_total;
    preemptions += o.preemptions;
    est_ratio += static_cast<double>(o.estimate.total_bytes()) /
                 solo_peak[static_cast<int>(shape)];
  }

  if (!c.trace) {
    report.EndToEnd("join_sim_mtuples_per_s", join_tuples / join_run / 1e6);
    report.EndToEnd("groupby_sim_mtuples_per_s", gb_tuples / gb_run / 1e6);
    report.EndToEnd("query_sim_us_p50", report.Percentile("query_sim_us", all_us, 0.5));
    report.EndToEnd("query_sim_us_p95", report.Percentile("query_sim_us", all_us, 0.95));
    report.EndToEnd("interactive_sim_us_p95",
                    report.Percentile("interactive_sim_us", interactive_us, 0.95));
    report.EndToEnd("sim_qps_at_slo", static_cast<double>(qps_at_slo));
    report.HostSpread("drain_s");
    report.EndToEnd("host_mtuples_per_s", total_tuples / drain_best.Sum() / 1e6);
    report.HostSpread("closed_round_us_p50");
    report.EndToEnd("small_op_host_us_p50", closed_best.Quantile(0.5));
    report.EndToEnd("peak_device_mb", peak_bytes / kMB);
    report.EndToEnd("peak_rss_mb", rss);
    report.EndToEnd("setup_s", report.HostSpread("setup_s").median);
    return;
  }

  auto at_best = [&](const std::string& k) {
    auto it = best_layers.find(k);
    return it == best_layers.end() ? 0.0 : it->second;
  };
  report.Layer("workload.gen_s", at_best("span.workload.gen"));
  vgpu::KernelStats total;
  uint64_t kernels = 0;
  for (const RateRun& run : ladder) {
    total.Add(run.total);
    kernels += run.kernels;
  }
  std::map<std::string, double> kernel_host;
  for (const auto& [k, v] : best_layers) {
    if (k.rfind("kernel.", 0) == 0) kernel_host[k.substr(7)] = v;
  }
  ReportVgpuLayers(report, total, kernels, kernel_host, at_best("vgpu.host_s"),
                   at_best("vgpu.host_cpu_s"));
  report.Layer("stats.estimate_over_peak", est_ratio / static_cast<double>(ref->outcomes.size()));
  report.Layer("stats.estimate_us", at_best("estimate_us"));
  report.Layer("service.wait_us_p95", report.Percentile("service.wait_us", wait_us, 0.95));
  report.Layer("service.run_us_p50", report.Percentile("service.run_us", run_us, 0.5));
  report.Layer("service.preemptions", preemptions);
  report.Layer("service.rerun_ratio", fragments > 0 ? turns / fragments : 0);
  report.Layer("service.rejected", static_cast<double>(rejected));
  report.Layer("service.drain_host_s", at_best("drain_host_s"));
  report.Layer("small_op_host_us_p95", at_best("closed_us_p95"));
  const double traced = report.HostSpread("traced.drain_s").min;
  const double untraced = report.HostSpread("drain_s").min;
  report.Layer("obs.trace_overhead", traced / untraced - 1);
}

}  // namespace perfbench
