// cpux-ops: ops::Router forced to the vectorized CPU backend with a
// two-worker pool (the GPUJOIN_BACKEND=cpux path).
//
//   large  the five join engines at |R| = 2^20, |S| = 2^21 and the three
//          group-by strategies at 2^21 rows / 2^16 groups
//   small  a stream of 2000 mixed ops of 2^8..2^12 rows, where the per-op
//          fixed cost of routing, dispatch and the engines' set-up dominates
//
// The timed passes run zero simulated cycles, so a simulator change must
// leave this workload's host numbers unmoved. The first 240 small ops are
// also run through a router forced to vgpu: their outputs must equal the
// cpux outputs, and their simulated times are this workload's simulated
// metrics (what the same small ops cost on the device).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "groupby/groupby.h"
#include "groupby/reference.h"
#include "join/join.h"
#include "join/reference.h"
#include "ops/operator.h"
#include "ops/router.h"
#include "vgpu/device.h"
#include "vgpu/profiler.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using gpujoin::HostTable;
using gpujoin::groupby::GroupByAlgo;
using gpujoin::groupby::GroupByAlgoName;
using gpujoin::join::JoinAlgo;
using gpujoin::join::JoinAlgoName;
namespace ops = gpujoin::ops;
namespace vgpu = gpujoin::vgpu;
namespace workload = gpujoin::workload;

constexpr size_t kSmallOps = 50 * kSmallOpKinds;  // 2000
constexpr size_t kTwinOps = 6 * kSmallOpKinds;    // 240
/// cpux pool size (4-core hosts: two workers leave room for the
/// coordinator and the OS).
constexpr int kCpuxThreads = 2;

struct Inputs {
  workload::JoinWorkload join;
  HostTable groupby;
  SmallPool small;
};

Inputs Generate(const Config& c) {
  Span span("workload.gen");
  Inputs in;
  workload::JoinWorkloadSpec j;
  j.r_rows = uint64_t{1} << (20 - c.shrink);
  j.s_rows = j.r_rows * 2;
  j.seed = c.seed * 1000 + 11;
  auto jw = workload::GenerateJoinInput(j);
  GPUJOIN_CHECK_OK(jw.status());
  in.join = std::move(*jw);
  workload::GroupByWorkloadSpec g;
  g.rows = uint64_t{1} << (21 - c.shrink);
  g.num_groups = uint64_t{1} << (16 - c.shrink);
  g.seed = c.seed * 1000 + 12;
  auto gw = workload::GenerateGroupByInput(g);
  GPUJOIN_CHECK_OK(gw.status());
  in.groupby = std::move(*gw);
  in.small = GenerateSmallPool(c.seed);
  return in;
}

ops::JoinOp MakeJoinOp(JoinAlgo algo, const workload::JoinWorkload& w) {
  ops::JoinOp op;
  op.algo = algo;
  op.r = &w.r;
  op.s = &w.s;
  return op;
}

ops::GroupByOp MakeGroupByOp(GroupByAlgo algo, const HostTable& input) {
  ops::GroupByOp op;
  op.algo = algo;
  op.spec = SumSpec();
  op.input = &input;
  return op;
}

/// One routed call: the result plus the host seconds around the call.
struct Routed {
  gpujoin::Result<ops::OperatorRunResult> result;
  double host_s = 0;
};

Routed Run(ops::Router& router, const ops::JoinOp& op) {
  const double t = Now();
  Span span("ops.Router.RunJoin");
  auto r = router.RunJoin(op);
  return {std::move(r), Now() - t};
}

Routed Run(ops::Router& router, const ops::GroupByOp& op) {
  const double t = Now();
  Span span("ops.Router.RunGroupBy");
  auto r = router.RunGroupBy(op);
  return {std::move(r), Now() - t};
}

Routed RunSmall(ops::Router& router, const Inputs& in, const SmallOp& s) {
  if (s.is_join) {
    return Run(router, MakeJoinOp(gpujoin::join::kAllJoinAlgos[s.algo],
                                  in.small.joins[s.size]));
  }
  return Run(router, MakeGroupByOp(gpujoin::groupby::kAllGroupByAlgos[s.algo],
                                   in.small.groupbys[s.size]));
}

ops::RouterOptions Forced(ops::Backend backend) {
  ops::RouterOptions o;
  o.force = backend;
  o.cpux_threads = kCpuxThreads;
  return o;
}

}  // namespace

void RunCpuxOps(Report& report) {
  const Config& c = report.config();
  const std::vector<SmallOp> small_ops = SmallOpStream(c.seed, kSmallOps);
  const vgpu::DeviceConfig dc = vgpu::DeviceConfig::ScaledToWorkload(
      vgpu::DeviceConfig::A100(), uint64_t{1} << (21 - c.shrink));

  std::map<std::string, Checksum> checked;  // Pass-0 cpux outputs.
  std::vector<Checksum> twin_checksums;
  double large_tuples = 0;
  double twin_join_tuples = 0, twin_join_s = 0, twin_gb_tuples = 0, twin_gb_s = 0;
  std::vector<double> twin_us;
  double twin_peak = 0;
  vgpu::KernelStats twin_total;
  uint64_t twin_kernels = 0;
  std::map<std::string, double> best_layers, twin_kernel_host;
  double best_traced_s = 1e300;
  BestOf large_best, small_best;  // Host seconds / us, untraced passes.

  const double started = Now();
  for (int pass = 0; MorePasses(c, pass, started); ++pass) {
    const bool traced = BeginPass(c, pass);
    const std::string hk = traced ? "traced." : "";

    const double t_setup = Now();
    const Inputs in = Generate(c);
    vgpu::Device device(dc, vgpu::FaultInjector{}, nullptr, c.sim_threads);
    ops::Router router(device, Forced(ops::Backend::kCpux));
    report.Host(hk + "setup_s", Now() - t_setup);

    std::map<std::string, double> l;
    double large_s = 0;
    size_t large_op = 0;
    large_tuples = 0;
    auto record_large = [&](const std::string& name, const std::string& algo,
                            bool is_join, double tuples, const Routed& r) {
      report.Attempt();
      if (!r.result.ok()) {
        report.Fail(name + ": " + r.result.status().ToString());
        return;
      }
      if (r.result->backend != ops::Backend::kCpux) {
        report.Fail(name + ": ran on " + std::string(ops::BackendName(r.result->backend)));
      }
      large_s += r.host_s;
      if (!traced) large_best.Add(large_op, r.host_s);
      ++large_op;
      large_tuples += tuples;
      const Checksum cs = ChecksumOf(r.result->output);
      report.ExactChecksum(name, cs);
      if (pass == 0) checked[name] = cs;
      const auto& ph = r.result->phases;
      l["cpux." + algo + ".wall_s"] = r.result->seconds;
      const std::string p = is_join ? "cpux.join." : "cpux.groupby.";
      l[p + "transform_s"] += ph.transform_s;
      l[p + (is_join ? "match_s" : "aggregate_s")] += ph.match_s;
      l[p + (is_join ? "materialize_s" : "emit_s")] += ph.materialize_s;
      l["cpux.wall"] += r.result->seconds;
      l["cpux.cpu"] += r.result->host_cpu_seconds;
      l["cpux.peak_mb"] = std::max(
          l["cpux.peak_mb"], static_cast<double>(r.result->peak_mem_bytes) / kMB);
    };

    // One round of the small-op stream follows every large op, so each
    // small op's samples spread over the whole run: a shared host's speed
    // shifts by up to 1.5x for seconds at a time, and each op's best has to
    // catch a fast stretch.
    std::vector<double> small_us, dispatch_us;
    std::vector<Checksum> small_checksums(small_ops.size());
    int round = 0;
    auto small_round = [&] {
      for (size_t i = 0; i < small_ops.size(); ++i) {
        report.Attempt();
        const Routed r = RunSmall(router, in, small_ops[i]);
        if (!r.result.ok()) {
          report.Fail("small." + std::to_string(i) + ": " + r.result.status().ToString());
          continue;
        }
        small_us.push_back(r.host_s * 1e6);
        if (!traced) small_best.Add(i, r.host_s * 1e6);
        dispatch_us.push_back((r.host_s - r.result->seconds) * 1e6);
        const Checksum cs = ChecksumOf(r.result->output);
        if (round == 0) {
          small_checksums[i] = cs;
        } else if (!(cs == small_checksums[i])) {
          report.Fail("small." + std::to_string(i) + ": output changed between rounds");
        }
      }
      ++round;
    };

    const double join_tuples =
        static_cast<double>(in.join.r.num_rows() + in.join.s.num_rows());
    for (JoinAlgo algo : gpujoin::join::kAllJoinAlgos) {
      record_large(std::string("join.") + JoinAlgoName(algo), JoinAlgoName(algo),
                   true, join_tuples, Run(router, MakeJoinOp(algo, in.join)));
      small_round();
    }
    for (GroupByAlgo algo : gpujoin::groupby::kAllGroupByAlgos) {
      record_large(std::string("groupby.") + GroupByAlgoName(algo),
                   GroupByAlgoName(algo), false,
                   static_cast<double>(in.groupby.num_rows()),
                   Run(router, MakeGroupByOp(algo, in.groupby)));
      small_round();
    }
    for (size_t i = 0; i < small_checksums.size(); ++i) {
      report.ExactChecksum("small." + std::to_string(i), small_checksums[i]);
      if (pass == 0) checked["small." + std::to_string(i)] = small_checksums[i];
    }

    // Pure routing decisions over the same stream (no execution).
    const ops::RouterOptions auto_opts = Forced(ops::Backend::kAuto);
    const double t_route = Now();
    size_t vgpu_routes = 0;
    for (const SmallOp& s : small_ops) {
      const ops::RouteDecision d =
          s.is_join ? ops::RouteJoin(MakeJoinOp(gpujoin::join::kAllJoinAlgos[s.algo],
                                                in.small.joins[s.size]),
                                     dc, auto_opts)
                    : ops::RouteGroupBy(
                          MakeGroupByOp(gpujoin::groupby::kAllGroupByAlgos[s.algo],
                                        in.small.groupbys[s.size]),
                          dc, auto_opts);
      vgpu_routes += d.backend == ops::Backend::kVgpu;
    }
    l["route_us"] = (Now() - t_route) * 1e6 / static_cast<double>(small_ops.size());
    report.Exact("route.vgpu_choices", static_cast<double>(vgpu_routes));

    report.Host(hk + "large_s", large_s);
    report.Host(hk + "small_us_p50", Quantile(small_us, 0.5));
    l["small_us_p95"] = Quantile(small_us, 0.95);
    l["dispatch_us_p50"] = Quantile(dispatch_us, 0.5);

    // The vgpu twin of the first small ops (outside every host timing).
    {
      vgpu::Device twin(dc, vgpu::FaultInjector{}, nullptr, c.sim_threads);
      PeakWatcher watcher;
      twin.set_kernel_observer(&watcher);
      ops::Router vgpu_router(twin, Forced(ops::Backend::kVgpu));
      twin_checksums.clear();
      twin_us.clear();
      twin_join_tuples = twin_join_s = twin_gb_tuples = twin_gb_s = 0;
      for (size_t i = 0; i < kTwinOps && i < small_ops.size(); ++i) {
        const SmallOp& s = small_ops[i];
        report.Attempt();
        twin.FlushL2();
        const Routed r = RunSmall(vgpu_router, in, s);
        if (!r.result.ok()) {
          report.Fail("twin." + std::to_string(i) + ": " + r.result.status().ToString());
          twin_checksums.push_back({});
          continue;
        }
        const double sim_s = r.result->seconds;
        twin_us.push_back(sim_s * 1e6);
        const double tuples = static_cast<double>(SmallOpTuples(in.small, s));
        (s.is_join ? twin_join_tuples : twin_gb_tuples) += tuples;
        (s.is_join ? twin_join_s : twin_gb_s) += sim_s;
        twin_checksums.push_back(ChecksumOf(r.result->output));
        report.Exact("twin." + std::to_string(i) + ".sim_s", sim_s);
      }
      twin_peak = static_cast<double>(watcher.peak(twin)) / kMB;
      twin_total = twin.total_stats();
      twin_kernels = twin.kernels_launched();
      report.Exact("twin.peak_bytes", static_cast<double>(watcher.peak(twin)));
      report.Exact("twin.cycles", twin_total.cycles);
      if (traced) {
        l["vgpu.host_s"] = twin.host_kernel_seconds();
        l["vgpu.host_cpu_s"] = twin.host_kernel_cpu_seconds();
        twin_kernel_host.clear();
        for (const auto& prof : twin.profiler().Profiles()) {
          twin_kernel_host[prof.name] = prof.host_seconds;
        }
      }
      twin.set_kernel_observer(nullptr);
    }
    for (size_t i = 0; i < twin_checksums.size(); ++i) {
      if (!(twin_checksums[i] == small_checksums[i])) {
        report.Fail("small." + std::to_string(i) + ": cpux output differs from vgpu");
      }
    }

    if (traced && large_s < best_traced_s) {
      best_traced_s = large_s;
      for (const auto& [layer, s] : GlobalTracer().SelfSeconds()) l["span." + layer] = s;
      best_layers = l;
    }
    report.EndPass();
  }
  GlobalTracer().set_enabled(false);
  const double rss = PeakRssMb();

  // --- Output checks (once per run) ---
  {
    const Inputs in = Generate(c);
    const Checksum join_want = JoinChecksum(in.join.r, in.join.s);
    const Checksum gb_want = GroupBySumChecksum(in.groupby);
    for (JoinAlgo algo : gpujoin::join::kAllJoinAlgos) {
      const std::string name = std::string("join.") + JoinAlgoName(algo);
      if (checked.count(name) && !(checked[name] == join_want)) {
        report.Fail(name + ": output differs from the host join oracle");
      }
    }
    for (GroupByAlgo algo : gpujoin::groupby::kAllGroupByAlgos) {
      const std::string name = std::string("groupby.") + GroupByAlgoName(algo);
      if (checked.count(name) && !(checked[name] == gb_want)) {
        report.Fail(name + ": output differs from the host group-by oracle");
      }
    }
    std::vector<Checksum> join_ref, gb_ref;
    for (const auto& w : in.small.joins) {
      join_ref.push_back(ChecksumOf(gpujoin::join::ReferenceJoinRows(w.r, w.s)));
    }
    for (const auto& g : in.small.groupbys) {
      gb_ref.push_back(ChecksumOf(gpujoin::groupby::ReferenceGroupByRows(g, SumSpec())));
    }
    for (size_t i = 0; i < small_ops.size(); ++i) {
      const SmallOp& s = small_ops[i];
      const std::string name = "small." + std::to_string(i);
      const Checksum& want = s.is_join ? join_ref[s.size] : gb_ref[s.size];
      if (checked.count(name) && !(checked[name] == want)) {
        report.Fail(name + ": output differs from the host reference");
      }
    }
  }

  if (!c.trace) {
    report.EndToEnd("join_sim_mtuples_per_s", twin_join_tuples / twin_join_s / 1e6);
    report.EndToEnd("groupby_sim_mtuples_per_s", twin_gb_tuples / twin_gb_s / 1e6);
    report.EndToEnd("query_sim_us_p50", report.Percentile("twin_sim_us", twin_us, 0.5));
    report.EndToEnd("query_sim_us_p95", report.Percentile("twin_sim_us", twin_us, 0.95));
    // Every op of the small stream is interactive-sized.
    report.EndToEnd("interactive_sim_us_p95", Quantile(twin_us, 0.95));
    // No arrival process here: the capacity of the twin stream run back to
    // back (queries per simulated second).
    report.EndToEnd("sim_qps_at_slo", static_cast<double>(twin_us.size()) /
                                          (twin_join_s + twin_gb_s));
    report.HostSpread("large_s");
    report.HostSpread("small_us_p50");
    report.EndToEnd("host_mtuples_per_s", large_tuples / large_best.Sum() / 1e6);
    report.EndToEnd("small_op_host_us_p50", SmallOpMedian(small_best, small_ops));
    report.EndToEnd("peak_device_mb", twin_peak);
    report.EndToEnd("peak_rss_mb", rss);
    report.EndToEnd("setup_s", report.HostSpread("setup_s").median);
    return;
  }

  auto at_best = [&](const std::string& k) {
    auto it = best_layers.find(k);
    return it == best_layers.end() ? 0.0 : it->second;
  };
  report.Layer("workload.gen_s", at_best("span.workload.gen"));
  ReportVgpuLayers(report, twin_total, twin_kernels, twin_kernel_host,
                   at_best("vgpu.host_s"), at_best("vgpu.host_cpu_s"));
  report.Layer("ops.route_us", at_best("route_us"));
  report.Layer("ops.dispatch_us_p50", at_best("dispatch_us_p50"));
  report.Layer("small_op_host_us_p95", at_best("small_us_p95"));
  for (JoinAlgo algo : gpujoin::join::kAllJoinAlgos) {
    const std::string k = std::string("cpux.") + JoinAlgoName(algo) + ".wall_s";
    report.Layer(k, at_best(k));
  }
  for (GroupByAlgo algo : gpujoin::groupby::kAllGroupByAlgos) {
    const std::string k = std::string("cpux.") + GroupByAlgoName(algo) + ".wall_s";
    report.Layer(k, at_best(k));
  }
  for (const char* k : {"cpux.join.transform_s", "cpux.join.match_s",
                        "cpux.join.materialize_s", "cpux.groupby.transform_s",
                        "cpux.groupby.aggregate_s", "cpux.groupby.emit_s",
                        "cpux.peak_mb"}) {
    report.Layer(k, at_best(k));
  }
  report.Layer("cpux.cpu_over_wall",
               at_best("cpux.wall") > 0 ? at_best("cpux.cpu") / at_best("cpux.wall") : 0);
  const double traced = report.HostSpread("traced.large_s").min;
  const double untraced = report.HostSpread("large_s").min;
  report.Layer("obs.trace_overhead", traced / untraced - 1);
}

}  // namespace perfbench
