#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <random>
#include <unordered_map>

#include "groupby/groupby.h"
#include "join/join.h"

namespace perfbench {

using gpujoin::HostTable;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

// --- Tracer ---

int Tracer::Open(const std::string& layer) {
  if (!enabled_) return -1;
  Rec r;
  r.layer = layer;
  r.parent = stack_.empty() ? -1 : stack_.back();
  r.start = Now();
  spans_.push_back(std::move(r));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::Close(int id) {
  if (id < 0) return;
  Rec& r = spans_[id];
  r.end = Now();
  stack_.pop_back();
  if (r.parent >= 0) spans_[r.parent].child += r.end - r.start;
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::map<std::string, double> out;
  for (const Rec& r : spans_) out[r.layer] += (r.end - r.start) - r.child;
  return out;
}

void Tracer::Clear() {
  spans_.clear();
  stack_.clear();
}

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

// --- Checksums ---

namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

Checksum ChecksumOf(const HostTable& t) {
  Checksum c;
  c.rows = t.num_rows();
  for (uint64_t i = 0; i < c.rows; ++i) {
    uint64_t h = 0;
    for (const auto& col : t.columns) {
      h = Mix(h ^ static_cast<uint64_t>(col.values[i]));
    }
    c.sum += h;
  }
  return c;
}

Checksum ChecksumOf(const std::vector<std::vector<int64_t>>& rows) {
  Checksum c;
  c.rows = rows.size();
  for (const auto& row : rows) {
    uint64_t h = 0;
    for (int64_t v : row) h = Mix(h ^ static_cast<uint64_t>(v));
    c.sum += h;
  }
  return c;
}

Checksum JoinChecksum(const HostTable& r, const HostTable& s) {
  const auto& rk = r.columns[0].values;
  const auto& sk = s.columns[0].values;
  std::unordered_map<int64_t, uint32_t> head;
  head.reserve(rk.size());
  std::vector<uint32_t> next(rk.size(), UINT32_MAX);
  for (uint32_t i = 0; i < rk.size(); ++i) {
    auto [it, inserted] = head.try_emplace(rk[i], i);
    if (!inserted) {
      next[i] = it->second;
      it->second = i;
    }
  }
  Checksum c;
  for (size_t j = 0; j < sk.size(); ++j) {
    auto it = head.find(sk[j]);
    if (it == head.end()) continue;
    for (uint32_t i = it->second; i != UINT32_MAX; i = next[i]) {
      uint64_t h = Mix(static_cast<uint64_t>(sk[j]));
      for (size_t col = 1; col < r.columns.size(); ++col) {
        h = Mix(h ^ static_cast<uint64_t>(r.columns[col].values[i]));
      }
      for (size_t col = 1; col < s.columns.size(); ++col) {
        h = Mix(h ^ static_cast<uint64_t>(s.columns[col].values[j]));
      }
      c.sum += h;
      ++c.rows;
    }
  }
  return c;
}

Checksum GroupBySumChecksum(const HostTable& input) {
  const auto& keys = input.columns[0].values;
  const auto& vals = input.columns[1].values;
  std::unordered_map<int64_t, int64_t> sums;
  for (size_t i = 0; i < keys.size(); ++i) sums[keys[i]] += vals[i];
  Checksum c;
  for (const auto& [key, sum] : sums) {
    c.sum += Mix(Mix(static_cast<uint64_t>(key)) ^ static_cast<uint64_t>(sum));
    ++c.rows;
  }
  return c;
}

// --- Percentiles ---

namespace {

size_t NearestRank(size_t n, double q) {
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[NearestRank(v.size(), q) - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - NearestRank(n, q);
}

// --- BestOf ---

void BestOf::Add(size_t op, double value) {
  if (op >= best_.size()) best_.resize(op + 1, INFINITY);
  best_[op] = std::min(best_[op], value);
}

double BestOf::Sum() const {
  double sum = 0;
  for (double v : best_) sum += v;
  return sum;
}

double BestOf::Quantile(double q) const { return perfbench::Quantile(best_, q); }

// --- PeakWatcher ---

void PeakWatcher::OnKernelEnd(const gpujoin::vgpu::Device& device, const char*,
                              const gpujoin::vgpu::KernelStats&, double) {
  peak_ = std::max(peak_, device.memory_stats().peak_bytes);
}

uint64_t PeakWatcher::peak(const gpujoin::vgpu::Device& device) const {
  return std::max(peak_, device.memory_stats().peak_bytes);
}

// --- Report ---

void Report::Log(const std::string& line) const {
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void Report::Fail(const std::string& what) {
  ++failed_;
  std::fprintf(stderr, "perfbench: FAIL: %s\n", what.c_str());
}

void Report::Exact(const std::string& key, double value) {
  pass_exact_[key] = value;
}

void Report::ExactChecksum(const std::string& key, const Checksum& c) {
  pass_exact_[key + ".rows"] = static_cast<double>(c.rows);
  // Split the 64-bit sum so each half is exact in a double.
  pass_exact_[key + ".sum_hi"] = static_cast<double>(c.sum >> 32);
  pass_exact_[key + ".sum_lo"] = static_cast<double>(c.sum & 0xffffffffull);
}

void Report::EndPass() {
  if (passes_ == 0) {
    first_exact_ = pass_exact_;
  } else if (pass_exact_.size() != first_exact_.size()) {
    Fail("pass " + std::to_string(passes_) + " recorded " +
         std::to_string(pass_exact_.size()) + " exact values, pass 0 " +
         std::to_string(first_exact_.size()));
  } else {
    for (const auto& [key, v] : pass_exact_) {
      auto it = first_exact_.find(key);
      if (it == first_exact_.end() ||
          std::bit_cast<uint64_t>(it->second) != std::bit_cast<uint64_t>(v)) {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "exactness: %s differs between pass 0 (%.17g) and pass "
                      "%d (%.17g)",
                      key.c_str(), it == first_exact_.end() ? NAN : it->second,
                      passes_, v);
        Fail(buf);
      }
    }
  }
  pass_exact_.clear();
  ++passes_;
}

void Report::Host(const std::string& key, double value) {
  host_[key].push_back(value);
}

Report::Spread Report::HostSpread(const std::string& key) {
  const std::vector<double>& v = host_[key];
  if (v.empty()) {
    Fail("no host samples for " + key);
    return {};
  }
  const Spread spread{Quantile(v, 0.0), Quantile(v, 0.5), Quantile(v, 1.0)};
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  host %-28s n=%zu min %.6g median %.6g max %.6g",
                key.c_str(), v.size(), spread.min, spread.median, spread.max);
  Log(buf);
  return spread;
}

void Report::EndToEnd(const std::string& name, double value) {
  e2e_[name] = value;
}

void Report::Layer(const std::string& name, double value) {
  layer_[name] = value;
}

double Report::Percentile(const std::string& what,
                          const std::vector<double>& v, double q) {
  const double value = Quantile(v, q);
  const size_t beyond = SamplesBeyond(v.size(), q);
  char buf[256];
  std::snprintf(buf, sizeof(buf), "  pct  %-28s p%.0f = %.6g  (samples=%zu, beyond=%zu)",
                what.c_str(), q * 100, value, v.size(), beyond);
  Log(buf);
  if (beyond < 10) {
    Fail(what + ": fewer than 10 samples beyond the reported percentile");
  }
  return value;
}

bool MorePasses(const Config& config, int passes_done, double started_at) {
  if (passes_done < config.min_passes) return true;
  if (passes_done >= config.max_passes) return false;
  return Now() - started_at < config.seconds;
}

bool BeginPass(const Config& config, int pass) {
  const bool traced = config.trace && pass % 2 == 1;
  GlobalTracer().set_enabled(traced);
  GlobalTracer().Clear();
  return traced;
}

int Report::Finish() const {
  char timing[96];
  std::snprintf(timing, sizeof(timing), "  run  %d passes, %.1f s in all", passes_,
                Now() - started_at_);
  Log(timing);
  const auto& names = config_.trace ? LayerMetrics() : EndToEndMetrics();
  std::map<std::string, double> values = config_.trace ? layer_ : e2e_;
  uint64_t failed = failed_;
  const double attempted = static_cast<double>(std::max<uint64_t>(attempted_, 1));
  values[config_.trace ? "failed_ratio" : "ok_ratio"] =
      config_.trace ? static_cast<double>(failed) / attempted
                    : 1.0 - static_cast<double>(failed) / attempted;
  if (!config_.trace) {
    for (const auto& [name, unit] : names) {
      if (!values.count(name)) {
        std::fprintf(stderr, "perfbench: FAIL: metric %s not measured\n",
                     name.c_str());
        ++failed;
      }
    }
  }
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : names) {
    auto it = values.find(name);
    const double v = it == values.end() ? 0.0 : it->second;
    char buf[320];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), std::isfinite(v) ? v : 0.0,
                  unit.c_str());
    json += buf;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

// --- Metric tables ---

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"join_sim_mtuples_per_s", "Mt/s"},
      {"groupby_sim_mtuples_per_s", "Mt/s"},
      {"query_sim_us_p50", "us"},
      {"query_sim_us_p95", "us"},
      {"interactive_sim_us_p95", "us"},
      {"sim_qps_at_slo", "queries/sim-s"},
      {"host_mtuples_per_s", "Mt/s"},
      {"small_op_host_us_p50", "us"},
      {"peak_device_mb", "MB"},
      {"peak_rss_mb", "MB"},
      {"setup_s", "s"},
      {"ok_ratio", "ratio"},
  };
  return kMetrics;
}

const std::vector<std::string>& TrackedKernels() {
  static const std::vector<std::string> kKernels = {
      "radix_scatter", "gather",          "gb_hash_global_update",
      "radix_histogram", "nphj_build",    "nphj_probe_write",
      "nphj_probe_count", "gb_hash_part_aggregate",
  };
  return kKernels;
}


const std::vector<std::pair<std::string, std::string>>& LayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = [] {
    std::vector<std::pair<std::string, std::string>> m = {
        {"workload.gen_s", "s"},
        {"storage.upload_s", "s"},
        {"vgpu.host_s", "s"},
        {"vgpu.host_cpu_s", "s"},
        {"vgpu.fanout", "ratio"},
        {"vgpu.host_ns_per_sector", "ns"},
    };
    for (const std::string& k : TrackedKernels()) {
      m.push_back({"vgpu.kernel." + k + ".host_s", "s"});
      m.push_back({"vgpu.kernel." + k + ".share", "ratio"});
    }
    m.insert(m.end(), {{"vgpu.kernels", "count"},
                       {"vgpu.sectors_per_request", "sectors"},
                       {"vgpu.l2_hit_rate", "ratio"},
                       {"vgpu.dram_row_misses", "count"},
                       {"vgpu.atomic_serializations", "count"}});
    for (gpujoin::join::JoinAlgo a : gpujoin::join::kAllJoinAlgos) {
      const std::string p = std::string("join.") + gpujoin::join::JoinAlgoName(a);
      m.insert(m.end(), {{p + ".transform_us", "us"},
                         {p + ".match_us", "us"},
                         {p + ".materialize_us", "us"},
                         {p + ".host_s", "s"},
                         {p + ".peak_mb", "MB"}});
    }
    for (gpujoin::groupby::GroupByAlgo a : gpujoin::groupby::kAllGroupByAlgos) {
      const std::string p =
          std::string("groupby.") + gpujoin::groupby::GroupByAlgoName(a);
      m.insert(m.end(), {{p + ".transform_us", "us"},
                         {p + ".aggregate_us", "us"},
                         {p + ".emit_us", "us"},
                         {p + ".host_s", "s"},
                         {p + ".peak_mb", "MB"},
                         {p + ".skew_us", "us"},
                         {p + ".skew_host_s", "s"}});
    }
    m.insert(m.end(), {{"stats.estimate_over_peak", "ratio"},
                       {"stats.estimate_us", "us"},
                       {"service.wait_us_p95", "us"},
                       {"service.run_us_p50", "us"},
                       {"service.preemptions", "count"},
                       {"service.rerun_ratio", "ratio"},
                       {"service.rejected", "count"}});
    for (uint64_t rate : LadderRates()) {
      m.push_back({"service.backlog_us.at_" + std::to_string(rate), "us"});
    }
    m.insert(m.end(), {{"service.drain_host_s", "s"},
                       {"ops.route_us", "us"},
                       {"ops.dispatch_us_p50", "us"},
                       {"small_op_host_us_p95", "us"}});
    for (gpujoin::join::JoinAlgo a : gpujoin::join::kAllJoinAlgos) {
      m.push_back({std::string("cpux.") + gpujoin::join::JoinAlgoName(a) + ".wall_s",
                   "s"});
    }
    for (gpujoin::groupby::GroupByAlgo a : gpujoin::groupby::kAllGroupByAlgos) {
      m.push_back(
          {std::string("cpux.") + gpujoin::groupby::GroupByAlgoName(a) + ".wall_s",
           "s"});
    }
    m.insert(m.end(), {{"cpux.join.transform_s", "s"},
                       {"cpux.join.match_s", "s"},
                       {"cpux.join.materialize_s", "s"},
                       {"cpux.groupby.transform_s", "s"},
                       {"cpux.groupby.aggregate_s", "s"},
                       {"cpux.groupby.emit_s", "s"},
                       {"cpux.cpu_over_wall", "ratio"},
                       {"cpux.peak_mb", "MB"},
                       {"obs.trace_overhead", "ratio"},
                       {"failed_ratio", "ratio"}});
    return m;
  }();
  return kMetrics;
}

void ReportVgpuLayers(Report& report, const gpujoin::vgpu::KernelStats& total,
                      uint64_t kernels,
                      const std::map<std::string, double>& kernel_host_s,
                      double host_s, double host_cpu_s) {
  report.Layer("vgpu.host_s", host_s);
  report.Layer("vgpu.host_cpu_s", host_cpu_s);
  report.Layer("vgpu.fanout", host_s > 0 ? host_cpu_s / host_s : 0);
  report.Layer("vgpu.host_ns_per_sector",
               total.sectors > 0 ? 1e9 * host_s / static_cast<double>(total.sectors)
                                 : 0);
  for (const std::string& k : TrackedKernels()) {
    auto it = kernel_host_s.find(k);
    const double s = it == kernel_host_s.end() ? 0 : it->second;
    report.Layer("vgpu.kernel." + k + ".host_s", s);
    report.Layer("vgpu.kernel." + k + ".share", host_s > 0 ? s / host_s : 0);
  }
  // The top kernels of this run by host time, for the log.
  std::vector<std::pair<double, std::string>> top;
  for (const auto& [name, s] : kernel_host_s) top.push_back({s, name});
  std::sort(top.rbegin(), top.rend());
  for (size_t i = 0; i < top.size() && i < 8; ++i) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "  kernel %-26s host %.4f s (%.1f%%)",
                  top[i].second.c_str(), top[i].first,
                  host_s > 0 ? 100 * top[i].first / host_s : 0.0);
    report.Log(buf);
  }
  report.Layer("vgpu.kernels", static_cast<double>(kernels));
  report.Layer("vgpu.sectors_per_request", total.AvgSectorsPerRequest());
  report.Layer("vgpu.l2_hit_rate", total.L2HitRate());
  report.Layer("vgpu.dram_row_misses", static_cast<double>(total.dram_row_misses));
  report.Layer("vgpu.atomic_serializations",
               static_cast<double>(total.atomic_serializations));
}

SmallPool GenerateSmallPool(uint64_t seed) {
  SmallPool pool;
  for (int i = 0; i < kSmallSizes; ++i) {
    const uint64_t rows = uint64_t{1} << (8 + i);
    gpujoin::workload::JoinWorkloadSpec js;
    js.r_rows = rows / 2;
    js.s_rows = rows;
    js.seed = Mix(seed ^ (0x100 + i));
    auto j = gpujoin::workload::GenerateJoinInput(js);
    GPUJOIN_CHECK_OK(j.status());
    pool.joins.push_back(std::move(*j));
    gpujoin::workload::GroupByWorkloadSpec gs;
    gs.rows = rows;
    gs.num_groups = rows / 16;
    gs.seed = Mix(seed ^ (0x200 + i));
    auto g = gpujoin::workload::GenerateGroupByInput(gs);
    GPUJOIN_CHECK_OK(g.status());
    pool.groupbys.push_back(std::move(*g));
  }
  return pool;
}

std::vector<SmallOp> SmallOpStream(uint64_t seed, size_t n) {
  // Each block of kSmallOpKinds consecutive ops holds every (operator,
  // algorithm, size) combination once, in a seeded order: the stream's
  // composition is the same for every seed, only the order and the data
  // change.
  std::vector<SmallOp> kinds;
  for (int size = 0; size < kSmallSizes; ++size) {
    for (int a = 0; a < 5; ++a) kinds.push_back({true, a, size});
    for (int a = 0; a < 3; ++a) kinds.push_back({false, a, size});
  }
  std::mt19937_64 rng(Mix(seed ^ 0x5a11ull));
  std::vector<SmallOp> ops;
  while (ops.size() < n) {
    std::shuffle(kinds.begin(), kinds.end(), rng);
    ops.insert(ops.end(), kinds.begin(), kinds.end());
  }
  ops.resize(n);
  return ops;
}

uint64_t SmallOpTuples(const SmallPool& pool, const SmallOp& op) {
  if (op.is_join) {
    return pool.joins[op.size].r.num_rows() + pool.joins[op.size].s.num_rows();
  }
  return pool.groupbys[op.size].num_rows();
}

double SmallOpMedian(const BestOf& best, const std::vector<SmallOp>& ops) {
  std::map<int, std::vector<double>> by_kind;
  for (size_t i = 0; i < ops.size() && i < best.size(); ++i) {
    const int kind = (ops[i].is_join ? ops[i].algo : 5 + ops[i].algo) + 8 * ops[i].size;
    by_kind[kind].push_back(best.value(i));
  }
  std::vector<double> medians;
  for (const auto& [kind, v] : by_kind) medians.push_back(Quantile(v, 0.5));
  return Quantile(medians, 0.5);
}

gpujoin::groupby::GroupBySpec SumSpec() {
  gpujoin::groupby::GroupBySpec spec;
  spec.aggregates.push_back({1, gpujoin::groupby::AggOp::kSum});
  return spec;
}

bool RunWorkload(Report& report) {
  const std::string& w = report.config().workload;
  if (w == "paper-kernels") {
    RunPaperKernels(report);
  } else if (w == "service-openloop") {
    RunServiceOpenLoop(report);
  } else if (w == "cpux-ops") {
    RunCpuxOps(report);
  } else {
    return false;
  }
  return true;
}

}  // namespace perfbench
