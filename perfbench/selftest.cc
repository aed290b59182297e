// Self-test of the benchmark. Usage: perfbench_test <repo-root>
//
//   * the streaming host oracles agree with join::ReferenceJoinRows /
//     CanonicalRows and groupby::ReferenceGroupByRows;
//   * every workload, on reduced inputs, produces the same exact ledger
//     (simulated cycles, device bytes, output checksums) at simulation
//     fan-out 1 and 2, and passes its own output checks;
//   * the service ladder brackets the SLO: at least one rate meets it, at
//     least one misses it, and one misses it by its interactive p95 alone;
//   * the metric names and units the benchmark prints are the ones
//     BENCHMARK.json declares;
//   * a run leaves bench/results/ (the program's committed baselines)
//     untouched: the benchmark never enables the program's own exporters.

#include <sys/stat.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "bench.h"
#include "groupby/reference.h"
#include "join/reference.h"
#include "workload/generator.h"

namespace {

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "[ OK ]" : "[FAIL]", what.c_str());
  if (!ok) ++g_failures;
}

void TestOracles() {
  using namespace gpujoin;
  struct JoinShape {
    int payloads;
    double zipf;
    double match;
  };
  for (const JoinShape& js : {JoinShape{1, 0.0, 1.0}, JoinShape{4, 0.0, 1.0},
                              JoinShape{1, 1.0, 1.0}, JoinShape{2, 0.5, 0.5}}) {
    workload::JoinWorkloadSpec spec;
    spec.r_rows = 1 << 12;
    spec.s_rows = 1 << 13;
    spec.r_payload_cols = js.payloads;
    spec.s_payload_cols = js.payloads;
    spec.zipf_theta = js.zipf;
    spec.match_ratio = js.match;
    spec.seed = 7;
    auto w = workload::GenerateJoinInput(spec);
    GPUJOIN_CHECK_OK(w.status());
    const auto want = perfbench::ChecksumOf(join::ReferenceJoinRows(w->r, w->s));
    Check(perfbench::JoinChecksum(w->r, w->s) == want && want.rows > 0,
          "join oracle == ReferenceJoinRows (payloads " + std::to_string(js.payloads) +
              ", zipf " + std::to_string(js.zipf) + ")");
    Check(perfbench::ChecksumOf(w->r) == perfbench::ChecksumOf(join::CanonicalRows(w->r)),
          "table checksum == CanonicalRows checksum");
  }
  for (double zipf : {0.0, 1.0}) {
    workload::GroupByWorkloadSpec spec;
    spec.rows = 1 << 14;
    spec.num_groups = 1 << 9;
    spec.zipf_theta = zipf;
    spec.seed = 9;
    auto g = workload::GenerateGroupByInput(spec);
    GPUJOIN_CHECK_OK(g.status());
    const auto want = perfbench::ChecksumOf(
        groupby::ReferenceGroupByRows(*g, perfbench::SumSpec()));
    Check(perfbench::GroupBySumChecksum(*g) == want,
          "group-by oracle == ReferenceGroupByRows (zipf " + std::to_string(zipf) + ")");
  }
}

/// Runs one workload once on reduced inputs.
perfbench::Report RunReduced(const std::string& workload, int sim_threads, int shrink) {
  perfbench::Config c;
  c.workload = workload;
  c.seed = 3;
  c.seconds = 0;
  c.min_passes = 1;
  c.max_passes = 1;
  c.sim_threads = sim_threads;
  c.shrink = shrink;
  perfbench::Report report(c);
  perfbench::RunWorkload(report);
  return report;
}

void TestExactAcrossFanout() {
  for (const char* w : {"paper-kernels", "service-openloop", "cpux-ops"}) {
    const perfbench::Report one = RunReduced(w, 1, 5);
    const perfbench::Report two = RunReduced(w, 2, 5);
    Check(one.correct() && two.correct(), std::string(w) + ": reduced run passes its checks");
    Check(!one.exact_ledger().empty() && one.exact_ledger() == two.exact_ledger(),
          std::string(w) + ": exact ledger identical at sim fan-out 1 and 2 (" +
              std::to_string(one.exact_ledger().size()) + " values)");
  }
}

void TestLadderBrackets() {
  const perfbench::Report r = RunReduced("service-openloop", 2, 0);
  const double qps = r.end_to_end().at("sim_qps_at_slo");
  const auto& rates = perfbench::LadderRates();
  Check(r.correct(), "full-size service ladder passes its checks");
  Check(qps >= static_cast<double>(rates.front()) &&
            qps < static_cast<double>(rates.back()),
        "ladder brackets the SLO (capacity " + std::to_string(qps) + ")");
  // The latency condition must decide a rung on its own: some rate misses
  // the SLO by its interactive p95 while its backlog is within allowance.
  const auto& ledger = r.exact_ledger();
  const double allowance = ledger.at("batch_solo_cycles");
  std::string latency_only;
  for (uint64_t rate : rates) {
    const std::string rk = "rate" + std::to_string(rate);
    const perfbench::LadderVerdict v =
        perfbench::JudgeRung(ledger.at(rk + ".interactive_p95_us"), 0,
                             ledger.at(rk + ".backlog_cycles"), allowance);
    if (!v.latency_ok && v.backlog_ok) latency_only += " " + std::to_string(rate);
  }
  Check(!latency_only.empty(),
        "a rung misses the SLO by p95 alone (rates:" + latency_only + ")");
}

void TestMetricsMatchBenchmarkJson(const std::string& root) {
  std::ifstream f(root + "/BENCHMARK.json");
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string spec = ss.str();
  size_t declared = 0;
  for (size_t pos = 0; (pos = spec.find("\"name\":", pos)) != std::string::npos; ++pos) {
    ++declared;
  }
  size_t printed = 0;
  bool all_found = true;
  for (const auto* table : {&perfbench::EndToEndMetrics(), &perfbench::LayerMetrics()}) {
    for (const auto& [name, unit] : *table) {
      ++printed;
      // The unit is the first "unit" key after the metric's "name" key.
      const size_t at = spec.find("\"name\": \"" + name + "\"");
      const size_t unit_at = spec.find("\"unit\": \"", at);
      const std::string want = "\"unit\": \"" + unit + "\"";
      if (at == std::string::npos || unit_at == std::string::npos ||
          spec.compare(unit_at, want.size(), want) != 0) {
        std::printf("  not in BENCHMARK.json: %s [%s]\n", name.c_str(), unit.c_str());
        all_found = false;
      }
    }
  }
  // BENCHMARK.json also names its workloads.
  const size_t workloads = 3;
  Check(all_found && declared == printed + workloads,
        "metric names and units match BENCHMARK.json (" + std::to_string(printed) + ")");
}

std::map<std::string, std::pair<uintmax_t, long>> Snapshot(const std::string& dir) {
  std::map<std::string, std::pair<uintmax_t, long>> out;
  if (!std::filesystem::exists(dir)) return out;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    struct stat st {};
    stat(e.path().c_str(), &st);
    out[e.path().filename().string()] = {static_cast<uintmax_t>(st.st_size),
                                         static_cast<long>(st.st_mtime)};
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_test <repo-root>\n");
    return 2;
  }
  const std::string root = argv[1];
  const std::string results = root + "/bench/results";
  const auto before = Snapshot(results);
  TestOracles();
  TestMetricsMatchBenchmarkJson(root);
  TestExactAcrossFanout();
  TestLadderBrackets();
  Check(Snapshot(results) == before, "bench/results/ untouched by the runs");
  std::printf("%s: %d failure(s)\n", g_failures ? "FAILED" : "PASSED", g_failures);
  return g_failures ? 1 : 0;
}
