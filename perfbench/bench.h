// Shared machinery of the gpujoin benchmark: run configuration,
// host clocks, the benchmark's own span recorder, order-independent output
// checksums, nearest-rank percentiles, and the report that collects every
// metric and prints the final JSON line.
//
// Two clocks, two rules:
//   * simulated-clock numbers (device cycles, device bytes, output
//     checksums) go into a per-pass "exact ledger"; every pass of a run
//     must reproduce pass 0 bit for bit, or the run fails;
//   * host-clock numbers keep each op's best (minimum) time over the
//     passes; pass totals are logged as min/median/max so a disturbed run
//     is visible.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "groupby/groupby.h"
#include "storage/table.h"
#include "vgpu/device.h"
#include "vgpu/observer.h"
#include "workload/generator.h"

namespace perfbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  /// Host seconds of measurement: passes repeat until this much time has
  /// gone by (and at least min_passes ran).
  double seconds = 10;
  bool trace = false;
  /// vgpu ParallelBlocks fan-out (4-core hosts: two workers leave room for
  /// the coordinator and the OS).
  int sim_threads = 2;
  /// Every input size is divided by 2^shrink (self-tests run reduced
  /// inputs; 0 = the published workload).
  int shrink = 0;
  /// Every host-clock op keeps its best of at least this many passes (a
  /// traced run alternates, so two of the five are traced).
  int min_passes = 5;
  int max_passes = 16;
};

/// Host monotonic clock in seconds.
double Now();
/// Process high-water resident set, MB.
double PeakRssMb();

/// Span recorder for the traced run. Spans are opened around calls into
/// the program's public functions, kept in memory, and folded into self
/// times (span time minus the time its child spans cover) at the end.
class Tracer {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }
  int Open(const std::string& layer);
  void Close(int id);
  /// Self seconds summed by layer name.
  std::map<std::string, double> SelfSeconds() const;
  void Clear();

 private:
  struct Rec {
    std::string layer;
    int parent = -1;
    double start = 0;
    double end = 0;
    double child = 0;
  };
  bool enabled_ = false;
  std::vector<Rec> spans_;
  std::vector<int> stack_;
};

/// The process-wide recorder (the benchmark is single-threaded on the
/// host side; worker pools run inside the program's calls).
Tracer& GlobalTracer();

class Span {
 public:
  explicit Span(const std::string& layer) : id_(GlobalTracer().Open(layer)) {}
  ~Span() { GlobalTracer().Close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int id_;
};

/// Order-independent checksum of a row multiset: row count plus the
/// wrapping sum of a strong hash of each widened row.
struct Checksum {
  uint64_t rows = 0;
  uint64_t sum = 0;
  bool operator==(const Checksum&) const = default;
};
Checksum ChecksumOf(const gpujoin::HostTable& t);
Checksum ChecksumOf(const std::vector<std::vector<int64_t>>& rows);

/// Streaming host oracles for large inputs: the checksum of r JOIN s on
/// column 0 (rows [key, r payloads..., s payloads...]) and of SUM(column 1)
/// grouped by column 0 (rows [key, sum]), computed without materializing
/// or sorting rows. They agree with join::ReferenceJoinRows and
/// groupby::ReferenceGroupByRows (checked by the self-test), which the
/// small ops are checked against directly.
Checksum JoinChecksum(const gpujoin::HostTable& r, const gpujoin::HostTable& s);
Checksum GroupBySumChecksum(const gpujoin::HostTable& input);

/// Nearest-rank quantile (the ceil(q*n)-th smallest sample).
double Quantile(std::vector<double> v, double q);
/// Samples strictly above the nearest-rank q-quantile's rank.
size_t SamplesBeyond(size_t n, double q);

/// Per-op best-of-passes host times: each op keeps its fastest pass, so a
/// disturbance that slows part of one pass is filtered op by op (the host
/// noise of a shared machine only ever adds time).
class BestOf {
 public:
  void Add(size_t op, double value);
  /// Sum of the per-op bests.
  double Sum() const;
  /// Nearest-rank quantile of the per-op bests.
  double Quantile(double q) const;
  size_t size() const { return best_.size(); }
  double value(size_t op) const { return best_[op]; }

 private:
  std::vector<double> best_;
};

/// Peak device bytes across every kernel boundary of a device (operators
/// reset the device watermark when they start, so reading it once at the
/// end would only see the last operator). Read-only: attaching it leaves
/// simulated results unchanged.
class PeakWatcher : public gpujoin::vgpu::KernelObserver {
 public:
  void OnKernelBegin(const gpujoin::vgpu::Device&, const char*) override {}
  void OnKernelEnd(const gpujoin::vgpu::Device& device, const char*,
                   const gpujoin::vgpu::KernelStats&, double) override;
  uint64_t peak(const gpujoin::vgpu::Device& device) const;

 private:
  uint64_t peak_ = 0;
};

/// Everything one workload run produces.
class Report {
 public:
  explicit Report(const Config& config) : config_(config), started_at_(Now()) {}

  const Config& config() const { return config_; }

  // --- Outcomes ---
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  /// Records a failed op or check (counts toward failed, prints why).
  void Fail(const std::string& what);
  bool correct() const { return failed_ == 0; }

  // --- Exact ledger (simulated clock, bytes, checksums) ---
  /// Records a value in the current pass's ledger.
  void Exact(const std::string& key, double value);
  void ExactChecksum(const std::string& key, const Checksum& c);
  /// Closes the current pass's ledger; from pass 1 on, every key must
  /// match pass 0 bit for bit.
  void EndPass();

  // --- Host-clock samples, one per pass ---
  void Host(const std::string& key, double value);
  /// Min, median and max of `key` across passes (logged, so a disturbed
  /// run is visible).
  struct Spread {
    double min = 0;
    double median = 0;
    double max = 0;
  };
  Spread HostSpread(const std::string& key);

  // --- Metrics ---
  void EndToEnd(const std::string& name, double value);
  void Layer(const std::string& name, double value);
  /// Logs a percentile with its sample count; fails the run if fewer than
  /// ten samples lie beyond it.
  double Percentile(const std::string& what, const std::vector<double>& v,
                    double q);

  void Log(const std::string& line) const;

  /// Pass 0's exact ledger and the metrics recorded so far (self-tests).
  const std::map<std::string, double>& exact_ledger() const { return first_exact_; }
  const std::map<std::string, double>& end_to_end() const { return e2e_; }

  /// Prints the final JSON line and returns the process exit code.
  int Finish() const;

 private:
  Config config_;
  double started_at_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  int passes_ = 0;
  std::map<std::string, double> pass_exact_;
  std::map<std::string, double> first_exact_;
  std::map<std::string, std::vector<double>> host_;
  std::map<std::string, double> e2e_;
  std::map<std::string, double> layer_;
};

/// Keeps running passes while the measurement window is open.
bool MorePasses(const Config& config, int passes_done, double started_at);

/// Starts a pass: in the traced run, odd passes record spans and even
/// passes do not, so their best times give the tracing overhead. Returns
/// whether this pass is traced.
bool BeginPass(const Config& config, int pass);

inline constexpr double kMB = 1024.0 * 1024.0;

/// (name, unit) of every end-to-end and per-layer metric, in print order.
/// Every workload reports every metric; a workload that does not drive a
/// layer reports 0 for that layer's per-layer metrics.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
const std::vector<std::pair<std::string, std::string>>& LayerMetrics();

/// The eight kernels whose host time is broken out per kernel (the top
/// eight of paper-kernels by host time, including the two kernels that
/// still simulate sequentially).
const std::vector<std::string>& TrackedKernels();

/// Offered rates of the service-openloop ladder, queries per simulated
/// second (fixed, so per-rate metric names are stable).
const std::vector<uint64_t>& LadderRates();

/// Interactive p95 objective of the service-openloop capacity test,
/// simulated microseconds. It lies between the interactive p95s of the
/// 10k and 20k rungs, so the latency condition alone decides the 20k rung.
inline constexpr double kServiceSloUs = 20.5;

/// One ladder rate against the capacity test: it meets the SLO when the
/// interactive p95 is within kServiceSloUs, no query failed, and the
/// backlog drains within one batch query's solo time after the last
/// arrival.
struct LadderVerdict {
  bool latency_ok = false;
  bool none_failed = false;
  bool backlog_ok = false;
  bool meets() const { return latency_ok && none_failed && backlog_ok; }
};
LadderVerdict JudgeRung(double interactive_p95_us, size_t not_ok,
                        double backlog_cycles, double allowance_cycles);

/// The small-op stream shared by paper-kernels (direct vgpu calls) and
/// cpux-ops (routed cpux calls): mixed joins and group-bys of 2^8..2^12
/// rows, where per-op fixed cost dominates.
struct SmallOp {
  bool is_join = true;
  int algo = 0;  // Index into kAllJoinAlgos / kAllGroupByAlgos.
  int size = 0;  // Index into SmallPool (rows = 2^(8 + size)).
};
struct SmallPool {
  std::vector<gpujoin::workload::JoinWorkload> joins;
  std::vector<gpujoin::HostTable> groupbys;
};
inline constexpr int kSmallSizes = 5;
/// Distinct small ops: 5 join + 3 group-by algorithms at every size.
inline constexpr size_t kSmallOpKinds = 8 * kSmallSizes;
SmallPool GenerateSmallPool(uint64_t seed);
std::vector<SmallOp> SmallOpStream(uint64_t seed, size_t n);
uint64_t SmallOpTuples(const SmallPool& pool, const SmallOp& op);

/// Median host latency of a small-op stream from its per-op bests: each op
/// kind (operator, algorithm, size) contributes the median of its ops, and
/// the result is the median across kinds. A plain median over ops would
/// sit on the edge between two kinds' clusters, i.e. on one kind's
/// slowest op.
double SmallOpMedian(const BestOf& best, const std::vector<SmallOp>& ops);

/// SUM of column 1: the aggregate every group-by in the benchmark runs.
gpujoin::groupby::GroupBySpec SumSpec();

/// Simulated-layer counters common to every workload that drives vgpu:
/// kernels, sectors per request, L2 hit rate, DRAM row misses, atomic
/// serializations, and per-kernel host time for the tracked kernels.
void ReportVgpuLayers(Report& report, const gpujoin::vgpu::KernelStats& total,
                      uint64_t kernels,
                      const std::map<std::string, double>& kernel_host_s,
                      double host_s, double host_cpu_s);

// Workload entry points (one translation unit each).
void RunPaperKernels(Report& report);
void RunServiceOpenLoop(Report& report);
void RunCpuxOps(Report& report);

/// Dispatches on config.workload; false for an unknown name.
bool RunWorkload(Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
