// The host-parallel simulation path (Device::ParallelBlocks fanned across
// GPUJOIN_SIM_THREADS worker threads) must be BIT-IDENTICAL to the
// sequential path: same query results, same KernelStats field by field,
// same L2-shard and DRAM-row state after the merge, same trace spans, and
// the same fault-injection / lifecycle / leak-audit behavior. These tests
// sweep every join algorithm and group-by strategy across thread counts
// {1, 2, 7, 16} and compare everything exactly — the determinism contract
// DESIGN.md §12 documents (each block runs on a cold shard, so its outcome
// is a pure function of (block_id, inputs); merging in fixed block order
// makes the thread count unobservable).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "groupby/groupby.h"
#include "join/join.h"
#include "obs/trace.h"
#include "storage/table.h"
#include "test_util.h"
#include "vgpu/buffer.h"
#include "vgpu/device.h"
#include "workload/generator.h"

namespace gpujoin {
namespace {

using groupby::AggOp;
using groupby::GroupByAlgo;
using groupby::GroupBySpec;
using join::JoinAlgo;
using join::JoinRunResult;
using testing::MakeTestDevice;
using vgpu::Device;
using vgpu::KernelStats;
using workload::GenerateGroupByInput;
using workload::GenerateJoinInput;
using workload::GroupByWorkloadSpec;
using workload::JoinWorkload;
using workload::JoinWorkloadSpec;

const int kThreadCounts[] = {2, 7, 16};

/// FNV-1a over every cell of a table: proves the parallel path produces the
/// same bytes, not just the same statistics.
uint64_t TableChecksum(const Table& t) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(t.num_rows());
  for (int c = 0; c < t.num_columns(); ++c) {
    for (uint64_t i = 0; i < t.num_rows(); ++i) {
      mix(static_cast<uint64_t>(t.column(c).Get(i)));
    }
  }
  return h;
}

/// The full post-run fingerprint compared between thread counts.
struct RunFingerprint {
  KernelStats total;
  std::vector<uint64_t> l2_sectors;
  std::vector<uint64_t> dram_rows;
  double elapsed_seconds = 0;
  uint64_t output_rows = 0;
  uint64_t checksum = 0;
  uint64_t peak_mem = 0;
};

void ExpectFingerprintEq(const RunFingerprint& a, const RunFingerprint& b) {
  EXPECT_STATS_EQ(a.total, b.total);
  EXPECT_EQ(a.l2_sectors, b.l2_sectors);
  EXPECT_EQ(a.dram_rows, b.dram_rows);
  EXPECT_DOUBLE_EQ(a.elapsed_seconds, b.elapsed_seconds);
  EXPECT_EQ(a.output_rows, b.output_rows);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.peak_mem, b.peak_mem);
}

JoinWorkloadSpec JoinSpec() {
  JoinWorkloadSpec spec;
  spec.r_rows = 4096;
  spec.s_rows = 9000;  // Not a tile multiple: exercises tail blocks.
  spec.r_payload_cols = 2;
  spec.s_payload_cols = 2;
  return spec;
}

RunFingerprint RunJoinWith(int threads, JoinAlgo algo, const JoinWorkload& w) {
  RunFingerprint fp;
  Device device = MakeTestDevice();
  device.set_parallel_sim(threads);
  EXPECT_EQ(device.parallel_sim_threads(), threads);
  {
    Table r = Table::FromHost(device, w.r).ValueOrDie();
    Table s = Table::FromHost(device, w.s).ValueOrDie();
    JoinRunResult res = join::RunJoin(device, algo, r, s).ValueOrDie();
    fp.output_rows = res.output_rows;
    fp.checksum = TableChecksum(res.output);
    fp.peak_mem = res.peak_mem_bytes;
  }
  fp.total = device.total_stats();
  fp.l2_sectors = device.DebugResidentL2Sectors();
  fp.dram_rows = device.DebugOpenDramRows();
  fp.elapsed_seconds = device.ElapsedSeconds();
  EXPECT_OK(device.CheckNoLeaks());
  return fp;
}

class ParallelSimJoinTest : public ::testing::TestWithParam<JoinAlgo> {};

TEST_P(ParallelSimJoinTest, BitIdenticalAcrossThreadCounts) {
  const JoinAlgo algo = GetParam();
  ASSERT_OK_AND_ASSIGN(JoinWorkload w, GenerateJoinInput(JoinSpec()));
  const RunFingerprint seq = RunJoinWith(1, algo, w);
  EXPECT_GT(seq.output_rows, 0u);
  for (int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectFingerprintEq(seq, RunJoinWith(threads, algo, w));
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgos, ParallelSimJoinTest,
                         ::testing::ValuesIn(join::kAllJoinAlgos),
                         [](const auto& info) {
                           return std::string(
                               join::JoinAlgoShortName(info.param));
                         });

RunFingerprint RunGroupByWith(int threads, GroupByAlgo algo,
                              const HostTable& host) {
  RunFingerprint fp;
  Device device = MakeTestDevice();
  device.set_parallel_sim(threads);
  GroupBySpec spec;
  spec.aggregates = {{1, AggOp::kSum}, {2, AggOp::kMax}, {1, AggOp::kCount}};
  {
    Table input = Table::FromHost(device, host).ValueOrDie();
    auto res = groupby::RunGroupBy(device, algo, input, spec).ValueOrDie();
    fp.output_rows = res.num_groups;
    fp.checksum = TableChecksum(res.output);
    fp.peak_mem = res.peak_mem_bytes;
  }
  fp.total = device.total_stats();
  fp.l2_sectors = device.DebugResidentL2Sectors();
  fp.dram_rows = device.DebugOpenDramRows();
  fp.elapsed_seconds = device.ElapsedSeconds();
  EXPECT_OK(device.CheckNoLeaks());
  return fp;
}

class ParallelSimGroupByTest : public ::testing::TestWithParam<GroupByAlgo> {};

TEST_P(ParallelSimGroupByTest, BitIdenticalAcrossThreadCounts) {
  const GroupByAlgo algo = GetParam();
  GroupByWorkloadSpec spec;
  spec.rows = 20000;
  spec.num_groups = 700;
  spec.payload_cols = 2;
  ASSERT_OK_AND_ASSIGN(HostTable host, GenerateGroupByInput(spec));
  const RunFingerprint seq = RunGroupByWith(1, algo, host);
  EXPECT_GT(seq.output_rows, 0u);
  for (int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectFingerprintEq(seq, RunGroupByWith(threads, algo, host));
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, ParallelSimGroupByTest,
                         ::testing::ValuesIn(groupby::kAllGroupByAlgos),
                         [](const auto& info) {
                           switch (info.param) {
                             case GroupByAlgo::kHashGlobal:
                               return std::string("HashGlobal");
                             case GroupByAlgo::kHashPartitioned:
                               return std::string("HashPartitioned");
                             case GroupByAlgo::kSortBased:
                               return std::string("SortBased");
                           }
                           return std::string("Unknown");
                         });

// --- Direct ParallelBlocks stream equivalence: per-block access streams
// that are pure functions of block_id must merge identically at any fan-out.

void RunBlockStream(Device& device, uint64_t buf_addr, uint64_t num_blocks) {
  vgpu::KernelScope ks(device, "block_stream");
  ASSERT_OK(device.ParallelBlocks(
      num_blocks, [&](uint64_t b, vgpu::BlockContext& ctx) -> Status {
        // A deterministic mix of run, warp, shared, and atomic traffic whose
        // shape varies per block.
        const uint64_t base = buf_addr + (b % 13) * 4096;
        ctx.LoadSeq(base, 1000 + (b % 7) * 31, 4);
        uint64_t addrs[32];
        for (uint32_t l = 0; l < 32; ++l) {
          addrs[l] = buf_addr + ((b * 131 + l * 977) % (1 << 19));
        }
        ctx.Load({addrs, 32}, 8);
        ctx.StoreSeq(base + 64, 513 + (b % 5), 8);
        uint32_t slots[32];
        for (uint32_t l = 0; l < 32; ++l) {
          slots[l] = static_cast<uint32_t>((b + l) % ((b % 3) + 2));
        }
        ctx.SharedAtomic({slots, 32});
        ctx.Compute(b % 17);
        if (b % 4 == 0) ctx.SerialStall(static_cast<double>(b % 23));
        return Status::OK();
      }));
}

TEST(ParallelBlocksTest, RandomBlockStreamsMergeIdenticallyAtAnyFanOut) {
  RunFingerprint seq;
  auto run = [](int threads) {
    RunFingerprint fp;
    Device device = MakeTestDevice();
    device.set_parallel_sim(threads);
    auto buf = vgpu::DeviceBuffer<uint8_t>::Allocate(device, 1 << 20)
                   .ValueOrDie();
    RunBlockStream(device, buf.addr(), 57);
    RunBlockStream(device, buf.addr(), 31);  // Starts from merged L2 state.
    fp.total = device.total_stats();
    fp.l2_sectors = device.DebugResidentL2Sectors();
    fp.dram_rows = device.DebugOpenDramRows();
    fp.elapsed_seconds = device.ElapsedSeconds();
    return fp;
  };
  seq = run(1);
  EXPECT_FALSE(seq.l2_sectors.empty());
  for (int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const RunFingerprint par = run(threads);
    EXPECT_STATS_EQ(seq.total, par.total);
    EXPECT_EQ(seq.l2_sectors, par.l2_sectors);
    EXPECT_EQ(seq.dram_rows, par.dram_rows);
    EXPECT_DOUBLE_EQ(seq.elapsed_seconds, par.elapsed_seconds);
  }
}

TEST(ParallelBlocksTest, FirstErrorInBlockOrderWinsRegardlessOfThreads) {
  for (int threads : {1, 2, 7, 16}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Device device = MakeTestDevice();
    device.set_parallel_sim(threads);
    vgpu::KernelScope ks(device, "failing_stream");
    const Status st = device.ParallelBlocks(
        40, [&](uint64_t b, vgpu::BlockContext& ctx) -> Status {
          ctx.Compute(1);
          if (b >= 11 && b % 2 == 1) {
            return Status::InvalidArgument("block " + std::to_string(b));
          }
          return Status::OK();
        });
    ASSERT_FALSE(st.ok());
    // Block 11 is the first failing block in block order; later failures
    // (13, 15, ...) must never win the race.
    EXPECT_NE(st.message().find("block 11"), std::string::npos)
        << st.ToString();
  }
}

// --- Trace spans: the span tree (names, nesting, simulated clocks, stats)
// must not depend on the thread count. Host wall-clock fields are excluded —
// they are explicitly observability-only.

TEST(ParallelSimObsTest, TraceSpansAreIdenticalAcrossThreadCounts) {
  ASSERT_OK_AND_ASSIGN(JoinWorkload w, GenerateJoinInput(JoinSpec()));
  auto collect = [&](int threads) {
    obs::Tracer::Global().Clear();
    obs::Tracer::Global().set_enabled(true);
    Device device = MakeTestDevice();
    device.set_parallel_sim(threads);
    {
      Table r = Table::FromHost(device, w.r).ValueOrDie();
      Table s = Table::FromHost(device, w.s).ValueOrDie();
      join::RunJoin(device, JoinAlgo::kPhjOm, r, s).ValueOrDie();
    }
    std::vector<obs::SpanRecord> spans = obs::Tracer::Global().spans();
    obs::Tracer::Global().set_enabled(false);
    obs::Tracer::Global().Clear();
    return spans;
  };
  const auto seq = collect(1);
  ASSERT_FALSE(seq.empty());
  for (int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto par = collect(threads);
    ASSERT_EQ(seq.size(), par.size());
    for (size_t i = 0; i < seq.size(); ++i) {
      SCOPED_TRACE("span " + std::to_string(i) + " (" + seq[i].name + ")");
      EXPECT_EQ(seq[i].category, par[i].category);
      EXPECT_EQ(seq[i].name, par[i].name);
      EXPECT_EQ(seq[i].parent, par[i].parent);
      EXPECT_EQ(seq[i].depth, par[i].depth);
      EXPECT_DOUBLE_EQ(seq[i].start_cycles, par[i].start_cycles);
      EXPECT_DOUBLE_EQ(seq[i].end_cycles, par[i].end_cycles);
      EXPECT_STATS_EQ(seq[i].stats, par[i].stats);
      EXPECT_EQ(seq[i].live_bytes_end, par[i].live_bytes_end);
    }
  }
}

// --- Fault injection, lifecycle seams, and leak audits must stay
// deterministic under the parallel path: allocations and kernel boundaries
// all happen on the calling thread, so the Nth attempt / Nth kernel is the
// same with any fan-out.

TEST(ParallelSimResilienceTest, FaultInjectionTripsIdenticallyAcrossThreads) {
  ASSERT_OK_AND_ASSIGN(JoinWorkload w, GenerateJoinInput(JoinSpec()));
  auto run = [&](int threads, uint64_t nth) {
    Device device(vgpu::DeviceConfig::ScaledToWorkload(
                      vgpu::DeviceConfig::A100(), uint64_t{1} << 16),
                  vgpu::FaultInjector::FailNth(nth), nullptr, threads);
    std::string message;
    uint64_t attempts = 0;
    {
      Table r = Table::FromHost(device, w.r).ValueOrDie();
      Table s = Table::FromHost(device, w.s).ValueOrDie();
      auto res = join::RunJoin(device, JoinAlgo::kPhjOm, r, s);
      EXPECT_FALSE(res.ok());
      message = res.status().ToString();
      attempts = device.memory_stats().alloc_attempts;
      EXPECT_EQ(device.memory_stats().injected_failures, 1u);
    }
    EXPECT_OK(device.CheckNoLeaks());  // Error path must not leak.
    return std::make_pair(message, attempts);
  };
  for (uint64_t nth : {9ull, 14ull}) {
    const auto seq = run(1, nth);
    for (int threads : kThreadCounts) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " nth=" + std::to_string(nth));
      EXPECT_EQ(run(threads, nth), seq);
    }
  }
}

TEST(ParallelSimResilienceTest, CancellationSeamIsIdenticalAcrossThreads) {
  ASSERT_OK_AND_ASSIGN(JoinWorkload w, GenerateJoinInput(JoinSpec()));
  auto run = [&](int threads) {
    vgpu::LifecycleControl control;
    control.set_cancel_at_kernel(5);
    Device device(vgpu::DeviceConfig::ScaledToWorkload(
                      vgpu::DeviceConfig::A100(), uint64_t{1} << 16),
                  vgpu::FaultInjector{}, &control, threads);
    std::string message;
    {
      Table r = Table::FromHost(device, w.r).ValueOrDie();
      Table s = Table::FromHost(device, w.s).ValueOrDie();
      auto res = join::RunJoin(device, JoinAlgo::kPhjOm, r, s);
      EXPECT_FALSE(res.ok());
      message = res.status().ToString();
    }
    EXPECT_OK(device.CheckNoLeaks());
    return std::make_pair(message, device.total_stats().cycles);
  };
  const auto seq = run(1);
  for (int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(run(threads), seq);
  }
}

// --- host_kernel_seconds satellite: under the parallel path the device
// reports both wall seconds and CPU-summed worker seconds; both must be
// populated and non-negative (their exact values are host timing, not
// simulated state, so only sanity is asserted).

TEST(ParallelSimProfileTest, WallAndCpuSecondsBothReported) {
  Device device = MakeTestDevice();
  device.set_parallel_sim(4);
  auto buf = vgpu::DeviceBuffer<uint8_t>::Allocate(device, 1 << 20).ValueOrDie();
  RunBlockStream(device, buf.addr(), 64);
  EXPECT_GT(device.host_kernel_seconds(), 0.0);
  EXPECT_GE(device.host_kernel_cpu_seconds(), 0.0);
}

}  // namespace
}  // namespace gpujoin
