// The batched run fast path (Device::AccessRun / LoadSeq / StoreSeq) must be
// BIT-IDENTICAL in simulated statistics to the generic per-warp path it
// replaces: same KernelStats field by field, and the same L2/DRAM-row state
// afterwards (verified by running further kernels). These property tests
// replay identical randomized access streams through a fast-path device and
// a generic-path device and compare every counter exactly.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "test_util.h"
#include "vgpu/buffer.h"
#include "vgpu/device.h"

namespace gpujoin::vgpu {
namespace {

// One randomized operation, replayable onto any device.
struct Op {
  enum Kind { kLoadSeq, kStoreSeq, kWarpLoad, kWarpStore, kAtomic } kind;
  uint64_t base = 0;       // For runs: start address.
  uint64_t count = 0;      // For runs: element count.
  uint32_t elem_bytes = 0; // For runs and warp ops.
  std::vector<uint64_t> lane_addrs;  // For warp ops / atomics.
};

void Replay(Device& device, uint64_t buf_addr, const std::vector<Op>& ops) {
  KernelScope ks(device, "replay");
  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::kLoadSeq:
        device.LoadSeq(buf_addr + op.base, op.count, op.elem_bytes);
        break;
      case Op::kStoreSeq:
        device.StoreSeq(buf_addr + op.base, op.count, op.elem_bytes);
        break;
      case Op::kWarpLoad: {
        std::vector<uint64_t> addrs = op.lane_addrs;
        for (uint64_t& a : addrs) a += buf_addr;
        device.Load(addrs, op.elem_bytes);
        break;
      }
      case Op::kWarpStore: {
        std::vector<uint64_t> addrs = op.lane_addrs;
        for (uint64_t& a : addrs) a += buf_addr;
        device.Store(addrs, op.elem_bytes);
        break;
      }
      case Op::kAtomic: {
        std::vector<uint64_t> addrs = op.lane_addrs;
        for (uint64_t& a : addrs) a += buf_addr;
        device.GlobalAtomic(addrs, op.elem_bytes);
        break;
      }
    }
  }
}

std::vector<Op> RandomStream(uint64_t seed, uint64_t buf_bytes) {
  std::mt19937_64 rng(seed);
  const uint32_t elem_choices[] = {1, 2, 4, 8, 12, 16};
  std::vector<Op> ops;
  const int n_ops = 60;
  for (int i = 0; i < n_ops; ++i) {
    Op op;
    const int pick = static_cast<int>(rng() % 5);
    op.kind = static_cast<Op::Kind>(pick);
    if (op.kind == Op::kLoadSeq || op.kind == Op::kStoreSeq) {
      op.elem_bytes = elem_choices[rng() % 6];
      // Deliberately unaligned bases and tail-warp counts (not multiples
      // of the warp size), including tiny and zero-length runs.
      op.count = rng() % 3000;
      const uint64_t span = op.count * op.elem_bytes;
      op.base = span < buf_bytes ? rng() % (buf_bytes - span) : 0;
    } else {
      op.elem_bytes = elem_choices[rng() % 4];  // 1..8 for warp ops.
      const uint32_t lanes = 1 + static_cast<uint32_t>(rng() % 32);
      op.lane_addrs.resize(lanes);
      for (uint64_t& a : op.lane_addrs) {
        a = rng() % (buf_bytes - op.elem_bytes);
      }
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

TEST(SimFastPathTest, RandomStreamsAreBitIdenticalAcrossPaths) {
  const uint64_t buf_bytes = 1ull << 20;
  for (uint64_t seed : {1ull, 7ull, 42ull, 77ull, 999ull, 31337ull}) {
    Device fast = testing::MakeTestDevice();
    Device generic = testing::MakeTestDevice();
    generic.set_fast_path_enabled(false);
    ASSERT_TRUE(fast.fast_path_enabled());
    ASSERT_FALSE(generic.fast_path_enabled());

    auto fast_buf = DeviceBuffer<uint8_t>::Allocate(fast, buf_bytes).ValueOrDie();
    auto gen_buf =
        DeviceBuffer<uint8_t>::Allocate(generic, buf_bytes).ValueOrDie();
    const std::vector<Op> ops = RandomStream(seed, buf_bytes);

    // Two kernels back to back: the second starts from the L2/row-tracker
    // state the first left behind, so this also proves the cache and row
    // tracker end up in identical states, not just identical counters.
    for (int k = 0; k < 2; ++k) {
      Replay(fast, fast_buf.addr(), ops);
      Replay(generic, gen_buf.addr(), ops);
      const KernelStats& a = fast.last_kernel_stats();
      const KernelStats& b = generic.last_kernel_stats();
      EXPECT_STATS_EQ(a, b);
    }
    const KernelStats& ta = fast.total_stats();
    const KernelStats& tb = generic.total_stats();
    EXPECT_STATS_EQ(ta, tb);
  }
}

TEST(SimFastPathTest, PureSequentialRunsMatchGenericExactly) {
  // The common shapes the primitives emit: aligned 4/8-byte streams, odd
  // element sizes (12-byte tuples), misaligned bases, and tail warps.
  struct Shape {
    uint64_t base, count;
    uint32_t elem;
  };
  const Shape shapes[] = {
      {0, 4096, 4},   {0, 4096, 8},    {0, 1000, 12},  {4, 999, 4},
      {28, 511, 8},   {12, 77, 16},    {1, 63, 1},     {0, 33, 2},
      {100, 1, 4},    {0, 0, 4},       {31, 4097, 4},
  };
  Device fast = testing::MakeTestDevice();
  Device generic = testing::MakeTestDevice();
  generic.set_fast_path_enabled(false);
  auto fb = DeviceBuffer<uint8_t>::Allocate(fast, 1 << 20).ValueOrDie();
  auto gb = DeviceBuffer<uint8_t>::Allocate(generic, 1 << 20).ValueOrDie();
  for (const Shape& s : shapes) {
    {
      KernelScope ks(fast, "run");
      fast.LoadSeq(fb.addr() + s.base, s.count, s.elem);
      fast.StoreSeq(fb.addr() + s.base, s.count, s.elem);
    }
    {
      KernelScope ks(generic, "run");
      generic.LoadSeq(gb.addr() + s.base, s.count, s.elem);
      generic.StoreSeq(gb.addr() + s.base, s.count, s.elem);
    }
    const KernelStats& a = fast.last_kernel_stats();
    const KernelStats& b = generic.last_kernel_stats();
    EXPECT_STATS_EQ(a, b);
  }
}

}  // namespace
}  // namespace gpujoin::vgpu
