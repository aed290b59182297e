// Differential test of MemEngine against a plain reference model of the
// same memory semantics. The reference is deliberately naive: a quadratic
// in-warp dedup of sectors and of 128B lines, an L2 lookup that scans the
// set once for the hit and again for the LRU victim (with epoch validity),
// sequential runs issued warp by warp through that per-warp path, a row
// tracker touched once per missed sector, and quadratic atomic-multiplicity
// scans. MemEngine's linear dedup, one-pass set scan, batched runs and
// cached geometry must be observably identical to it: after every batch of
// random operations, all KernelStats fields and the L2 / open-row state in
// LRU order are compared exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "test_util.h"
#include "vgpu/block_sim.h"
#include "vgpu/device_config.h"
#include "vgpu/l2_cache.h"
#include "vgpu/stats.h"

namespace gpujoin::vgpu {
namespace {

int Log2(uint64_t v) {
  int r = 0;
  while (v >>= 1) ++r;
  return r;
}

uint64_t Fmix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

/// Set-associative LRU sector cache: two scans per lookup, epoch clear.
class RefL2 {
 public:
  RefL2(const DeviceConfig& config, uint64_t bytes) {
    ways_ = std::max(1, config.l2_ways);
    const size_t sectors = std::max<size_t>(1, bytes / config.sector_bytes);
    size_t sets = std::max<size_t>(1, sectors / ways_);
    size_t pow2 = 1;
    while (pow2 * 2 <= sets) pow2 *= 2;
    sets_ = pow2;
    tags_.assign(sets_ * ways_, ~uint64_t{0});
    lru_.assign(sets_ * ways_, 0);
  }

  bool Access(uint64_t sector) {
    const size_t base = (Fmix64(sector) & (sets_ - 1)) * ways_;
    ++clock_;
    for (int w = 0; w < ways_; ++w) {
      if (tags_[base + w] == sector && lru_[base + w] >= epoch_) {
        lru_[base + w] = clock_;
        return true;
      }
    }
    int victim = 0;
    uint32_t victim_lru = ~uint32_t{0};
    for (int w = 0; w < ways_; ++w) {
      if (lru_[base + w] < victim_lru) {
        victim_lru = lru_[base + w];
        victim = w;
      }
    }
    tags_[base + victim] = sector;
    lru_[base + victim] = clock_;
    return false;
  }

  void Clear() { epoch_ = clock_ + 1; }

  std::vector<uint64_t> ResidentByLru() const {
    std::vector<std::pair<uint32_t, uint64_t>> stamped;
    for (size_t i = 0; i < tags_.size(); ++i) {
      if (tags_[i] != ~uint64_t{0} && lru_[i] >= epoch_) {
        stamped.emplace_back(lru_[i], tags_[i]);
      }
    }
    std::sort(stamped.begin(), stamped.end());
    std::vector<uint64_t> out;
    for (const auto& [stamp, tag] : stamped) out.push_back(tag);
    return out;
  }

 private:
  size_t sets_ = 1;
  int ways_ = 1;
  uint32_t clock_ = 0;
  uint32_t epoch_ = 1;
  std::vector<uint64_t> tags_;
  std::vector<uint32_t> lru_;
};

/// The whole memory model, one sector at a time.
class RefEngine {
 public:
  RefEngine(const DeviceConfig& config, uint64_t l2_bytes, int row_buffers)
      : config_(config), l2_(config, l2_bytes) {
    rows_.assign(row_buffers, ~uint64_t{0});
    row_lru_.assign(row_buffers, 0);
  }

  KernelStats stats;

  void AccessWarp(const std::vector<uint64_t>& lanes, uint32_t bytes,
                  bool is_store) {
    if (lanes.empty()) return;
    ++stats.warp_instructions;
    ++stats.mem_instructions;
    (is_store ? stats.bytes_written : stats.bytes_read) +=
        static_cast<uint64_t>(lanes.size()) * bytes;
    const int sector_shift = Log2(config_.sector_bytes);
    const int line_shift = Log2(config_.cacheline_bytes);
    std::vector<uint64_t> sectors;
    std::vector<uint64_t> lines;
    for (uint64_t addr : lanes) {
      for (uint64_t s = addr >> sector_shift;
           s <= (addr + bytes - 1) >> sector_shift; ++s) {
        if (std::find(sectors.begin(), sectors.end(), s) == sectors.end()) {
          sectors.push_back(s);
        }
      }
      for (uint64_t l = addr >> line_shift; l <= (addr + bytes - 1) >> line_shift;
           ++l) {
        if (std::find(lines.begin(), lines.end(), l) == lines.end()) {
          lines.push_back(l);
        }
      }
    }
    stats.transactions += lines.size();
    stats.sectors += sectors.size();
    for (uint64_t s : sectors) {
      if (l2_.Access(s)) {
        ++stats.l2_hit_sectors;
      } else {
        ++stats.dram_sectors;
        TouchRow((s << sector_shift) >> Log2(config_.dram_row_bytes), true);
      }
    }
  }

  void AccessRun(uint64_t base, uint64_t count, uint32_t elem, bool is_store) {
    for (uint64_t i = 0; i < count; i += config_.warp_size) {
      std::vector<uint64_t> lanes;
      for (uint64_t l = i; l < std::min<uint64_t>(count, i + config_.warp_size);
           ++l) {
        lanes.push_back(base + l * elem);
      }
      AccessWarp(lanes, elem, is_store);
    }
  }

  void SharedAccess(uint64_t count) {
    stats.shared_accesses += count;
    stats.warp_instructions += count;
  }

  void SharedAtomic(const std::vector<uint32_t>& slots) {
    if (slots.empty()) return;
    ++stats.warp_instructions;
    ++stats.shared_accesses;
    stats.atomic_serializations += (MaxMult(slots) - 1) * 4;
  }

  void GlobalAtomic(const std::vector<uint64_t>& lanes, uint32_t bytes) {
    if (lanes.empty()) return;
    AccessWarp(lanes, bytes, /*is_store=*/true);
    stats.atomic_serializations += (MaxMult(lanes) - 1) * 8;
  }

  void Compute(uint64_t count) { stats.warp_instructions += count; }
  void SerialStall(double cycles) { stats.serial_cycles += cycles; }

  void FlushL2() { l2_.Clear(); }
  void ResetMemoryState() {
    l2_.Clear();
    rows_.assign(rows_.size(), ~uint64_t{0});
    row_lru_.assign(row_lru_.size(), 0);
    row_clock_ = 0;
  }

  std::vector<uint64_t> ResidentL2() const { return l2_.ResidentByLru(); }
  std::vector<uint64_t> OpenRows() const {
    std::vector<std::pair<uint32_t, uint64_t>> stamped;
    for (size_t i = 0; i < rows_.size(); ++i) {
      if (rows_[i] != ~uint64_t{0}) stamped.emplace_back(row_lru_[i], rows_[i]);
    }
    std::sort(stamped.begin(), stamped.end());
    std::vector<uint64_t> out;
    for (const auto& [stamp, row] : stamped) out.push_back(row);
    return out;
  }

 private:
  template <typename T>
  static uint64_t MaxMult(const std::vector<T>& v) {
    uint64_t best = 1;
    for (size_t i = 0; i < v.size(); ++i) {
      best = std::max<uint64_t>(best, std::count(v.begin() + i, v.end(), v[i]));
    }
    return best;
  }

  void TouchRow(uint64_t row, bool count_miss) {
    const int assoc = config_.dram_row_assoc;
    const uint64_t group = (Fmix64(row) % (rows_.size() / assoc)) * assoc;
    ++row_clock_;
    for (int w = 0; w < assoc; ++w) {
      if (rows_[group + w] == row) {
        row_lru_[group + w] = row_clock_;
        return;
      }
    }
    int victim = 0;
    for (int w = 1; w < assoc; ++w) {
      if (row_lru_[group + w] < row_lru_[group + victim]) victim = w;
    }
    rows_[group + victim] = row;
    row_lru_[group + victim] = row_clock_;
    if (count_miss) ++stats.dram_row_misses;
  }

  DeviceConfig config_;
  RefL2 l2_;
  std::vector<uint64_t> rows_;
  std::vector<uint32_t> row_lru_;
  uint32_t row_clock_ = 0;
};

/// Lane addresses in [0, span): coalesced, duplicated, descending, or
/// random, with arbitrary alignment.
std::vector<uint64_t> RandomLanes(std::mt19937_64& rng, uint64_t span,
                                  uint32_t bytes) {
  const uint32_t n = 1 + static_cast<uint32_t>(rng() % 32);
  const uint64_t limit = span - 64 * bytes - 64;
  std::vector<uint64_t> lanes(n);
  const uint64_t base = rng() % limit;
  switch (rng() % 5) {
    case 0:  // Coalesced, possibly unaligned.
      for (uint32_t l = 0; l < n; ++l) lanes[l] = base + l * bytes;
      break;
    case 1:  // Ascending with repeats (several lanes per address).
      for (uint32_t l = 0; l < n; ++l) lanes[l] = base + (l / 3) * bytes;
      break;
    case 2:  // Descending.
      for (uint32_t l = 0; l < n; ++l) lanes[l] = base + (n - l) * bytes;
      break;
    case 3:  // Random over a small pool: heavy duplicates, out of order.
      for (uint32_t l = 0; l < n; ++l) lanes[l] = base + (rng() % 6) * 40;
      break;
    default:  // Random scatter.
      for (uint32_t l = 0; l < n; ++l) lanes[l] = rng() % limit;
      break;
  }
  return lanes;
}

void ExpectSameState(const MemEngine& engine, const RefEngine& ref) {
  EXPECT_STATS_EQ(engine.stats, ref.stats);
  std::vector<uint64_t> got;
  engine.ResidentL2SectorsByLru(&got);
  EXPECT_EQ(got, ref.ResidentL2());
  engine.OpenDramRowsByLru(&got);
  EXPECT_EQ(got, ref.OpenRows());
}

/// Drives `batches` batches of random operations through both models.
void RunDifferential(const DeviceConfig& config, uint64_t l2_bytes,
                     int row_buffers, uint64_t seed, bool fast_path) {
  MemEngine engine(config, l2_bytes, row_buffers);
  engine.fast_path_enabled = fast_path;
  RefEngine ref(config, l2_bytes, row_buffers);
  std::mt19937_64 rng(seed);
  // Twice the cache (or a row-tracker's reach, whichever is larger) so the
  // streams mix hits, misses and evictions.
  const uint64_t span = std::max<uint64_t>(
      2 * l2_bytes, uint64_t{4} * config.dram_row_bytes * row_buffers);
  const uint32_t widths[] = {1, 2, 4, 8, 12, 16};
  for (int batch = 0; batch < 40; ++batch) {
    for (int op = 0; op < 60; ++op) {
      const uint32_t bytes = widths[rng() % 6];
      switch (rng() % 8) {
        case 0:
        case 1: {  // Per-warp load/store.
          const std::vector<uint64_t> lanes = RandomLanes(rng, span, bytes);
          const bool store = rng() % 2 == 0;
          engine.AccessWarp(lanes, bytes, store);
          ref.AccessWarp(lanes, bytes, store);
          break;
        }
        case 2: {  // Long sequential run.
          const uint64_t count = rng() % 4000;
          const uint64_t base = rng() % (span - count * bytes);
          const bool store = rng() % 2 == 0;
          engine.AccessRun(base, count, bytes, store);
          ref.AccessRun(base, count, bytes, store);
          break;
        }
        case 3: {  // Scatter-style flush: a run of 1-3 sectors.
          const uint64_t count = 1 + rng() % (96 / bytes);
          const uint64_t base = rng() % (span - count * bytes);
          engine.AccessRun(base, count, bytes, true);
          ref.AccessRun(base, count, bytes, true);
          break;
        }
        case 4: {  // Global atomics (read-modify-write + serialization).
          const std::vector<uint64_t> lanes = RandomLanes(rng, span, bytes);
          engine.GlobalAtomic(lanes, bytes);
          ref.GlobalAtomic(lanes, bytes);
          break;
        }
        case 5: {  // Shared atomics over a few slots or all-distinct slots.
          std::vector<uint32_t> slots(1 + rng() % 32);
          const uint32_t pool = rng() % 2 == 0 ? 4 : 1u << 20;
          for (uint32_t& s : slots) s = static_cast<uint32_t>(rng() % pool);
          if (rng() % 3 == 0) std::sort(slots.begin(), slots.end());
          engine.SharedAtomic(slots);
          ref.SharedAtomic(slots);
          break;
        }
        case 6: {
          const uint64_t n = rng() % 5;
          engine.SharedAccess(n);
          ref.SharedAccess(n);
          engine.Compute(n + 1);
          ref.Compute(n + 1);
          engine.SerialStall(0.25 * static_cast<double>(n));
          ref.SerialStall(0.25 * static_cast<double>(n));
          break;
        }
        default: {  // Re-touch a recent region (L2 and open-row hits).
          const uint64_t count = 1 + rng() % 64;
          const uint64_t base = rng() % 4096;
          engine.AccessRun(base, count, bytes, false);
          ref.AccessRun(base, count, bytes, false);
          break;
        }
      }
    }
    ExpectSameState(engine, ref);
    if (::testing::Test::HasFailure()) return;
    switch (rng() % 6) {
      case 0:
        engine.FlushL2();
        ref.FlushL2();
        break;
      case 1:
        engine.ResetMemoryState();
        ref.ResetMemoryState();
        break;
      default:
        break;
    }
  }
}

DeviceConfig TestConfig() {
  return DeviceConfig::ScaledToWorkload(DeviceConfig::A100(), uint64_t{1} << 16);
}

TEST(MemEngineReferenceTest, ShardSizedEngineMatchesReference) {
  const DeviceConfig config = TestConfig();
  for (uint64_t seed : {1ull, 2ull, 3ull, 99ull}) {
    SCOPED_TRACE(seed);
    RunDifferential(config, ShardL2Bytes(config), ShardDramRowBuffers(config),
                    seed, /*fast_path=*/seed % 2 == 1);
  }
}

TEST(MemEngineReferenceTest, DeviceSizedEngineMatchesReference) {
  const DeviceConfig config = TestConfig();
  const int rows = std::max(config.dram_row_assoc, config.dram_row_buffers);
  for (uint64_t seed : {5ull, 6ull, 1234ull}) {
    SCOPED_TRACE(seed);
    RunDifferential(config, config.l2_bytes, rows, seed,
                    /*fast_path=*/seed % 2 == 1);
  }
}

// The LRU clocks renormalize when they reach L2Cache::kClockHighWater. An
// engine whose clocks start below the mark (or just below uint32
// wraparound) must behave exactly like a fresh engine on the same stream:
// same hit/miss and row-miss counts, same resident and open-row order. The
// state is compared after every operation, so the comparison right after
// the renormalization sees the lines that were resident when it ran.
TEST(MemEngineReferenceTest, ClockRenormalizationIsInvisible) {
  const DeviceConfig config = TestConfig();
  for (uint32_t start : {L2Cache::kClockHighWater - 1500,
                         L2Cache::kClockHighWater - 200,
                         L2Cache::kClockHighWater - 1,
                         ~uint32_t{0} - 1000}) {
    SCOPED_TRACE(start);
    MemEngine fresh(config);
    MemEngine aged(config);
    aged.ResetMemoryStateForTesting(start);
    std::mt19937_64 rng(start);
    std::vector<uint64_t> a, b;
    const auto expect_same = [&] {
      EXPECT_STATS_EQ(aged.stats, fresh.stats);
      aged.ResidentL2SectorsByLru(&a);
      fresh.ResidentL2SectorsByLru(&b);
      EXPECT_EQ(a, b);
      aged.OpenDramRowsByLru(&a);
      fresh.OpenDramRowsByLru(&b);
      EXPECT_EQ(a, b);
    };
    for (int op = 0; op < 1000 && !::testing::Test::HasFailure(); ++op) {
      const std::vector<uint64_t> lanes =
          RandomLanes(rng, uint64_t{1} << 18, 8);
      fresh.AccessWarp(lanes, 8, /*is_store=*/false);
      aged.AccessWarp(lanes, 8, /*is_store=*/false);
      expect_same();
      const uint64_t base = rng() % (uint64_t{1} << 18);
      fresh.AccessRun(base, 200, 4, /*is_store=*/true);
      aged.AccessRun(base, 200, 4, /*is_store=*/true);
      expect_same();
      // Epoch clears just before the mark is crossed from kClockHighWater
      // - 200 (the stale lines must stay dead through the renormalization)
      // and long after it.
      if (op == 2 || op == 500) {
        aged.FlushL2();
        fresh.FlushL2();
      }
    }
  }
}

}  // namespace
}  // namespace gpujoin::vgpu
