// The shard abstraction of the host-parallel simulation path.
//
// MemEngine is the memory-accounting core: an L2 model, a DRAM open-row
// tracker, and a KernelStats accumulator, plus the access-classification
// routines (per-warp and batched-run) that used to live directly in
// Device. Device owns one full-sized MemEngine for the sequential path;
// BlockContext wraps a shard-sized one that models a single thread block's
// slice of the memory system.
//
// Parallel model. Thread blocks are independent between kernel launches —
// the observation that lets the paper's kernels scale across SMs makes
// per-block simulation embarrassingly parallel on the host. A kernel ported
// to Device::ParallelBlocks() simulates each block against a COLD private
// shard (BeginBlock epoch-clears the L2 shard and row tracker), so every
// block's outcome — its KernelStats delta, resident L2 sectors, and open
// DRAM rows — is a pure function of (block id, pre-kernel inputs) and in
// particular independent of which host thread ran it and in what order.
// The outcomes are then merged into the device engine in fixed block order
// (stats added; shard residents replayed via InstallL2Sector /
// InstallDramRow, least-recently-used first). Both facts together make the
// simulated results bit-identical for every host thread count, including 1:
// the sequential path runs the exact same per-block loop inline.
//
// The cold-shard model intentionally differs from pretending all blocks
// share the sequential engine: real concurrent blocks do not see each
// other's lines deterministically, so a private slice of the L2
// (ShardL2Bytes = l2_bytes / num_sms) is the honest approximation, and it
// is the one that parallelizes.

#ifndef GPUJOIN_VGPU_BLOCK_SIM_H_
#define GPUJOIN_VGPU_BLOCK_SIM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "vgpu/device_config.h"
#include "vgpu/l2_cache.h"
#include "vgpu/stats.h"

namespace gpujoin::vgpu {

/// Per-block L2 shard capacity: one SM's share of the device L2 (floored so
/// degenerate scaled-down configs keep a nonempty cache).
uint64_t ShardL2Bytes(const DeviceConfig& config);
/// Per-block open-row tracker size: one SM's share of the device row
/// buffers, rounded up to whole associativity groups.
int ShardDramRowBuffers(const DeviceConfig& config);

/// Open-addressing multiset of 64-bit keys sized for one warp's lanes: the
/// linear-time dedup and multiplicity counter behind MemEngine's per-warp
/// accounting. Begin() empties it in O(1) by advancing a stamp (a slot is
/// live only while it carries the current stamp).
class LaneCounter {
 public:
  /// Starts a fresh, empty counter able to hold `max_keys` distinct keys.
  void Begin(size_t max_keys);
  /// Adds one occurrence of `key`; returns its count since Begin().
  uint32_t Add(uint64_t key) {
    uint64_t h = (key * 0x9e3779b97f4a7c15ull) >> shift_;
    for (;;) {
      if (stamps_[h] != stamp_) {
        stamps_[h] = stamp_;
        keys_[h] = key;
        counts_[h] = 1;
        return 1;
      }
      if (keys_[h] == key) return ++counts_[h];
      h = (h + 1) & mask_;
    }
  }

 private:
  std::vector<uint64_t> keys_;
  std::vector<uint32_t> stamps_;
  std::vector<uint32_t> counts_;
  uint32_t stamp_ = 0;
  uint64_t mask_ = 0;
  int shift_ = 64;
};

/// Memory-accounting engine: L2 + DRAM-row models and the stats they feed.
/// Not thread-safe; the parallel path gives each worker its own engine.
class MemEngine {
 public:
  /// `l2_bytes_override`/`dram_row_buffers_override` of 0 mean the full
  /// device-sized models (Device's engine); BlockContext passes the shard
  /// sizes.
  explicit MemEngine(const DeviceConfig& config, uint64_t l2_bytes_override = 0,
                     int dram_row_buffers_override = 0);

  /// Counters accumulated by the access methods below. The owner brackets:
  /// Device resets this per kernel, BlockContext per block.
  KernelStats stats;
  /// When false, AccessRun falls back to the generic per-warp path (the
  /// two are bit-identical in simulated stats; testing hook).
  bool fast_path_enabled = true;

  // --- Access accounting (mirrors the Device hooks) ---

  /// One warp-level access: dedups the touched sectors in first-touch
  /// order, counts the distinct 128B lines among them, and classifies each
  /// sector through the L2 + row models. Linear in the sectors touched: a
  /// strictly ascending sector stream (the coalesced case) needs no lookup,
  /// anything else goes through a per-call LaneCounter.
  void AccessWarp(std::span<const uint64_t> lane_addrs, uint32_t bytes_per_lane,
                  bool is_store);
  /// Batched fully-coalesced sequential run (see Device::AccessRun).
  void AccessRun(uint64_t base_addr, uint64_t count, uint32_t elem_bytes,
                 bool is_store);
  void SharedAccess(uint64_t count);
  void SharedAtomic(std::span<const uint32_t> lane_slots);
  void GlobalAtomic(std::span<const uint64_t> lane_addrs,
                    uint32_t bytes_per_lane);
  void Compute(uint64_t count);
  void SerialStall(double cycles);

  // --- Memory-model state control ---

  /// Invalidates the L2 contents only (Device::FlushL2).
  void FlushL2() { l2_.Clear(); }
  /// Cold state: L2 and row tracker both invalidated (per-block reset, and
  /// Device::Reset). O(1) on the L2 side via the epoch clear.
  void ResetMemoryState();
  /// Cold state with both LRU clocks (L2 and DRAM row) set to `clock`
  /// (testing hook for the clock renormalization at
  /// L2Cache::kClockHighWater).
  void ResetMemoryStateForTesting(uint32_t clock);

  // --- Deterministic state extraction / replay (the shard-merge step) ---

  /// Fills `out` with the resident L2 sectors, least recently used first
  /// (deterministic: LRU stamps are unique). Reuses `out`'s capacity.
  void ResidentL2SectorsByLru(std::vector<uint64_t>* out) const {
    l2_.ResidentSectorsByLru(out);
  }
  /// Fills `out` with the open DRAM rows, least recently used first.
  void OpenDramRowsByLru(std::vector<uint64_t>* out) const;
  /// Silently installs a sector (no stats charged) — replaying a shard's
  /// ResidentL2SectorsByLru() reproduces its contents and recency order.
  void InstallL2Sector(uint64_t sector) { l2_.Access(sector); }
  /// Silently opens a row (no stats, no miss counted).
  void InstallDramRow(uint64_t row) {
    TouchDramRow(row, 1, /*count_miss=*/false);
  }

 private:
  /// Reference implementation of AccessRun: materializes lane addresses
  /// warp by warp and feeds them through AccessWarp.
  void AccessRunGeneric(uint64_t base_addr, uint64_t count, uint32_t elem_bytes,
                        bool is_store);
  /// One open-row-tracker operation for `multiplicity` consecutive L2-miss
  /// sectors mapping to the same DRAM row. `count_miss` is false only for
  /// merge replay, which must not recharge activation penalties.
  void TouchDramRow(uint64_t row, uint64_t multiplicity, bool count_miss = true);
  /// Fills `keys` with (stamp << 32 | slot) of every open row, least
  /// recently used first.
  void OpenRowSlotsByLru(std::vector<uint64_t>* keys) const;
  /// The row tracker's counterpart of L2Cache's clock renormalization: open
  /// rows' stamps become 1..k in recency order (never-opened slots keep 0).
  void RenormalizeDramRowClock();
  /// Largest number of lanes sharing one value (1 for distinct lanes).
  template <typename T>
  uint32_t MaxMultiplicity(std::span<const T> lanes);

  const DeviceConfig* config_;
  // Address-geometry constants, derived once from the config.
  uint32_t warp_size_;
  int sector_shift_;         // Byte address -> sector id.
  int line_shift_;           // Sector id -> 128B line id.
  int row_shift_;            // Sector id -> DRAM row id.
  uint64_t row_groups_ = 1;  // Row-tracker associativity groups.
  uint64_t row_group_mask_ = 0;  // row_groups_ - 1 when a power of two > 1.
  L2Cache l2_;
  std::vector<uint64_t> dram_open_rows_;  // Row tracker tags (set-assoc LRU).
  std::vector<uint32_t> dram_row_lru_;
  uint32_t dram_row_clock_ = 0;
  // Scratch for the generic paths (grown on demand; member state so the
  // per-warp path never allocates in steady state).
  std::vector<uint64_t> scratch_addrs_;
  std::vector<uint64_t> scratch_sectors_;
  LaneCounter lane_counter_;
};

/// One simulated thread block's execution context: a shard-sized MemEngine
/// plus the block id. Kernels ported to Device::ParallelBlocks() issue the
/// same Load/Store/LoadSeq/StoreSeq/... calls they would issue on the
/// Device, but against their BlockContext. A worker thread owns one
/// BlockContext and recycles it across blocks via BeginBlock().
class BlockContext {
 public:
  explicit BlockContext(const DeviceConfig& config)
      : config_(&config),
        engine_(config, ShardL2Bytes(config), ShardDramRowBuffers(config)) {}

  BlockContext(const BlockContext&) = delete;
  BlockContext& operator=(const BlockContext&) = delete;

  /// Rearms the context for a new block: zeroed stats, cold shard.
  void BeginBlock(uint64_t block_id, bool fast_path) {
    block_id_ = block_id;
    engine_.fast_path_enabled = fast_path;
    engine_.stats = KernelStats{};
    engine_.ResetMemoryState();
  }

  uint64_t block_id() const { return block_id_; }
  const DeviceConfig& config() const { return *config_; }

  // --- Memory-access hooks (same contracts as the Device methods) ---

  void Load(std::span<const uint64_t> lane_addrs, uint32_t bytes_per_lane) {
    engine_.AccessWarp(lane_addrs, bytes_per_lane, /*is_store=*/false);
  }
  void Store(std::span<const uint64_t> lane_addrs, uint32_t bytes_per_lane) {
    engine_.AccessWarp(lane_addrs, bytes_per_lane, /*is_store=*/true);
  }
  void AccessRun(uint64_t base_addr, uint64_t count, uint32_t elem_bytes,
                 bool is_store) {
    engine_.AccessRun(base_addr, count, elem_bytes, is_store);
  }
  void LoadSeq(uint64_t base_addr, uint64_t count, uint32_t elem_bytes) {
    engine_.AccessRun(base_addr, count, elem_bytes, /*is_store=*/false);
  }
  void StoreSeq(uint64_t base_addr, uint64_t count, uint32_t elem_bytes) {
    engine_.AccessRun(base_addr, count, elem_bytes, /*is_store=*/true);
  }
  void SharedAccess(uint64_t count = 1) { engine_.SharedAccess(count); }
  void SharedAtomic(std::span<const uint32_t> lane_slots) {
    engine_.SharedAtomic(lane_slots);
  }
  void GlobalAtomic(std::span<const uint64_t> lane_addrs,
                    uint32_t bytes_per_lane) {
    engine_.GlobalAtomic(lane_addrs, bytes_per_lane);
  }
  void Compute(uint64_t count = 1) { engine_.Compute(count); }
  void SerialStall(double cycles) { engine_.SerialStall(cycles); }

  MemEngine& engine() { return engine_; }
  const MemEngine& engine() const { return engine_; }

 private:
  const DeviceConfig* config_;
  MemEngine engine_;
  uint64_t block_id_ = 0;
};

}  // namespace gpujoin::vgpu

#endif  // GPUJOIN_VGPU_BLOCK_SIM_H_
