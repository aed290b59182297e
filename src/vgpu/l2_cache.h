// Sector-granular set-associative L2 cache model with LRU replacement.
//
// The cache is addressed by 32-byte sector ids of the simulated device
// address space. It only tracks tags (no data): the simulator executes
// functionally on host memory, and the cache model exists to classify each
// sector access as an L2 hit or a DRAM access for the cost model.
//
// The model is on the simulator's hottest path (one lookup per touched
// sector), so the implementation is tuned for host speed without changing
// behavior: tags and LRU stamps are stored as separate flat arrays,
// Access() is inline with a one-entry MRU shortcut (sequential streams
// re-touch warp-boundary sectors constantly), AccessRun() classifies a
// contiguous ascending sector range in bulk for Device::AccessRun, and
// Clear() is an O(1) epoch bump (per-block shard resets in the parallel
// simulation path would otherwise memset the tag arrays thousands of times
// per kernel). A slot is valid only if its LRU stamp is from the current
// epoch. Each set also keeps its ways in recency order, so a lookup is one
// tag scan and a miss takes its victim from the LRU end instead of scanning
// the stamps for the smallest one.
//
// All of these are bit-identical in observable behavior (hit/miss
// sequence, resident sectors and their recency order) to the plain
// per-sector lookup with a full memset clear that evicts the first way
// holding the smallest stamp. Valid stamps are unique, so among valid
// ways both rules pick the same LRU way. Stale ways sit behind every valid
// way in the order, as their stamps sit below every valid stamp, so both
// rules evict a stale way while the set has one; which stale way is never
// observable, because a stale slot can neither hit nor be reported.
//
// The LRU clock is 32 bits wide. When it reaches kClockHighWater at access
// time, the stamps are renormalized in place: valid slots are renumbered
// 1..k in their existing recency order and stale slots drop to 0, so the
// clock never wraps and every later hit/miss and victim choice is exactly
// what an unbounded clock would give. Long-lived caches that are never
// cleared (a service's device-sized engine) rely on this.
//
// An optional byte-capacity override supports the block-shard use: a
// BlockContext models one thread block's slice of the L2, sized
// independently of the device total (see block_sim.h).

#ifndef GPUJOIN_VGPU_L2_CACHE_H_
#define GPUJOIN_VGPU_L2_CACHE_H_

#include <cstdint>
#include <vector>

#include "vgpu/device_config.h"

namespace gpujoin::vgpu {

class L2Cache {
 public:
  /// Clock value at which Access() renormalizes the LRU stamps: far below
  /// uint32 wraparound, far above any cache's slot count.
  static constexpr uint32_t kClockHighWater = 0x40000000u;

  /// Models a cache of `bytes_override` bytes (or config.l2_bytes when 0)
  /// with the config's sector size and associativity.
  explicit L2Cache(const DeviceConfig& config, uint64_t bytes_override = 0);

  /// Looks up (and on miss, installs) a sector. Returns true on hit.
  bool Access(uint64_t sector_id) {
    if (clock_ >= kClockHighWater) RenormalizeClock();
    if (sector_id == last_sector_) {
      // The immediately preceding access touched this sector; it cannot
      // have been evicted in between, so this is a hit on the same slot.
      lru_[last_slot_] = ++clock_;
      return true;
    }
    return AccessSlow(sector_id);
  }

  /// Bulk fast path: classifies `n` (<= 64) contiguous ascending sectors
  /// [first_sector, first_sector + n). Returns the number of hits and sets
  /// bit i of *miss_mask for every missed sector first_sector + i.
  /// Equivalent to calling Access() n times in ascending order.
  uint32_t AccessRun(uint64_t first_sector, uint32_t n, uint64_t* miss_mask) {
    uint64_t mask = 0;
    uint32_t hits = 0;
    for (uint32_t i = 0; i < n; ++i) {
      if (Access(first_sector + i)) {
        ++hits;
      } else {
        mask |= uint64_t{1} << i;
      }
    }
    *miss_mask = mask;
    return hits;
  }

  /// Invalidates all contents (between experiments, and per block in the
  /// parallel shard path). O(1): bumps the validity epoch instead of
  /// clearing the tag arrays.
  void Clear();

  /// Fills `out` with the resident sector ids, least recently used first
  /// (the vector is reused, so a caller that keeps it across calls does
  /// not allocate in steady state). Replaying them through Access() on
  /// another cache reproduces this cache's contents and recency order —
  /// the deterministic shard-merge step of the parallel simulation path.
  void ResidentSectorsByLru(std::vector<uint64_t>* out) const;

  /// Empties the cache and sets the LRU clock to `clock` (testing hook for
  /// the renormalization at kClockHighWater).
  void ResetClockForTesting(uint32_t clock);

  size_t num_sets() const { return num_sets_; }
  int ways() const { return ways_; }

 private:
  bool AccessSlow(uint64_t sector_id);
  /// Fills `keys` with (stamp << 32 | slot) of every valid slot, least
  /// recently used first.
  void ValidSlotsByLru(std::vector<uint64_t>* keys) const;
  /// Renumbers the valid slots' stamps 1..k in recency order, zeroes the
  /// stale ones, and restarts the clock at k with epoch 1.
  void RenormalizeClock();

  static constexpr uint64_t kInvalidTag = ~uint64_t{0};

  size_t num_sets_;
  int ways_;
  uint32_t clock_ = 0;  // Higher = more recently used.
  uint32_t epoch_ = 1;  // Slots with lru_ < epoch_ are invalid (stale).
  std::vector<uint64_t> tags_;  // num_sets_ * ways_, SoA with lru_.
  std::vector<uint32_t> lru_;
  // Per set, its way indices from most to least recently used: the valid
  // slots in stamp order, then the stale ones (a slot only moves to the
  // front when an access makes it valid).
  std::vector<uint8_t> order_;
  uint64_t last_sector_ = kInvalidTag;  // One-entry MRU shortcut.
  size_t last_slot_ = 0;
};

}  // namespace gpujoin::vgpu

#endif  // GPUJOIN_VGPU_L2_CACHE_H_
