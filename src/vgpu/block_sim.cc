#include "vgpu/block_sim.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

#include "common/bit_util.h"

namespace gpujoin::vgpu {

uint64_t ShardL2Bytes(const DeviceConfig& config) {
  const uint64_t per_sm =
      config.l2_bytes / static_cast<uint64_t>(std::max(1, config.num_sms));
  return std::max<uint64_t>(per_sm, 4096);
}

int ShardDramRowBuffers(const DeviceConfig& config) {
  const int assoc = std::max(1, config.dram_row_assoc);
  const int total = std::max(config.dram_row_buffers, assoc);
  const int sms = std::max(1, config.num_sms);
  const int per_sm = (total + sms - 1) / sms;
  const int groups = std::max(1, (per_sm + assoc - 1) / assoc);
  return groups * assoc;
}

void LaneCounter::Begin(size_t max_keys) {
  // Load factor <= 1/2 keeps probe chains short.
  const size_t want = bit_util::NextPowerOfTwo(std::max<size_t>(2 * max_keys, 64));
  if (stamps_.size() < want) {
    keys_.assign(want, 0);
    stamps_.assign(want, 0);
    counts_.assign(want, 0);
    stamp_ = 0;
    mask_ = want - 1;
    shift_ = 64 - bit_util::Log2Floor(want);
  }
  if (++stamp_ == 0) {  // Stamp wraparound: forget every old stamp.
    std::fill(stamps_.begin(), stamps_.end(), 0);
    stamp_ = 1;
  }
}

MemEngine::MemEngine(const DeviceConfig& config, uint64_t l2_bytes_override,
                     int dram_row_buffers_override)
    : config_(&config),
      warp_size_(static_cast<uint32_t>(config.warp_size)),
      sector_shift_(bit_util::Log2Floor(config.sector_bytes)),
      line_shift_(bit_util::Log2Floor(config.cacheline_bytes) - sector_shift_),
      row_shift_(bit_util::Log2Floor(
                     static_cast<uint64_t>(config.dram_row_bytes)) -
                 sector_shift_),
      l2_(config, l2_bytes_override) {
  assert(line_shift_ >= 0 && row_shift_ >= 0);
  const int buffers =
      dram_row_buffers_override > 0
          ? dram_row_buffers_override
          : std::max(config.dram_row_assoc, config.dram_row_buffers);
  dram_open_rows_.assign(buffers, ~uint64_t{0});
  dram_row_lru_.assign(buffers, 0);
  row_groups_ = static_cast<uint64_t>(buffers / config.dram_row_assoc);
  row_group_mask_ =
      std::has_single_bit(row_groups_) && row_groups_ > 1 ? row_groups_ - 1 : 0;
}

void MemEngine::ResetMemoryState() {
  l2_.Clear();
  dram_open_rows_.assign(dram_open_rows_.size(), ~uint64_t{0});
  dram_row_lru_.assign(dram_row_lru_.size(), 0);
  dram_row_clock_ = 0;
}

void MemEngine::ResetMemoryStateForTesting(uint32_t clock) {
  ResetMemoryState();
  l2_.ResetClockForTesting(clock);
  dram_row_clock_ = clock;
}

void MemEngine::OpenRowSlotsByLru(std::vector<uint64_t>* keys) const {
  keys->clear();
  for (size_t i = 0; i < dram_open_rows_.size(); ++i) {
    if (dram_open_rows_[i] != ~uint64_t{0}) {
      keys->push_back(uint64_t{dram_row_lru_[i]} << 32 | i);
    }
  }
  // Stamps are distinct values of the monotone row clock, so this order is
  // total and deterministic.
  std::sort(keys->begin(), keys->end());
}

void MemEngine::OpenDramRowsByLru(std::vector<uint64_t>* out) const {
  OpenRowSlotsByLru(out);
  for (uint64_t& key : *out) key = dram_open_rows_[key & 0xffffffffu];
}

void MemEngine::RenormalizeDramRowClock() {
  std::vector<uint64_t> keys;
  OpenRowSlotsByLru(&keys);
  uint32_t stamp = 0;
  for (uint64_t key : keys) dram_row_lru_[key & 0xffffffffu] = ++stamp;
  dram_row_clock_ = stamp;
}

void MemEngine::TouchDramRow(uint64_t row, uint64_t multiplicity,
                             bool count_miss) {
  if (multiplicity == 0) return;
  // Hash the row to a tracker group: real DRAM interleaves banks on low
  // address bits, so large power-of-two strides must not alias. Full
  // murmur fmix64 — a single multiply is not avalanche-complete for
  // strided row numbers and produces persistent group collisions.
  uint64_t mix = row;
  mix ^= mix >> 33;
  mix *= 0xff51afd7ed558ccdull;
  mix ^= mix >> 33;
  mix *= 0xc4ceb9fe1a85ec53ull;
  mix ^= mix >> 33;
  const int assoc = config_->dram_row_assoc;
  const uint64_t group =
      (row_group_mask_ != 0 ? mix & row_group_mask_ : mix % row_groups_) *
      assoc;
  // `multiplicity` consecutive miss sectors in the same row: the first
  // access decides hit/miss, the rest only refresh the LRU stamp — so the
  // batched form advances the clock once by the full multiplicity and
  // stamps the final value (identical end state to per-sector operations).
  if (dram_row_clock_ >= L2Cache::kClockHighWater) RenormalizeDramRowClock();
  dram_row_clock_ += static_cast<uint32_t>(multiplicity);
  // One pass finds the open row or the LRU victim (the first way holding
  // the smallest stamp; never-opened ways hold 0).
  uint64_t* rows = &dram_open_rows_[group];
  uint32_t* lru = &dram_row_lru_[group];
  int victim = 0;
  uint32_t victim_lru = lru[0];
  for (int w = 0; w < assoc; ++w) {
    if (rows[w] == row) {
      lru[w] = dram_row_clock_;
      return;
    }
    if (lru[w] < victim_lru) {
      victim_lru = lru[w];
      victim = w;
    }
  }
  rows[victim] = row;
  lru[victim] = dram_row_clock_;
  if (count_miss) ++stats.dram_row_misses;
}

void MemEngine::AccessWarp(std::span<const uint64_t> lane_addrs,
                           uint32_t bytes_per_lane, bool is_store) {
  if (lane_addrs.empty()) return;
  assert(bytes_per_lane > 0);
  ++stats.warp_instructions;
  ++stats.mem_instructions;
  const uint64_t bytes =
      static_cast<uint64_t>(lane_addrs.size()) * bytes_per_lane;
  if (is_store) {
    stats.bytes_written += bytes;
  } else {
    stats.bytes_read += bytes;
  }

  // Collect the distinct sectors this warp touches, in first-touch order.
  // A lane spanning [a, a + bytes_per_lane) touches at most
  // bytes_per_lane/32 + 2 sectors, so the scratch capacity below is a true
  // upper bound — wide lanes (or wide warps) are never silently dropped.
  const size_t cap =
      lane_addrs.size() *
      (static_cast<size_t>(bytes_per_lane) / config_->sector_bytes + 2);
  if (scratch_sectors_.size() < cap) scratch_sectors_.resize(cap);
  uint64_t* sectors = scratch_sectors_.data();
  size_t n_sectors = 0;
  // While the sectors seen so far are strictly ascending, a new sector is
  // a repeat iff it equals the last one, so no lookup is needed. The first
  // out-of-order sector indexes the prefix into the lane counter, which
  // decides every later sector.
  bool ascending = true;
  for (uint64_t addr : lane_addrs) {
    const uint64_t first_sector = addr >> sector_shift_;
    const uint64_t last_sector = (addr + bytes_per_lane - 1) >> sector_shift_;
    for (uint64_t s = first_sector; s <= last_sector; ++s) {
      if (n_sectors > 0 && s == sectors[n_sectors - 1]) continue;
      if (ascending) {
        if (n_sectors == 0 || s > sectors[n_sectors - 1]) {
          sectors[n_sectors++] = s;
          continue;
        }
        ascending = false;
        lane_counter_.Begin(cap);
        for (size_t i = 0; i < n_sectors; ++i) lane_counter_.Add(sectors[i]);
      }
      if (lane_counter_.Add(s) == 1) sectors[n_sectors++] = s;
    }
  }
  // Every sector lies inside one 128B line, so the lines a warp touches
  // are exactly the lines of its distinct sectors.
  uint64_t n_lines = 0;
  if (ascending) {
    uint64_t prev_line = ~uint64_t{0};
    for (size_t i = 0; i < n_sectors; ++i) {
      const uint64_t line = sectors[i] >> line_shift_;
      n_lines += line != prev_line;
      prev_line = line;
    }
  } else {
    lane_counter_.Begin(n_sectors);
    for (size_t i = 0; i < n_sectors; ++i) {
      n_lines += lane_counter_.Add(sectors[i] >> line_shift_) == 1;
    }
  }
  stats.transactions += n_lines;
  stats.sectors += static_cast<uint64_t>(n_sectors);
  for (size_t i = 0; i < n_sectors; ++i) {
    if (l2_.Access(sectors[i])) {
      ++stats.l2_hit_sectors;
    } else {
      ++stats.dram_sectors;
      // DRAM row-buffer model: an L2 miss to a row that is not open pays an
      // activation penalty (this is what makes random access slower than
      // streaming even at equal sector counts).
      TouchDramRow(sectors[i] >> row_shift_, 1);
    }
  }
}

void MemEngine::AccessRunGeneric(uint64_t base_addr, uint64_t count,
                                 uint32_t elem_bytes, bool is_store) {
  const uint32_t warp = warp_size_;
  if (scratch_addrs_.size() < warp) scratch_addrs_.resize(warp);
  uint64_t* addrs = scratch_addrs_.data();
  for (uint64_t i = 0; i < count; i += warp) {
    const uint32_t lanes =
        static_cast<uint32_t>(std::min<uint64_t>(warp, count - i));
    for (uint32_t l = 0; l < lanes; ++l) {
      addrs[l] = base_addr + (i + l) * elem_bytes;
    }
    AccessWarp({addrs, lanes}, elem_bytes, is_store);
  }
}

void MemEngine::AccessRun(uint64_t base_addr, uint64_t count,
                          uint32_t elem_bytes, bool is_store) {
  assert(elem_bytes > 0);
  if (count == 0) return;
  if (!fast_path_enabled) {
    AccessRunGeneric(base_addr, count, elem_bytes, is_store);
    return;
  }

  const uint32_t warp = warp_size_;

  // Closed-form per-warp instruction/byte accounting: the stream is one
  // warp-level memory instruction per warp_size elements.
  const uint64_t n_warps = bit_util::CeilDiv(count, warp);
  stats.warp_instructions += n_warps;
  stats.mem_instructions += n_warps;
  const uint64_t total_bytes = count * elem_bytes;
  if (is_store) {
    stats.bytes_written += total_bytes;
  } else {
    stats.bytes_read += total_bytes;
  }

  // Walk the stream warp by warp. A warp covers the contiguous byte range
  // [addr, addr + lanes*elem_bytes): its distinct sectors/lines are exactly
  // the ranges [first..last], no dedup needed. When a warp boundary falls
  // mid-sector, the boundary sector is accessed again by the next warp
  // (the generic path does the same) — the L2's MRU shortcut makes that
  // re-access cheap, and it is always a hit.
  uint64_t pending_row = ~uint64_t{0};
  uint64_t pending_misses = 0;
  uint64_t addr = base_addr;
  uint64_t remaining = count;
  while (remaining > 0) {
    const uint64_t lanes = std::min<uint64_t>(warp, remaining);
    const uint64_t warp_bytes = lanes * elem_bytes;
    const uint64_t last_byte = addr + warp_bytes - 1;
    uint64_t sector = addr >> sector_shift_;
    const uint64_t sector_end = last_byte >> sector_shift_;
    stats.transactions +=
        (sector_end >> line_shift_) - (sector >> line_shift_) + 1;
    stats.sectors += sector_end - sector + 1;
    while (sector <= sector_end) {
      const uint32_t chunk = static_cast<uint32_t>(
          std::min<uint64_t>(sector_end - sector + 1, 64));
      uint64_t miss_mask = 0;
      stats.l2_hit_sectors += l2_.AccessRun(sector, chunk, &miss_mask);
      stats.dram_sectors += static_cast<uint64_t>(std::popcount(miss_mask));
      while (miss_mask != 0) {
        const int bit = std::countr_zero(miss_mask);
        miss_mask &= miss_mask - 1;
        const uint64_t row = (sector + static_cast<uint64_t>(bit)) >> row_shift_;
        if (row == pending_row) {
          ++pending_misses;
        } else {
          TouchDramRow(pending_row, pending_misses);
          pending_row = row;
          pending_misses = 1;
        }
      }
      sector += chunk;
    }
    addr += warp_bytes;
    remaining -= lanes;
  }
  TouchDramRow(pending_row, pending_misses);
}

void MemEngine::SharedAccess(uint64_t count) {
  stats.shared_accesses += count;
  stats.warp_instructions += count;
}

template <typename T>
uint32_t MemEngine::MaxMultiplicity(std::span<const T> lanes) {
  // Strictly ascending lanes (the common conflict-free case) are distinct.
  size_t i = 1;
  while (i < lanes.size() && lanes[i] > lanes[i - 1]) ++i;
  if (i >= lanes.size()) return 1;
  lane_counter_.Begin(lanes.size());
  uint32_t max_mult = 1;
  for (const T lane : lanes) {
    max_mult = std::max(max_mult, lane_counter_.Add(lane));
  }
  return max_mult;
}

void MemEngine::SharedAtomic(std::span<const uint32_t> lane_slots) {
  if (lane_slots.empty()) return;
  ++stats.warp_instructions;
  ++stats.shared_accesses;
  // Lanes targeting the same slot serialize; the warp pays for the most
  // contended slot, and each serialized retry is a multi-cycle shared-memory
  // round trip (this is the §5.2.4 bucket-chain skew collapse).
  constexpr uint64_t kSharedAtomicSerializeCost = 4;
  const uint32_t max_mult = MaxMultiplicity(lane_slots);
  stats.atomic_serializations +=
      static_cast<uint64_t>(max_mult - 1) * kSharedAtomicSerializeCost;
}

void MemEngine::GlobalAtomic(std::span<const uint64_t> lane_addrs,
                             uint32_t bytes_per_lane) {
  if (lane_addrs.empty()) return;
  // The read-modify-write memory traffic.
  AccessWarp(lane_addrs, bytes_per_lane, /*is_store=*/true);
  // Serialization: lanes hitting the same address queue at the L2 atomic
  // unit; a DRAM-latency-scale round trip per conflicting lane.
  constexpr uint64_t kGlobalAtomicSerializeCost = 8;
  const uint32_t max_mult = MaxMultiplicity(lane_addrs);
  stats.atomic_serializations +=
      static_cast<uint64_t>(max_mult - 1) * kGlobalAtomicSerializeCost;
}

void MemEngine::Compute(uint64_t count) { stats.warp_instructions += count; }

void MemEngine::SerialStall(double cycles) { stats.serial_cycles += cycles; }

}  // namespace gpujoin::vgpu
