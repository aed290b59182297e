#include "vgpu/l2_cache.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/bit_util.h"

namespace gpujoin::vgpu {

L2Cache::L2Cache(const DeviceConfig& config, uint64_t bytes_override) {
  ways_ = std::max(1, config.l2_ways);
  const uint64_t bytes = bytes_override != 0 ? bytes_override : config.l2_bytes;
  const size_t total_sectors =
      std::max<size_t>(1, bytes / static_cast<uint64_t>(config.sector_bytes));
  num_sets_ = std::max<size_t>(1, total_sectors / ways_);
  // Power-of-two sets make indexing a mask; round down to keep capacity <=
  // configured size.
  size_t pow2 = bit_util::NextPowerOfTwo(num_sets_);
  if (pow2 > num_sets_) pow2 >>= 1;
  num_sets_ = std::max<size_t>(1, pow2);
  tags_.assign(num_sets_ * ways_, kInvalidTag);
  lru_.assign(num_sets_ * ways_, 0);
  assert(ways_ <= 256 && "recency order stores way indices as bytes");
  order_.resize(num_sets_ * ways_);
  for (size_t i = 0; i < order_.size(); ++i) {
    order_[i] = static_cast<uint8_t>(i % ways_);
  }
}

namespace {
// Mixes the sector id so that buffers allocated at large power-of-two
// strides do not alias into the same set (models address interleaving).
inline uint64_t MixAddressBits(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}
}  // namespace

bool L2Cache::AccessSlow(uint64_t sector_id) {
  const size_t base = (MixAddressBits(sector_id) & (num_sets_ - 1)) * ways_;
  const uint64_t* tags = &tags_[base];
  uint32_t* lru = &lru_[base];
  uint8_t* order = &order_[base];
  ++clock_;
  // A matching tag from a previous epoch is stale: the slot was logically
  // cleared, so the access must miss (exactly as after a memset clear).
  int way = -1;
  for (int w = 0; w < ways_; ++w) {
    if (tags[w] == sector_id && lru[w] >= epoch_) {
      way = w;
      break;
    }
  }
  const bool hit = way >= 0;
  int pos;  // The way's position in the set's recency order.
  if (hit) {
    pos = 0;
    while (order[pos] != way) ++pos;
  } else {
    // The LRU end of the order is a stale slot while the set has one, and
    // otherwise the valid slot with the smallest stamp.
    pos = ways_ - 1;
    way = order[pos];
    tags_[base + way] = sector_id;
  }
  std::memmove(order + 1, order, pos);
  order[0] = static_cast<uint8_t>(way);
  lru[way] = clock_;
  last_sector_ = sector_id;
  last_slot_ = base + way;
  return hit;
}

void L2Cache::ValidSlotsByLru(std::vector<uint64_t>* keys) const {
  keys->clear();
  for (size_t i = 0; i < tags_.size(); ++i) {
    if (tags_[i] != kInvalidTag && lru_[i] >= epoch_) {
      keys->push_back(uint64_t{lru_[i]} << 32 | i);
    }
  }
  // LRU stamps are unique (every access increments the clock), so this
  // order is total and deterministic.
  std::sort(keys->begin(), keys->end());
}

void L2Cache::RenormalizeClock() {
  std::vector<uint64_t> keys;
  ValidSlotsByLru(&keys);
  std::fill(lru_.begin(), lru_.end(), 0);
  uint32_t stamp = 0;
  for (uint64_t key : keys) lru_[key & 0xffffffffu] = ++stamp;
  clock_ = stamp;
  epoch_ = 1;
}

void L2Cache::Clear() {
  epoch_ = clock_ + 1;
  last_sector_ = kInvalidTag;
  last_slot_ = 0;
}

void L2Cache::ResetClockForTesting(uint32_t clock) {
  std::fill(tags_.begin(), tags_.end(), kInvalidTag);
  std::fill(lru_.begin(), lru_.end(), 0);
  clock_ = clock;
  epoch_ = 1;
  last_sector_ = kInvalidTag;
  last_slot_ = 0;
}

void L2Cache::ResidentSectorsByLru(std::vector<uint64_t>* out) const {
  ValidSlotsByLru(out);
  for (uint64_t& key : *out) key = tags_[key & 0xffffffffu];
}

}  // namespace gpujoin::vgpu
