#include "groupby/groupby.h"

#include <algorithm>
#include <limits>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/bit_util.h"
#include "join/transform.h"
#include "obs/trace.h"
#include "stats/estimator.h"
#include "prim/hash.h"
#include "prim/hash_join.h"
#include "prim/radix_partition.h"

namespace gpujoin::groupby {

const char* GroupByAlgoName(GroupByAlgo algo) {
  switch (algo) {
    case GroupByAlgo::kHashGlobal:
      return "GB-HASH-GLOBAL";
    case GroupByAlgo::kHashPartitioned:
      return "GB-HASH-PART";
    case GroupByAlgo::kSortBased:
      return "GB-SORT";
  }
  return "?";
}

const char* AggOpName(AggOp op) {
  switch (op) {
    case AggOp::kSum:
      return "sum";
    case AggOp::kCount:
      return "count";
    case AggOp::kMin:
      return "min";
    case AggOp::kMax:
      return "max";
    case AggOp::kAvg:
      return "avg";
  }
  return "?";
}

namespace {

/// Functional accumulator for one group.
struct GroupAcc {
  int64_t count = 0;
  std::vector<int64_t> sum;  // Per aggregate (sum semantics; min/max in place).
  bool initialized = false;
};

/// The accumulator value of an aggregate before any row is folded in.
int64_t AccIdentity(AggOp op) {
  switch (op) {
    case AggOp::kMin:
      return std::numeric_limits<int64_t>::max();
    case AggOp::kMax:
      return std::numeric_limits<int64_t>::min();
    default:
      return 0;
  }
}

void UpdateAcc(GroupAcc* acc, const GroupBySpec& spec,
               const std::vector<int64_t>& agg_values) {
  if (!acc->initialized) {
    acc->sum.resize(spec.aggregates.size());
    for (size_t a = 0; a < spec.aggregates.size(); ++a) {
      acc->sum[a] = AccIdentity(spec.aggregates[a].op);
    }
    acc->initialized = true;
  }
  ++acc->count;
  for (size_t a = 0; a < spec.aggregates.size(); ++a) {
    const int64_t v = agg_values[a];
    switch (spec.aggregates[a].op) {
      case AggOp::kSum:
      case AggOp::kAvg:
        acc->sum[a] += v;
        break;
      case AggOp::kCount:
        break;  // Count tracked separately.
      case AggOp::kMin:
        acc->sum[a] = std::min(acc->sum[a], v);
        break;
      case AggOp::kMax:
        acc->sum[a] = std::max(acc->sum[a], v);
        break;
    }
  }
}

int64_t FinalizeAcc(const GroupAcc& acc, const GroupBySpec& spec, size_t a) {
  switch (spec.aggregates[a].op) {
    case AggOp::kCount:
      return acc.count;
    case AggOp::kAvg:
      return acc.count == 0 ? 0 : acc.sum[a] / acc.count;
    default:
      return acc.sum[a];
  }
}

/// Bytes of one hash-table slot: key + one 8-byte accumulator per aggregate
/// (+ a count cell when any aggregate needs it).
uint64_t SlotBytes(DataType key_type, const GroupBySpec& spec) {
  bool needs_count = false;
  for (const AggSpec& a : spec.aggregates) {
    if (a.op == AggOp::kCount || a.op == AggOp::kAvg) needs_count = true;
  }
  return DataTypeSize(key_type) + 8 * spec.aggregates.size() +
         (needs_count ? 8 : 0);
}

Status ValidateSpec(const Table& input, const GroupBySpec& spec) {
  for (const AggSpec& a : spec.aggregates) {
    if (a.op == AggOp::kCount) continue;
    if (a.column < 1 || a.column >= input.num_columns()) {
      return Status::InvalidArgument("aggregate references column " +
                                     std::to_string(a.column) +
                                     " out of range");
    }
  }
  return Status::OK();
}

/// Emits the final output table from an ordered list of (key, acc).
Result<Table> EmitOutput(vgpu::Device& device, const Table& input,
                         const GroupBySpec& spec,
                         const std::vector<std::pair<int64_t, GroupAcc>>& groups) {
  const uint64_t g = groups.size();
  vgpu::AllocTagScope tag(device, "groupby:emit");
  std::vector<std::string> names;
  std::vector<DeviceColumn> cols;
  GPUJOIN_ASSIGN_OR_RETURN(
      DeviceColumn key_col,
      DeviceColumn::Allocate(device, input.column(0).type(), g));
  for (uint64_t i = 0; i < g; ++i) key_col.Set(i, groups[i].first);
  {
    vgpu::KernelScope ks(device, "groupby_emit");
    device.StoreSeq(key_col.addr(), g, DataTypeSize(key_col.type()));
  }
  names.push_back(input.column_name(0));
  cols.push_back(std::move(key_col));
  for (size_t a = 0; a < spec.aggregates.size(); ++a) {
    GPUJOIN_ASSIGN_OR_RETURN(DeviceColumn col,
                             DeviceColumn::Allocate(device, DataType::kInt64, g));
    for (uint64_t i = 0; i < g; ++i) {
      col.Set(i, FinalizeAcc(groups[i].second, spec, a));
    }
    {
      vgpu::KernelScope ks(device, "groupby_emit");
      device.StoreSeq(col.addr(), g, 8);
    }
    std::string name = AggOpName(spec.aggregates[a].op);
    if (spec.aggregates[a].op != AggOp::kCount) {
      name += "_" + input.column_name(spec.aggregates[a].column);
    }
    names.push_back(std::move(name));
    cols.push_back(std::move(col));
  }
  return Table::FromColumns("groupby_result", std::move(names), std::move(cols));
}

/// Distinct input columns the aggregates read (count-only needs none).
std::vector<int> NeededColumns(const GroupBySpec& spec) {
  std::vector<int> cols;
  for (const AggSpec& a : spec.aggregates) {
    if (a.op == AggOp::kCount) continue;
    if (std::find(cols.begin(), cols.end(), a.column) == cols.end()) {
      cols.push_back(a.column);
    }
  }
  return cols;
}

// ---------------------------------------------------------------------------
// HASH-GLOBAL
// ---------------------------------------------------------------------------

/// Rows carrying the most frequent value of `col` (0 when empty).
uint64_t MaxKeyFrequency(const DeviceColumn& col) {
  std::vector<int64_t> keys = col.ToHost();
  std::sort(keys.begin(), keys.end());
  uint64_t best = 0;
  for (size_t i = 0; i < keys.size();) {
    size_t j = i;
    while (j < keys.size() && keys[j] == keys[i]) ++j;
    best = std::max<uint64_t>(best, j - i);
    i = j;
  }
  return best;
}

template <typename K>
Result<std::vector<std::pair<int64_t, GroupAcc>>> HashGlobalAggregate(
    vgpu::Device& device, const Table& input, const GroupBySpec& spec) {
  vgpu::AllocTagScope tag(device, "groupby:hash_global");
  const uint64_t n = input.num_rows();
  const int warp = device.config().warp_size;
  // Size the table from a HyperLogLog estimate (a real system's sizing
  // input), with 3x headroom against both estimation error and clustering.
  uint64_t g_est = 0;
  {
    obs::TraceSpan estimate_span(device, "phase", "estimate");
    GPUJOIN_ASSIGN_OR_RETURN(g_est,
                             stats::EstimateDistinct(device, input.column(0)));
  }
  // Everything from here to the compacted group list is the aggregate
  // phase (the span closes when this function returns).
  obs::TraceSpan aggregate_span(device, "phase", "aggregate");
  const uint64_t table_size =
      bit_util::NextPowerOfTwo(std::max<uint64_t>(g_est * 3, 64));
  const uint64_t mask = table_size - 1;
  const uint64_t n_acc = spec.aggregates.size() + 1;  // + count cell.

  GPUJOIN_ASSIGN_OR_RETURN(auto slot_keys,
                           vgpu::DeviceBuffer<int64_t>::Allocate(device, table_size));
  GPUJOIN_ASSIGN_OR_RETURN(
      auto slot_accs,
      vgpu::DeviceBuffer<int64_t>::Allocate(device, table_size * n_acc));
  std::fill(slot_keys.data(), slot_keys.data() + table_size, prim::kEmptySlot);

  // Functional accumulators, flat and pre-set to each aggregate's identity:
  // slot h's row count is counts[h], its aggregate a is sums[h * n_aggs + a].
  const size_t n_aggs = spec.aggregates.size();
  std::vector<int64_t> counts(table_size, 0);
  std::vector<int64_t> sums(table_size * n_aggs);
  for (size_t a = 0; a < n_aggs; ++a) {
    const int64_t identity = AccIdentity(spec.aggregates[a].op);
    for (uint64_t h = 0; h < table_size; ++h) sums[h * n_aggs + a] = identity;
  }
  // Each aggregate's input column, resolved to its typed storage once.
  struct AggInput {
    AggOp op;
    const int32_t* i32 = nullptr;
    const int64_t* i64 = nullptr;
  };
  std::vector<AggInput> agg_inputs;
  for (const AggSpec& as : spec.aggregates) {
    AggInput in{as.op};
    if (as.op != AggOp::kCount) {
      const DeviceColumn& col = input.column(as.column);
      if (col.type() == DataType::kInt32) {
        in.i32 = col.i32().data();
      } else {
        in.i64 = col.i64().data();
      }
    }
    agg_inputs.push_back(in);
  }
  const K* keys;
  if constexpr (sizeof(K) == 4) {
    keys = input.column(0).i32().data();
  } else {
    keys = input.column(0).i64().data();
  }

  const std::vector<int> needed = NeededColumns(spec);
  {
    // This kernel stays on the sequential simulation path even under
    // GPUJOIN_SIM_THREADS > 1: the global table's linear-probe layout (and
    // therefore every probe's address trace) depends on insertion order, so
    // tuples cannot be re-sharded without changing the simulated stats.
    vgpu::KernelScope ks(device, "gb_hash_global_update");
    // Updates to the SAME group's accumulators serialize at the L2 atomic
    // unit across the whole device; the hottest group is a critical path.
    // Warp-aggregated atomics (the compiler combines same-address atomicAdds
    // within a warp): the device-wide serialization chain on the hottest
    // group is one aggregated atomic per warp that touches it.
    const auto charge_hot_group_stall = [&](uint64_t max_group_freq) {
      constexpr double kSameAddressAtomicCycles = 4.0;
      device.SerialStall(static_cast<double>(max_group_freq) /
                         device.config().warp_size *
                         static_cast<double>(n_acc) * kSameAddressAtomicCycles);
    };
    // Key and aggregate-input columns are fully coalesced sequential
    // streams: charge them as bulk runs up front. Only the probe/update
    // traffic depends on the hash of each key and stays per-warp.
    device.LoadSeq(input.column(0).addr(), n,
                   static_cast<uint32_t>(DataTypeSize(input.column(0).type())));
    for (int c : needed) {
      device.LoadSeq(input.column(c).addr(), n,
                     static_cast<uint32_t>(DataTypeSize(input.column(c).type())));
    }
    uint64_t probe_addrs[32];
    uint64_t acc_addrs[32];
    uint64_t slots[32];
    for (uint64_t i = 0; i < n; i += warp) {
      const uint32_t lanes = static_cast<uint32_t>(std::min<uint64_t>(warp, n - i));
      // Collision-chain steps beyond each lane's first probe, charged once
      // per warp.
      uint64_t extra_steps = 0;
      for (uint32_t l = 0; l < lanes; ++l) {
        const int64_t key = static_cast<int64_t>(keys[i + l]);
        uint64_t h = prim::HashToSlot(key, mask);
        uint64_t steps = 1;
        while (slot_keys[h] != prim::kEmptySlot && slot_keys[h] != key) {
          h = (h + 1) & mask;
          if (++steps > table_size) {
            device.Compute(extra_steps);
            charge_hot_group_stall(MaxKeyFrequency(input.column(0)));
            return Status::Internal(
                "hash group-by table overflow (cardinality estimate too low)");
          }
        }
        slot_keys[h] = key;
        probe_addrs[l] = slot_keys.addr(h);
        acc_addrs[l] = slot_accs.addr(h * n_acc);
        slots[l] = h;
        ++counts[h];
        extra_steps += steps - 1;
      }
      if (extra_steps > 0) device.Compute(extra_steps);
      for (size_t a = 0; a < n_aggs; ++a) {
        const AggInput& in = agg_inputs[a];
        if (in.op == AggOp::kCount) continue;  // The count cell covers it.
        int64_t values[32];
        for (uint32_t l = 0; l < lanes; ++l) {
          values[l] = in.i32 != nullptr ? in.i32[i + l] : in.i64[i + l];
        }
        int64_t* acc = sums.data() + a;
        switch (in.op) {
          case AggOp::kSum:
          case AggOp::kAvg:
            for (uint32_t l = 0; l < lanes; ++l) acc[slots[l] * n_aggs] += values[l];
            break;
          case AggOp::kMin:
            for (uint32_t l = 0; l < lanes; ++l) {
              int64_t& cell = acc[slots[l] * n_aggs];
              cell = std::min(cell, values[l]);
            }
            break;
          case AggOp::kMax:
            for (uint32_t l = 0; l < lanes; ++l) {
              int64_t& cell = acc[slots[l] * n_aggs];
              cell = std::max(cell, values[l]);
            }
            break;
          case AggOp::kCount:
            break;
        }
      }
      // Probe loads + one warp-aggregated atomic RMW per aggregate cell.
      device.Load({probe_addrs, lanes}, sizeof(int64_t));
      for (uint64_t a = 0; a < n_acc; ++a) {
        device.Store({acc_addrs, lanes}, sizeof(int64_t));
        device.Compute(1);
      }
    }
    // Every row bumped its group's count, so the largest count is the
    // hottest group's frequency.
    charge_hot_group_stall(*std::max_element(counts.begin(), counts.end()));
  }

  // Compact: scan the table, gather live slots.
  std::vector<std::pair<int64_t, GroupAcc>> groups;
  groups.reserve(g_est);
  {
    vgpu::KernelScope ks(device, "gb_hash_global_compact");
    device.LoadSeq(slot_keys.addr(), table_size, sizeof(int64_t));
    device.LoadSeq(slot_accs.addr(), table_size * n_acc, sizeof(int64_t));
    for (uint64_t h = 0; h < table_size; ++h) {
      if (slot_keys[h] != prim::kEmptySlot) {
        GroupAcc acc;
        acc.count = counts[h];
        acc.sum.assign(sums.begin() + h * n_aggs, sums.begin() + (h + 1) * n_aggs);
        acc.initialized = true;
        groups.emplace_back(slot_keys[h], std::move(acc));
      }
    }
    device.Compute(bit_util::CeilDiv(table_size, warp));
  }
  return groups;
}

// ---------------------------------------------------------------------------
// HASH-PARTITIONED (GFTR applied to aggregation)
// ---------------------------------------------------------------------------

template <typename K>
Result<std::vector<std::pair<int64_t, GroupAcc>>> HashPartitionedAggregate(
    vgpu::Device& device, const Table& input, const GroupBySpec& spec,
    const GroupByOptions& opts, double* transform_seconds) {
  vgpu::AllocTagScope tag(device, "groupby:hash_part");
  const uint64_t n = input.num_rows();
  const int warp = device.config().warp_size;
  const auto& key_col = input.column(0);
  const uint64_t slot_bytes = SlotBytes(key_col.type(), spec);
  const uint64_t capacity = std::max<uint64_t>(
      device.config().shared_mem_per_block_bytes / slot_bytes / 2, 16);
  uint64_t g = 0;
  {
    obs::TraceSpan estimate_span(device, "phase", "estimate");
    GPUJOIN_ASSIGN_OR_RETURN(g, stats::EstimateDistinct(device, key_col));
  }

  int bits = opts.radix_bits_override > 0
                 ? opts.radix_bits_override
                 : std::clamp(bit_util::Log2Ceil(bit_util::CeilDiv(
                                  std::max<uint64_t>(g, 1), capacity)),
                              1, 16);

  const double t0 = device.ElapsedSeconds();
  // Transform (GFTR style): partition the key with every needed aggregate
  // column; stability aligns all transformed columns.
  const std::vector<int> needed = NeededColumns(spec);
  const vgpu::DeviceBuffer<K>* key_buf;
  if constexpr (sizeof(K) == 4) {
    key_buf = &key_col.i32();
  } else {
    key_buf = &key_col.i64();
  }
  vgpu::DeviceBuffer<K> t_keys;
  std::vector<DeviceColumn> t_cols;  // Parallel to `needed`.
  std::vector<uint64_t> offsets;
  {
    obs::TraceSpan transform_span(device, "phase", "transform");
    if (needed.empty()) {
      GPUJOIN_ASSIGN_OR_RETURN(
          auto ids, vgpu::DeviceBuffer<RowId>::Allocate(device, n));
      vgpu::DeviceBuffer<RowId> t_ids;
      GPUJOIN_RETURN_IF_ERROR(join::TransformPairOutOfPlace(
          device, *key_buf, ids, &t_keys, &t_ids,
          join::TransformKind::kPartition, bits));
    } else {
      for (size_t c = 0; c < needed.size(); ++c) {
        vgpu::DeviceBuffer<K> t_keys_c;
        GPUJOIN_ASSIGN_OR_RETURN(
            DeviceColumn t_col,
            join::TransformKeyPayload(device, *key_buf, input.column(needed[c]),
                                      &t_keys_c, join::TransformKind::kPartition,
                                      bits));
        t_cols.push_back(std::move(t_col));
        if (c == 0) {
          t_keys = std::move(t_keys_c);
        } else {
          t_keys_c.Release();
        }
      }
    }
    GPUJOIN_RETURN_IF_ERROR(
        prim::ComputePartitionOffsets(device, t_keys, bits, &offsets));
  }
  *transform_seconds = device.ElapsedSeconds() - t0;

  // Aggregate each partition in a shared-memory table. Partitions whose
  // distinct-group count exceeds the capacity are processed in extra passes
  // (charged below); functionally a map per partition keeps it exact.
  std::vector<std::pair<int64_t, GroupAcc>> groups;
  groups.reserve(g);
  obs::TraceSpan aggregate_span(device, "phase", "aggregate");
  {
    // One partition per thread block: each block owns its shared-memory
    // table image and emits into its own slot of part_groups, so the blocks
    // are independent and the concatenation (partition order, key order
    // within a partition) is deterministic.
    vgpu::KernelScope ks(device, "gb_hash_part_aggregate");
    const uint32_t fanout = 1u << bits;
    std::vector<std::vector<std::pair<int64_t, GroupAcc>>> part_groups(fanout);
    GPUJOIN_RETURN_IF_ERROR(device.ParallelBlocks(
        fanout, [&](uint64_t p, vgpu::BlockContext& ctx) -> Status {
          const uint64_t pb = offsets[p], pe = offsets[p + 1];
          if (pb == pe) return Status::OK();
          std::unordered_map<int64_t, GroupAcc> local;
          std::vector<int64_t> agg_values(spec.aggregates.size(), 0);
          ctx.LoadSeq(t_keys.addr(pb), pe - pb, sizeof(K));
          for (const DeviceColumn& col : t_cols) {
            ctx.LoadSeq(col.addr(pb), pe - pb,
                        static_cast<uint32_t>(DataTypeSize(col.type())));
          }
          ctx.SharedAccess(bit_util::CeilDiv(pe - pb, warp) *
                           (1 + spec.aggregates.size()));
          for (uint64_t i = pb; i < pe; ++i) {
            for (size_t a = 0; a < spec.aggregates.size(); ++a) {
              const AggSpec& as = spec.aggregates[a];
              if (as.op == AggOp::kCount) {
                agg_values[a] = 0;
                continue;
              }
              const auto it = std::find(needed.begin(), needed.end(), as.column);
              agg_values[a] = t_cols[it - needed.begin()].Get(i);
            }
            UpdateAcc(&local[static_cast<int64_t>(t_keys[i])], spec, agg_values);
          }
          // Overflow passes: every extra capacity-chunk of distinct groups
          // re-streams this partition (block-nested-loop analog).
          const uint64_t passes = bit_util::CeilDiv(
              std::max<uint64_t>(local.size(), 1), capacity);
          for (uint64_t extra = 1; extra < passes; ++extra) {
            ctx.LoadSeq(t_keys.addr(pb), pe - pb, sizeof(K));
            for (const DeviceColumn& col : t_cols) {
              ctx.LoadSeq(col.addr(pb), pe - pb,
                          static_cast<uint32_t>(DataTypeSize(col.type())));
            }
          }
          // Emit this partition's groups in key order (deterministic).
          std::map<int64_t, GroupAcc> ordered;
          for (auto& [key, acc] : local) ordered.emplace(key, std::move(acc));
          for (auto& [key, acc] : ordered) {
            part_groups[p].emplace_back(key, std::move(acc));
          }
          return Status::OK();
        }));
    for (auto& pg : part_groups) {
      for (auto& kv : pg) groups.emplace_back(kv.first, std::move(kv.second));
    }
  }
  return groups;
}

// ---------------------------------------------------------------------------
// SORT-BASED
// ---------------------------------------------------------------------------

template <typename K>
Result<std::vector<std::pair<int64_t, GroupAcc>>> SortAggregate(
    vgpu::Device& device, const Table& input, const GroupBySpec& spec,
    double* transform_seconds) {
  vgpu::AllocTagScope tag(device, "groupby:sort");
  const uint64_t n = input.num_rows();
  const int warp = device.config().warp_size;
  const auto& key_col = input.column(0);
  const vgpu::DeviceBuffer<K>* key_buf;
  if constexpr (sizeof(K) == 4) {
    key_buf = &key_col.i32();
  } else {
    key_buf = &key_col.i64();
  }

  const double t0 = device.ElapsedSeconds();
  const std::vector<int> needed = NeededColumns(spec);
  vgpu::DeviceBuffer<K> t_keys;
  std::vector<DeviceColumn> t_cols;
  {
    obs::TraceSpan transform_span(device, "phase", "transform");
    if (needed.empty()) {
      GPUJOIN_ASSIGN_OR_RETURN(auto ids,
                               vgpu::DeviceBuffer<RowId>::Allocate(device, n));
      vgpu::DeviceBuffer<RowId> t_ids;
      GPUJOIN_RETURN_IF_ERROR(join::TransformPairOutOfPlace(
          device, *key_buf, ids, &t_keys, &t_ids, join::TransformKind::kSort,
          0));
    } else {
      for (size_t c = 0; c < needed.size(); ++c) {
        vgpu::DeviceBuffer<K> t_keys_c;
        GPUJOIN_ASSIGN_OR_RETURN(
            DeviceColumn t_col,
            join::TransformKeyPayload(device, *key_buf, input.column(needed[c]),
                                      &t_keys_c, join::TransformKind::kSort, 0));
        t_cols.push_back(std::move(t_col));
        if (c == 0) {
          t_keys = std::move(t_keys_c);
        } else {
          t_keys_c.Release();
        }
      }
    }
  }
  *transform_seconds = device.ElapsedSeconds() - t0;

  // Segmented reduction over equal-key runs (purely sequential).
  std::vector<std::pair<int64_t, GroupAcc>> groups;
  std::vector<int64_t> agg_values(spec.aggregates.size(), 0);
  obs::TraceSpan aggregate_span(device, "phase", "aggregate");
  {
    vgpu::KernelScope ks(device, "gb_sort_reduce");
    // The streaming (loads + per-warp reduction work) is tile-parallel;
    // the run detection below is functional only (carries across tiles),
    // so it runs on the calling thread and charges nothing.
    const uint64_t kTile = 4096;
    const uint64_t n_tiles = bit_util::CeilDiv(n, kTile);
    GPUJOIN_RETURN_IF_ERROR(device.ParallelBlocks(
        n_tiles, [&](uint64_t tile, vgpu::BlockContext& ctx) -> Status {
          const uint64_t begin = tile * kTile;
          const uint64_t tile_n = std::min(kTile, n - begin);
          ctx.LoadSeq(t_keys.addr(begin), tile_n, sizeof(K));
          for (const DeviceColumn& col : t_cols) {
            ctx.LoadSeq(col.addr(begin), tile_n,
                        static_cast<uint32_t>(DataTypeSize(col.type())));
          }
          ctx.Compute(bit_util::CeilDiv(tile_n, warp) *
                      (1 + spec.aggregates.size()));
          return Status::OK();
        }));
    uint64_t run_start = 0;
    for (uint64_t i = 0; i <= n; ++i) {
      if (i == n || (i > 0 && t_keys[i] != t_keys[run_start])) {
        GroupAcc acc;
        for (uint64_t j = run_start; j < i; ++j) {
          for (size_t a = 0; a < spec.aggregates.size(); ++a) {
            const AggSpec& as = spec.aggregates[a];
            if (as.op == AggOp::kCount) {
              agg_values[a] = 0;
              continue;
            }
            const auto it = std::find(needed.begin(), needed.end(), as.column);
            agg_values[a] = t_cols[it - needed.begin()].Get(j);
          }
          UpdateAcc(&acc, spec, agg_values);
        }
        groups.emplace_back(static_cast<int64_t>(t_keys[run_start]),
                            std::move(acc));
        run_start = i;
      }
    }
  }
  return groups;
}

template <typename K>
Result<GroupByRunResult> GroupByDriver(vgpu::Device& device, GroupByAlgo algo,
                                       const Table& input, const GroupBySpec& spec,
                                       const GroupByOptions& opts) {
  device.ResetPeakMemory();
  GroupByRunResult res;
  const vgpu::KernelStats stats_before = device.total_stats();
  obs::TraceSpan query_span(device, "query",
                            std::string("groupby:") + GroupByAlgoName(algo));
  query_span.Annotate("algo", GroupByAlgoName(algo));
  query_span.Annotate("rows", std::to_string(input.num_rows()));
  const double t0 = device.ElapsedSeconds();
  double transform_s = 0;

  std::vector<std::pair<int64_t, GroupAcc>> groups;
  switch (algo) {
    case GroupByAlgo::kHashGlobal: {
      GPUJOIN_ASSIGN_OR_RETURN(groups, HashGlobalAggregate<K>(device, input, spec));
      break;
    }
    case GroupByAlgo::kHashPartitioned: {
      GPUJOIN_ASSIGN_OR_RETURN(
          groups, HashPartitionedAggregate<K>(device, input, spec, opts,
                                              &transform_s));
      break;
    }
    case GroupByAlgo::kSortBased: {
      GPUJOIN_ASSIGN_OR_RETURN(groups,
                               SortAggregate<K>(device, input, spec, &transform_s));
      break;
    }
  }
  const double t1 = device.ElapsedSeconds();
  GPUJOIN_RETURN_IF_ERROR(obs::CheckLifecycle(device));
  {
    obs::TraceSpan emit_span(device, "phase", "emit");
    GPUJOIN_ASSIGN_OR_RETURN(res.output,
                             EmitOutput(device, input, spec, groups));
  }
  const double t2 = device.ElapsedSeconds();
  GPUJOIN_RETURN_IF_ERROR(obs::CheckLifecycle(device));

  res.phases.transform_s = transform_s;
  res.phases.match_s = (t1 - t0) - transform_s;
  res.phases.materialize_s = t2 - t1;
  res.num_groups = groups.size();
  res.peak_mem_bytes = device.memory_stats().peak_bytes;
  res.stats = device.total_stats();
  res.stats.Sub(stats_before);
  const double total = t2 - t0;
  res.throughput_tuples_per_sec =
      total > 0 ? static_cast<double>(input.num_rows()) / total : 0;
  return res;
}

}  // namespace

Result<GroupByRunResult> RunGroupBy(vgpu::Device& device, GroupByAlgo algo,
                                    const Table& input, const GroupBySpec& spec,
                                    const GroupByOptions& options) {
  if (input.num_columns() < 1 || input.num_rows() == 0) {
    return Status::InvalidArgument("RunGroupBy: empty input");
  }
  GPUJOIN_RETURN_IF_ERROR(ValidateSpec(input, spec));
  GPUJOIN_RETURN_IF_ERROR(obs::CheckLifecycle(device));
  if (input.column(0).type() == DataType::kInt32) {
    return GroupByDriver<int32_t>(device, algo, input, spec, options);
  }
  return GroupByDriver<int64_t>(device, algo, input, spec, options);
}

}  // namespace gpujoin::groupby
