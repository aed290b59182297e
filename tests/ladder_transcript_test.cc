// Transcript pins for the degradation ladders behind RunJoinResilient and
// RunGroupByResilient. Every case drives one ladder on a device sized or
// faulted so that specific rungs fire, then renders what an outside caller
// can observe into one string: attempts, the rung that completed, the
// degradation steps with their detail strings, the final Status, and the
// elapsed simulated cycles as a hex-float literal. Any change to a step, a
// message, a backoff delay or a retry shows up as a diff against a golden.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/resilience.h"
#include "groupby/resilient.h"
#include "join/resilient.h"
#include "storage/table.h"
#include "test_util.h"
#include "vgpu/device.h"
#include "vgpu/fault.h"
#include "workload/generator.h"

namespace gpujoin {
namespace {

using groupby::GroupByAlgo;
using join::JoinAlgo;
using vgpu::FaultInjector;

constexpr uint64_t kPersistent = uint64_t{1} << 20;

std::string HexCycles(double cycles) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", cycles);
  return buf;
}

std::string RenderSteps(const std::vector<DegradationStep>& steps) {
  std::string out;
  for (const DegradationStep& s : steps) {
    out += "  " + s.action + ": " + s.detail + "\n";
  }
  return out;
}

vgpu::DeviceConfig TestConfig(uint64_t capacity_bytes) {
  vgpu::DeviceConfig cfg = vgpu::DeviceConfig::ScaledToWorkload(
      vgpu::DeviceConfig::A100(), uint64_t{1} << 16);
  if (capacity_bytes > 0) cfg.global_mem_bytes = capacity_bytes;
  return cfg;
}

// ---------------------------------------------------------------------------
// Join ladder: in-memory, more radix bits (PHJ-*), then out-of-core.
// ---------------------------------------------------------------------------

// 512 x 1024 int32 rows: 12 KiB of host input.
constexpr uint64_t kJoinCramped = 12 << 10;  // Forces the out-of-core rung.
constexpr uint64_t kJoinRoomy = 0;           // The scaled config's capacity.

struct JoinCase {
  const char* name;
  JoinAlgo algo;
  uint64_t capacity;
  FaultInjector fault;
  const char* want;
};

std::string JoinTranscript(const JoinCase& c) {
  workload::JoinWorkloadSpec spec;
  spec.r_rows = 1 << 9;
  spec.s_rows = 1 << 10;
  spec.seed = 5;
  const workload::JoinWorkload w =
      workload::GenerateJoinInput(spec).ValueOrDie();
  vgpu::Device device(TestConfig(c.capacity));
  device.set_fault_injector(c.fault);
  join::ResilienceOptions opts;
  opts.max_attempts = 12;
  Result<join::ResilientJoinResult> res =
      join::RunJoinResilient(device, c.algo, w.r, w.s, opts);
  std::string out;
  if (res.ok()) {
    out = "attempts=" + std::to_string(res->attempts) +
          " out_of_core=" + std::to_string(res->used_out_of_core) +
          " rows=" + std::to_string(res->output_rows) + "\n" +
          RenderSteps(res->degradation);
  }
  out += res.status().ToString() + "\ncycles=" +
         HexCycles(device.elapsed_cycles()) + "\n";
  EXPECT_OK(device.CheckNoLeaks());
  return out;
}

class JoinLadderTranscript : public ::testing::TestWithParam<JoinCase> {};

TEST_P(JoinLadderTranscript, MatchesGolden) {
  EXPECT_EQ(JoinTranscript(GetParam()), GetParam().want);
}

const JoinCase kJoinCases[] = {
    // clang-format off
    {"SMJ_UM_cramped", JoinAlgo::kSmjUm, kJoinCramped, FaultInjector(),
     R"(attempts=2 out_of_core=1 rows=1024
  out_of_core_fallback: in-memory failed (device OOM: requested 2048 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); streaming fragment pairs with fragment_bits=3
OK
cycles=0x1.c44801fdaae71p+17
)"},
    {"SMJ_UM_cramped_fail_nth", JoinAlgo::kSmjUm, kJoinCramped, FaultInjector::FailNth(138),
     R"(attempts=3 out_of_core=1 rows=1024
  out_of_core_fallback: in-memory failed (device OOM: requested 2048 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); streaming fragment pairs with fragment_bits=3
  out_of_core_fallback: in-memory failed (injected allocation fault (fail-nth(138)) at attempt #138: 528 B for join:match/untagged); streaming fragment pairs with fragment_bits=5
OK
cycles=0x1.078411b786a23p+20
)"},
    {"SMJ_UM_cramped_kernel_once", JoinAlgo::kSmjUm, kJoinCramped, FaultInjector::FailNthKernel(229),
     R"(attempts=2 out_of_core=1 rows=1024
  out_of_core_fallback: in-memory failed (device OOM: requested 2048 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); streaming fragment pairs with fragment_bits=3
  transient_retry: transient fault (kernel_fault: injected (fail-nth-kernel(229)) at kernel #229 'merge_join_count'); retrying same rung, retry 1
  out_of_core_fallback: in-memory failed (device OOM: requested 2048 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); streaming fragment pairs with fragment_bits=3
OK
cycles=0x1.e30a530c8e3e5p+18
)"},
    {"SMJ_UM_roomy_fail_nth", JoinAlgo::kSmjUm, kJoinRoomy, FaultInjector::FailNth(3),
     R"(attempts=2 out_of_core=1 rows=1024
  out_of_core_fallback: in-memory failed (injected allocation fault (fail-nth(3)) at attempt #3: 4096 B for upload:S/s_key); streaming fragment pairs with fragment_bits=1
OK
cycles=0x1.62e0a14d238c4p+16
)"},
    {"SMJ_UM_roomy_kernel_persistent", JoinAlgo::kSmjUm, kJoinRoomy, FaultInjector::FailKernelBurst(2, kPersistent),
     R"(Unavailable: kernel_fault: injected (fail-kernel-burst(2:1048576)) at kernel #37 'radix_histogram' (attempt 4; ladder transient-retry budget exhausted)
cycles=0x1.786e7ce1c68b6p+18
)"},
    {"SMJ_OM_cramped", JoinAlgo::kSmjOm, kJoinCramped, FaultInjector(),
     R"(attempts=2 out_of_core=1 rows=1024
  out_of_core_fallback: in-memory failed (device OOM: requested 2048 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); streaming fragment pairs with fragment_bits=3
OK
cycles=0x1.c44801fdaae71p+17
)"},
    {"SMJ_OM_cramped_fail_nth", JoinAlgo::kSmjOm, kJoinCramped, FaultInjector::FailNth(138),
     R"(attempts=3 out_of_core=1 rows=1024
  out_of_core_fallback: in-memory failed (device OOM: requested 2048 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); streaming fragment pairs with fragment_bits=3
  out_of_core_fallback: in-memory failed (injected allocation fault (fail-nth(138)) at attempt #138: 528 B for join:match/untagged); streaming fragment pairs with fragment_bits=5
OK
cycles=0x1.078411b786a23p+20
)"},
    {"SMJ_OM_cramped_kernel_once", JoinAlgo::kSmjOm, kJoinCramped, FaultInjector::FailNthKernel(229),
     R"(attempts=2 out_of_core=1 rows=1024
  out_of_core_fallback: in-memory failed (device OOM: requested 2048 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); streaming fragment pairs with fragment_bits=3
  transient_retry: transient fault (kernel_fault: injected (fail-nth-kernel(229)) at kernel #229 'merge_join_count'); retrying same rung, retry 1
  out_of_core_fallback: in-memory failed (device OOM: requested 2048 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); streaming fragment pairs with fragment_bits=3
OK
cycles=0x1.e30a530c8e3e5p+18
)"},
    {"SMJ_OM_roomy_fail_nth", JoinAlgo::kSmjOm, kJoinRoomy, FaultInjector::FailNth(3),
     R"(attempts=2 out_of_core=1 rows=1024
  out_of_core_fallback: in-memory failed (injected allocation fault (fail-nth(3)) at attempt #3: 4096 B for upload:S/s_key); streaming fragment pairs with fragment_bits=1
OK
cycles=0x1.62e0a14d238c4p+16
)"},
    {"SMJ_OM_roomy_kernel_persistent", JoinAlgo::kSmjOm, kJoinRoomy, FaultInjector::FailKernelBurst(2, kPersistent),
     R"(Unavailable: kernel_fault: injected (fail-kernel-burst(2:1048576)) at kernel #37 'radix_histogram' (attempt 4; ladder transient-retry budget exhausted)
cycles=0x1.786e7ce1c68b6p+18
)"},
    {"PHJ_UM_cramped", JoinAlgo::kPhjUm, kJoinCramped, FaultInjector(),
     R"(attempts=11 out_of_core=1 rows=1024
  retry_more_partition_bits: attempt 1 failed (device OOM: requested 2048 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=3
  retry_more_partition_bits: attempt 2 failed (device OOM: requested 4096 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=5
  retry_more_partition_bits: attempt 3 failed (device OOM: requested 8192 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=7
  retry_more_partition_bits: attempt 4 failed (device OOM: requested 16384 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=9
  retry_more_partition_bits: attempt 5 failed (device OOM: requested 32768 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=11
  retry_more_partition_bits: attempt 6 failed (device OOM: requested 65536 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=13
  retry_more_partition_bits: attempt 7 failed (device OOM: requested 131072 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=15
  retry_more_partition_bits: attempt 8 failed (device OOM: requested 262144 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=16
  out_of_core_fallback: in-memory failed (device OOM: requested 262144 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); streaming fragment pairs with fragment_bits=3
  out_of_core_fallback: in-memory failed (device OOM: requested 520 B for untagged with 11824 B live of 12288 B capacity); streaming fragment pairs with fragment_bits=5
OK
cycles=0x1.c21912965ee67p+25
)"},
    {"PHJ_UM_cramped_fail_nth", JoinAlgo::kPhjUm, kJoinCramped, FaultInjector::FailNth(620),
     R"(attempts=12 out_of_core=1 rows=1024
  retry_more_partition_bits: attempt 1 failed (device OOM: requested 2048 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=3
  retry_more_partition_bits: attempt 2 failed (device OOM: requested 4096 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=5
  retry_more_partition_bits: attempt 3 failed (device OOM: requested 8192 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=7
  retry_more_partition_bits: attempt 4 failed (device OOM: requested 16384 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=9
  retry_more_partition_bits: attempt 5 failed (device OOM: requested 32768 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=11
  retry_more_partition_bits: attempt 6 failed (device OOM: requested 65536 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=13
  retry_more_partition_bits: attempt 7 failed (device OOM: requested 131072 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=15
  retry_more_partition_bits: attempt 8 failed (device OOM: requested 262144 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=16
  out_of_core_fallback: in-memory failed (device OOM: requested 262144 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); streaming fragment pairs with fragment_bits=3
  out_of_core_fallback: in-memory failed (device OOM: requested 520 B for untagged with 11824 B live of 12288 B capacity); streaming fragment pairs with fragment_bits=5
  out_of_core_fallback: in-memory failed (injected allocation fault (fail-nth(620)) at attempt #620: 148 B for join:match/untagged); streaming fragment pairs with fragment_bits=7
OK
cycles=0x1.84be29ebb0b48p+26
)"},
    {"PHJ_UM_cramped_kernel_once", JoinAlgo::kPhjUm, kJoinCramped, FaultInjector::FailNthKernel(404),
     R"(attempts=11 out_of_core=1 rows=1024
  retry_more_partition_bits: attempt 1 failed (device OOM: requested 2048 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=3
  retry_more_partition_bits: attempt 2 failed (device OOM: requested 4096 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=5
  retry_more_partition_bits: attempt 3 failed (device OOM: requested 8192 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=7
  retry_more_partition_bits: attempt 4 failed (device OOM: requested 16384 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=9
  retry_more_partition_bits: attempt 5 failed (device OOM: requested 32768 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=11
  retry_more_partition_bits: attempt 6 failed (device OOM: requested 65536 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=13
  retry_more_partition_bits: attempt 7 failed (device OOM: requested 131072 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=15
  retry_more_partition_bits: attempt 8 failed (device OOM: requested 262144 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=16
  out_of_core_fallback: in-memory failed (device OOM: requested 262144 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); streaming fragment pairs with fragment_bits=3
  out_of_core_fallback: in-memory failed (device OOM: requested 520 B for untagged with 11824 B live of 12288 B capacity); streaming fragment pairs with fragment_bits=5
  transient_retry: transient fault (kernel_fault: injected (fail-nth-kernel(404)) at kernel #404 'phj_um_probe_count'); retrying same rung, retry 1
  out_of_core_fallback: in-memory failed (device OOM: requested 520 B for untagged with 11824 B live of 12288 B capacity); streaming fragment pairs with fragment_bits=5
OK
cycles=0x1.57c72f387087bp+26
)"},
    {"PHJ_UM_roomy_fail_nth", JoinAlgo::kPhjUm, kJoinRoomy, FaultInjector::FailNth(3),
     R"(attempts=2 out_of_core=0 rows=1024
  retry_more_partition_bits: attempt 1 failed (injected allocation fault (fail-nth(3)) at attempt #3: 4096 B for upload:S/s_key); retrying in-memory with radix_bits=3
OK
cycles=0x1.548a74cc3dc71p+15
)"},
    {"PHJ_UM_roomy_kernel_persistent", JoinAlgo::kPhjUm, kJoinRoomy, FaultInjector::FailKernelBurst(2, kPersistent),
     R"(Unavailable: kernel_fault: injected (fail-kernel-burst(2:1048576)) at kernel #5 'bucket_chain_pass1' (attempt 4; ladder transient-retry budget exhausted)
cycles=0x1.76400aab18ac5p+18
)"},
    {"PHJ_OM_cramped", JoinAlgo::kPhjOm, kJoinCramped, FaultInjector(),
     R"(attempts=10 out_of_core=1 rows=1024
  retry_more_partition_bits: attempt 1 failed (device OOM: requested 2048 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=3
  retry_more_partition_bits: attempt 2 failed (device OOM: requested 2048 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=5
  retry_more_partition_bits: attempt 3 failed (device OOM: requested 2048 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=7
  retry_more_partition_bits: attempt 4 failed (device OOM: requested 2048 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=9
  retry_more_partition_bits: attempt 5 failed (device OOM: requested 2048 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=11
  retry_more_partition_bits: attempt 6 failed (device OOM: requested 2048 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=13
  retry_more_partition_bits: attempt 7 failed (device OOM: requested 2048 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=15
  retry_more_partition_bits: attempt 8 failed (device OOM: requested 2048 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=16
  out_of_core_fallback: in-memory failed (device OOM: requested 2048 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); streaming fragment pairs with fragment_bits=3
OK
cycles=0x1.ac03381b206b9p+24
)"},
    {"PHJ_OM_cramped_fail_nth", JoinAlgo::kPhjOm, kJoinCramped, FaultInjector::FailNth(146),
     R"(attempts=11 out_of_core=1 rows=1024
  retry_more_partition_bits: attempt 1 failed (device OOM: requested 2048 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=3
  retry_more_partition_bits: attempt 2 failed (device OOM: requested 2048 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=5
  retry_more_partition_bits: attempt 3 failed (device OOM: requested 2048 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=7
  retry_more_partition_bits: attempt 4 failed (device OOM: requested 2048 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=9
  retry_more_partition_bits: attempt 5 failed (device OOM: requested 2048 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=11
  retry_more_partition_bits: attempt 6 failed (device OOM: requested 2048 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=13
  retry_more_partition_bits: attempt 7 failed (device OOM: requested 2048 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=15
  retry_more_partition_bits: attempt 8 failed (device OOM: requested 2048 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=16
  out_of_core_fallback: in-memory failed (device OOM: requested 2048 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); streaming fragment pairs with fragment_bits=3
  out_of_core_fallback: in-memory failed (injected allocation fault (fail-nth(146)) at attempt #146: 528 B for join:match/untagged); streaming fragment pairs with fragment_bits=5
OK
cycles=0x1.c3232294eebebp+25
)"},
    {"PHJ_OM_cramped_kernel_once", JoinAlgo::kPhjOm, kJoinCramped, FaultInjector::FailNthKernel(93),
     R"(attempts=10 out_of_core=1 rows=1024
  retry_more_partition_bits: attempt 1 failed (device OOM: requested 2048 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=3
  retry_more_partition_bits: attempt 2 failed (device OOM: requested 2048 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=5
  retry_more_partition_bits: attempt 3 failed (device OOM: requested 2048 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=7
  retry_more_partition_bits: attempt 4 failed (device OOM: requested 2048 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=9
  retry_more_partition_bits: attempt 5 failed (device OOM: requested 2048 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=11
  retry_more_partition_bits: attempt 6 failed (device OOM: requested 2048 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=13
  retry_more_partition_bits: attempt 7 failed (device OOM: requested 2048 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=15
  retry_more_partition_bits: attempt 8 failed (device OOM: requested 2048 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); retrying in-memory with radix_bits=16
  out_of_core_fallback: in-memory failed (device OOM: requested 2048 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); streaming fragment pairs with fragment_bits=3
  transient_retry: transient fault (kernel_fault: injected (fail-nth-kernel(93)) at kernel #93 'phj_probe_count'); retrying same rung, retry 1
  out_of_core_fallback: in-memory failed (device OOM: requested 2048 B for join:transform:R/untagged with 12288 B live of 12288 B capacity); streaming fragment pairs with fragment_bits=3
OK
cycles=0x1.4b1df0a02b08cp+25
)"},
    {"PHJ_OM_roomy_fail_nth", JoinAlgo::kPhjOm, kJoinRoomy, FaultInjector::FailNth(3),
     R"(attempts=2 out_of_core=0 rows=1024
  retry_more_partition_bits: attempt 1 failed (injected allocation fault (fail-nth(3)) at attempt #3: 4096 B for upload:S/s_key); retrying in-memory with radix_bits=3
OK
cycles=0x1.5301c8ae3238fp+15
)"},
    {"PHJ_OM_roomy_kernel_persistent", JoinAlgo::kPhjOm, kJoinRoomy, FaultInjector::FailKernelBurst(2, kPersistent),
     R"(Unavailable: kernel_fault: injected (fail-kernel-burst(2:1048576)) at kernel #13 'radix_histogram' (attempt 4; ladder transient-retry budget exhausted)
cycles=0x1.76c35346b651cp+18
)"},
    {"NPHJ_cramped", JoinAlgo::kNphj, kJoinCramped, FaultInjector(),
     R"(attempts=2 out_of_core=1 rows=1024
  out_of_core_fallback: in-memory failed (device OOM: requested 8192 B for join:match/untagged with 12288 B live of 12288 B capacity); streaming fragment pairs with fragment_bits=3
OK
cycles=0x1.b1647edc6e1b3p+17
)"},
    {"NPHJ_cramped_fail_nth", JoinAlgo::kNphj, kJoinCramped, FaultInjector::FailNth(90),
     R"(attempts=3 out_of_core=1 rows=1024
  out_of_core_fallback: in-memory failed (device OOM: requested 8192 B for join:match/untagged with 12288 B live of 12288 B capacity); streaming fragment pairs with fragment_bits=3
  out_of_core_fallback: in-memory failed (injected allocation fault (fail-nth(90)) at attempt #90: 528 B for join:match/untagged); streaming fragment pairs with fragment_bits=5
OK
cycles=0x1.f77ce4bf9a8d9p+19
)"},
    {"NPHJ_cramped_kernel_once", JoinAlgo::kNphj, kJoinCramped, FaultInjector::FailNthKernel(37),
     R"(attempts=2 out_of_core=1 rows=1024
  out_of_core_fallback: in-memory failed (device OOM: requested 8192 B for join:match/untagged with 12288 B live of 12288 B capacity); streaming fragment pairs with fragment_bits=3
  transient_retry: transient fault (kernel_fault: injected (fail-nth-kernel(37)) at kernel #37 'nphj_probe_count'); retrying same rung, retry 1
  out_of_core_fallback: in-memory failed (device OOM: requested 8192 B for join:match/untagged with 12288 B live of 12288 B capacity); streaming fragment pairs with fragment_bits=3
OK
cycles=0x1.d0262a94de665p+18
)"},
    {"NPHJ_roomy_fail_nth", JoinAlgo::kNphj, kJoinRoomy, FaultInjector::FailNth(3),
     R"(attempts=2 out_of_core=1 rows=1024
  out_of_core_fallback: in-memory failed (injected allocation fault (fail-nth(3)) at attempt #3: 4096 B for upload:S/s_key); streaming fragment pairs with fragment_bits=1
OK
cycles=0x1.5969095ff839ep+16
)"},
    {"NPHJ_roomy_kernel_persistent", JoinAlgo::kNphj, kJoinRoomy, FaultInjector::FailKernelBurst(2, kPersistent),
     R"(Unavailable: kernel_fault: injected (fail-kernel-burst(2:1048576)) at kernel #7 'nphj_build' (attempt 4; ladder transient-retry budget exhausted)
cycles=0x1.768ff39ec9c34p+18
)"},
    // clang-format on
};

INSTANTIATE_TEST_SUITE_P(
    Cases, JoinLadderTranscript, ::testing::ValuesIn(kJoinCases),
    [](const ::testing::TestParamInfo<JoinCase>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// Group-by ladder: HASH-GLOBAL -> HASH-PART, more radix bits, then SORT.
// ---------------------------------------------------------------------------

// Device bytes on top of the resident 1024-row input. Cramped fits no
// strategy, so every rung fires and the sort rung fails with attempts to
// spare; tight fits HASH-PART but not HASH-GLOBAL or SORT.
constexpr uint64_t kGroupByCramped = 4 << 10;
constexpr uint64_t kGroupByTight = 13 << 10;
constexpr uint64_t kGroupByRoomy = 0;

struct GroupByCase {
  const char* name;
  GroupByAlgo algo;
  uint64_t headroom;
  FaultInjector fault;
  /// Starting radix bits (0 = the strategy's default).
  int radix_bits;
  const char* want;
};

std::string GroupByTranscript(const GroupByCase& c) {
  workload::GroupByWorkloadSpec spec;
  spec.rows = 1 << 10;
  spec.num_groups = 1 << 10;
  spec.seed = 11;
  const HostTable input = workload::GenerateGroupByInput(spec).ValueOrDie();
  groupby::GroupBySpec gspec;
  gspec.aggregates.push_back({1, groupby::AggOp::kSum});
  gspec.aggregates.push_back({1, groupby::AggOp::kCount});

  uint64_t capacity = 0;
  if (c.headroom > 0) {
    vgpu::Device probe(TestConfig(0));
    Table t = Table::FromHost(probe, input).ValueOrDie();
    capacity = probe.memory_stats().live_bytes + c.headroom;
  }
  vgpu::Device device(TestConfig(capacity));
  std::string out;
  {
    Table t = Table::FromHost(device, input).ValueOrDie();
    device.set_fault_injector(c.fault);
    groupby::GroupByResilienceOptions opts;
    opts.max_attempts = 10;
    if (c.radix_bits > 0) opts.groupby.radix_bits_override = c.radix_bits;
    Result<groupby::ResilientGroupByResult> res =
        groupby::RunGroupByResilient(device, c.algo, t, gspec, opts);
    if (res.ok()) {
      out = "attempts=" + std::to_string(res->attempts) +
            " algo_used=" + groupby::GroupByAlgoName(res->algo_used) +
            " groups=" + std::to_string(res->run.num_groups) + "\n" +
            RenderSteps(res->degradation);
    }
    out += res.status().ToString() + "\ncycles=" +
           HexCycles(device.elapsed_cycles()) + "\n";
  }
  EXPECT_OK(device.CheckNoLeaks());
  return out;
}

class GroupByLadderTranscript : public ::testing::TestWithParam<GroupByCase> {
};

TEST_P(GroupByLadderTranscript, MatchesGolden) {
  EXPECT_EQ(GroupByTranscript(GetParam()), GetParam().want);
}

const GroupByCase kGroupByCases[] = {
    // clang-format off
    {"GLOBAL_cramped", GroupByAlgo::kHashGlobal, kGroupByCramped, FaultInjector(), 0,
     R"(ResourceExhausted: RunGroupByResilient: GB-HASH-GLOBAL failed after 8 attempt(s); last error: device OOM: requested 4096 B for groupby:sort/untagged with 12288 B live of 12288 B capacity
degradation ladder:
  - algo_fallback: GB-HASH-GLOBAL failed (device OOM: requested 16384 B for groupby:hash_global/untagged with 8192 B live of 12288 B capacity); falling back to GB-HASH-PART
  - retry_more_partition_bits: GB-HASH-PART failed (device OOM: requested 4096 B for groupby:hash_part/untagged with 12288 B live of 12288 B capacity); retrying with radix_bits=8
  - retry_more_partition_bits: GB-HASH-PART failed (device OOM: requested 4096 B for groupby:hash_part/untagged with 12288 B live of 12288 B capacity); retrying with radix_bits=10
  - retry_more_partition_bits: GB-HASH-PART failed (device OOM: requested 4096 B for groupby:hash_part/untagged with 12288 B live of 12288 B capacity); retrying with radix_bits=12
  - retry_more_partition_bits: GB-HASH-PART failed (device OOM: requested 4096 B for groupby:hash_part/untagged with 12288 B live of 12288 B capacity); retrying with radix_bits=14
  - retry_more_partition_bits: GB-HASH-PART failed (device OOM: requested 4096 B for groupby:hash_part/untagged with 12288 B live of 12288 B capacity); retrying with radix_bits=16
  - algo_fallback: GB-HASH-PART failed (device OOM: requested 4096 B for groupby:hash_part/untagged with 12288 B live of 12288 B capacity); falling back to GB-SORT

cycles=0x1.848e08d17309ep+23
)"},
    {"GLOBAL_tight_fail_nth", GroupByAlgo::kHashGlobal, kGroupByTight, FaultInjector::FailNth(2), 0,
     R"(attempts=3 algo_used=GB-HASH-PART groups=641
  algo_fallback: GB-HASH-GLOBAL failed (device OOM: requested 16384 B for groupby:hash_global/untagged with 8192 B live of 21504 B capacity); falling back to GB-HASH-PART
  retry_more_partition_bits: GB-HASH-PART failed (injected allocation fault (fail-nth(2)) at attempt #4: 4096 B for groupby:hash_part/untagged); retrying with radix_bits=8
OK
cycles=0x1.263d81604e76bp+17
)"},
    {"GLOBAL_tight_kernel_once", GroupByAlgo::kHashGlobal, kGroupByTight, FaultInjector::FailNthKernel(3), 0,
     R"(attempts=2 algo_used=GB-HASH-PART groups=641
  algo_fallback: GB-HASH-GLOBAL failed (device OOM: requested 16384 B for groupby:hash_global/untagged with 8192 B live of 21504 B capacity); falling back to GB-HASH-PART
  transient_retry: transient fault (kernel_fault: injected (fail-nth-kernel(3)) at kernel #3 'radix_histogram'); retrying same rung, retry 1
OK
cycles=0x1.512d1c9c937c3p+16
)"},
    {"GLOBAL_roomy_fail_first_at_16_bits", GroupByAlgo::kHashGlobal, kGroupByRoomy, FaultInjector::FailNth(1), 16,
     R"(attempts=2 algo_used=GB-HASH-PART groups=641
  algo_fallback: GB-HASH-GLOBAL failed (injected allocation fault (fail-nth(1)) at attempt #3: 16384 B for groupby:hash_global/untagged); falling back to GB-HASH-PART
OK
cycles=0x1.54757be67c1e7p+15
)"},
    {"GLOBAL_roomy_kernel_persistent", GroupByAlgo::kHashGlobal, kGroupByRoomy, FaultInjector::FailKernelBurst(2, kPersistent), 0,
     R"(Unavailable: kernel_fault: injected (fail-kernel-burst(2:1048576)) at kernel #6 'hll_sketch' (attempt 4; ladder transient-retry budget exhausted)
cycles=0x1.76588ce85bdbcp+18
)"},
    {"PART_cramped", GroupByAlgo::kHashPartitioned, kGroupByCramped, FaultInjector(), 0,
     R"(ResourceExhausted: RunGroupByResilient: GB-HASH-PART failed after 7 attempt(s); last error: device OOM: requested 4096 B for groupby:sort/untagged with 12288 B live of 12288 B capacity
degradation ladder:
  - retry_more_partition_bits: GB-HASH-PART failed (device OOM: requested 4096 B for groupby:hash_part/untagged with 12288 B live of 12288 B capacity); retrying with radix_bits=8
  - retry_more_partition_bits: GB-HASH-PART failed (device OOM: requested 4096 B for groupby:hash_part/untagged with 12288 B live of 12288 B capacity); retrying with radix_bits=10
  - retry_more_partition_bits: GB-HASH-PART failed (device OOM: requested 4096 B for groupby:hash_part/untagged with 12288 B live of 12288 B capacity); retrying with radix_bits=12
  - retry_more_partition_bits: GB-HASH-PART failed (device OOM: requested 4096 B for groupby:hash_part/untagged with 12288 B live of 12288 B capacity); retrying with radix_bits=14
  - retry_more_partition_bits: GB-HASH-PART failed (device OOM: requested 4096 B for groupby:hash_part/untagged with 12288 B live of 12288 B capacity); retrying with radix_bits=16
  - algo_fallback: GB-HASH-PART failed (device OOM: requested 4096 B for groupby:hash_part/untagged with 12288 B live of 12288 B capacity); falling back to GB-SORT

cycles=0x1.98b47894706cbp+22
)"},
    {"PART_tight_fail_nth", GroupByAlgo::kHashPartitioned, kGroupByTight, FaultInjector::FailNth(2), 0,
     R"(attempts=2 algo_used=GB-HASH-PART groups=641
  retry_more_partition_bits: GB-HASH-PART failed (injected allocation fault (fail-nth(2)) at attempt #4: 4096 B for groupby:hash_part/untagged); retrying with radix_bits=8
OK
cycles=0x1.525a03aa370dfp+15
)"},
    {"PART_tight_kernel_once", GroupByAlgo::kHashPartitioned, kGroupByTight, FaultInjector::FailNthKernel(3), 0,
     R"(attempts=1 algo_used=GB-HASH-PART groups=641
  transient_retry: transient fault (kernel_fault: injected (fail-nth-kernel(3)) at kernel #3 'radix_scan'); retrying same rung, retry 1
OK
cycles=0x1.542fcea28bd4cp+15
)"},
    {"PART_roomy_fail_first_at_16_bits", GroupByAlgo::kHashPartitioned, kGroupByRoomy, FaultInjector::FailNth(1), 16,
     R"(attempts=2 algo_used=GB-SORT groups=641
  algo_fallback: GB-HASH-PART failed (injected allocation fault (fail-nth(1)) at attempt #3: 4096 B for groupby:hash_part/untagged); falling back to GB-SORT
OK
cycles=0x1.55149459c916fp+15
)"},
    {"PART_roomy_kernel_persistent", GroupByAlgo::kHashPartitioned, kGroupByRoomy, FaultInjector::FailKernelBurst(2, kPersistent), 0,
     R"(Unavailable: kernel_fault: injected (fail-kernel-burst(2:1048576)) at kernel #9 'hll_sketch' (attempt 4; ladder transient-retry budget exhausted)
cycles=0x1.766ba75cb3702p+18
)"},
    {"SORT_cramped", GroupByAlgo::kSortBased, kGroupByCramped, FaultInjector(), 0,
     R"(ResourceExhausted: RunGroupByResilient: GB-SORT failed after 1 attempt(s); last error: device OOM: requested 4096 B for groupby:sort/untagged with 12288 B live of 12288 B capacity; no degradation rung applicable
cycles=0x1.4dc2dc5db7955p+15
)"},
    {"SORT_tight_fail_nth", GroupByAlgo::kSortBased, kGroupByTight, FaultInjector::FailNth(2), 0,
     R"(ResourceExhausted: RunGroupByResilient: GB-SORT failed after 1 attempt(s); last error: injected allocation fault (fail-nth(2)) at attempt #4: 4096 B for groupby:sort/untagged; no degradation rung applicable
cycles=0x1.4dc2dc5db7955p+15
)"},
    {"SORT_roomy_kernel_once", GroupByAlgo::kSortBased, kGroupByRoomy, FaultInjector::FailNthKernel(3), 0,
     R"(attempts=1 algo_used=GB-SORT groups=641
  transient_retry: transient fault (kernel_fault: injected (fail-nth-kernel(3)) at kernel #3 'radix_scatter'); retrying same rung, retry 1
OK
cycles=0x1.5a519fcd8a41dp+15
)"},
    {"SORT_roomy_fail_first_at_16_bits", GroupByAlgo::kSortBased, kGroupByRoomy, FaultInjector::FailNth(1), 16,
     R"(ResourceExhausted: RunGroupByResilient: GB-SORT failed after 1 attempt(s); last error: injected allocation fault (fail-nth(1)) at attempt #3: 4096 B for groupby:sort/untagged; no degradation rung applicable
cycles=0x1.4dc2dc5db7955p+15
)"},
    {"SORT_roomy_kernel_persistent", GroupByAlgo::kSortBased, kGroupByRoomy, FaultInjector::FailKernelBurst(2, kPersistent), 0,
     R"(Unavailable: kernel_fault: injected (fail-kernel-burst(2:1048576)) at kernel #40 'radix_histogram' (attempt 4; ladder transient-retry budget exhausted)
cycles=0x1.78c5850a9f956p+18
)"},
    // clang-format on
};

INSTANTIATE_TEST_SUITE_P(
    Cases, GroupByLadderTranscript, ::testing::ValuesIn(kGroupByCases),
    [](const ::testing::TestParamInfo<GroupByCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace gpujoin
