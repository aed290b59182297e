// Shared helpers for the gpujoin test suites.

#ifndef GPUJOIN_TESTS_TEST_UTIL_H_
#define GPUJOIN_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <memory>

#include "common/status.h"
#include "vgpu/device.h"

namespace gpujoin::testing {

/// Asserts a Status-like expression is OK, with the message on failure.
#define ASSERT_OK(expr)                                                   \
  do {                                                                    \
    const ::gpujoin::Status _st =                                         \
        ::gpujoin::internal::GenericToStatus((expr));                     \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                              \
  } while (0)

#define EXPECT_OK(expr)                                                   \
  do {                                                                    \
    const ::gpujoin::Status _st =                                         \
        ::gpujoin::internal::GenericToStatus((expr));                     \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                              \
  } while (0)

/// ASSERT_OK + move the value out of a Result.
#define ASSERT_OK_AND_ASSIGN(lhs, rexpr)                 \
  ASSERT_OK_AND_ASSIGN_IMPL(                             \
      GPUJOIN_CONCAT(_test_result_, __LINE__), lhs, rexpr)

#define ASSERT_OK_AND_ASSIGN_IMPL(result_name, lhs, rexpr)      \
  auto result_name = (rexpr);                                   \
  ASSERT_TRUE(result_name.ok()) << result_name.status().ToString(); \
  lhs = std::move(result_name).value();

/// Expects every KernelStats field, raw and derived, to be exactly equal.
#define EXPECT_STATS_EQ(a, b)                                        \
  do {                                                               \
    EXPECT_EQ((a).warp_instructions, (b).warp_instructions);         \
    EXPECT_EQ((a).mem_instructions, (b).mem_instructions);           \
    EXPECT_EQ((a).transactions, (b).transactions);                   \
    EXPECT_EQ((a).sectors, (b).sectors);                             \
    EXPECT_EQ((a).l2_hit_sectors, (b).l2_hit_sectors);               \
    EXPECT_EQ((a).dram_sectors, (b).dram_sectors);                   \
    EXPECT_EQ((a).dram_row_misses, (b).dram_row_misses);             \
    EXPECT_EQ((a).bytes_read, (b).bytes_read);                       \
    EXPECT_EQ((a).bytes_written, (b).bytes_written);                 \
    EXPECT_EQ((a).shared_accesses, (b).shared_accesses);             \
    EXPECT_EQ((a).atomic_serializations, (b).atomic_serializations); \
    EXPECT_EQ((a).serial_cycles, (b).serial_cycles);                 \
    EXPECT_EQ((a).compute_cycles, (b).compute_cycles);               \
    EXPECT_EQ((a).memory_cycles, (b).memory_cycles);                 \
    EXPECT_EQ((a).cycles, (b).cycles);                               \
  } while (0)

/// A small-capacity test device: A100 geometry with caches scaled for
/// ~2^16-tuple workloads, so cache effects are visible at test sizes.
inline vgpu::Device MakeTestDevice() {
  return vgpu::Device(vgpu::DeviceConfig::ScaledToWorkload(
      vgpu::DeviceConfig::A100(), uint64_t{1} << 16));
}

/// An unscaled A100 device (large caches relative to test inputs).
inline vgpu::Device MakeFullA100() {
  return vgpu::Device(vgpu::DeviceConfig::A100());
}

/// RAII leak audit: asserts the device has no outstanding allocations when
/// the scope ends. Wrap the query under test AFTER the inputs it is allowed
/// to keep resident have been released (or construct before any allocation).
class ScopedLeakCheck {
 public:
  explicit ScopedLeakCheck(vgpu::Device& device) : device_(&device) {}
  ~ScopedLeakCheck() {
    const Status st = device_->CheckNoLeaks();
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  ScopedLeakCheck(const ScopedLeakCheck&) = delete;
  ScopedLeakCheck& operator=(const ScopedLeakCheck&) = delete;

 private:
  vgpu::Device* device_;
};

/// Fixture base with a scaled test device that must be leak-free at
/// TearDown (on top of the hard abort in ~Device).
class LeakCheckedDeviceTest : public ::testing::Test {
 protected:
  LeakCheckedDeviceTest() : device_(MakeTestDevice()) {}
  void TearDown() override {
    const Status st = device_.CheckNoLeaks();
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  vgpu::Device device_;
};

}  // namespace gpujoin::testing

#endif  // GPUJOIN_TESTS_TEST_UTIL_H_
