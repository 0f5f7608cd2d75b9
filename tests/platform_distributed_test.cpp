// Pure helpers of the distributed engine that need no forked shards.
#include "otw/platform/distributed.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace otw::platform {
namespace {

constexpr std::uint64_t kNone = UINT64_MAX;
constexpr std::uint64_t kCapNs = 500'000;  // DistributedConfig::idle_poll_us

TEST(IdleWait, DueWakeDoesNotSleep) {
  EXPECT_EQ(idle_wait_ns(1'000, 1'000, kCapNs), 0u);
  EXPECT_EQ(idle_wait_ns(1'000, 999, kCapNs), 0u);
  EXPECT_EQ(idle_wait_ns(1'000, 0, kCapNs), 0u);
}

TEST(IdleWait, SleepsToTheMicrosecond) {
  EXPECT_EQ(idle_wait_ns(7'000, 57'000, kCapNs), 50'000u);
  EXPECT_EQ(idle_wait_ns(0, 64'000, kCapNs), 64'000u);  // a 64 us window
  EXPECT_EQ(idle_wait_ns(0, 1, kCapNs), 1u);
}

TEST(IdleWait, CapBoundsTheSleep) {
  EXPECT_EQ(idle_wait_ns(0, kNone, kCapNs), kCapNs);
  EXPECT_EQ(idle_wait_ns(5, 5 + kCapNs + 1, kCapNs), kCapNs);
  EXPECT_EQ(idle_wait_ns(5, 5 + kCapNs, kCapNs), kCapNs);
}

}  // namespace
}  // namespace otw::platform
