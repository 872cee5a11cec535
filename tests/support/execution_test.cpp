#include "safeopt/support/execution.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace safeopt {
namespace {

TEST(DeadlineTest, DelaysPastTheClockRangeSaturateToNever) {
  // 1e13 ms overflows the steady clock's int64 nanoseconds; the deadline
  // must mean "never", not one that has already passed.
  for (const std::uint64_t ms :
       {std::uint64_t{10'000'000'000'000},
        std::numeric_limits<std::uint64_t>::max()}) {
    const Deadline deadline = Deadline::after_ms(ms);
    EXPECT_FALSE(deadline.expired()) << ms;
    EXPECT_TRUE(deadline.unbounded()) << ms;
  }
  const Deadline soon = Deadline::after_ms(60'000);
  EXPECT_FALSE(soon.expired());
  EXPECT_FALSE(soon.unbounded());
  EXPECT_TRUE(Deadline::after_ms(0).expired());
}

}  // namespace
}  // namespace safeopt
