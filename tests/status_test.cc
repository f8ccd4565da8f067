// Tests for the orchestration layer's Status/StatusOr error types and the
// ScopedCheckTrap that converts CCSIM_CHECK aborts into catchable failures.
#include "util/status.h"

#include <string>

#include <gtest/gtest.h>

#include "util/check.h"

namespace ccsim {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.message(), "");
  EXPECT_EQ(status.ToString(), "OK");
  EXPECT_TRUE(Status::Ok().ok());
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  Status status = Status::DeadlineExceeded("watchdog fired");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(status.message(), "watchdog fired");
  EXPECT_EQ(status.ToString(), "DEADLINE_EXCEEDED: watchdog fired");

  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, CodeNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument),
               "INVALID_ARGUMENT");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDeadlineExceeded),
               "DEADLINE_EXCEEDED");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "INTERNAL");
}

TEST(StatusDeathTest, ErrorStatusFromOkCodeAborts) {
  EXPECT_DEATH(Status(StatusCode::kOk, "not an error"), "kOk");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result = 17;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 17);
  EXPECT_EQ(*result, 17);
  EXPECT_TRUE(result.status().ok());
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<std::string> result = Status::Internal("check tripped");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_EQ(result.status().message(), "check tripped");
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> result = std::string("payload");
  std::string value = std::move(result).value();
  EXPECT_EQ(value, "payload");
}

TEST(StatusOrDeathTest, ValueOnErrorAborts) {
  StatusOr<int> result = Status::Internal("nope");
  EXPECT_DEATH(result.value(), "StatusOr::value");
}

TEST(StatusOrDeathTest, FromOkStatusAborts) {
  EXPECT_DEATH(StatusOr<int>(Status::Ok()), "OK status with no value");
}

TEST(CheckTrapTest, CheckThrowsUnderTrap) {
  ScopedCheckTrap trap;
  EXPECT_TRUE(ScopedCheckTrap::Active());
  bool caught = false;
  try {
    CCSIM_CHECK(1 == 2) << "impossible arithmetic";
  } catch (const CheckFailure& failure) {
    caught = true;
    EXPECT_NE(std::string(failure.what()).find("impossible arithmetic"),
              std::string::npos);
    EXPECT_NE(std::string(failure.what()).find("1 == 2"), std::string::npos);
  }
  EXPECT_TRUE(caught);
}

TEST(CheckTrapTest, TrapsNest) {
  ScopedCheckTrap outer;
  {
    ScopedCheckTrap inner;
    EXPECT_TRUE(ScopedCheckTrap::Active());
  }
  // The outer trap is still active after the inner one unwinds.
  EXPECT_TRUE(ScopedCheckTrap::Active());
  EXPECT_THROW(CCSIM_CHECK_EQ(2, 3), CheckFailure);
}

TEST(CheckTrapTest, InactiveByDefault) { EXPECT_FALSE(ScopedCheckTrap::Active()); }

TEST(CheckTrapDeathTest, CheckStillAbortsWithoutTrap) {
  EXPECT_DEATH(CCSIM_CHECK(false) << "fail-stop", "fail-stop");
}

}  // namespace
}  // namespace ccsim
