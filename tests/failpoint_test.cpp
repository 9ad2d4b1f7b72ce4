// Tests for the deterministic fault-injection registry (common/failpoint):
// spec parsing, trigger semantics (every hit / N-th hit / key match), hit
// counting, and the CELLO_FAILPOINTS-style batch arming string.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/failpoint.hpp"

namespace {

using namespace cello;

/// Every test leaves the process-global registry clean for the next one.
class FailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::disarm_all(); }
};

TEST_F(FailpointTest, UnarmedSiteNeverFires) {
  EXPECT_FALSE(failpoint::hit("nowhere").has_value());
  EXPECT_NO_THROW(failpoint::maybe_throw("nowhere"));
  EXPECT_EQ(failpoint::hit_count("nowhere"), 0u);
}

TEST_F(FailpointTest, ThrowActionFiresOnEveryHit) {
  failpoint::arm("site.a", "throw");
  EXPECT_THROW(failpoint::maybe_throw("site.a"), Error);
  EXPECT_THROW(failpoint::maybe_throw("site.a"), Error);
  EXPECT_EQ(failpoint::hit_count("site.a"), 2u);
  // Other sites are untouched.
  EXPECT_NO_THROW(failpoint::maybe_throw("site.b"));
}

TEST_F(FailpointTest, ExplicitStarTriggerMatchesEveryHit) {
  failpoint::arm("site.star", "throw@*");
  EXPECT_THROW(failpoint::maybe_throw("site.star"), Error);
  EXPECT_THROW(failpoint::maybe_throw("site.star"), Error);
}

TEST_F(FailpointTest, NthHitTriggerFiresExactlyOnce) {
  failpoint::arm("site.nth", "throw@3");
  EXPECT_NO_THROW(failpoint::maybe_throw("site.nth"));
  EXPECT_NO_THROW(failpoint::maybe_throw("site.nth"));
  EXPECT_THROW(failpoint::maybe_throw("site.nth"), Error);  // hit 3
  EXPECT_NO_THROW(failpoint::maybe_throw("site.nth"));      // hit 4: past it
  EXPECT_EQ(failpoint::hit_count("site.nth"), 4u);
}

TEST_F(FailpointTest, KeyTriggerMatchesOnlyThatKey) {
  failpoint::arm("site.key", "throw@key=7");
  EXPECT_NO_THROW(failpoint::maybe_throw("site.key", "6"));
  EXPECT_THROW(failpoint::maybe_throw("site.key", "7"), Error);
  EXPECT_NO_THROW(failpoint::maybe_throw("site.key", "8"));
  // Key triggers keep firing: every hit with the key faults.
  EXPECT_THROW(failpoint::maybe_throw("site.key", "7"), Error);
}

TEST_F(FailpointTest, ErrorMessageNamesSiteAndKey) {
  failpoint::arm("sweep.cell", "throw@key=5");
  try {
    failpoint::maybe_throw("sweep.cell", "5");
    FAIL() << "expected injected fault";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("sweep.cell"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'5'"), std::string::npos) << msg;
  }
}

TEST_F(FailpointTest, NonThrowActionsAreReturnedToCaller) {
  failpoint::arm("io.short", "short_write");
  failpoint::arm("io.torn", "torn_write@1");
  const auto s = failpoint::hit("io.short");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->action, failpoint::Action::ShortWrite);
  const auto t = failpoint::hit("io.torn");
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->action, failpoint::Action::TornWrite);
  EXPECT_FALSE(failpoint::hit("io.torn").has_value());  // @1 already consumed
}

TEST_F(FailpointTest, DisarmStopsFiringAndRearmResetsHitCounter) {
  failpoint::arm("site.d", "throw@2");
  EXPECT_NO_THROW(failpoint::maybe_throw("site.d"));
  failpoint::disarm("site.d");
  EXPECT_NO_THROW(failpoint::maybe_throw("site.d"));  // would have been hit 2
  EXPECT_EQ(failpoint::hit_count("site.d"), 0u);
  failpoint::arm("site.d", "throw@2");
  EXPECT_NO_THROW(failpoint::maybe_throw("site.d"));  // counter restarted at 1
  EXPECT_THROW(failpoint::maybe_throw("site.d"), Error);
}

TEST_F(FailpointTest, ArmFromStringArmsEverySegment) {
  failpoint::arm_from_string("a.one=throw@1;b.two=throw@key=x;;c.three=short_write");
  EXPECT_THROW(failpoint::maybe_throw("a.one"), Error);
  EXPECT_NO_THROW(failpoint::maybe_throw("b.two", "y"));
  EXPECT_THROW(failpoint::maybe_throw("b.two", "x"), Error);
  const auto f = failpoint::hit("c.three");
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->action, failpoint::Action::ShortWrite);
}

TEST_F(FailpointTest, MalformedSpecsThrow) {
  EXPECT_THROW(failpoint::arm("s", ""), Error);
  EXPECT_THROW(failpoint::arm("s", "explode"), Error);
  EXPECT_THROW(failpoint::arm("s", "throw@"), Error);
  EXPECT_THROW(failpoint::arm("s", "throw@zero"), Error);
  EXPECT_THROW(failpoint::arm("s", "throw@0"), Error);  // hits are 1-based
  EXPECT_THROW(failpoint::arm("s", "throw@+3"), Error);
  EXPECT_THROW(failpoint::arm("s", "throw@3 "), Error);
  EXPECT_THROW(failpoint::arm("s", "throw@18446744073709551616"), Error);  // past u64
  EXPECT_THROW(failpoint::arm_from_string("missing-equals"), Error);
  // Nothing half-armed after the failures above.
  EXPECT_NO_THROW(failpoint::maybe_throw("s"));
}

}  // namespace
