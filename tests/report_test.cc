#include "core/report.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/calendar.h"
#include "common/logging.h"
#include "core/engine.h"
#include "core/policy_parser.h"
#include "tests/test_util.h"

namespace sentinel {
namespace {

class ReportTest : public ::testing::Test {
 protected:
  ReportTest() : clock_(testutil::Noon()), engine_(&clock_) {
    EXPECT_TRUE(engine_.LoadPolicy(testutil::EnterpriseXyzPolicy()).ok());
  }

  SimulatedClock clock_;
  AuthorizationEngine engine_;
};

TEST_F(ReportTest, FreshEngineReportsBaseline) {
  const std::string report = GenerateAdminReport(engine_);
  EXPECT_NE(report.find("policy: \"enterprise-xyz\" (5 roles, 3 users)"),
            std::string::npos);
  EXPECT_NE(report.find("total: 0  denials: 0"), std::string::npos);
  EXPECT_NE(report.find("administrative: 4"), std::string::npos);
  EXPECT_NE(report.find("security alerts (0)"), std::string::npos);
  EXPECT_NE(report.find("(none in the audit trail)"), std::string::npos);
}

TEST_F(ReportTest, ReflectsActivityAndDenials) {
  ASSERT_TRUE(engine_.CreateSession("alice", "s1").allowed);
  ASSERT_TRUE(engine_.AddActiveRole("alice", "s1", "PM").allowed);
  (void)engine_.AddActiveRole("carol", "s1", "PM");  // Denied.
  const std::string report = GenerateAdminReport(engine_);
  EXPECT_NE(report.find("total: 3  denials: 1"), std::string::npos);
  EXPECT_NE(report.find("s1 (alice): PM"), std::string::npos);
  EXPECT_NE(report.find("AAR.PM: Access Denied Cannot Activate"),
            std::string::npos);
}

TEST_F(ReportTest, ListsDisabledRolesAndRules) {
  ASSERT_TRUE(engine_.DisableRole("Clerk").allowed);
  ASSERT_TRUE(engine_.rule_manager().SetEnabled("CA.global", false).ok());
  const std::string report = GenerateAdminReport(engine_);
  EXPECT_NE(report.find("disabled: 1 Clerk"), std::string::npos);
  EXPECT_NE(report.find("DISABLED rules: 1 — CA.global"),
            std::string::npos);
}

TEST_F(ReportTest, OptionsControlSections) {
  ASSERT_TRUE(engine_.CreateSession("alice", "s1").allowed);
  ReportOptions options;
  options.include_sessions = false;
  options.recent_denials = 0;
  const std::string report = GenerateAdminReport(engine_, options);
  EXPECT_EQ(report.find("-- sessions"), std::string::npos);
  EXPECT_EQ(report.find("-- recent denials"), std::string::npos);
}

TEST_F(ReportTest, RecentDenialsListNewestFirstUpToTheLimit) {
  ASSERT_TRUE(engine_.CreateSession("alice", "s1").allowed);
  // Three denials a minute apart, with allowed calls between them.
  std::vector<std::string> stamps;
  for (int i = 0; i < 3; ++i) {
    engine_.AdvanceBy(kMinute);
    stamps.push_back(FormatTime(engine_.Now()));
    EXPECT_FALSE(engine_.AddActiveRole("carol", "s1", "PM").allowed);
    EXPECT_TRUE(
        engine_.CreateSession("alice", "a" + std::to_string(i)).allowed);
  }
  ReportOptions options;
  options.recent_denials = 2;
  const std::string report = GenerateAdminReport(engine_, options);
  const size_t section = report.find("-- recent denials --");
  ASSERT_NE(section, std::string::npos);
  const std::string denials = report.substr(section);
  const size_t newest = denials.find(stamps[2]);
  const size_t older = denials.find(stamps[1]);
  ASSERT_NE(newest, std::string::npos);
  ASSERT_NE(older, std::string::npos);
  EXPECT_LT(newest, older);
  // The limit leaves out the oldest denial.
  EXPECT_EQ(denials.find(stamps[0]), std::string::npos);
}

TEST_F(ReportTest, AlertsAppearInReport) {
  SimulatedClock clock(testutil::Noon());
  AuthorizationEngine engine(&clock);
  auto policy = PolicyParser::Parse(R"(
policy "sec"
role A { permission: read(x) }
user u { assign: A }
threshold guard { count: 2  window: 60s }
)");
  ASSERT_TRUE(policy.ok());
  ASSERT_TRUE(engine.LoadPolicy(*policy).ok());
  ASSERT_TRUE(engine.CreateSession("u", "s1").allowed);
  CapturingLogSink sink;  // Silence the alert log line.
  (void)engine.CheckAccess("s1", "write", "x");
  (void)engine.CheckAccess("s1", "write", "x");
  const std::string report = GenerateAdminReport(engine);
  EXPECT_NE(report.find("security alerts (1)"), std::string::npos);
  EXPECT_NE(report.find("[guard]"), std::string::npos);
}

}  // namespace
}  // namespace sentinel
