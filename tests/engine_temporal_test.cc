#include <gtest/gtest.h>

#include "common/calendar.h"
#include "common/logging.h"
#include "core/engine.h"
#include "core/policy_parser.h"
#include "tests/test_util.h"

namespace sentinel {
namespace {

class EngineTemporalTest : public ::testing::Test {
 protected:
  EngineTemporalTest() : clock_(testutil::Noon()), engine_(&clock_) {}

  void Load(const std::string& text) {
    auto policy = PolicyParser::Parse(text);
    ASSERT_TRUE(policy.ok()) << policy.status().ToString();
    ASSERT_TRUE(engine_.LoadPolicy(*policy).ok());
  }

  SimulatedClock clock_;
  AuthorizationEngine engine_;
};

// ------------------------------------------------ Rule 7: durations/PLUS

TEST_F(EngineTemporalTest, RoleDurationDeactivatesAfterDelta) {
  Load(R"(
policy "dur"
role OnCall { max-activation: 2h }
user u { assign: OnCall }
)");
  ASSERT_TRUE(engine_.CreateSession("u", "s1").allowed);
  ASSERT_TRUE(engine_.AddActiveRole("u", "s1", "OnCall").allowed);
  engine_.AdvanceBy(2 * kHour - kSecond);
  EXPECT_TRUE(engine_.rbac().db().IsSessionRoleActive("s1", "OnCall"));
  engine_.AdvanceBy(kSecond);
  EXPECT_FALSE(engine_.rbac().db().IsSessionRoleActive("s1", "OnCall"));
}

TEST_F(EngineTemporalTest, EarlyDropCancelsExpiry) {
  Load(R"(
policy "dur"
role OnCall { max-activation: 1h }
user u { assign: OnCall }
)");
  ASSERT_TRUE(engine_.CreateSession("u", "s1").allowed);
  ASSERT_TRUE(engine_.AddActiveRole("u", "s1", "OnCall").allowed);
  engine_.AdvanceBy(10 * kMinute);
  ASSERT_TRUE(engine_.DropActiveRole("u", "s1", "OnCall").allowed);
  // Re-activate: the new activation gets its own full hour; the original
  // expiry (would land at +1h from the first activation) must not kill it.
  ASSERT_TRUE(engine_.AddActiveRole("u", "s1", "OnCall").allowed);
  engine_.AdvanceBy(55 * kMinute);  // 65min after the first activation.
  EXPECT_TRUE(engine_.rbac().db().IsSessionRoleActive("s1", "OnCall"));
  engine_.AdvanceBy(10 * kMinute);  // 65min after the second activation.
  EXPECT_FALSE(engine_.rbac().db().IsSessionRoleActive("s1", "OnCall"));
}

TEST_F(EngineTemporalTest, PerUserDurationIsSpecialized) {
  Load(R"(
policy "dur"
role R3 {}
user bob { assign: R3  duration: R3 = 30m }
user eve { assign: R3 }
)");
  ASSERT_TRUE(engine_.CreateSession("bob", "sb").allowed);
  ASSERT_TRUE(engine_.CreateSession("eve", "se").allowed);
  ASSERT_TRUE(engine_.AddActiveRole("bob", "sb", "R3").allowed);
  ASSERT_TRUE(engine_.AddActiveRole("eve", "se", "R3").allowed);
  engine_.AdvanceBy(31 * kMinute);
  // Bob's specialized rule fired; eve is unconstrained.
  EXPECT_FALSE(engine_.rbac().db().IsSessionRoleActive("sb", "R3"));
  EXPECT_TRUE(engine_.rbac().db().IsSessionRoleActive("se", "R3"));
}

TEST_F(EngineTemporalTest, TightestDurationWins) {
  Load(R"(
policy "dur"
role R { max-activation: 1h }
user bob { assign: R  duration: R = 15m }
)");
  ASSERT_TRUE(engine_.CreateSession("bob", "s1").allowed);
  ASSERT_TRUE(engine_.AddActiveRole("bob", "s1", "R").allowed);
  engine_.AdvanceBy(16 * kMinute);
  EXPECT_FALSE(engine_.rbac().db().IsSessionRoleActive("s1", "R"));
}

TEST_F(EngineTemporalTest, SessionDeletionCancelsExpiries) {
  Load(R"(
policy "dur"
role OnCall { max-activation: 1h }
user u { assign: OnCall }
)");
  ASSERT_TRUE(engine_.CreateSession("u", "s1").allowed);
  ASSERT_TRUE(engine_.AddActiveRole("u", "s1", "OnCall").allowed);
  ASSERT_TRUE(engine_.DeleteSession("s1").allowed);
  // Advancing past the expiry must not touch a later same-named session.
  ASSERT_TRUE(engine_.CreateSession("u", "s1").allowed);
  engine_.AdvanceBy(50 * kMinute);
  ASSERT_TRUE(engine_.AddActiveRole("u", "s1", "OnCall").allowed);
  engine_.AdvanceBy(20 * kMinute);  // 70min > 1h after the first add.
  EXPECT_TRUE(engine_.rbac().db().IsSessionRoleActive("s1", "OnCall"));
}

TEST_F(EngineTemporalTest, PerUserDurationEarlyDropCancelsExpiry) {
  Load(R"(
policy "dur"
role R3 {}
user bob { assign: R3  duration: R3 = 30m }
)");
  ASSERT_TRUE(engine_.CreateSession("bob", "sb").allowed);
  ASSERT_TRUE(engine_.AddActiveRole("bob", "sb", "R3").allowed);
  engine_.AdvanceBy(10 * kMinute);
  ASSERT_TRUE(engine_.DropActiveRole("bob", "sb", "R3").allowed);
  // The re-activation gets its own full 30 minutes.
  ASSERT_TRUE(engine_.AddActiveRole("bob", "sb", "R3").allowed);
  engine_.AdvanceBy(25 * kMinute);  // 35min after the first activation.
  EXPECT_TRUE(engine_.rbac().db().IsSessionRoleActive("sb", "R3"));
  engine_.AdvanceBy(6 * kMinute);  // 31min after the second.
  EXPECT_FALSE(engine_.rbac().db().IsSessionRoleActive("sb", "R3"));
}

TEST_F(EngineTemporalTest, EarlyDropCancelsRoleAndPerUserExpiries) {
  Load(R"(
policy "dur"
role R { max-activation: 30m }
user bob { assign: R  duration: R = 20m }
)");
  ASSERT_TRUE(engine_.CreateSession("bob", "s1").allowed);
  ASSERT_TRUE(engine_.AddActiveRole("bob", "s1", "R").allowed);
  engine_.AdvanceBy(15 * kMinute);
  ASSERT_TRUE(engine_.DropActiveRole("bob", "s1", "R").allowed);
  ASSERT_TRUE(engine_.AddActiveRole("bob", "s1", "R").allowed);
  // +32min: past both of the first activation's expiries (+20, +30).
  engine_.AdvanceBy(17 * kMinute);
  EXPECT_TRUE(engine_.rbac().db().IsSessionRoleActive("s1", "R"));
  engine_.AdvanceBy(4 * kMinute);  // The tighter 20m bound of the second.
  EXPECT_FALSE(engine_.rbac().db().IsSessionRoleActive("s1", "R"));
}

TEST_F(EngineTemporalTest, DroppingOneDurationRoleLeavesTheOthersExpiry) {
  Load(R"(
policy "dur"
role A { max-activation: 30m }
role B { max-activation: 1h }
user u { assign: A, B }
user v { assign: A }
)");
  ASSERT_TRUE(engine_.CreateSession("u", "s1").allowed);
  ASSERT_TRUE(engine_.CreateSession("v", "s2").allowed);
  ASSERT_TRUE(engine_.AddActiveRole("u", "s1", "A").allowed);
  ASSERT_TRUE(engine_.AddActiveRole("u", "s1", "B").allowed);
  ASSERT_TRUE(engine_.AddActiveRole("v", "s2", "A").allowed);
  engine_.AdvanceBy(10 * kMinute);
  ASSERT_TRUE(engine_.DropActiveRole("u", "s1", "A").allowed);
  ASSERT_TRUE(engine_.AddActiveRole("u", "s1", "A").allowed);
  // +31min: s1's A was re-added at +10; s2's A expires on schedule.
  engine_.AdvanceBy(21 * kMinute);
  EXPECT_TRUE(engine_.rbac().db().IsSessionRoleActive("s1", "A"));
  EXPECT_FALSE(engine_.rbac().db().IsSessionRoleActive("s2", "A"));
  // +41min: the re-added A expires; B is untouched by either.
  engine_.AdvanceBy(10 * kMinute);
  EXPECT_FALSE(engine_.rbac().db().IsSessionRoleActive("s1", "A"));
  EXPECT_TRUE(engine_.rbac().db().IsSessionRoleActive("s1", "B"));
  engine_.AdvanceBy(20 * kMinute);  // +61min.
  EXPECT_FALSE(engine_.rbac().db().IsSessionRoleActive("s1", "B"));
}

TEST_F(EngineTemporalTest, EarlyDropCancelsExpiryAfterManyRegenerations) {
  const char* base_text = R"(
policy "dur"
role OnCall { max-activation: 30m  permission: read(pager) }
user u { assign: OnCall }
)";
  const char* toggled_text = R"(
policy "dur"
role OnCall { max-activation: 30m  permission: read(pager), write(pager) }
user u { assign: OnCall }
)";
  Load(base_text);
  auto base = PolicyParser::Parse(base_text);
  auto toggled = PolicyParser::Parse(toggled_text);
  ASSERT_TRUE(base.ok() && toggled.ok());
  // Each update regenerates OnCall's rules and retires its PLUS event.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(engine_.ApplyPolicyUpdate(i % 2 == 0 ? *toggled : *base).ok());
  }
  ASSERT_TRUE(engine_.detector().Lookup("ev.durexp.OnCall#20").ok());

  const auto pending_timers = [this] {
    return engine_.metrics().Snapshot().FindGauge("pending_timers")->value;
  };
  ASSERT_TRUE(engine_.CreateSession("u", "s1").allowed);
  const int64_t idle = pending_timers();
  ASSERT_TRUE(engine_.AddActiveRole("u", "s1", "OnCall").allowed);
  EXPECT_EQ(pending_timers(), idle + 1);
  engine_.AdvanceBy(10 * kMinute);
  ASSERT_TRUE(engine_.DropActiveRole("u", "s1", "OnCall").allowed);
  EXPECT_EQ(pending_timers(), idle);
  ASSERT_TRUE(engine_.AddActiveRole("u", "s1", "OnCall").allowed);
  engine_.AdvanceBy(25 * kMinute);  // Past the first activation's expiry.
  EXPECT_TRUE(engine_.rbac().db().IsSessionRoleActive("s1", "OnCall"));
  engine_.AdvanceBy(6 * kMinute);
  EXPECT_FALSE(engine_.rbac().db().IsSessionRoleActive("s1", "OnCall"));
  EXPECT_EQ(pending_timers(), idle);
}

// --------------------------------------------- GTRBAC shifts (enable:)

TEST_F(EngineTemporalTest, ShiftWindowEnablesAndDisables) {
  Load(R"(
policy "shift"
role DayDoctor { enable: 08:00:00 - 16:00:00 }
user dana { assign: DayDoctor }
)");
  // Loaded at noon: inside the window.
  EXPECT_TRUE(engine_.role_state().IsEnabled("DayDoctor"));
  ASSERT_TRUE(engine_.CreateSession("dana", "s1").allowed);
  EXPECT_TRUE(engine_.AddActiveRole("dana", "s1", "DayDoctor").allowed);
  // At 16:00 the shift ends: role disabled and instance deactivated.
  engine_.AdvanceTo(MakeTime(2026, 7, 6, 16, 0, 0));
  EXPECT_FALSE(engine_.role_state().IsEnabled("DayDoctor"));
  EXPECT_FALSE(engine_.rbac().db().IsSessionRoleActive("s1", "DayDoctor"));
  // Activation denied off shift.
  EXPECT_FALSE(engine_.AddActiveRole("dana", "s1", "DayDoctor").allowed);
  // Next morning the shift re-opens.
  engine_.AdvanceTo(MakeTime(2026, 7, 7, 8, 0, 0));
  EXPECT_TRUE(engine_.role_state().IsEnabled("DayDoctor"));
  EXPECT_TRUE(engine_.AddActiveRole("dana", "s1", "DayDoctor").allowed);
}

TEST(EngineTemporalStandaloneTest, LoadOutsideWindowStartsDisabled) {
  SimulatedClock clock(MakeTime(2026, 7, 6, 5, 0, 0));  // Before the shift.
  AuthorizationEngine engine(&clock);
  auto policy = PolicyParser::Parse(R"(
policy "shift"
role DayDoctor { enable: 08:00:00 - 16:00:00 }
user dana { assign: DayDoctor }
)");
  ASSERT_TRUE(policy.ok());
  ASSERT_TRUE(engine.LoadPolicy(*policy).ok());
  EXPECT_FALSE(engine.role_state().IsEnabled("DayDoctor"));
  ASSERT_TRUE(engine.CreateSession("dana", "s1").allowed);
  EXPECT_FALSE(engine.AddActiveRole("dana", "s1", "DayDoctor").allowed);
  engine.AdvanceTo(MakeTime(2026, 7, 6, 8, 0, 0));
  EXPECT_TRUE(engine.AddActiveRole("dana", "s1", "DayDoctor").allowed);
}

// --------------------------------- Rule 6: disabling-time SoD (TSOD)

TEST_F(EngineTemporalTest, DisablingTimeSodGuardsInsideWindow) {
  Load(R"(
policy "tsod"
role Doctor {}
role Nurse {}
time-sod avail { kind: disabling  roles: Doctor, Nurse
                 window: 10:00:00 - 17:00:00 }
)");
  // Noon: inside (I,P). Disabling one role is fine...
  Decision first = engine_.DisableRole("Nurse");
  EXPECT_TRUE(first.allowed);
  EXPECT_EQ(first.rule, "TSOD.avail");
  EXPECT_FALSE(engine_.role_state().IsEnabled("Nurse"));
  // ...but the counter-role must stay up.
  Decision second = engine_.DisableRole("Doctor");
  EXPECT_FALSE(second.allowed);
  EXPECT_EQ(second.reason, "Denied as Counter-Role Already Disabled");
  EXPECT_TRUE(engine_.role_state().IsEnabled("Doctor"));
}

TEST_F(EngineTemporalTest, DisablingTimeSodFreeOutsideWindow) {
  Load(R"(
policy "tsod"
role Doctor {}
role Nurse {}
time-sod avail { kind: disabling  roles: Doctor, Nurse
                 window: 10:00:00 - 17:00:00 }
)");
  engine_.AdvanceTo(MakeTime(2026, 7, 6, 18, 0, 0));  // After hours.
  EXPECT_TRUE(engine_.DisableRole("Nurse").allowed);
  Decision second = engine_.DisableRole("Doctor");
  EXPECT_TRUE(second.allowed);
  EXPECT_EQ(second.rule, "GLOB.disable");
  EXPECT_FALSE(engine_.role_state().IsEnabled("Doctor"));
  EXPECT_FALSE(engine_.role_state().IsEnabled("Nurse"));
}

TEST_F(EngineTemporalTest, TsodWindowReopensNextDay) {
  Load(R"(
policy "tsod"
role Doctor {}
role Nurse {}
time-sod avail { kind: disabling  roles: Doctor, Nurse
                 window: 10:00:00 - 17:00:00 }
)");
  engine_.AdvanceTo(MakeTime(2026, 7, 6, 18, 0, 0));
  ASSERT_TRUE(engine_.DisableRole("Nurse").allowed);
  ASSERT_TRUE(engine_.EnableRole("Nurse").allowed);
  // Next day inside the window the guard is live again.
  engine_.AdvanceTo(MakeTime(2026, 7, 7, 11, 0, 0));
  ASSERT_TRUE(engine_.DisableRole("Nurse").allowed);
  EXPECT_FALSE(engine_.DisableRole("Doctor").allowed);
}

TEST_F(EngineTemporalTest, ReenablingCounterRoleFreesTheOther) {
  Load(R"(
policy "tsod"
role Doctor {}
role Nurse {}
time-sod avail { kind: disabling  roles: Doctor, Nurse
                 window: 10:00:00 - 17:00:00 }
)");
  ASSERT_TRUE(engine_.DisableRole("Nurse").allowed);
  ASSERT_FALSE(engine_.DisableRole("Doctor").allowed);
  ASSERT_TRUE(engine_.EnableRole("Nurse").allowed);
  EXPECT_TRUE(engine_.DisableRole("Doctor").allowed);
}

TEST_F(EngineTemporalTest, EnablingTimeSodBlocksAllEnabled) {
  Load(R"(
policy "etsod"
role A {}
role B {}
time-sod exclusive { kind: enabling  roles: A, B
                     window: 00:00:01 - 23:59:59 }
)");
  // Both start enabled (pre-existing state is not retro-checked); disable
  // both, then try to bring both up inside the window.
  ASSERT_TRUE(engine_.DisableRole("A").allowed);
  ASSERT_TRUE(engine_.DisableRole("B").allowed);
  EXPECT_TRUE(engine_.EnableRole("A").allowed);
  Decision d = engine_.EnableRole("B");
  EXPECT_FALSE(d.allowed);
  EXPECT_EQ(d.reason, "Denied by Enabling-Time SoD");
  EXPECT_FALSE(engine_.role_state().IsEnabled("B"));
}

// ------------------------------------------------------------- Audits

TEST_F(EngineTemporalTest, AuditRuleTicksPeriodically) {
  Load(R"(
policy "aud"
role A {}
audit hourly { interval: 1h }
)");
  engine_.AdvanceBy(3 * kHour + kMinute);
  EXPECT_EQ(engine_.security().audit_report_count("hourly"), 3);
  engine_.AdvanceBy(kHour);
  EXPECT_EQ(engine_.security().audit_report_count("hourly"), 4);
}

TEST_F(EngineTemporalTest, ManyTimerFiringsDoNotExhaustCascadeBudget) {
  // Regression: each timer firing is an independent trigger and must get
  // a fresh cascade budget; a long advance over thousands of shift
  // boundaries must not silently drop rule firings.
  Load(R"(
policy "shift"
role DayDoctor { enable: 08:00:00 - 16:00:00 }
user dana { assign: DayDoctor }
)");
  engine_.AdvanceBy(800 * kDay);  // 1600 boundary firings > default 1024.
  EXPECT_EQ(engine_.rule_manager().dropped_firings(), 0u);
  // State still tracks the window (noon + 800d is noon: enabled).
  EXPECT_TRUE(engine_.role_state().IsEnabled("DayDoctor"));
  engine_.AdvanceTo(engine_.Now() + 5 * kHour);  // 17:00: disabled.
  EXPECT_FALSE(engine_.role_state().IsEnabled("DayDoctor"));
}

TEST_F(EngineTemporalTest, ThresholdWindowSlidesWithTime) {
  Load(R"(
policy "sec"
role A { permission: read(x) }
user u { assign: A }
threshold guard { count: 3  window: 60s }
)");
  ASSERT_TRUE(engine_.CreateSession("u", "s1").allowed);
  EXPECT_FALSE(engine_.CheckAccess("s1", "write", "x").allowed);
  EXPECT_FALSE(engine_.CheckAccess("s1", "write", "x").allowed);
  engine_.AdvanceBy(2 * kMinute);  // The burst ages out.
  EXPECT_FALSE(engine_.CheckAccess("s1", "write", "x").allowed);
  EXPECT_EQ(engine_.security().alert_count(), 0);
  // A dense burst alerts.
  EXPECT_FALSE(engine_.CheckAccess("s1", "write", "x").allowed);
  EXPECT_FALSE(engine_.CheckAccess("s1", "write", "x").allowed);
  EXPECT_EQ(engine_.security().alert_count(), 1);
}

}  // namespace
}  // namespace sentinel
