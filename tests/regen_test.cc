#include <gtest/gtest.h>

#include "common/calendar.h"
#include "core/engine.h"
#include "core/policy_parser.h"
#include "tests/test_util.h"

namespace sentinel {
namespace {

/// Incremental policy-update / rule-regeneration tests — the paper's §5
/// scenario ("shift time of role day doctor changed from 8-4 to 9-5").
class RegenTest : public ::testing::Test {
 protected:
  RegenTest() : clock_(testutil::Noon()), engine_(&clock_) {}

  void Load(const Policy& policy) {
    ASSERT_TRUE(engine_.LoadPolicy(policy).ok());
  }

  SimulatedClock clock_;
  AuthorizationEngine engine_;
};

TEST_F(RegenTest, RequiresLoadedPolicy) {
  EXPECT_TRUE(engine_.ApplyPolicyUpdate(testutil::EnterpriseXyzPolicy())
                  .status()
                  .IsFailedPrecondition());
}

TEST_F(RegenTest, NoChangeRegeneratesNothing) {
  const Policy policy = testutil::EnterpriseXyzPolicy();
  Load(policy);
  const size_t rules_before = engine_.rule_manager().rule_count();
  auto report = engine_.ApplyPolicyUpdate(policy);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->roles_affected, 0);
  EXPECT_EQ(report->rules_removed, 0);
  EXPECT_EQ(report->rules_added, 0);
  EXPECT_EQ(engine_.rule_manager().rule_count(), rules_before);
}

TEST_F(RegenTest, ShiftTimeChangeTakesEffect) {
  // The paper's example: day doctor shift 8-16 changed to 9-17.
  auto before = PolicyParser::Parse(R"(
policy "hospital"
role DayDoctor { enable: 08:00:00 - 16:00:00 }
user dana { assign: DayDoctor }
)");
  ASSERT_TRUE(before.ok());
  Load(*before);
  ASSERT_TRUE(engine_.CreateSession("dana", "s1").allowed);

  auto after = PolicyParser::Parse(R"(
policy "hospital"
role DayDoctor { enable: 09:00:00 - 17:00:00 }
user dana { assign: DayDoctor }
)");
  ASSERT_TRUE(after.ok());
  auto report = engine_.ApplyPolicyUpdate(*after);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->roles_affected, 1);
  EXPECT_GT(report->rules_added, 0);

  // 16:30 is inside the NEW window only.
  engine_.AdvanceTo(MakeTime(2026, 7, 6, 16, 30, 0));
  EXPECT_TRUE(engine_.role_state().IsEnabled("DayDoctor"));
  EXPECT_TRUE(engine_.AddActiveRole("dana", "s1", "DayDoctor").allowed);
  // 17:00: the new boundary disables it (the old 16:00 one is orphaned
  // and silent).
  engine_.AdvanceTo(MakeTime(2026, 7, 6, 17, 0, 0));
  EXPECT_FALSE(engine_.role_state().IsEnabled("DayDoctor"));
  EXPECT_FALSE(engine_.rbac().db().IsSessionRoleActive("s1", "DayDoctor"));
}

TEST_F(RegenTest, CardinalityChangeOnlyRebuildsThatRole) {
  Policy before = testutil::EnterpriseXyzPolicy();
  Load(before);
  const uint64_t fired_before = engine_.rule_manager().total_fired();
  (void)fired_before;
  Policy after = before;
  (*after.MutableRole("PC"))->activation_cardinality = 1;
  auto report = engine_.ApplyPolicyUpdate(after);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->roles_affected, 1);
  // PC now has AAR + CC (2 rules); before it had just AAR (1 rule).
  EXPECT_EQ(report->rules_removed, 1);
  EXPECT_EQ(report->rules_added, 2);
  EXPECT_TRUE(engine_.rule_manager().Find("CC.PC").ok());

  // The new cardinality is live.
  ASSERT_TRUE(engine_.CreateSession("alice", "s1").allowed);
  ASSERT_TRUE(engine_.CreateSession("carol", "s2").allowed);
  EXPECT_TRUE(engine_.AddActiveRole("alice", "s1", "PC").allowed);
  // carol is not PC-authorized; use alice's second session instead.
  ASSERT_TRUE(engine_.CreateSession("alice", "s3").allowed);
  EXPECT_FALSE(engine_.AddActiveRole("alice", "s3", "PC").allowed);
}

TEST_F(RegenTest, AddingSodSetAffectsItsMembers) {
  Policy before = testutil::EnterpriseXyzPolicy();
  Load(before);
  Policy after = before;
  SodSet set;
  set.name = "DSoD1";
  set.roles = {"PM", "AM"};
  set.n = 2;
  ASSERT_TRUE(after.AddDsd(std::move(set)).ok());
  auto report = engine_.ApplyPolicyUpdate(after);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->roles_affected, 2);  // PM and AM.
  EXPECT_TRUE(engine_.rbac().dsd().GetSet("DSoD1").ok());
}

TEST_F(RegenTest, RemovingRoleRemovesItsRules) {
  Policy before = testutil::EnterpriseXyzPolicy();
  Load(before);
  ASSERT_TRUE(engine_.rule_manager().Find("AAR.Clerk").ok());
  Policy after = before;
  ASSERT_TRUE(after.RemoveRole("Clerk").ok());
  auto report = engine_.ApplyPolicyUpdate(after);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(engine_.rule_manager().Find("AAR.Clerk").ok());
  EXPECT_FALSE(engine_.rbac().db().HasRole("Clerk"));
  // Requests against the removed role fall to default deny.
  ASSERT_TRUE(engine_.CreateSession("carol", "s1").allowed);
  EXPECT_FALSE(engine_.AddActiveRole("carol", "s1", "Clerk").allowed);
}

TEST_F(RegenTest, AddingRoleGeneratesItsRules) {
  Policy before = testutil::EnterpriseXyzPolicy();
  Load(before);
  Policy after = before;
  RoleSpec intern;
  intern.name = "Intern";
  ASSERT_TRUE(after.AddRole(std::move(intern)).ok());
  auto user = after.MutableUser("carol");
  ASSERT_TRUE(user.ok());
  (*user)->assignments.insert("Intern");
  auto report = engine_.ApplyPolicyUpdate(after);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(engine_.rule_manager().Find("AAR.Intern").ok());
  ASSERT_TRUE(engine_.CreateSession("carol", "s1").allowed);
  EXPECT_TRUE(engine_.AddActiveRole("carol", "s1", "Intern").allowed);
}

TEST_F(RegenTest, UserCapChangeRebuildsSpecializedRule) {
  auto before = PolicyParser::Parse(R"(
policy "cap"
role A {}
role B {}
user jane { assign: A, B  max-active: 1 }
)");
  ASSERT_TRUE(before.ok());
  Load(*before);
  ASSERT_TRUE(engine_.CreateSession("jane", "s1").allowed);
  ASSERT_TRUE(engine_.AddActiveRole("jane", "s1", "A").allowed);
  EXPECT_FALSE(engine_.AddActiveRole("jane", "s1", "B").allowed);

  Policy after = *before;
  (*after.MutableUser("jane"))->max_active_roles = 2;
  auto report = engine_.ApplyPolicyUpdate(after);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->users_affected, 1);
  EXPECT_EQ(report->roles_affected, 0);
  EXPECT_TRUE(engine_.AddActiveRole("jane", "s1", "B").allowed);
}

TEST_F(RegenTest, DirectiveChangeRebuildsDirectiveRules) {
  auto before = PolicyParser::Parse(R"(
policy "sec"
role A { permission: read(x) }
user u { assign: A }
threshold guard { count: 10  window: 60s }
)");
  ASSERT_TRUE(before.ok());
  Load(*before);
  Policy after = *before;
  // Tighten the threshold (replace directive list).
  Policy rebuilt("sec");
  for (const auto& [name, spec] : after.roles()) {
    ASSERT_TRUE(rebuilt.AddRole(spec).ok());
  }
  for (const auto& [name, spec] : after.users()) {
    ASSERT_TRUE(rebuilt.AddUser(spec).ok());
  }
  ASSERT_TRUE(
      rebuilt.AddThreshold(ThresholdDirective{"guard", 2, 60 * kSecond, {}})
          .ok());
  auto report = engine_.ApplyPolicyUpdate(rebuilt);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->directives_rebuilt);
  ASSERT_TRUE(engine_.CreateSession("u", "s1").allowed);
  EXPECT_FALSE(engine_.CheckAccess("s1", "write", "x").allowed);
  EXPECT_FALSE(engine_.CheckAccess("s1", "write", "x").allowed);
  EXPECT_EQ(engine_.security().alert_count(), 1);
}

TEST_F(RegenTest, RepeatedRegenerationsStayConsistent) {
  // Flip a role's cardinality back and forth; rules must track exactly.
  Policy base = testutil::EnterpriseXyzPolicy();
  Load(base);
  for (int i = 0; i < 5; ++i) {
    Policy with_cc = base;
    (*with_cc.MutableRole("PC"))->activation_cardinality = 2;
    ASSERT_TRUE(engine_.ApplyPolicyUpdate(with_cc).ok());
    EXPECT_TRUE(engine_.rule_manager().Find("CC.PC").ok());
    ASSERT_TRUE(engine_.ApplyPolicyUpdate(base).ok());
    EXPECT_FALSE(engine_.rule_manager().Find("CC.PC").ok());
    EXPECT_TRUE(engine_.rule_manager().Find("AAR.PC").ok());
  }
  // Behaviour intact after churn.
  ASSERT_TRUE(engine_.CreateSession("alice", "s1").allowed);
  EXPECT_TRUE(engine_.AddActiveRole("alice", "s1", "PC").allowed);
}

TEST_F(RegenTest, DurationChangeRegeneratesPlusChain) {
  auto before = PolicyParser::Parse(R"(
policy "dur"
role OnCall { max-activation: 1h }
user u { assign: OnCall }
)");
  ASSERT_TRUE(before.ok());
  Load(*before);
  Policy after = *before;
  (*after.MutableRole("OnCall"))->max_activation = 10 * kMinute;
  ASSERT_TRUE(engine_.ApplyPolicyUpdate(after).ok());
  ASSERT_TRUE(engine_.CreateSession("u", "s1").allowed);
  ASSERT_TRUE(engine_.AddActiveRole("u", "s1", "OnCall").allowed);
  engine_.AdvanceBy(11 * kMinute);
  EXPECT_FALSE(engine_.rbac().db().IsSessionRoleActive("s1", "OnCall"));
}

// A temporal event name is never reused: the re-added role's PLUS event
// must not collide with the one its removal retired.
TEST_F(RegenTest, RemovedAndReaddedRoleKeepsItsDurationBound) {
  auto with_role = PolicyParser::Parse(R"(
policy "dur"
role OnCall { max-activation: 30m }
role Desk {}
user u { assign: OnCall, Desk }
)");
  ASSERT_TRUE(with_role.ok());
  Load(*with_role);
  Policy without_role = *with_role;
  ASSERT_TRUE(without_role.RemoveRole("OnCall").ok());
  ASSERT_TRUE(engine_.ApplyPolicyUpdate(without_role).ok());
  auto readded = engine_.ApplyPolicyUpdate(*with_role);
  ASSERT_TRUE(readded.ok()) << readded.status().ToString();
  ASSERT_TRUE(engine_.CreateSession("u", "s1").allowed);
  ASSERT_TRUE(engine_.AddActiveRole("u", "s1", "OnCall").allowed);
  engine_.AdvanceBy(31 * kMinute);
  EXPECT_FALSE(engine_.rbac().db().IsSessionRoleActive("s1", "OnCall"));
}

TEST_F(RegenTest, RemovedAndReaddedUserKeepsItsDurationBound) {
  auto with_user = PolicyParser::Parse(R"(
policy "dur"
role OnCall {}
user u { assign: OnCall  duration: OnCall = 30m }
user v { assign: OnCall }
)");
  ASSERT_TRUE(with_user.ok());
  Load(*with_user);
  Policy without_user = *with_user;
  ASSERT_TRUE(without_user.RemoveUser("u").ok());
  ASSERT_TRUE(engine_.ApplyPolicyUpdate(without_user).ok());
  auto readded = engine_.ApplyPolicyUpdate(*with_user);
  ASSERT_TRUE(readded.ok()) << readded.status().ToString();
  ASSERT_TRUE(engine_.CreateSession("u", "s1").allowed);
  ASSERT_TRUE(engine_.AddActiveRole("u", "s1", "OnCall").allowed);
  engine_.AdvanceBy(31 * kMinute);
  EXPECT_FALSE(engine_.rbac().db().IsSessionRoleActive("s1", "OnCall"));
}

// A CFD pair is known by its trigger, not its position: when an earlier pair
// goes, the pair that moves into its place keeps its rules, and a pair
// added later at the freed position still gets its own.
TEST_F(RegenTest, CfdPairAddedAfterAnotherMovedGeneratesItsRules) {
  const std::string roles = R"(
policy "cfd"
role A {}
role B {}
role C {}
role D {}
role E {}
role F {}
)";
  auto both = PolicyParser::Parse(roles + R"(
cfd { trigger: A  companion: B }
cfd { trigger: C  companion: D }
)");
  auto second = PolicyParser::Parse(roles + R"(
cfd { trigger: C  companion: D }
)");
  auto grown = PolicyParser::Parse(roles + R"(
cfd { trigger: C  companion: D }
cfd { trigger: E  companion: F }
)");
  ASSERT_TRUE(both.ok() && second.ok() && grown.ok());
  Load(*both);
  ASSERT_TRUE(engine_.ApplyPolicyUpdate(*second).ok());
  EXPECT_FALSE(engine_.rule_manager().Find("CFD.A.B.enable").ok());
  EXPECT_TRUE(engine_.rule_manager().Find("CFD.C.D.enable").ok());
  ASSERT_TRUE(engine_.ApplyPolicyUpdate(*grown).ok());
  EXPECT_TRUE(engine_.rule_manager().Find("CFD.C.D.enable").ok());
  EXPECT_TRUE(engine_.rule_manager().Find("CFD.E.F.enable").ok());
  EXPECT_TRUE(engine_.rule_manager().Find("CFD.E.F.disable").ok());
}

// A runtime removal since the last reconcile makes the next commit replay
// every entry of the target policy; it re-adds what the runtime took away.
TEST_F(RegenTest, ResyncReaddsRuntimeRemovedEntries) {
  Policy base = testutil::EnterpriseXyzPolicy();
  Load(base);
  ASSERT_TRUE(engine_.DeassignUser("carol", "Clerk").allowed);
  ASSERT_TRUE(engine_.rbac().RevokePermission("write", "approval", "AC").ok());
  ASSERT_FALSE(engine_.rbac().db().IsAssigned("carol", "Clerk"));
  ASSERT_FALSE(
      engine_.rbac().db().IsGranted(Permission{"write", "approval"}, "AC"));

  Policy unrelated = base;
  (*unrelated.MutableRole("PM"))->activation_cardinality = 2;
  auto report = engine_.ApplyPolicyUpdate(unrelated);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->base_entries_skipped, 0);
  EXPECT_TRUE(engine_.rbac().db().IsAssigned("carol", "Clerk"));
  EXPECT_TRUE(
      engine_.rbac().db().IsGranted(Permission{"write", "approval"}, "AC"));
  ASSERT_TRUE(engine_.CreateSession("carol", "s1").allowed);
  EXPECT_TRUE(engine_.AddActiveRole("carol", "s1", "Clerk").allowed);
}

TEST_F(RegenTest, ThresholdDisableRolesRoundTripsThroughDsl) {
  auto policy = PolicyParser::Parse(R"(
policy "sec"
role A {}
role Critical {}
threshold guard { count: 3  window: 60s  disable: CA
                  disable-roles: Critical, A }
)");
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  ASSERT_EQ(policy->thresholds().size(), 1u);
  EXPECT_EQ(policy->thresholds()[0].disable_roles,
            (std::vector<RoleName>{"Critical", "A"}));
  auto reparsed = PolicyParser::Parse(PolicyToText(*policy));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(*reparsed, *policy);
  // Unknown roles in disable-roles are rejected by validation.
  EXPECT_FALSE(PolicyParser::Parse(R"(
policy "bad"
role A {}
threshold g { count: 1  window: 1s  disable-roles: Ghost }
)")
                   .ok());
}

TEST_F(RegenTest, InvalidUpdateRejectedAtomically) {
  Policy base = testutil::EnterpriseXyzPolicy();
  Load(base);
  Policy bad = base;
  RoleSpec broken;
  broken.name = "Broken";
  broken.juniors.insert("Ghost");
  ASSERT_TRUE(bad.AddRole(std::move(broken)).ok());
  EXPECT_FALSE(engine_.ApplyPolicyUpdate(bad).ok());
  // The loaded policy is unchanged and the engine still works.
  EXPECT_EQ(engine_.policy(), base);
  ASSERT_TRUE(engine_.CreateSession("carol", "s1").allowed);
  EXPECT_TRUE(engine_.AddActiveRole("carol", "s1", "Clerk").allowed);
}

}  // namespace
}  // namespace sentinel
