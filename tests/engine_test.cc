#include "core/engine.h"

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/policy_parser.h"
#include "tests/test_util.h"

namespace sentinel {
namespace {

/// Fixture loading enterprise XYZ into a rule-driven engine.
class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : clock_(testutil::Noon()), engine_(&clock_) {}

  void Load(const Policy& policy) {
    ASSERT_TRUE(engine_.LoadPolicy(policy).ok());
  }

  SimulatedClock clock_;
  AuthorizationEngine engine_;
};

TEST_F(EngineTest, LoadPolicyInstantiatesBaseState) {
  Load(testutil::EnterpriseXyzPolicy());
  EXPECT_TRUE(engine_.rbac().db().HasUser("alice"));
  EXPECT_TRUE(engine_.rbac().db().HasRole("PM"));
  EXPECT_TRUE(engine_.rbac().db().IsAssigned("alice", "PM"));
  EXPECT_TRUE(engine_.rbac().hierarchy().Dominates("PM", "Clerk"));
  EXPECT_TRUE(engine_.rbac().ssd().GetSet("SoD1").ok());
  EXPECT_GT(engine_.rule_manager().rule_count(), 0u);
}

TEST_F(EngineTest, LoadPolicyRejectsSecondLoad) {
  Load(testutil::EnterpriseXyzPolicy());
  EXPECT_TRUE(engine_.LoadPolicy(testutil::EnterpriseXyzPolicy())
                  .IsFailedPrecondition());
}

TEST_F(EngineTest, LoadPolicyRejectsInvalidPolicy) {
  Policy bad("bad");
  RoleSpec role;
  role.name = "A";
  role.juniors.insert("Ghost");
  ASSERT_TRUE(bad.AddRole(std::move(role)).ok());
  EXPECT_FALSE(engine_.LoadPolicy(bad).ok());
}

TEST_F(EngineTest, SessionLifecycleViaAdmRules) {
  Load(testutil::EnterpriseXyzPolicy());
  Decision d = engine_.CreateSession("alice", "s1");
  EXPECT_TRUE(d.allowed);
  EXPECT_EQ(d.rule, "ADM.createSession");
  EXPECT_TRUE(engine_.rbac().db().HasSession("s1"));

  // Duplicate session id and unknown user are denied by the ELSE branch.
  EXPECT_FALSE(engine_.CreateSession("alice", "s1").allowed);
  Decision ghost = engine_.CreateSession("ghost", "s2");
  EXPECT_FALSE(ghost.allowed);
  EXPECT_EQ(ghost.reason, "Cannot Create Session");

  EXPECT_TRUE(engine_.DeleteSession("s1").allowed);
  EXPECT_FALSE(engine_.rbac().db().HasSession("s1"));
  Decision gone = engine_.DeleteSession("s1");
  EXPECT_FALSE(gone.allowed);
  EXPECT_EQ(gone.reason, "No Such Session");
}

TEST_F(EngineTest, ActivationViaAarRuleCore) {
  Load(testutil::EnterpriseXyzPolicy());
  ASSERT_TRUE(engine_.CreateSession("carol", "s1").allowed);
  Decision d = engine_.AddActiveRole("carol", "s1", "Clerk");
  EXPECT_TRUE(d.allowed);
  EXPECT_EQ(d.rule, "AAR.Clerk");
  EXPECT_TRUE(engine_.rbac().db().IsSessionRoleActive("s1", "Clerk"));
}

TEST_F(EngineTest, ActivationDeniedPaperStyle) {
  Load(testutil::EnterpriseXyzPolicy());
  ASSERT_TRUE(engine_.CreateSession("carol", "s1").allowed);
  // carol is not assigned/authorized for PM.
  Decision d = engine_.AddActiveRole("carol", "s1", "PM");
  EXPECT_FALSE(d.allowed);
  EXPECT_EQ(d.reason, "Access Denied Cannot Activate");
  // Session owned by someone else.
  ASSERT_TRUE(engine_.CreateSession("alice", "s2").allowed);
  EXPECT_FALSE(engine_.AddActiveRole("carol", "s2", "Clerk").allowed);
  // Already active.
  ASSERT_TRUE(engine_.AddActiveRole("carol", "s1", "Clerk").allowed);
  EXPECT_FALSE(engine_.AddActiveRole("carol", "s1", "Clerk").allowed);
}

TEST_F(EngineTest, ActivationThroughHierarchyUsesAar2) {
  Load(testutil::EnterpriseXyzPolicy());
  ASSERT_TRUE(engine_.CreateSession("alice", "s1").allowed);
  // alice assigned to PM only; PC activation flows through
  // checkAuthorization (AAR2 variant).
  EXPECT_TRUE(engine_.AddActiveRole("alice", "s1", "PC").allowed);
  EXPECT_TRUE(engine_.AddActiveRole("alice", "s1", "Clerk").allowed);
  EXPECT_FALSE(engine_.AddActiveRole("alice", "s1", "AC").allowed);
}

TEST_F(EngineTest, UnknownRoleGetsDefaultDeny) {
  Load(testutil::EnterpriseXyzPolicy());
  ASSERT_TRUE(engine_.CreateSession("alice", "s1").allowed);
  Decision d = engine_.AddActiveRole("alice", "s1", "NoSuchRole");
  EXPECT_FALSE(d.allowed);
  EXPECT_EQ(d.reason, "Permission Denied");  // Fail-safe default.
  EXPECT_EQ(d.rule, "");
}

TEST_F(EngineTest, CheckAccessViaCaRule) {
  Load(testutil::EnterpriseXyzPolicy());
  ASSERT_TRUE(engine_.CreateSession("alice", "s1").allowed);
  ASSERT_TRUE(engine_.AddActiveRole("alice", "s1", "PM").allowed);
  // Inherited permission (Clerk's read on ledger).
  Decision d = engine_.CheckAccess("s1", "read", "ledger");
  EXPECT_TRUE(d.allowed);
  EXPECT_EQ(d.rule, "CA.global");
  // Permission not held.
  Decision denied = engine_.CheckAccess("s1", "write", "ledger");
  EXPECT_FALSE(denied.allowed);
  EXPECT_EQ(denied.reason, "Permission Denied");
  // Unknown session / op / object.
  EXPECT_FALSE(engine_.CheckAccess("ghost", "read", "ledger").allowed);
  EXPECT_FALSE(engine_.CheckAccess("s1", "fly", "ledger").allowed);
  EXPECT_FALSE(engine_.CheckAccess("s1", "read", "nothing").allowed);
}

TEST_F(EngineTest, CheckAccessRequiresActiveRole) {
  Load(testutil::EnterpriseXyzPolicy());
  ASSERT_TRUE(engine_.CreateSession("alice", "s1").allowed);
  EXPECT_FALSE(engine_.CheckAccess("s1", "read", "ledger").allowed);
}

TEST_F(EngineTest, DropActiveRoleViaGlobRule) {
  Load(testutil::EnterpriseXyzPolicy());
  ASSERT_TRUE(engine_.CreateSession("carol", "s1").allowed);
  ASSERT_TRUE(engine_.AddActiveRole("carol", "s1", "Clerk").allowed);
  EXPECT_TRUE(engine_.DropActiveRole("carol", "s1", "Clerk").allowed);
  EXPECT_FALSE(engine_.rbac().db().IsSessionRoleActive("s1", "Clerk"));
  Decision d = engine_.DropActiveRole("carol", "s1", "Clerk");
  EXPECT_FALSE(d.allowed);
  EXPECT_EQ(d.reason, "Cannot Deactivate");
}

TEST_F(EngineTest, AssignmentRespectsSsdInheritance) {
  Load(testutil::EnterpriseXyzPolicy());
  // alice (PM) inherits PC's SoD constraint: AC/AM are off limits.
  EXPECT_FALSE(engine_.AssignUser("alice", "AC").allowed);
  Decision d = engine_.AssignUser("alice", "AM");
  EXPECT_FALSE(d.allowed);
  EXPECT_EQ(d.reason, "Cannot Assign");
  // Clerk is fine.
  EXPECT_TRUE(engine_.AssignUser("alice", "Clerk").allowed);
  EXPECT_TRUE(engine_.rbac().db().IsAssigned("alice", "Clerk"));
}

TEST_F(EngineTest, DeassignDropsUnauthorizedActiveRoles) {
  Load(testutil::EnterpriseXyzPolicy());
  ASSERT_TRUE(engine_.CreateSession("alice", "s1").allowed);
  ASSERT_TRUE(engine_.AddActiveRole("alice", "s1", "PC").allowed);
  EXPECT_TRUE(engine_.DeassignUser("alice", "PM").allowed);
  EXPECT_FALSE(engine_.rbac().db().IsSessionRoleActive("s1", "PC"));
  EXPECT_FALSE(engine_.DeassignUser("alice", "PM").allowed);
}

TEST_F(EngineTest, CardinalityRuleCompensates) {
  auto policy = PolicyParser::Parse(R"(
policy "card"
role Pres { cardinality: 1 }
user u1 { assign: Pres }
user u2 { assign: Pres }
)");
  ASSERT_TRUE(policy.ok());
  Load(*policy);
  ASSERT_TRUE(engine_.CreateSession("u1", "s1").allowed);
  ASSERT_TRUE(engine_.CreateSession("u2", "s2").allowed);
  EXPECT_TRUE(engine_.AddActiveRole("u1", "s1", "Pres").allowed);
  Decision d = engine_.AddActiveRole("u2", "s2", "Pres");
  EXPECT_FALSE(d.allowed);
  EXPECT_EQ(d.rule, "CC.Pres");
  EXPECT_EQ(d.reason, "Maximum Number of Roles Reached");
  // The compensating rule rolled the activation back.
  EXPECT_FALSE(engine_.rbac().db().IsSessionRoleActive("s2", "Pres"));
  EXPECT_EQ(engine_.rbac().db().ActiveSessionCount("Pres"), 1);
  // Freeing the slot admits the next activation.
  EXPECT_TRUE(engine_.DropActiveRole("u1", "s1", "Pres").allowed);
  EXPECT_TRUE(engine_.AddActiveRole("u2", "s2", "Pres").allowed);
}

TEST_F(EngineTest, UserActiveRoleCapSpecializedRule) {
  auto policy = PolicyParser::Parse(R"(
policy "cap"
role A {}
role B {}
role C {}
user jane { assign: A, B, C  max-active: 2 }
)");
  ASSERT_TRUE(policy.ok());
  Load(*policy);
  ASSERT_TRUE(engine_.CreateSession("jane", "s1").allowed);
  EXPECT_TRUE(engine_.AddActiveRole("jane", "s1", "A").allowed);
  EXPECT_TRUE(engine_.AddActiveRole("jane", "s1", "B").allowed);
  Decision d = engine_.AddActiveRole("jane", "s1", "C");
  EXPECT_FALSE(d.allowed);
  EXPECT_EQ(d.rule, "UAC.jane");
  EXPECT_FALSE(engine_.rbac().db().IsSessionRoleActive("s1", "C"));
  // The cap counts across sessions.
  ASSERT_TRUE(engine_.CreateSession("jane", "s2").allowed);
  EXPECT_FALSE(engine_.AddActiveRole("jane", "s2", "C").allowed);
  EXPECT_TRUE(engine_.DropActiveRole("jane", "s1", "A").allowed);
  EXPECT_TRUE(engine_.AddActiveRole("jane", "s2", "C").allowed);
}

TEST_F(EngineTest, DsdEnforcedThroughAar3) {
  auto policy = PolicyParser::Parse(R"(
policy "dsd"
role X {}
role Y {}
user u { assign: X, Y }
dsd D { roles: X, Y  n: 2 }
)");
  ASSERT_TRUE(policy.ok());
  Load(*policy);
  ASSERT_TRUE(engine_.CreateSession("u", "s1").allowed);
  EXPECT_TRUE(engine_.AddActiveRole("u", "s1", "X").allowed);
  EXPECT_FALSE(engine_.AddActiveRole("u", "s1", "Y").allowed);
  // Second session is a separate DSD context.
  ASSERT_TRUE(engine_.CreateSession("u", "s2").allowed);
  EXPECT_TRUE(engine_.AddActiveRole("u", "s2", "Y").allowed);
}

TEST_F(EngineTest, PrerequisiteRolesGateActivation) {
  auto policy = PolicyParser::Parse(R"(
policy "prereq"
role Mentor {}
role Junior { prerequisite: Mentor }
user u { assign: Mentor, Junior }
)");
  ASSERT_TRUE(policy.ok());
  Load(*policy);
  ASSERT_TRUE(engine_.CreateSession("u", "s1").allowed);
  EXPECT_FALSE(engine_.AddActiveRole("u", "s1", "Junior").allowed);
  EXPECT_TRUE(engine_.AddActiveRole("u", "s1", "Mentor").allowed);
  EXPECT_TRUE(engine_.AddActiveRole("u", "s1", "Junior").allowed);
}

TEST_F(EngineTest, PrivacyAwareCheckAccess) {
  auto policy = PolicyParser::Parse(R"(
policy "privacy"
role Analyst { permission: read(crm.dat), read(open.dat) }
user u { assign: Analyst }
purpose business {}
purpose marketing { parent: business }
object-policy crm.dat { purposes: marketing }
)");
  ASSERT_TRUE(policy.ok());
  Load(*policy);
  ASSERT_TRUE(engine_.CreateSession("u", "s1").allowed);
  ASSERT_TRUE(engine_.AddActiveRole("u", "s1", "Analyst").allowed);
  // Governed object: purpose required and checked.
  EXPECT_TRUE(engine_.CheckAccess("s1", "read", "crm.dat", "marketing").allowed);
  EXPECT_FALSE(engine_.CheckAccess("s1", "read", "crm.dat").allowed);
  EXPECT_FALSE(
      engine_.CheckAccess("s1", "read", "crm.dat", "business").allowed);
  // Ungoverned object: purpose irrelevant.
  EXPECT_TRUE(engine_.CheckAccess("s1", "read", "open.dat").allowed);
}

TEST_F(EngineTest, CfdEnableCouplesRoles) {
  auto policy = PolicyParser::Parse(R"(
policy "cfd"
role SysAdmin {}
role SysAudit {}
cfd { trigger: SysAdmin  companion: SysAudit }
)");
  ASSERT_TRUE(policy.ok());
  Load(*policy);
  ASSERT_TRUE(engine_.DisableRole("SysAdmin").allowed);
  ASSERT_TRUE(engine_.DisableRole("SysAudit").allowed);
  // Enabling the trigger brings up the companion too.
  Decision d = engine_.EnableRole("SysAdmin");
  EXPECT_TRUE(d.allowed);
  EXPECT_TRUE(engine_.role_state().IsEnabled("SysAdmin"));
  EXPECT_TRUE(engine_.role_state().IsEnabled("SysAudit"));
  // Disabling the companion pulls the trigger down (Rule 8 invariant).
  EXPECT_TRUE(engine_.DisableRole("SysAudit").allowed);
  EXPECT_FALSE(engine_.role_state().IsEnabled("SysAdmin"));
}

TEST_F(EngineTest, ThresholdDirectiveRaisesAlertAndDisablesRules) {
  CapturingLogSink sink;
  auto policy = PolicyParser::Parse(R"(
policy "sec"
role A { permission: read(x) }
user u { assign: A }
threshold guard { count: 3  window: 60s  disable: CA }
)");
  ASSERT_TRUE(policy.ok());
  Load(*policy);
  ASSERT_TRUE(engine_.CreateSession("u", "s1").allowed);
  // Three denials inside the window trip the alert.
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(engine_.CheckAccess("s1", "write", "x").allowed);
  }
  EXPECT_EQ(engine_.security().alert_count(), 1);
  EXPECT_TRUE(sink.Contains("internal security alert [guard]"));
  // The CA rule was disabled: even valid accesses now fall to the
  // default deny (fail-safe).
  ASSERT_TRUE(engine_.AddActiveRole("u", "s1", "A").allowed);
  EXPECT_FALSE(engine_.CheckAccess("s1", "read", "x").allowed);
  const Rule* ca = *engine_.rule_manager().Find("CA.global");
  EXPECT_FALSE(ca->enabled());
}

TEST_F(EngineTest, TransactionActivationViaAperiodic) {
  auto policy = PolicyParser::Parse(R"(
policy "tx"
role Manager {}
role JuniorEmp {}
user mgr { assign: Manager }
user jr { assign: JuniorEmp }
transaction t { controller: Manager  dependent: JuniorEmp }
)");
  ASSERT_TRUE(policy.ok());
  Load(*policy);
  ASSERT_TRUE(engine_.CreateSession("mgr", "sm").allowed);
  ASSERT_TRUE(engine_.CreateSession("jr", "sj").allowed);
  // Before the Manager activates: the window is closed.
  Decision before = engine_.AddActiveRole("jr", "sj", "JuniorEmp");
  EXPECT_FALSE(before.allowed);
  EXPECT_EQ(before.reason, "Permission Denied");
  // Manager activates: window opens.
  ASSERT_TRUE(engine_.AddActiveRole("mgr", "sm", "Manager").allowed);
  Decision after = engine_.AddActiveRole("jr", "sj", "JuniorEmp");
  EXPECT_TRUE(after.allowed);
  EXPECT_EQ(after.rule, "ASEC.t.activate");
  // Manager deactivates: the junior falls with them.
  ASSERT_TRUE(engine_.DropActiveRole("mgr", "sm", "Manager").allowed);
  EXPECT_FALSE(engine_.rbac().db().IsSessionRoleActive("sj", "JuniorEmp"));
  // And new junior activations are denied again.
  EXPECT_FALSE(engine_.AddActiveRole("jr", "sj", "JuniorEmp").allowed);
}

TEST_F(EngineTest, TransactionSurvivesOneOfTwoManagers) {
  auto policy = PolicyParser::Parse(R"(
policy "tx2"
role Manager {}
role JuniorEmp {}
user m1 { assign: Manager }
user m2 { assign: Manager }
user jr { assign: JuniorEmp }
transaction t { controller: Manager  dependent: JuniorEmp }
)");
  ASSERT_TRUE(policy.ok());
  Load(*policy);
  ASSERT_TRUE(engine_.CreateSession("m1", "s1").allowed);
  ASSERT_TRUE(engine_.CreateSession("m2", "s2").allowed);
  ASSERT_TRUE(engine_.CreateSession("jr", "sj").allowed);
  ASSERT_TRUE(engine_.AddActiveRole("m1", "s1", "Manager").allowed);
  ASSERT_TRUE(engine_.AddActiveRole("m2", "s2", "Manager").allowed);
  ASSERT_TRUE(engine_.AddActiveRole("jr", "sj", "JuniorEmp").allowed);
  // One manager leaves; another remains: the junior stays active and the
  // window stays open.
  ASSERT_TRUE(engine_.DropActiveRole("m1", "s1", "Manager").allowed);
  EXPECT_TRUE(engine_.rbac().db().IsSessionRoleActive("sj", "JuniorEmp"));
  ASSERT_TRUE(engine_.DropActiveRole("jr", "sj", "JuniorEmp").allowed);
  EXPECT_TRUE(engine_.AddActiveRole("jr", "sj", "JuniorEmp").allowed);
}

TEST_F(EngineTest, DeleteSessionDeactivatesRolesWithCascades) {
  auto policy = PolicyParser::Parse(R"(
policy "tx3"
role Manager {}
role JuniorEmp {}
user mgr { assign: Manager }
user jr { assign: JuniorEmp }
transaction t { controller: Manager  dependent: JuniorEmp }
)");
  ASSERT_TRUE(policy.ok());
  Load(*policy);
  ASSERT_TRUE(engine_.CreateSession("mgr", "sm").allowed);
  ASSERT_TRUE(engine_.CreateSession("jr", "sj").allowed);
  ASSERT_TRUE(engine_.AddActiveRole("mgr", "sm", "Manager").allowed);
  ASSERT_TRUE(engine_.AddActiveRole("jr", "sj", "JuniorEmp").allowed);
  // Deleting the manager's session cascades to the junior.
  ASSERT_TRUE(engine_.DeleteSession("sm").allowed);
  EXPECT_FALSE(engine_.rbac().db().IsSessionRoleActive("sj", "JuniorEmp"));
}

TEST_F(EngineTest, ContextConstraintGatesActivation) {
  auto policy = PolicyParser::Parse(R"(
policy "ctx"
role WardNurse { context: location = hospital  permission: read(chart) }
user nina { assign: WardNurse }
)");
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  Load(*policy);
  ASSERT_TRUE(engine_.CreateSession("nina", "s1").allowed);
  // Context unset: activation denied.
  EXPECT_FALSE(engine_.AddActiveRole("nina", "s1", "WardNurse").allowed);
  engine_.SetContext("location", "hospital");
  EXPECT_TRUE(engine_.AddActiveRole("nina", "s1", "WardNurse").allowed);
}

TEST_F(EngineTest, ContextChangeDeactivatesActiveRole) {
  auto policy = PolicyParser::Parse(R"(
policy "ctx"
role WardNurse { context: location = hospital }
user nina { assign: WardNurse }
)");
  ASSERT_TRUE(policy.ok());
  Load(*policy);
  engine_.SetContext("location", "hospital");
  ASSERT_TRUE(engine_.CreateSession("nina", "s1").allowed);
  ASSERT_TRUE(engine_.AddActiveRole("nina", "s1", "WardNurse").allowed);
  // The paper's §1 requirement: the constraint must hold until
  // deactivation — leaving the hospital deactivates the role.
  engine_.SetContext("location", "home");
  EXPECT_FALSE(engine_.rbac().db().IsSessionRoleActive("s1", "WardNurse"));
  // Irrelevant context keys change nothing.
  engine_.SetContext("location", "hospital");
  ASSERT_TRUE(engine_.AddActiveRole("nina", "s1", "WardNurse").allowed);
  engine_.SetContext("network", "insecure");
  EXPECT_TRUE(engine_.rbac().db().IsSessionRoleActive("s1", "WardNurse"));
}

TEST_F(EngineTest, MultiKeyContextConjunction) {
  auto policy = PolicyParser::Parse(R"(
policy "ctx"
role SecureOp { context: location = office  context: network = secure }
user u { assign: SecureOp }
)");
  ASSERT_TRUE(policy.ok());
  Load(*policy);
  ASSERT_TRUE(engine_.CreateSession("u", "s1").allowed);
  engine_.SetContext("location", "office");
  EXPECT_FALSE(engine_.AddActiveRole("u", "s1", "SecureOp").allowed);
  engine_.SetContext("network", "secure");
  EXPECT_TRUE(engine_.AddActiveRole("u", "s1", "SecureOp").allowed);
  engine_.SetContext("network", "insecure");
  EXPECT_FALSE(engine_.rbac().db().IsSessionRoleActive("s1", "SecureOp"));
}

TEST_F(EngineTest, DeniedDecisionsExplainTheFailedCondition) {
  Load(testutil::EnterpriseXyzPolicy());
  ASSERT_TRUE(engine_.CreateSession("carol", "s1").allowed);
  // carol is not assigned to PC: the authorization check fails.
  Decision d = engine_.AddActiveRole("carol", "s1", "PC");
  ASSERT_FALSE(d.allowed);
  EXPECT_EQ(d.failed_condition, "checkAuthorizationPC(user) IS TRUE");
  // Unknown session: the session check fails first.
  Decision d2 = engine_.AddActiveRole("carol", "ghost", "Clerk");
  ASSERT_FALSE(d2.allowed);
  EXPECT_EQ(d2.failed_condition, "sessionId IN sessionL");
  // checkAccess without the permission: the permission scan fails.
  ASSERT_TRUE(engine_.AddActiveRole("carol", "s1", "Clerk").allowed);
  Decision d3 = engine_.CheckAccess("s1", "write", "ledger");
  ASSERT_FALSE(d3.allowed);
  EXPECT_EQ(d3.failed_condition,
            "ANY role IN getSessionRoles has checkPermissions");
  // Allowed decisions carry no explanation; default denials neither.
  Decision ok = engine_.CheckAccess("s1", "read", "ledger");
  EXPECT_TRUE(ok.allowed);
  EXPECT_TRUE(ok.failed_condition.empty());
  Decision dflt = engine_.AddActiveRole("carol", "s1", "NoSuchRole");
  EXPECT_FALSE(dflt.allowed);
  EXPECT_TRUE(dflt.failed_condition.empty());
}

TEST_F(EngineTest, DecisionStatsTracked) {
  Load(testutil::EnterpriseXyzPolicy());
  ASSERT_TRUE(engine_.CreateSession("carol", "s1").allowed);
  (void)engine_.AddActiveRole("carol", "s1", "PM");  // Denied.
  EXPECT_EQ(engine_.decisions_made(), 2u);
  EXPECT_EQ(engine_.denials(), 1u);
}

TEST_F(EngineTest, ThresholdDirectiveDisablesRoles) {
  auto policy = PolicyParser::Parse(R"(
policy "sec2"
role A { permission: read(x) }
role Critical { permission: write(vault) }
user u { assign: A, Critical }
threshold guard { count: 2  window: 60s  disable-roles: Critical }
)");
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  Load(*policy);
  ASSERT_TRUE(engine_.CreateSession("u", "s1").allowed);
  ASSERT_TRUE(engine_.AddActiveRole("u", "s1", "Critical").allowed);
  // Two denials trip the alert; the Critical role is disabled and its
  // active instance deactivated (the paper's §3 alert action).
  EXPECT_FALSE(engine_.CheckAccess("s1", "exec", "x").allowed);
  EXPECT_FALSE(engine_.CheckAccess("s1", "exec", "x").allowed);
  EXPECT_EQ(engine_.security().alert_count(), 1);
  EXPECT_FALSE(engine_.role_state().IsEnabled("Critical"));
  EXPECT_FALSE(engine_.rbac().db().IsSessionRoleActive("s1", "Critical"));
  EXPECT_FALSE(engine_.AddActiveRole("u", "s1", "Critical").allowed);
  // An administrator re-enables it after investigating.
  EXPECT_TRUE(engine_.EnableRole("Critical").allowed);
  EXPECT_TRUE(engine_.AddActiveRole("u", "s1", "Critical").allowed);
}

TEST_F(EngineTest, DecisionLogRecordsRecentDecisions) {
  Load(testutil::EnterpriseXyzPolicy());
  ASSERT_TRUE(engine_.CreateSession("alice", "s1").allowed);
  (void)engine_.AddActiveRole("alice", "s1", "PM");
  (void)engine_.AddActiveRole("carol", "s1", "PM");  // Denied.
  const auto& log = engine_.decision_log();
  const SymbolTable& symbols = engine_.symbols();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(symbols.NameOf(log[0].event), "rbac.createSession");
  EXPECT_TRUE(log[0].allowed);
  EXPECT_EQ(symbols.NameOf(log[1].event), "rbac.addActiveRole");
  EXPECT_TRUE(log[1].allowed);
  EXPECT_FALSE(log[2].allowed);
  EXPECT_EQ(symbols.NameOf(log[2].reason), "Access Denied Cannot Activate");
}

TEST_F(EngineTest, DecisionLogCapacityBounds) {
  Load(testutil::EnterpriseXyzPolicy());
  engine_.set_decision_log_capacity(3);
  ASSERT_TRUE(engine_.CreateSession("alice", "s1").allowed);
  for (int i = 0; i < 10; ++i) {
    (void)engine_.CheckAccess("s1", "read", "ledger");
  }
  EXPECT_EQ(engine_.decision_log().size(), 3u);
  engine_.set_decision_log_capacity(0);
  EXPECT_TRUE(engine_.decision_log().empty());
  (void)engine_.CheckAccess("s1", "read", "ledger");
  EXPECT_TRUE(engine_.decision_log().empty());
}

TEST_F(EngineTest, RulePoolClassification) {
  Load(testutil::EnterpriseXyzPolicy());
  const RuleManager& rules = engine_.rule_manager();
  EXPECT_GT(rules.CountByClass(RuleClass::kAdministrative), 0);
  EXPECT_GT(rules.CountByClass(RuleClass::kActivityControl), 0);
  // XYZ has no active-security directives.
  EXPECT_EQ(rules.CountByClass(RuleClass::kActiveSecurity), 0);
  // One AAR per role.
  for (const char* role : {"PM", "PC", "AM", "AC", "Clerk"}) {
    EXPECT_TRUE(rules.Find(std::string("AAR.") + role).ok()) << role;
  }
}

// The RBAC state is ordered by symbol id internally; every loop that raises
// drop events still visits sessions and roles in name order. Interning
// "Zeta" before the policy loads, and creating s-z before s-a, puts each
// symbol order against its name order.
TEST_F(EngineTest, SessionRoleDropsRaiseInNameOrder) {
  engine_.symbols().Intern("Zeta");
  Policy policy("name-order");
  RoleSpec alpha;
  alpha.name = "Alpha";
  RoleSpec zeta;
  zeta.name = "Zeta";
  zeta.juniors = {"Alpha"};
  UserSpec user;
  user.name = "u";
  user.assignments = {"Zeta"};
  ASSERT_TRUE(policy.AddRole(alpha).ok());
  ASSERT_TRUE(policy.AddRole(zeta).ok());
  ASSERT_TRUE(policy.AddUser(user).ok());
  Load(policy);
  ASSERT_LT(engine_.symbols().Find("Zeta").id(),
            engine_.symbols().Find("Alpha").id());

  std::vector<std::string> drops;  // "session/role", in raise order.
  engine_.detector().Subscribe(
      engine_.events().session_role_dropped, [&](const Occurrence& occ) {
        const SymbolTable& symbols = engine_.symbols();
        drops.push_back(
            symbols.NameOf(occ.params.Get(engine_.keys().session).AsSymbol()) +
            "/" +
            symbols.NameOf(occ.params.Get(engine_.keys().role).AsSymbol()));
      });
  const auto activate = [&](const std::string& session) {
    for (const char* role : {"Zeta", "Alpha"}) {
      if (!engine_.rbac().db().IsSessionRoleActive(session, role)) {
        ASSERT_TRUE(engine_.AddActiveRole("u", session, role).allowed);
      }
    }
  };
  for (const char* session : {"s-z", "s-a"}) {
    ASSERT_TRUE(engine_.CreateSession("u", session).allowed);
    activate(session);
  }

  ASSERT_TRUE(engine_.DeleteSession("s-z").allowed);
  EXPECT_EQ(drops, (std::vector<std::string>{"s-z/Alpha", "s-z/Zeta"}));
  ASSERT_TRUE(engine_.CreateSession("u", "s-z").allowed);
  activate("s-z");

  drops.clear();
  ASSERT_TRUE(engine_.DisableRole("Zeta").allowed);  // All instances drop.
  EXPECT_EQ(drops, (std::vector<std::string>{"s-a/Zeta", "s-z/Zeta"}));
  ASSERT_TRUE(engine_.EnableRole("Zeta").allowed);
  activate("s-z");
  activate("s-a");

  drops.clear();
  ASSERT_TRUE(engine_.DeassignUser("u", "Zeta").allowed);
  EXPECT_EQ(drops, (std::vector<std::string>{"s-a/Alpha", "s-a/Zeta",
                                             "s-z/Alpha", "s-z/Zeta"}));
}

}  // namespace
}  // namespace sentinel
