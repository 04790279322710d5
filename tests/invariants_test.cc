#include <gtest/gtest.h>

#include "core/engine.h"
#include "tests/test_util.h"
#include "workload/policy_gen.h"
#include "workload/request_gen.h"

namespace sentinel {
namespace {

/// Safety-property sweep: run random workloads through the engine alone
/// and assert, after every single request, that the security invariants
/// the generated rules are supposed to maintain actually hold on the RBAC
/// state. Unlike the differential test (which could in principle agree
/// with the baseline on a shared bug), these checks are derived straight
/// from the NIST/GTRBAC definitions.
class InvariantsTest : public ::testing::TestWithParam<uint64_t> {};

void CheckInvariants(const AuthorizationEngine& engine, size_t step) {
  const Policy& policy = engine.policy();
  const RbacSystem& rbac = engine.rbac();

  // I1 — every active role is authorized for the session's user, enabled,
  // and has its context constraints satisfied.
  for (const SessionId& session : rbac.db().SessionIds()) {
    auto info = rbac.db().GetSession(session);
    ASSERT_TRUE(info.ok());
    for (const RoleName& role : info->active_roles) {
      ASSERT_TRUE(rbac.IsAuthorized(info->user, role))
          << "step " << step << ": " << info->user
          << " active in unauthorized role " << role;
      ASSERT_TRUE(engine.role_state().IsEnabled(role))
          << "step " << step << ": disabled role " << role << " active";
      auto spec = policy.roles().find(role);
      if (spec != policy.roles().end()) {
        ASSERT_TRUE(engine.ContextSatisfied(spec->second.required_context))
            << "step " << step << ": context-broken role " << role
            << " still active";
      }
    }
    // I2 — every session's active set satisfies every DSD relation.
    ASSERT_TRUE(rbac.dsd().Satisfies(info->active_roles))
        << "step " << step << ": DSD violated in session " << session;
  }

  // I3 — every user's authorized role set satisfies every SSD relation.
  for (const UserName& user : rbac.db().users()) {
    ASSERT_TRUE(rbac.ssd().Satisfies(rbac.AuthorizedRoles(user)))
        << "step " << step << ": SSD violated for " << user;
  }

  // I4 — cardinality bounds hold.
  for (const auto& [name, spec] : policy.roles()) {
    if (spec.activation_cardinality > 0) {
      ASSERT_LE(rbac.db().ActiveSessionCount(name),
                spec.activation_cardinality)
          << "step " << step << ": cardinality exceeded on " << name;
    }
  }

  // I5 — per-user active-role caps hold.
  for (const auto& [name, spec] : policy.users()) {
    if (spec.max_active_roles > 0) {
      ASSERT_LE(engine.CountUserActiveRoles(name), spec.max_active_roles)
          << "step " << step << ": user cap exceeded for " << name;
    }
  }

  // I6 — GTRBAC: a role with an enabling window is enabled exactly when
  // the window contains the current instant.
  for (const auto& [name, spec] : policy.roles()) {
    if (spec.enabling_window.has_value()) {
      ASSERT_EQ(engine.role_state().IsEnabled(name),
                spec.enabling_window->Contains(engine.Now()))
          << "step " << step << ": enablement out of sync for " << name;
    }
  }
}

TEST_P(InvariantsTest, HoldAfterEveryRequest) {
  PolicyGenParams policy_params;
  policy_params.seed = GetParam();
  policy_params.num_roles = 25;
  policy_params.num_users = 40;
  policy_params.hierarchy_prob = 0.6;
  policy_params.ssd_sets = 3;
  policy_params.dsd_sets = 3;
  policy_params.cardinality_frac = 0.3;
  policy_params.duration_frac = 0.2;
  policy_params.shift_frac = 0.2;
  policy_params.user_cap_frac = 0.2;
  policy_params.context_frac = 0.2;
  const Policy policy = GeneratePolicy(policy_params);

  RequestGenParams request_params;
  request_params.seed = GetParam() * 31 + 7;
  request_params.num_requests = 500;
  request_params.max_advance = 4 * kHour + 1;
  // Manual enable/disable legitimately overrides a shift window until the
  // next boundary; exclude those kinds so invariant I6 (enablement ==
  // window membership) is exact. Their interplay is covered by the
  // differential and engine_temporal tests.
  request_params.mix.enable_role = 0;
  request_params.mix.disable_role = 0;
  const std::vector<Request> requests =
      RequestGenerator(policy, request_params).Generate();

  SimulatedClock clock(testutil::Noon());
  AuthorizationEngine engine(&clock);
  ASSERT_TRUE(engine.LoadPolicy(policy).ok());
  CheckInvariants(engine, 0);

  for (size_t i = 0; i < requests.size(); ++i) {
    const Decision decision = ApplyRequest(engine, requests[i]);
    // I7 — fail-safe: requests naming unknown principals never succeed.
    if (requests[i].user == "ghost-user" &&
        (requests[i].kind == RequestKind::kCreateSession ||
         requests[i].kind == RequestKind::kAssignUser ||
         requests[i].kind == RequestKind::kDeassignUser)) {
      ASSERT_FALSE(decision.allowed) << "ghost user allowed at " << i;
    }
    if (requests[i].role == "ghost-role" &&
        (requests[i].kind == RequestKind::kAddActiveRole ||
         requests[i].kind == RequestKind::kAssignUser ||
         requests[i].kind == RequestKind::kEnableRole)) {
      ASSERT_FALSE(decision.allowed) << "ghost role allowed at " << i;
    }
    CheckInvariants(engine, i + 1);
  }
  // No rule firings were silently dropped along the way.
  EXPECT_EQ(engine.rule_manager().dropped_firings(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvariantsTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace sentinel
