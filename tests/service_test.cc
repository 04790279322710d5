// AuthorizationService: routing determinism, admin broadcast visibility,
// shutdown drain, batch parity, and a multi-threaded stress test asserting
// per-user decision sequences match the single-shard engine on the same
// request trace.

#include "service/authorization_service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/sentinelpp.h"
#include "core/decision_log.h"
#include "service/mailbox.h"
#include "tests/test_util.h"
#include "workload/policy_gen.h"

namespace sentinel {
namespace {

ServiceConfig ShardedConfig(int shards) {
  ServiceConfig config;
  config.num_shards = shards;
  config.start_time = testutil::Noon();
  return config;
}

ServiceConfig SyncConfig() {
  ServiceConfig config;
  config.synchronous = true;
  config.start_time = testutil::Noon();
  return config;
}

// ------------------------------------------------------------ Facade basics

TEST(ServiceTest, SynchronousModeMatchesEngineSemantics) {
  AuthorizationService service(SyncConfig());
  ASSERT_TRUE(service.LoadPolicy(testutil::EnterpriseXyzPolicy()).ok());
  EXPECT_EQ(service.num_shards(), 1);
  EXPECT_TRUE(service.synchronous());

  EXPECT_TRUE(service.CreateSession("alice", "s1").ok());
  EXPECT_TRUE(service.AddActiveRole("alice", "s1", "PM").ok());

  AccessRequest ok_request{"alice", "s1", "read", "ledger", ""};
  AccessDecision allowed = service.CheckAccess(ok_request);
  EXPECT_TRUE(allowed.allowed);
  EXPECT_FALSE(allowed.rule.empty());
  EXPECT_EQ(allowed.shard, 0u);

  AccessRequest bad_request{"alice", "s1", "erase", "ledger", ""};
  AccessDecision denied = service.CheckAccess(bad_request);
  EXPECT_FALSE(denied.allowed);
  EXPECT_EQ(denied.reason, "Permission Denied");

  // Legacy session-keyed check (no user): resolved via the registry.
  AccessRequest by_session{"", "s1", "read", "ledger", ""};
  EXPECT_TRUE(service.CheckAccess(by_session).allowed);
}

TEST(ServiceTest, UnknownSessionDeniedOnEveryTopology) {
  for (int shards : {1, 4}) {
    AuthorizationService service(ShardedConfig(shards));
    ASSERT_TRUE(service.LoadPolicy(testutil::EnterpriseXyzPolicy()).ok());
    AccessRequest request{"", "ghost-session", "read", "ledger", ""};
    AccessDecision decision = service.CheckAccess(request);
    EXPECT_FALSE(decision.allowed);
    EXPECT_EQ(decision.reason, "Permission Denied");
  }
}

// -------------------------------------------------------------- Routing

TEST(ServiceTest, RoutingIsDeterministicAcrossInstances) {
  AuthorizationService a(ShardedConfig(4));
  AuthorizationService b(ShardedConfig(4));
  for (int i = 0; i < 64; ++i) {
    const std::string user = SyntheticUserName(i);
    EXPECT_EQ(a.ShardOf(user), b.ShardOf(user)) << user;
    EXPECT_LT(a.ShardOf(user), 4u);
  }
}

TEST(ServiceTest, SessionsLiveOnTheUsersHomeShard) {
  AuthorizationService service(ShardedConfig(4));
  ASSERT_TRUE(service.LoadPolicy(testutil::EnterpriseXyzPolicy()).ok());
  ASSERT_TRUE(service.CreateSession("alice", "s-alice").ok());
  ASSERT_TRUE(service.CreateSession("bob", "s-bob").ok());

  const uint32_t alice_home = service.ShardOf("alice");
  for (int shard = 0; shard < service.num_shards(); ++shard) {
    service.Inspect(static_cast<uint32_t>(shard),
                    [&](const AuthorizationEngine& engine) {
                      const bool has =
                          engine.rbac().db().GetSession("s-alice").ok();
                      EXPECT_EQ(has,
                                static_cast<uint32_t>(shard) == alice_home);
                    });
  }
  // The decision reports the shard that made it.
  (void)service.AddActiveRole("alice", "s-alice", "PM");
  AccessRequest request{"alice", "s-alice", "read", "ledger", ""};
  EXPECT_EQ(service.CheckAccess(request).shard, alice_home);
}

// ------------------------------------------------- Admin broadcast + epoch

TEST(ServiceTest, AdminBroadcastVisibleOnAllShardsAfterBarrier) {
  AuthorizationService service(ShardedConfig(4));
  Policy policy = testutil::EnterpriseXyzPolicy();
  ASSERT_TRUE(service.LoadPolicy(policy).ok());
  const uint64_t epoch_after_load = service.admin_epoch();
  EXPECT_GE(epoch_after_load, 1u);

  ASSERT_TRUE(service.CreateSession("carol", "s-carol").ok());
  // carol is only a Clerk: activating PC is denied pre-update.
  EXPECT_FALSE(service.AddActiveRole("carol", "s-carol", "PC").ok());

  Policy updated = policy;
  auto carol = updated.MutableUser("carol");
  ASSERT_TRUE(carol.ok());
  (*carol)->assignments.insert("PC");
  auto report = service.ApplyPolicyUpdate(updated);
  ASSERT_TRUE(report.ok()) << report.status();
  // Incremental updates commit through the pauseless swap path: no epoch
  // barrier, so admin_epoch() deliberately does not move — invalidation
  // flows through the rule-pool generation in the verdict stamps instead.
  EXPECT_EQ(service.admin_epoch(), epoch_after_load);
  EXPECT_EQ(service.Stats().policy_swaps, 1u);

  // Post-barrier, the new assignment is visible wherever it is queried.
  EXPECT_TRUE(service.AddActiveRole("carol", "s-carol", "PC").ok());
  for (int shard = 0; shard < service.num_shards(); ++shard) {
    service.Inspect(static_cast<uint32_t>(shard),
                    [&](const AuthorizationEngine& engine) {
                      EXPECT_TRUE(
                          engine.rbac().db().IsAssigned("carol", "PC"));
                    });
  }
  // Decisions taken after the broadcast carry its epoch (or later).
  AccessRequest request{"carol", "s-carol", "read", "ledger", ""};
  EXPECT_GE(service.CheckAccess(request).epoch, service.admin_epoch());
}

TEST(ServiceTest, RoleDisableBroadcastDeactivatesEverywhere) {
  AuthorizationService service(ShardedConfig(4));
  ASSERT_TRUE(service.LoadPolicy(testutil::EnterpriseXyzPolicy()).ok());
  ASSERT_TRUE(service.CreateSession("alice", "sa").ok());
  ASSERT_TRUE(service.CreateSession("carol", "sc").ok());
  ASSERT_TRUE(service.AddActiveRole("alice", "sa", "PM").ok());
  ASSERT_TRUE(service.AddActiveRole("carol", "sc", "Clerk").ok());

  EXPECT_TRUE(service.DisableRole("Clerk").ok());
  for (int shard = 0; shard < service.num_shards(); ++shard) {
    service.Inspect(static_cast<uint32_t>(shard),
                    [&](const AuthorizationEngine& engine) {
                      EXPECT_FALSE(engine.role_state().IsEnabled("Clerk"));
                    });
  }
  // carol's active Clerk instance was force-deactivated on her home shard.
  EXPECT_FALSE(
      service.CheckAccess({"carol", "sc", "read", "ledger", ""}).allowed);
}

TEST(ServiceTest, TimeAdvanceFansOutToEveryShard) {
  AuthorizationService service(ShardedConfig(3));
  ASSERT_TRUE(service.LoadPolicy(testutil::HospitalPolicy()).ok());
  for (int shard = 0; shard < service.num_shards(); ++shard) {
    service.Inspect(static_cast<uint32_t>(shard),
                    [&](const AuthorizationEngine& engine) {
                      EXPECT_TRUE(engine.role_state().IsEnabled("DayDoctor"));
                    });
  }
  // Advance past the 16:00 shift end; the generated temporal rules must
  // fire on every shard.
  service.AdvanceTo(MakeTime(2026, 7, 6, 16, 30, 0));
  EXPECT_EQ(service.Now(), MakeTime(2026, 7, 6, 16, 30, 0));
  for (int shard = 0; shard < service.num_shards(); ++shard) {
    service.Inspect(static_cast<uint32_t>(shard),
                    [&](const AuthorizationEngine& engine) {
                      EXPECT_FALSE(
                          engine.role_state().IsEnabled("DayDoctor"));
                      EXPECT_EQ(engine.Now(),
                                MakeTime(2026, 7, 6, 16, 30, 0));
                    });
  }
}

// ------------------------------------------------------------------ Batch

TEST(ServiceTest, BatchMatchesSingleCallDecisions) {
  AuthorizationService sharded(ShardedConfig(4));
  AuthorizationService sync(SyncConfig());
  for (AuthorizationService* service : {&sharded, &sync}) {
    ASSERT_TRUE(service->LoadPolicy(testutil::EnterpriseXyzPolicy()).ok());
    ASSERT_TRUE(service->CreateSession("alice", "s1").ok());
    ASSERT_TRUE(service->AddActiveRole("alice", "s1", "PM").ok());
    ASSERT_TRUE(service->CreateSession("bob", "s2").ok());
    ASSERT_TRUE(service->AddActiveRole("bob", "s2", "AC").ok());
  }
  std::vector<AccessRequest> requests = {
      {"alice", "s1", "read", "ledger", ""},
      {"bob", "s2", "write", "approval", ""},
      {"alice", "s1", "write", "approval", ""},  // Not alice's permission.
      {"bob", "s2", "approve", "budget-request", ""},
      {"alice", "s1", "approve", "budget-request", ""},
  };
  const std::vector<AccessDecision> concurrent =
      sharded.CheckAccessBatch(requests);
  const std::vector<AccessDecision> reference =
      sync.CheckAccessBatch(requests);
  ASSERT_EQ(concurrent.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(concurrent[i].allowed, reference[i].allowed) << i;
    EXPECT_EQ(concurrent[i].rule, reference[i].rule) << i;
    EXPECT_EQ(concurrent[i].reason, reference[i].reason) << i;
  }
}

// --------------------------------------------------------------- Shutdown
// (The mailbox-level drain-not-drop contract is pinned in mailbox_test.cc.)

TEST(ServiceTest, ShutdownDrainsQueuedWorkAndRefusesNewWork) {
  AuthorizationService service(ShardedConfig(2));
  ASSERT_TRUE(service.LoadPolicy(testutil::EnterpriseXyzPolicy()).ok());
  ASSERT_TRUE(service.CreateSession("alice", "s1").ok());
  ASSERT_TRUE(service.AddActiveRole("alice", "s1", "PM").ok());

  std::vector<AccessRequest> requests(
      5000, AccessRequest{"alice", "s1", "read", "ledger", ""});
  std::vector<AccessDecision> decisions;
  std::thread submitter(
      [&] { decisions = service.CheckAccessBatch(requests); });
  // Let the batch hit the mailboxes, then shut down: queued envelopes must
  // still be decided for real — mailboxes drain, they don't drop.
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  service.Shutdown();
  submitter.join();

  // If the submitter enqueued before Shutdown closed the mailboxes, every
  // decision is a real engine verdict; if Shutdown won the race (slow
  // schedulers, sanitizer builds) the batch is refused explicitly. Either
  // way the call completes — no hang, no torn batch, no silent drop.
  ASSERT_EQ(decisions.size(), requests.size());
  for (const AccessDecision& decision : decisions) {
    if (decision.allowed) {
      EXPECT_NE(decision.rule, "");
    } else {
      EXPECT_EQ(decision.reason, "service is shut down");
    }
  }
  // The whole batch targets one user, so one shard: the envelope is pushed
  // atomically and decided as a unit — mixed verdicts would mean a torn
  // batch.
  EXPECT_TRUE(std::all_of(decisions.begin(), decisions.end(),
                          [](const AccessDecision& d) { return d.allowed; }) ||
              std::none_of(decisions.begin(), decisions.end(),
                           [](const AccessDecision& d) { return d.allowed; }));

  // Post-shutdown submissions get the shutdown decision, not a hang.
  AccessDecision after =
      service.CheckAccess({"alice", "s1", "read", "ledger", ""});
  EXPECT_FALSE(after.allowed);
  EXPECT_EQ(after.reason, "service is shut down");
  EXPECT_EQ(after.outcome, AccessOutcome::kShutdown);
  EXPECT_TRUE(ToStatus(after).IsFailedPrecondition());
  EXPECT_FALSE(service.CreateSession("bob", "s2").ok());
  service.Shutdown();  // Idempotent.
}

/// After Shutdown() every entry point refuses, whatever the mode: checks
/// answer kShutdown, mutators and policy/time calls FailedPrecondition —
/// none of them reaches an engine or reports a policy verdict.
void ExpectEveryCallRefusedAfterShutdown(const ServiceConfig& config) {
  AuthorizationService service(config);
  ASSERT_TRUE(service.LoadPolicy(testutil::EnterpriseXyzPolicy()).ok());
  ASSERT_TRUE(service.CreateSession("alice", "s1").ok());
  ASSERT_TRUE(service.AddActiveRole("alice", "s1", "PM").ok());
  const AccessRequest check{"alice", "s1", "read", "ledger", ""};
  ASSERT_TRUE(service.CheckAccess(check).allowed);
  const uint64_t decided = service.Stats().decisions;
  service.Shutdown();

  const AccessDecision single = service.CheckAccess(check);
  EXPECT_EQ(single.outcome, AccessOutcome::kShutdown);
  EXPECT_FALSE(single.allowed);
  const std::vector<AccessRequest> batch = {
      check, {"bob", "s2", "read", "ledger", ""}, {"", "s1", "x", "y", ""}};
  for (const AccessDecision& item : service.CheckAccessBatch(batch)) {
    EXPECT_EQ(item.outcome, AccessOutcome::kShutdown);
    EXPECT_FALSE(item.allowed);
  }
  const AdminResult created = service.CreateSession("bob", "s2");
  EXPECT_TRUE(created.status.IsFailedPrecondition()) << created.status;
  EXPECT_EQ(created.outcome, AccessOutcome::kShutdown);
  const AdminResult assigned = service.AssignUser("bob", "PM");
  EXPECT_TRUE(assigned.status.IsFailedPrecondition()) << assigned.status;
  EXPECT_EQ(assigned.outcome, AccessOutcome::kShutdown);
  const Status loaded = service.LoadPolicy(testutil::EnterpriseXyzPolicy());
  EXPECT_TRUE(loaded.IsFailedPrecondition()) << loaded;
  const Time now = service.Now();
  const Status advanced = service.AdvanceBy(kMinute);
  EXPECT_TRUE(advanced.IsFailedPrecondition()) << advanced;
  EXPECT_EQ(service.Now(), now);
  // Nothing reached an engine after Shutdown().
  EXPECT_EQ(service.Stats().decisions, decided);
}

TEST(ServiceTest, ShutdownRefusesEveryCallSynchronous) {
  ExpectEveryCallRefusedAfterShutdown(SyncConfig());
}

TEST(ServiceTest, ShutdownRefusesEveryCallSharded) {
  ExpectEveryCallRefusedAfterShutdown(ShardedConfig(2));
}

TEST(ServiceTest, AdvanceAfterShutdownIsARefusalNotASilentNoop) {
  // Concurrent mode: after Shutdown no shard can take the advance, so the
  // call must say it did not happen instead of returning as if it had.
  AuthorizationService service(ShardedConfig(2));
  ASSERT_TRUE(service.LoadPolicy(testutil::EnterpriseXyzPolicy()).ok());
  const Time target = testutil::Noon() + kHour;
  ASSERT_TRUE(service.AdvanceTo(target).ok());
  EXPECT_EQ(service.Now(), target);
  service.Shutdown();
  const Status refused = service.AdvanceTo(target + kHour);
  EXPECT_TRUE(refused.IsFailedPrecondition()) << refused;
  EXPECT_EQ(service.Now(), target);  // Time did not move.

  // Synchronous mode runs the advance inline; same contract.
  AuthorizationService sync(SyncConfig());
  ASSERT_TRUE(sync.LoadPolicy(testutil::EnterpriseXyzPolicy()).ok());
  ASSERT_TRUE(sync.AdvanceBy(kMinute).ok());
  sync.Shutdown();
  EXPECT_TRUE(sync.AdvanceBy(kMinute).IsFailedPrecondition());
}

TEST(ServiceTest, AdvanceRacingShutdownNeverFabricatesTime) {
  // An AdvanceTo caller racing Shutdown: every call either advanced time
  // for real (OK) or reported the refusal — Now() reflects exactly the
  // successful advances.
  AuthorizationService service(ShardedConfig(2));
  ASSERT_TRUE(service.LoadPolicy(testutil::EnterpriseXyzPolicy()).ok());
  const Time base = testutil::Noon();
  Time last_success = service.Now();
  std::thread advancer([&] {
    for (int i = 1; i <= 200; ++i) {
      const Time target = base + i * kMinute;
      const Status status = service.AdvanceTo(target);
      if (status.ok()) {
        last_success = target;
      } else {
        EXPECT_TRUE(status.IsFailedPrecondition()) << status;
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  service.Shutdown();
  advancer.join();
  EXPECT_EQ(service.Now(), last_success);
}

// ---------------------------------------------------- Overload protection

/// One-shot gate for deterministic shard stalls: the injected fault parks
/// the shard thread on Wait() until the test calls Open(). Signaled() lets
/// the test wait until the stall is actually in effect (the fault envelope
/// has been dequeued), so mailbox depths observed afterwards are stable.
class Gate {
 public:
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }
  void Signal() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      signaled_ = true;
    }
    cv_.notify_all();
  }
  void AwaitSignal() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return signaled_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
  bool signaled_ = false;
};

/// Parks `shard` until gate.Open(); returns once the stall is in effect.
void StallShard(AuthorizationService& service, uint32_t shard, Gate& gate) {
  ASSERT_TRUE(service.InjectShardFault(shard, [&gate] {
    gate.Signal();
    gate.Wait();
  }));
  gate.AwaitSignal();
}

ServiceConfig OverloadConfig(size_t capacity, OverloadPolicy policy,
                             Duration default_deadline = 0) {
  ServiceConfig config = ShardedConfig(1);
  config.mailbox_capacity = capacity;
  config.overload_policy = policy;
  config.default_deadline = default_deadline;
  return config;
}

TEST(ServiceOverloadTest, ConfigValidationRejectsIncoherentKnobs) {
  ServiceConfig shed_unbounded;
  shed_unbounded.overload_policy = OverloadPolicy::kShed;
  EXPECT_TRUE(AuthorizationService::ValidateConfig(shed_unbounded)
                  .IsInvalidArgument());
  EXPECT_FALSE(AuthorizationService::Create(shed_unbounded).ok());

  ServiceConfig negative_deadline;
  negative_deadline.default_deadline = -5;
  EXPECT_TRUE(AuthorizationService::ValidateConfig(negative_deadline)
                  .IsInvalidArgument());

  ServiceConfig valid;
  valid.mailbox_capacity = 16;
  valid.overload_policy = OverloadPolicy::kShed;
  valid.default_deadline = 50 * kMillisecond;
  EXPECT_TRUE(AuthorizationService::ValidateConfig(valid).ok());
}

TEST(ServiceOverloadTest, ShedAtFullMailboxIsExplicitAndCounted) {
  AuthorizationService service(
      OverloadConfig(/*capacity=*/1, OverloadPolicy::kShed));
  ASSERT_TRUE(service.LoadPolicy(testutil::EnterpriseXyzPolicy()).ok());
  ASSERT_TRUE(service.CreateSession("alice", "s1").ok());
  ASSERT_TRUE(service.AddActiveRole("alice", "s1", "PM").ok());

  Gate gate;
  StallShard(service, 0, gate);
  // One request is admitted into the single mailbox slot (its submitter
  // blocks for the verdict)...
  std::thread admitted_submitter([&] {
    const AccessDecision decision =
        service.CheckAccess({"alice", "s1", "read", "ledger", ""});
    EXPECT_EQ(decision.outcome, AccessOutcome::kDecided);
    EXPECT_TRUE(decision.allowed);
  });
  while (service.MailboxDepth(0) < 1) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  // ...and the next is shed instantly: an explicit overload verdict, not a
  // policy deny and not a wait.
  const AccessDecision shed =
      service.CheckAccess({"alice", "s1", "read", "ledger", ""});
  EXPECT_EQ(shed.outcome, AccessOutcome::kOverloaded);
  EXPECT_FALSE(shed.allowed);
  EXPECT_EQ(shed.reason, "overloaded: shed");
  EXPECT_NE(shed.reason, "Permission Denied");
  EXPECT_TRUE(ToStatus(shed).IsResourceExhausted());

  gate.Open();
  admitted_submitter.join();
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.expired, 0u);
  // The shed never reached an engine: decisions count only real verdicts.
  EXPECT_EQ(stats.decisions, 3u);  // create + activate + admitted check.

  // The overload series surface in the merged scrape and the admin report.
  const std::string text = service.RenderMetrics();
  EXPECT_NE(text.find("sentinelpp_mailbox_shed_total 1"), std::string::npos);
  EXPECT_NE(text.find("sentinelpp_mailbox_queue_wait_us"), std::string::npos);
  service.Inspect(0, [](const AuthorizationEngine& engine) {
    const std::string report = GenerateAdminReport(engine);
    EXPECT_NE(report.find("overload: shed 1  expired 0"), std::string::npos);
  });
}

TEST(ServiceOverloadTest, BlockPolicyWaitsForSpaceInsteadOfShedding) {
  AuthorizationService service(
      OverloadConfig(/*capacity=*/1, OverloadPolicy::kBlock));
  ASSERT_TRUE(service.LoadPolicy(testutil::EnterpriseXyzPolicy()).ok());
  ASSERT_TRUE(service.CreateSession("alice", "s1").ok());
  ASSERT_TRUE(service.AddActiveRole("alice", "s1", "PM").ok());

  Gate gate;
  StallShard(service, 0, gate);
  std::atomic<int> decided{0};
  std::vector<std::thread> submitters;
  for (int i = 0; i < 3; ++i) {
    submitters.emplace_back([&] {
      const AccessDecision decision =
          service.CheckAccess({"alice", "s1", "read", "ledger", ""});
      EXPECT_EQ(decision.outcome, AccessOutcome::kDecided);
      EXPECT_TRUE(decision.allowed);
      decided.fetch_add(1);
    });
  }
  // All three are either queued (one slot) or blocked for space; none is
  // answered while the shard is stalled.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(decided.load(), 0);
  EXPECT_LE(service.MailboxDepth(0), 1u);

  gate.Open();
  for (std::thread& thread : submitters) thread.join();
  EXPECT_EQ(decided.load(), 3);
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.expired, 0u);
  // Backpressure never let the queue exceed its bound (the stall fault is
  // the one exempt envelope on top).
  EXPECT_LE(service.MailboxPeakDepth(0), 1u + 1u);
}

TEST(ServiceOverloadTest, DeadlineExpiryInQueueIsOverloadNotPolicyDeny) {
  AuthorizationService service(OverloadConfig(
      /*capacity=*/0, OverloadPolicy::kBlock, /*default_deadline=*/0));
  ASSERT_TRUE(service.LoadPolicy(testutil::EnterpriseXyzPolicy()).ok());
  ASSERT_TRUE(service.CreateSession("alice", "s1").ok());
  ASSERT_TRUE(service.AddActiveRole("alice", "s1", "PM").ok());

  Gate gate;
  StallShard(service, 0, gate);
  AccessRequest dated{"alice", "s1", "read", "ledger", ""};
  dated.deadline = 2 * kMillisecond;  // Wall-clock budget.
  AccessDecision expired;
  std::thread submitter(
      [&] { expired = service.CheckAccess(dated); });
  // Hold the shard well past the request's budget, then let it drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.Open();
  submitter.join();

  EXPECT_EQ(expired.outcome, AccessOutcome::kOverloaded);
  EXPECT_EQ(expired.reason, "overloaded: deadline exceeded");
  EXPECT_TRUE(ToStatus(expired).IsResourceExhausted());
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.shed, 0u);
  // The expired request consumed no engine time.
  EXPECT_EQ(stats.decisions, 2u);  // create + activate only.

  // With the shard drained, the same request is decided normally. It goes
  // without a budget: the 2 ms under test was the stalled one above, and
  // an idle shard thread may wake late for this undisturbed round trip.
  AccessRequest undisturbed = dated;
  undisturbed.deadline = AccessRequest::kNoDeadline;
  const AccessDecision fresh = service.CheckAccess(undisturbed);
  EXPECT_EQ(fresh.outcome, AccessOutcome::kDecided);
  EXPECT_TRUE(fresh.allowed);
}

TEST(ServiceOverloadTest, DefaultDeadlineAppliesAndPerRequestOverrides) {
  // Service-wide 2ms budget; one request opts out with kNoDeadline and
  // must survive a stall that expires the defaulted one.
  AuthorizationService service(OverloadConfig(
      /*capacity=*/0, OverloadPolicy::kBlock,
      /*default_deadline=*/2 * kMillisecond));
  ASSERT_TRUE(service.LoadPolicy(testutil::EnterpriseXyzPolicy()).ok());
  // Session ops always take the service default, so an idle shard thread
  // that wakes late can expire the set-up too. kOverloaded is retryable
  // and an expired op never reached the engine: retry until decided.
  const auto decided = [](const auto& op) {
    AdminResult result = op();
    while (result.outcome == AccessOutcome::kOverloaded) result = op();
    return result;
  };
  ASSERT_TRUE(decided([&] { return service.CreateSession("alice", "s1"); })
                  .ok());
  ASSERT_TRUE(decided([&] {
                return service.AddActiveRole("alice", "s1", "PM");
              }).ok());
  const uint64_t setup_expired = service.Stats().expired;

  Gate gate;
  StallShard(service, 0, gate);
  AccessRequest defaulted{"alice", "s1", "read", "ledger", ""};
  AccessRequest patient{"alice", "s1", "read", "ledger", ""};
  patient.deadline = AccessRequest::kNoDeadline;
  AccessDecision defaulted_decision, patient_decision;
  std::thread a([&] { defaulted_decision = service.CheckAccess(defaulted); });
  std::thread b([&] { patient_decision = service.CheckAccess(patient); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.Open();
  a.join();
  b.join();

  EXPECT_EQ(defaulted_decision.outcome, AccessOutcome::kOverloaded);
  EXPECT_EQ(patient_decision.outcome, AccessOutcome::kDecided);
  EXPECT_TRUE(patient_decision.allowed);
  EXPECT_EQ(service.Stats().expired, setup_expired + 1);
}

TEST(ServiceOverloadTest, HugeDeadlineSaturatesInsteadOfWrapping) {
  // Regression: `submit_ns + deadline_us * 1000` used to overflow for huge
  // budgets — signed UB that in practice wrapped negative, turning "wait
  // practically forever" into "already expired on arrival". The arithmetic
  // now saturates to INT64_MAX at both steps.
  AuthorizationService service(OverloadConfig(
      /*capacity=*/0, OverloadPolicy::kBlock, /*default_deadline=*/0));
  ASSERT_TRUE(service.LoadPolicy(testutil::EnterpriseXyzPolicy()).ok());
  ASSERT_TRUE(service.CreateSession("alice", "s1").ok());
  ASSERT_TRUE(service.AddActiveRole("alice", "s1", "PM").ok());

  constexpr Duration kMaxBudget = std::numeric_limits<Duration>::max();
  // The saturating cases straddle the first guard (kMax/1000) exactly; the
  // largest in-range budget exercises the second (submit_ns headroom).
  for (const Duration budget :
       {kMaxBudget, kMaxBudget / 1000 + 1, kMaxBudget / 1000}) {
    AccessRequest patient{"alice", "s1", "read", "ledger", ""};
    patient.deadline = budget;
    const AccessDecision decision = service.CheckAccess(patient);
    EXPECT_EQ(decision.outcome, AccessOutcome::kDecided) << budget;
    EXPECT_TRUE(decision.allowed) << budget;
  }

  // The batch path resolves deadlines through the same helper.
  AccessRequest dated{"alice", "s1", "read", "ledger", ""};
  dated.deadline = kMaxBudget;
  const std::vector<AccessRequest> batch = {dated, dated};
  const std::vector<AccessDecision> decisions =
      service.CheckAccessBatch(batch);
  for (const AccessDecision& decision : decisions) {
    EXPECT_EQ(decision.outcome, AccessOutcome::kDecided);
  }
  EXPECT_EQ(service.Stats().expired, 0u);
}

TEST(ServiceOverloadTest, BatchReportsPerItemOutcomes) {
  AuthorizationService service(OverloadConfig(
      /*capacity=*/0, OverloadPolicy::kBlock, /*default_deadline=*/0));
  ASSERT_TRUE(service.LoadPolicy(testutil::EnterpriseXyzPolicy()).ok());
  ASSERT_TRUE(service.CreateSession("alice", "s1").ok());
  ASSERT_TRUE(service.AddActiveRole("alice", "s1", "PM").ok());

  Gate gate;
  StallShard(service, 0, gate);
  // One envelope (single user -> single shard), three fates: a patient
  // item decides, a dated item expires, and the dated deny shows that
  // overload outcomes are disjoint from policy denials.
  std::vector<AccessRequest> requests = {
      {"alice", "s1", "read", "ledger", "", AccessRequest::kNoDeadline},
      {"alice", "s1", "read", "ledger", "", 2 * kMillisecond},
      {"alice", "s1", "erase", "ledger", "", AccessRequest::kNoDeadline},
  };
  std::vector<AccessDecision> decisions;
  std::thread submitter(
      [&] { decisions = service.CheckAccessBatch(requests); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.Open();
  submitter.join();

  ASSERT_EQ(decisions.size(), 3u);
  EXPECT_EQ(decisions[0].outcome, AccessOutcome::kDecided);
  EXPECT_TRUE(decisions[0].allowed);
  EXPECT_EQ(decisions[1].outcome, AccessOutcome::kOverloaded);
  EXPECT_EQ(decisions[1].reason, "overloaded: deadline exceeded");
  EXPECT_EQ(decisions[2].outcome, AccessOutcome::kDecided);
  EXPECT_FALSE(decisions[2].allowed);
  EXPECT_EQ(decisions[2].reason, "Permission Denied");
  EXPECT_EQ(service.Stats().expired, 1u);
}

TEST(ServiceOverloadTest, BatchShedsWholeEnvelopePerItem) {
  AuthorizationService service(
      OverloadConfig(/*capacity=*/1, OverloadPolicy::kShed));
  ASSERT_TRUE(service.LoadPolicy(testutil::EnterpriseXyzPolicy()).ok());
  ASSERT_TRUE(service.CreateSession("alice", "s1").ok());
  ASSERT_TRUE(service.AddActiveRole("alice", "s1", "PM").ok());

  Gate gate;
  StallShard(service, 0, gate);
  std::thread admitted_submitter([&] {
    (void)service.CheckAccess({"alice", "s1", "read", "ledger", ""});
  });
  while (service.MailboxDepth(0) < 1) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  const std::vector<AccessRequest> requests(
      4, AccessRequest{"alice", "s1", "read", "ledger", ""});
  const std::vector<AccessDecision> decisions =
      service.CheckAccessBatch(requests);
  ASSERT_EQ(decisions.size(), 4u);
  for (const AccessDecision& decision : decisions) {
    EXPECT_EQ(decision.outcome, AccessOutcome::kOverloaded);
    EXPECT_EQ(decision.reason, "overloaded: shed");
  }
  gate.Open();
  admitted_submitter.join();
  // Shed counting is per request, not per envelope.
  EXPECT_EQ(service.Stats().shed, 4u);
}

TEST(ServiceOverloadTest, EpochBarrierStaysSoundWhenProducersBlock) {
  // Admin traffic rides the exempt lane: a full mailbox and blocked
  // decision producers can delay a broadcast (the shard is busy) but never
  // starve it, and a producer admitted after the admin envelope observes
  // its epoch — FIFO puts the blocked producer behind the broadcast.
  AuthorizationService service(
      OverloadConfig(/*capacity=*/1, OverloadPolicy::kBlock));
  ASSERT_TRUE(service.LoadPolicy(testutil::EnterpriseXyzPolicy()).ok());
  ASSERT_TRUE(service.CreateSession("alice", "s1").ok());
  ASSERT_TRUE(service.AddActiveRole("alice", "s1", "PM").ok());
  const uint64_t epoch_before = service.admin_epoch();

  Gate gate;
  StallShard(service, 0, gate);
  std::thread admitted([&] {
    (void)service.CheckAccess({"alice", "s1", "read", "ledger", ""});
  });
  while (service.MailboxDepth(0) < 1) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  // Fills past capacity through the exempt lane; the barrier completes
  // only when the stalled shard drains.
  std::atomic<bool> broadcast_done{false};
  std::thread admin([&] {
    (void)service.EnableRole("AC");
    broadcast_done.store(true);
  });
  // A producer blocked on mailbox space, behind the queued admin envelope.
  AccessDecision late;
  std::thread blocked([&] {
    late = service.CheckAccess({"alice", "s1", "read", "ledger", ""});
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(broadcast_done.load());  // Still stalled, not lost.

  gate.Open();
  admitted.join();
  admin.join();
  blocked.join();
  const uint64_t epoch_after = service.admin_epoch();
  EXPECT_GT(epoch_after, epoch_before);
  // The blocked producer was admitted after the admin envelope, so its
  // decision reflects the post-broadcast world.
  EXPECT_EQ(late.outcome, AccessOutcome::kDecided);
  EXPECT_GE(late.epoch, epoch_after);
}

TEST(ServiceOverloadTest, SynchronousModeRunsInlineWithoutOverload) {
  // No queue in synchronous mode: deadlines cannot expire before dispatch
  // and nothing sheds — the oracle configuration stays overload-free.
  ServiceConfig config = SyncConfig();
  config.mailbox_capacity = 1;
  config.default_deadline = 1;  // 1us — instantly expirable if queued.
  AuthorizationService service(config);
  ASSERT_TRUE(service.LoadPolicy(testutil::EnterpriseXyzPolicy()).ok());
  ASSERT_TRUE(service.CreateSession("alice", "s1").ok());
  ASSERT_TRUE(service.AddActiveRole("alice", "s1", "PM").ok());
  for (int i = 0; i < 100; ++i) {
    const AccessDecision decision =
        service.CheckAccess({"alice", "s1", "read", "ledger", ""});
    EXPECT_EQ(decision.outcome, AccessOutcome::kDecided);
    EXPECT_TRUE(decision.allowed);
  }
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.expired, 0u);
}

// ------------------------------------------- Inline runs on an idle shard

TEST(ServiceInlineTest, IdleShardRunsSessionOpsAndChecksInline) {
  for (const bool synchronous : {false, true}) {
    SCOPED_TRACE(synchronous ? "synchronous" : "sharded");
    AuthorizationService service(synchronous ? SyncConfig()
                                             : ShardedConfig(2));
    // LoadPolicy's broadcast runs on the shard threads, which count their
    // caller down only after letting go of the owner lock: both shards are
    // idle when it returns. Broadcasts are not decision envelopes.
    ASSERT_TRUE(service.LoadPolicy(testutil::EnterpriseXyzPolicy()).ok());
    ASSERT_TRUE(service.CreateSession("alice", "s1").ok());
    ASSERT_TRUE(service.AddActiveRole("alice", "s1", "PM").ok());
    const AccessDecision check =
        service.CheckAccess({"alice", "s1", "read", "ledger", ""});
    EXPECT_TRUE(check.allowed);
    EXPECT_EQ(check.shard, service.ShardOf("alice"));

    const ServiceStats stats = service.Stats();
    EXPECT_EQ(stats.envelopes_inline, 3u);
    EXPECT_EQ(stats.envelopes_queued, 0u);
    EXPECT_EQ(stats.decisions, 3u);
    const std::string text = service.RenderMetrics();
    EXPECT_NE(text.find("sentinelpp_service_envelopes_inline_total 3"),
              std::string::npos);
    EXPECT_NE(text.find("sentinelpp_service_envelopes_queued_total 0"),
              std::string::npos);
  }
}

TEST(ServiceInlineTest, CallBehindAStalledShardQueuesAndRunsAfterIt) {
  AuthorizationService service(ShardedConfig(1));
  ASSERT_TRUE(service.LoadPolicy(testutil::EnterpriseXyzPolicy()).ok());
  ASSERT_TRUE(service.CreateSession("alice", "s1").ok());
  ASSERT_TRUE(service.AddActiveRole("alice", "s1", "PM").ok());
  const AccessRequest check{"alice", "s1", "read", "ledger", ""};
  ASSERT_TRUE(service.CheckAccess(check).allowed);
  AuthorizationEngine* engine = nullptr;
  service.Inspect(0, [&engine](const AuthorizationEngine& e) {
    engine = const_cast<AuthorizationEngine*>(&e);
  });
  const ServiceStats before = service.Stats();

  // The stall holds the owner lock; behind it queues a fault that drops
  // the role the check needs. A check decided after that fault is denied,
  // one that overtook it would be allowed.
  Gate gate;
  StallShard(service, 0, gate);
  ASSERT_TRUE(service.InjectShardFault(0, [engine] {
    EXPECT_TRUE(engine->DropActiveRole("alice", "s1", "PM").allowed);
  }));
  std::atomic<bool> returned{false};
  AccessDecision queued;
  std::thread caller([&] {
    queued = service.CheckAccess(check);
    returned.store(true);
  });
  while (service.MailboxDepth(0) < 2) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(returned.load());  // It waits for the shard, not the lock.

  gate.Open();
  // A call made as the stall ends finds the lock held or the mailbox not
  // yet empty, or runs after both queued envelopes: never before them.
  const AccessDecision racing = service.CheckAccess(check);
  caller.join();
  EXPECT_EQ(queued.outcome, AccessOutcome::kDecided);
  EXPECT_FALSE(queued.allowed);
  EXPECT_EQ(racing.outcome, AccessOutcome::kDecided);
  EXPECT_FALSE(racing.allowed);

  const ServiceStats after = service.Stats();
  EXPECT_GE(after.envelopes_queued, before.envelopes_queued + 1);
  EXPECT_EQ(after.envelopes_inline + after.envelopes_queued,
            before.envelopes_inline + before.envelopes_queued + 2);
}

TEST(ServiceInlineTest, QueueWaitCountsOnlyEnvelopesThatQueued) {
  AuthorizationService service(ShardedConfig(1));
  ASSERT_TRUE(service.LoadPolicy(testutil::EnterpriseXyzPolicy()).ok());
  ASSERT_TRUE(service.CreateSession("alice", "s1").ok());
  ASSERT_TRUE(service.AddActiveRole("alice", "s1", "PM").ok());
  const AccessRequest check{"alice", "s1", "read", "ledger", ""};
  // Snapshot() inspects the shard, whose thread counts the inspection down
  // after letting go of its lock: the shard is idle when it returns.
  const auto waits = [&service] {
    return service.Snapshot()
        .metrics.FindHistogram("mailbox_queue_wait_us")
        ->TotalCount();
  };
  const uint64_t before = waits();
  ASSERT_TRUE(service.CheckAccess(check).allowed);  // Inline: no wait.
  EXPECT_EQ(waits(), before);

  // Behind a stall the call crosses the mailbox and records one wait.
  Gate gate;
  StallShard(service, 0, gate);
  AccessDecision queued;
  std::thread caller([&] { queued = service.CheckAccess(check); });
  while (service.MailboxDepth(0) < 1) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  gate.Open();
  caller.join();
  EXPECT_TRUE(queued.allowed);
  EXPECT_EQ(waits(), before + 1);
}

TEST(ServiceInlineTest, BatchOverFourShardsQueuesThreeAndRunsOneInline) {
  AuthorizationService sharded(ShardedConfig(4));
  AuthorizationService oracle(SyncConfig());
  // carol, alice, bob and nina land on four different shards; nina has no
  // session, so her item is a deny on both sides.
  const std::vector<std::string> users = {"carol", "alice", "bob", "nina"};
  std::vector<bool> covered(4, false);
  for (const std::string& user : users) covered[sharded.ShardOf(user)] = true;
  ASSERT_EQ(std::count(covered.begin(), covered.end(), true), 4);
  for (AuthorizationService* service : {&sharded, &oracle}) {
    ASSERT_TRUE(service->LoadPolicy(testutil::EnterpriseXyzPolicy()).ok());
    ASSERT_TRUE(service->CreateSession("carol", "sc").ok());
    ASSERT_TRUE(service->AddActiveRole("carol", "sc", "Clerk").ok());
    ASSERT_TRUE(service->CreateSession("alice", "sa").ok());
    ASSERT_TRUE(service->AddActiveRole("alice", "sa", "PM").ok());
    ASSERT_TRUE(service->CreateSession("bob", "sb").ok());
    ASSERT_TRUE(service->AddActiveRole("bob", "sb", "AC").ok());
  }
  const std::vector<AccessRequest> requests = {
      {"alice", "sa", "approve", "budget-request", ""},
      {"carol", "sc", "read", "ledger", ""},
      {"nina", "sn", "read", "ledger", ""},
      {"bob", "sb", "write", "approval", ""},
      {"carol", "sc", "write", "approval", ""},
      {"alice", "sa", "write", "approval", ""},
      {"bob", "sb", "read", "ledger", ""},
      {"nina", "sn", "write", "purchase-order", ""},
  };
  // Stats() inspects every shard, and each shard thread counts the
  // inspection down after letting go of its lock: all four are idle.
  const ServiceStats before = sharded.Stats();
  const std::vector<AccessDecision> verdicts =
      sharded.CheckAccessBatch(requests);
  const ServiceStats after = sharded.Stats();
  EXPECT_EQ(after.envelopes_queued - before.envelopes_queued, 3u);
  EXPECT_EQ(after.envelopes_inline - before.envelopes_inline, 1u);

  const std::vector<AccessDecision> reference =
      oracle.CheckAccessBatch(requests);
  ASSERT_EQ(verdicts.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(verdicts[i].outcome, AccessOutcome::kDecided) << i;
    EXPECT_EQ(verdicts[i].allowed, reference[i].allowed) << i;
    EXPECT_EQ(verdicts[i].rule, reference[i].rule) << i;
    EXPECT_EQ(verdicts[i].reason, reference[i].reason) << i;
    EXPECT_EQ(verdicts[i].shard, sharded.ShardOf(requests[i].user)) << i;
  }
}

TEST(ServiceInlineTest, CallersRacingShutdownGetAVerdictOrShutdown) {
  AuthorizationService service(ShardedConfig(2));
  ASSERT_TRUE(service.LoadPolicy(testutil::EnterpriseXyzPolicy()).ok());
  const uint64_t decisions_before = service.Stats().decisions;

  // Session ops and checks on both shards race Shutdown(): each caller
  // runs until it is refused, and Shutdown() comes once they have made
  // some progress, so every caller meets both sides of it. Each call is
  // decided by an engine or refused kShutdown. (While Shutdown() runs, a
  // refusal does not forbid a later verdict: it closes shard by shard.)
  const std::vector<std::string> users = {"alice", "bob", "carol"};
  std::atomic<uint64_t> decided{0};
  std::vector<std::thread> callers;
  for (const std::string& user : users) {
    callers.emplace_back([&service, &decided, user] {
      bool refused = false;
      const auto observe = [&](AccessOutcome outcome) {
        if (outcome == AccessOutcome::kDecided) {
          decided.fetch_add(1);
        } else {
          EXPECT_EQ(outcome, AccessOutcome::kShutdown) << user;
          refused = true;
        }
      };
      for (int i = 0; !refused; ++i) {
        const SessionId session = user + "-" + std::to_string(i);
        observe(service.CreateSession(user, session).outcome);
        observe(service.CheckAccess({user, session, "read", "ledger", ""})
                    .outcome);
        observe(service.DeleteSession(session).outcome);
      }
    });
  }
  while (decided.load() < 300) std::this_thread::yield();
  service.Shutdown();
  for (std::thread& caller : callers) caller.join();

  // Every decided verdict is one engine decision and every refusal none:
  // nothing ran after Shutdown() returned, and nothing was fabricated.
  EXPECT_EQ(service.Stats().decisions - decisions_before, decided.load());
  EXPECT_EQ(service.CheckAccess({"alice", "x", "read", "ledger", ""}).outcome,
            AccessOutcome::kShutdown);
}

// ---------------------------------------------------- Decision audit ring

TEST(ServiceTest, DecisionLogRingBufferCapsAndCountsOverflow) {
  DecisionLog log(4);
  for (int i = 0; i < 10; ++i) {
    Decision decision;
    decision.Allow("rule" + std::to_string(i));
    log.Push(DecisionRecord{i, "op", decision});
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.overflow(), 6u);
  EXPECT_EQ(log[0].when, 6);  // Oldest retained.
  EXPECT_EQ(log.back().when, 9);
  // Shrinking drops the oldest surplus and counts it.
  log.set_capacity(2);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.overflow(), 8u);
  EXPECT_EQ(log[0].when, 8);
  // Capacity 0 disables recording; pushes count as overflow.
  log.set_capacity(0);
  Decision d;
  d.Allow("x");
  log.Push(DecisionRecord{99, "op", d});
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.overflow(), 11u);
}

TEST(ServiceTest, StatsAggregateAcrossShards) {
  AuthorizationService service(ShardedConfig(4));
  ASSERT_TRUE(service.LoadPolicy(testutil::EnterpriseXyzPolicy()).ok());
  ASSERT_TRUE(service.CreateSession("alice", "s1").ok());
  ASSERT_TRUE(service.CreateSession("bob", "s2").ok());
  (void)service.CheckAccess({"alice", "s1", "read", "ledger", ""});  // Deny.
  (void)service.CheckAccess({"bob", "s2", "read", "ledger", ""});    // Deny.
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.decisions, 4u);
  EXPECT_EQ(stats.denials, 2u);
}

// --------------------------------------------------------------- Telemetry

TEST(ServiceTelemetryTest, SnapshotMergesShardsAndCarriesSpans) {
  ServiceConfig config = ShardedConfig(4);
  // Sample everything so the assertions are deterministic.
  config.latency_sample_every = 1;
  config.trace_sample_every = 1;
  AuthorizationService service(config);
  ASSERT_TRUE(service.LoadPolicy(testutil::EnterpriseXyzPolicy()).ok());
  ASSERT_TRUE(service.CreateSession("alice", "s1").ok());
  ASSERT_TRUE(service.CreateSession("bob", "s2").ok());
  ASSERT_TRUE(service.AddActiveRole("alice", "s1", "PM").ok());
  ASSERT_TRUE(service.AddActiveRole("bob", "s2", "AC").ok());
  EXPECT_TRUE(
      service.CheckAccess({"alice", "s1", "approve", "budget-request", ""})
          .allowed);
  EXPECT_FALSE(service.CheckAccess({"bob", "s2", "fly", "moon", ""}).allowed);

  const TelemetrySnapshot snap = service.Snapshot();
  EXPECT_EQ(snap.num_shards, 4);
  // Engine counters merged across shards...
  EXPECT_EQ(snap.metrics.FindCounter("decisions_total")->value, 6u);
  EXPECT_EQ(snap.metrics.FindCounter("denials_total")->value, 1u);
  EXPECT_EQ(snap.metrics.FindHistogram("decision_latency_us")->TotalCount(),
            6u);
  // ...alongside the service-boundary series.
  EXPECT_EQ(snap.metrics.FindCounter("service_requests_total")->value, 6u);
  EXPECT_EQ(snap.metrics.FindGauge("service_sessions")->value, 2);

  // At least one span records a full rule cascade, tagged with its shard.
  ASSERT_GE(snap.spans.size(), 1u);
  bool cascade_span = false;
  for (const telemetry::DecisionSpan& span : snap.spans) {
    for (const telemetry::TraceStep& step : span.steps) {
      if (step.kind == telemetry::TraceStep::Kind::kRule) cascade_span = true;
    }
  }
  EXPECT_TRUE(cascade_span);

  const std::string text = service.RenderMetrics();
  EXPECT_NE(text.find("sentinelpp_decisions_total 6"), std::string::npos);
  EXPECT_NE(text.find("sentinelpp_decision_latency_us_count 6"),
            std::string::npos);
  EXPECT_NE(text.find("# trace span#"), std::string::npos);

  const std::string json = service.RenderMetricsJson();
  EXPECT_NE(json.find("\"num_shards\":4"), std::string::npos);
  EXPECT_NE(json.find("\"decisions_total\":6"), std::string::npos);
  EXPECT_NE(json.find("\"spans\":["), std::string::npos);
}

TEST(ServiceTelemetryTest, PeriodicReporterFiresPerShardOnSimulatedClock) {
  ServiceConfig config = ShardedConfig(2);
  config.telemetry_report_interval = 10 * kMinute;
  std::mutex mu;
  std::vector<std::string> reports;
  config.telemetry_sink = [&mu, &reports](const std::string& body) {
    std::lock_guard<std::mutex> lock(mu);
    reports.push_back(body);
  };
  AuthorizationService service(config);
  ASSERT_TRUE(service.LoadPolicy(testutil::EnterpriseXyzPolicy()).ok());
  service.AdvanceBy(30 * kMinute);  // Exactly three intervals.

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(reports.size(), 6u);  // 3 ticks x 2 shards.
  int shard0 = 0, shard1 = 0;
  for (const std::string& report : reports) {
    if (report.rfind("# shard 0\n", 0) == 0) ++shard0;
    if (report.rfind("# shard 1\n", 0) == 0) ++shard1;
    EXPECT_NE(report.find("sentinelpp_decisions_total"), std::string::npos);
  }
  EXPECT_EQ(shard0, 3);
  EXPECT_EQ(shard1, 3);
}

// ------------------------------------------------------------- Stress test

/// One scripted step of a user's trace.
struct TraceStep {
  enum Kind { kCreate, kActivate, kCheck, kDrop, kDelete } kind;
  std::string session;
  std::string role;
  std::string operation;
  std::string object;
};

struct RecordedDecision {
  bool allowed;
  std::string rule;
  std::string reason;
};

/// Builds a deterministic per-user trace from the user's assignments.
std::vector<TraceStep> BuildTrace(const Policy& policy,
                                  const UserName& user) {
  std::vector<TraceStep> trace;
  const std::string session = "sess-" + user;
  trace.push_back({TraceStep::kCreate, session, "", "", ""});
  const auto& spec = policy.users().at(user);
  std::vector<RoleName> assigned(spec.assignments.begin(),
                                 spec.assignments.end());
  for (const RoleName& role : assigned) {
    trace.push_back({TraceStep::kActivate, session, role, "", ""});
    const auto role_it = policy.roles().find(role);
    if (role_it != policy.roles().end() &&
        !role_it->second.permissions.empty()) {
      const Permission& perm = *role_it->second.permissions.begin();
      trace.push_back(
          {TraceStep::kCheck, session, "", perm.operation, perm.object});
    }
  }
  // A guaranteed miss, then tear half the state down.
  trace.push_back({TraceStep::kCheck, session, "", "no-such-op", "nowhere"});
  if (!assigned.empty()) {
    trace.push_back({TraceStep::kDrop, session, assigned.front(), "", ""});
  }
  trace.push_back({TraceStep::kCheck, session, "", "no-such-op", "nowhere"});
  trace.push_back({TraceStep::kDelete, session, "", "", ""});
  return trace;
}

RecordedDecision ApplyStep(AuthorizationService& service,
                           const UserName& user, const TraceStep& step) {
  // Session ops report a status and no deciding rule.
  const auto session_op = [](const AdminResult& result) {
    return RecordedDecision{result.ok(), "", result.status.message()};
  };
  switch (step.kind) {
    case TraceStep::kCreate:
      return session_op(service.CreateSession(user, step.session));
    case TraceStep::kActivate:
      return session_op(service.AddActiveRole(user, step.session, step.role));
    case TraceStep::kCheck: {
      const AccessDecision decision = service.CheckAccess(
          {user, step.session, step.operation, step.object, ""});
      return RecordedDecision{decision.allowed, decision.rule,
                              decision.reason};
    }
    case TraceStep::kDrop:
      return session_op(service.DropActiveRole(user, step.session, step.role));
    case TraceStep::kDelete:
      return session_op(service.DeleteSession(step.session));
  }
  return {};
}

/// Body of the per-user lockstep stress run, shared by the uncached and
/// cache-enabled arms (the latter hammers the per-shard decision cache
/// from 4 submitter threads — the TSan-relevant configuration).
void RunPerUserStress(size_t decision_cache_capacity) {
  // A policy with no cross-user global constraints (no cardinalities, no
  // duration timers), so sharded and single-shard semantics must coincide
  // exactly. SSD/DSD/user caps are per-user/per-session and stay exact.
  PolicyGenParams params;
  params.seed = 1337;
  params.num_roles = 24;
  params.num_users = 48;
  params.cardinality_frac = 0.0;
  params.duration_frac = 0.0;
  const Policy policy = GeneratePolicy(params);

  std::vector<UserName> users;
  for (const auto& [name, spec] : policy.users()) users.push_back(name);
  std::vector<std::vector<TraceStep>> traces;
  traces.reserve(users.size());
  for (const UserName& user : users) {
    traces.push_back(BuildTrace(policy, user));
  }

  // Concurrent run: 4 submitter threads over a 4-shard service, each
  // thread interleaving its own users step by step.
  ServiceConfig sharded_config = ShardedConfig(4);
  sharded_config.decision_cache_capacity = decision_cache_capacity;
  AuthorizationService sharded(sharded_config);
  ASSERT_TRUE(sharded.LoadPolicy(policy).ok());
  std::vector<std::vector<RecordedDecision>> concurrent(users.size());
  constexpr int kThreads = 4;
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      // Round-robin across this thread's users so shard mailboxes see a
      // genuinely mixed interleaving.
      bool progress = true;
      for (size_t step = 0; progress; ++step) {
        progress = false;
        for (size_t u = static_cast<size_t>(t); u < users.size();
             u += kThreads) {
          if (step < traces[u].size()) {
            concurrent[u].push_back(
                ApplyStep(sharded, users[u], traces[u][step]));
            progress = true;
          }
        }
      }
    });
  }
  for (std::thread& thread : submitters) thread.join();
  sharded.Shutdown();

  // Oracle: the same traces on the synchronous single-shard service.
  AuthorizationService sync(SyncConfig());
  ASSERT_TRUE(sync.LoadPolicy(policy).ok());
  for (size_t u = 0; u < users.size(); ++u) {
    ASSERT_EQ(concurrent[u].size(), traces[u].size()) << users[u];
    for (size_t step = 0; step < traces[u].size(); ++step) {
      const RecordedDecision expected =
          ApplyStep(sync, users[u], traces[u][step]);
      const RecordedDecision& got = concurrent[u][step];
      EXPECT_EQ(got.allowed, expected.allowed)
          << users[u] << " step " << step;
      EXPECT_EQ(got.rule, expected.rule) << users[u] << " step " << step;
      EXPECT_EQ(got.reason, expected.reason)
          << users[u] << " step " << step;
    }
  }
}

TEST(ServiceStressTest, PerUserSequencesMatchSingleShardEngine) {
  RunPerUserStress(/*decision_cache_capacity=*/0);
}

TEST(ServiceStressTest, PerUserSequencesMatchWithDecisionCache) {
  RunPerUserStress(/*decision_cache_capacity=*/512);
}

TEST(ServiceStressTest, OverloadShedStressBoundedCountedAndDrained) {
  // Overload acceptance run: repeated stall-injected pressure against a
  // tiny bounded mailbox under the shed policy. Invariants proved here:
  //  * memory stays bounded — peak mailbox depth never exceeds the
  //    capacity plus the single in-flight exempt stall envelope;
  //  * every submitted request is answered, and sheds are counted exactly
  //    (caller-observed outcomes reconcile with ServiceStats);
  //  * decided outcomes never diverge from the synchronous oracle;
  //  * shutdown still drains-not-drops (asserted by the final Stats
  //    reconciliation running after Shutdown()).
  constexpr size_t kCapacity = 8;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  ServiceConfig config = ShardedConfig(2);
  config.mailbox_capacity = kCapacity;
  config.overload_policy = OverloadPolicy::kShed;
  AuthorizationService service(config);
  ASSERT_TRUE(service.LoadPolicy(testutil::EnterpriseXyzPolicy()).ok());
  ASSERT_TRUE(service.CreateSession("alice", "s1").ok());
  ASSERT_TRUE(service.AddActiveRole("alice", "s1", "PM").ok());
  ASSERT_TRUE(service.CreateSession("bob", "s2").ok());
  ASSERT_TRUE(service.AddActiveRole("bob", "s2", "AC").ok());

  // The request mix is read-only with statically-known verdicts, so any
  // decided answer can be checked against the oracle without replaying an
  // interleaving: requests[i] expects kExpected[i].
  const std::vector<AccessRequest> kMix = {
      {"alice", "s1", "read", "ledger", ""},        // allowed
      {"alice", "s1", "erase", "ledger", ""},       // denied
      {"bob", "s2", "write", "approval", ""},       // allowed
      {"bob", "s2", "fly", "moon", ""},             // denied
  };
  const std::vector<bool> kExpected = {true, false, true, false};

  // Stall injector: keeps parking each shard briefly, with at most one
  // exempt fault envelope in flight per shard at any time.
  std::atomic<bool> stop_faults{false};
  std::thread fault_injector([&] {
    while (!stop_faults.load()) {
      for (int shard = 0; shard < service.num_shards(); ++shard) {
        // Shared, not a local: once stop_faults cuts the wait short, the
        // fault may still run after this iteration's scope is gone.
        auto fault_done = std::make_shared<std::atomic<bool>>(false);
        if (!service.InjectShardFault(static_cast<uint32_t>(shard),
                                      [fault_done] {
              std::this_thread::sleep_for(std::chrono::microseconds(500));
              fault_done->store(true);
            })) {
          return;
        }
        while (!fault_done->load() && !stop_faults.load()) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
      }
    }
  });

  std::atomic<uint64_t> observed_shed{0};
  std::atomic<uint64_t> observed_decided{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const size_t pick = static_cast<size_t>((t + i) % kMix.size());
        if (i % 16 == 0) {
          // Periodic batch arm: one envelope per involved shard; sheds are
          // reported per item.
          const std::vector<AccessDecision> decisions =
              service.CheckAccessBatch(kMix);
          ASSERT_EQ(decisions.size(), kMix.size());
          for (size_t j = 0; j < decisions.size(); ++j) {
            if (decisions[j].outcome == AccessOutcome::kOverloaded) {
              observed_shed.fetch_add(1);
            } else {
              ASSERT_EQ(decisions[j].outcome, AccessOutcome::kDecided);
              EXPECT_EQ(decisions[j].allowed, kExpected[j]) << j;
              observed_decided.fetch_add(1);
            }
          }
          continue;
        }
        const AccessDecision decision = service.CheckAccess(kMix[pick]);
        if (decision.outcome == AccessOutcome::kOverloaded) {
          EXPECT_EQ(decision.reason, "overloaded: shed");
          observed_shed.fetch_add(1);
        } else {
          ASSERT_EQ(decision.outcome, AccessOutcome::kDecided);
          EXPECT_EQ(decision.allowed, kExpected[pick]) << pick;
          observed_decided.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : submitters) thread.join();
  stop_faults.store(true);
  fault_injector.join();

  // Bounded: the cap held on every shard (+1 for the in-flight exempt
  // stall envelope).
  for (int shard = 0; shard < service.num_shards(); ++shard) {
    EXPECT_LE(service.MailboxPeakDepth(static_cast<uint32_t>(shard)),
              kCapacity + 1)
        << "shard " << shard;
  }

  // Complete & reconciled: every submission was answered, and the
  // service's shed counter agrees exactly with what callers saw.
  const uint64_t total_submitted =
      static_cast<uint64_t>(kThreads) * kPerThread / 16 * kMix.size() +
      static_cast<uint64_t>(kThreads) * (kPerThread - kPerThread / 16);
  EXPECT_EQ(observed_decided.load() + observed_shed.load(), total_submitted);
  service.Shutdown();  // Drain everything before the final reconciliation.
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.shed, observed_shed.load());
  EXPECT_EQ(stats.expired, 0u);
  // Setup made 4 decisions; every decided request made exactly one more —
  // sheds consumed no engine time.
  EXPECT_EQ(stats.decisions, observed_decided.load() + 4u);
}

TEST(ServiceStressTest, ConcurrentBatchesAndAdminBroadcasts) {
  // Batches race with admin broadcasts; every decision must be internally
  // consistent (a real verdict, epoch monotone) and the service must stay
  // deadlock-free. Verdicts may legitimately flip around each broadcast
  // instant; per-decision consistency is the invariant.
  AuthorizationService service(ShardedConfig(4));
  ASSERT_TRUE(service.LoadPolicy(testutil::EnterpriseXyzPolicy()).ok());
  ASSERT_TRUE(service.CreateSession("alice", "s1").ok());
  ASSERT_TRUE(service.AddActiveRole("alice", "s1", "PM").ok());

  std::atomic<bool> stop{false};
  std::thread admin([&] {
    for (int i = 0; i < 20; ++i) {
      (void)service.DisableRole("AC");
      (void)service.EnableRole("AC");
    }
    stop.store(true);
  });
  // A scraper races the whole time: metric merges are lock-free reads of
  // the shard registries, span gathering queues behind in-flight work —
  // neither may deadlock, tear, or trip TSan.
  std::thread scraper([&] {
    while (!stop.load()) {
      const std::string text = service.RenderMetrics();
      EXPECT_NE(text.find("sentinelpp_decisions_total"), std::string::npos);
      (void)service.RenderMetricsJson();
    }
  });
  std::vector<AccessRequest> requests(
      64, AccessRequest{"alice", "s1", "read", "ledger", ""});
  uint64_t last_epoch = 0;
  while (!stop.load()) {
    for (const AccessDecision& decision :
         service.CheckAccessBatch(requests)) {
      // alice's PM chain never touches AC, so her reads stay allowed
      // throughout the broadcast storm.
      EXPECT_TRUE(decision.allowed);
      EXPECT_GE(decision.epoch, last_epoch);
      last_epoch = std::max(last_epoch, decision.epoch);
    }
  }
  admin.join();
  scraper.join();
  const uint64_t final_epoch = service.admin_epoch();
  EXPECT_GE(final_epoch, 41u);  // Load + 40 role toggles.
  // The scrape after the storm still aggregates a coherent view.
  const TelemetrySnapshot snap = service.Snapshot();
  EXPECT_EQ(snap.metrics.FindCounter("decisions_total")->value,
            service.Stats().decisions);
}

}  // namespace
}  // namespace sentinel
