// Pauseless policy swap semantics (PR 9).
//
// The contract under test, end to end:
//   * an in-flight envelope sees entirely-old or entirely-new generation,
//     never a mix (a commit and an envelope each run start to finish under
//     the shard's owner lock, queued or inline);
//   * cache/fast-path entries filled under generation N never answer under
//     generation N+1 (the rule-pool generation rides every verdict stamp);
//   * a builder failure is loud and leaves the old generation serving;
//   * back-to-back updates serialize without losing either;
//   * a stale plan (prepared against a retired generation) is refused.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/policy_parser.h"
#include "core/policy_update.h"
#include "service/authorization_service.h"
#include "tests/test_util.h"

namespace sentinel {
namespace {

Policy ParsePolicy(const char* text) {
  auto policy = PolicyParser::Parse(text);
  EXPECT_TRUE(policy.ok()) << policy.status().message();
  return *policy;
}

/// Worker holds both probe permissions; the "swapped" twin holds neither.
/// Swapping between the two flips BOTH verdicts in one generation — the
/// handle the atomicity test grips.
Policy BothGrantsPolicy() {
  return ParsePolicy(R"(
policy "swaplab"

role Worker { permission: read(chart), read(lab) }

user alice { assign: Worker }
)");
}

Policy NoGrantsPolicy() {
  return ParsePolicy(R"(
policy "swaplab"

role Worker { permission: write(nothing) }

user alice { assign: Worker }
)");
}

AccessRequest Req(const std::string& op, const std::string& obj) {
  AccessRequest request;
  request.user = "alice";
  request.session = "s1";
  request.operation = op;
  request.object = obj;
  return request;
}

std::unique_ptr<AuthorizationService> StartService(int shards, bool fastpath) {
  ServiceConfig config;
  config.num_shards = shards;
  config.start_time = testutil::Noon();
  config.decision_cache_capacity = 256;
  config.decision_cache_fastpath = fastpath;
  auto service_or = AuthorizationService::Create(config);
  EXPECT_TRUE(service_or.ok()) << service_or.status().message();
  std::unique_ptr<AuthorizationService> service = std::move(*service_or);
  EXPECT_TRUE(service->LoadPolicy(BothGrantsPolicy()).ok());
  EXPECT_TRUE(service->CreateSession("alice", "s1").ok());
  EXPECT_TRUE(service->AddActiveRole("alice", "s1", "Worker").ok());
  return service;
}

// ----------------------------------------------------- Envelope atomicity

/// One single-user batch is one envelope on the home shard, run inline
/// when the shard is idle; a swap commit is an envelope on the shard
/// thread. Whatever the interleaving, every batch must decide ALL its
/// items under one generation: all-allow (BothGrants) or all-deny
/// (NoGrants) — a mixed batch means a commit tore an envelope in half.
/// Fast path off: only the envelope path carries the atomicity guarantee.
///
/// The rounds are paced against the swap thread: round r waits until
/// r / kRoundsPerSwap swaps have landed. The swap thread never waits, so
/// swaps keep landing while batches run, and batches that no longer cross
/// a thread cannot finish every round before the swaps they must meet.
TEST(PolicySwapTest, InFlightEnvelopeSeesOneGeneration) {
  auto service = StartService(/*shards=*/2, /*fastpath=*/false);
  const Policy with = BothGrantsPolicy();
  const Policy without = NoGrantsPolicy();

  constexpr int kRoundsPerSwap = 40;
  std::mutex swap_mu;
  std::condition_variable swap_cv;
  bool churn_exited = false;  // Guarded by swap_mu.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> swaps{0};
  std::thread churn([&] {
    bool grant = false;
    while (!stop.load(std::memory_order_acquire)) {
      const auto report = service->ApplyPolicyUpdate(grant ? with : without);
      if (!report.ok()) {
        ADD_FAILURE() << report.status();
        break;
      }
      grant = !grant;
      {
        std::lock_guard<std::mutex> lock(swap_mu);
        swaps.fetch_add(1, std::memory_order_relaxed);
      }
      swap_cv.notify_all();
    }
    {
      std::lock_guard<std::mutex> lock(swap_mu);
      churn_exited = true;
    }
    swap_cv.notify_all();
  });

  std::vector<AccessRequest> batch;
  for (int i = 0; i < 4; ++i) {
    batch.push_back(Req("read", "chart"));
    batch.push_back(Req("read", "lab"));
  }
  int mixed = 0;
  for (int round = 0; round < 400; ++round) {
    {
      std::unique_lock<std::mutex> lock(swap_mu);
      const uint64_t due = static_cast<uint64_t>(round / kRoundsPerSwap);
      swap_cv.wait(lock, [&] {
        return churn_exited || swaps.load(std::memory_order_relaxed) >= due;
      });
    }
    const std::vector<AccessDecision> verdicts =
        service->CheckAccessBatch(batch);
    ASSERT_EQ(verdicts.size(), batch.size());
    bool any_allowed = false, any_denied = false;
    for (const AccessDecision& verdict : verdicts) {
      ASSERT_EQ(verdict.outcome, AccessOutcome::kDecided);
      (verdict.allowed ? any_allowed : any_denied) = true;
    }
    if (any_allowed && any_denied) ++mixed;
  }
  stop.store(true, std::memory_order_release);
  churn.join();
  EXPECT_EQ(mixed, 0) << "a swap tore an envelope across generations";
  // The race is vacuous if the churn thread never actually interleaved.
  EXPECT_GE(swaps.load(), 8u);
  EXPECT_EQ(service->Stats().policy_swaps, swaps.load());
}

// ------------------------------------------- Cross-generation staleness

/// Entries filled under generation N must never answer under N+1 — the
/// swap bumps the rule-pool generation, which every cached verdict stamp
/// (and the published stamp words) carry.
TEST(PolicySwapTest, WarmCacheEntriesDieAtTheSwap) {
  for (const bool fastpath : {false, true}) {
    SCOPED_TRACE(fastpath ? "fastpath" : "mailbox cache");
    auto service = StartService(/*shards=*/2, fastpath);
    // Warm: dispatch + fill, then a replay that rides the cache.
    EXPECT_TRUE(service->CheckAccess(Req("read", "chart")).allowed);
    EXPECT_TRUE(service->CheckAccess(Req("read", "chart")).allowed);

    auto report = service->ApplyPolicyUpdate(NoGrantsPolicy());
    ASSERT_TRUE(report.ok()) << report.status();
    // The very next request must see the new generation, not the warm fill.
    EXPECT_FALSE(service->CheckAccess(Req("read", "chart")).allowed);

    // And back: the deny fill must die at the next swap too.
    ASSERT_TRUE(service->ApplyPolicyUpdate(BothGrantsPolicy()).ok());
    EXPECT_TRUE(service->CheckAccess(Req("read", "chart")).allowed);
  }
}

// ------------------------------------------------- Builder failure is loud

TEST(PolicySwapTest, BuilderFailureRollsBackLoudly) {
  auto service = StartService(/*shards=*/2, /*fastpath=*/false);
  EXPECT_TRUE(service->CheckAccess(Req("read", "chart")).allowed);

  // A dangling junior fails Policy::Validate at Prepare — before any shard
  // mutates anything.
  Policy invalid = BothGrantsPolicy();
  auto worker = invalid.MutableRole("Worker");
  ASSERT_TRUE(worker.ok());
  (*worker)->juniors.insert("NoSuchRole");
  const auto report = service->ApplyPolicyUpdate(invalid);
  ASSERT_FALSE(report.ok());

  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.policy_swaps, 0u);
  EXPECT_EQ(stats.policy_swap_failures, 1u);
  // The old generation keeps serving, undisturbed.
  EXPECT_TRUE(service->CheckAccess(Req("read", "chart")).allowed);
  for (int shard = 0; shard < service->num_shards(); ++shard) {
    service->Inspect(static_cast<uint32_t>(shard),
                     [&](const AuthorizationEngine& engine) {
                       EXPECT_FALSE(engine.policy()
                                        .roles()
                                        .at("Worker")
                                        .juniors.count("NoSuchRole"));
                     });
  }
}

/// With no generation installed there is nothing to diff against: the
/// update is refused at prepare, before any shard is touched, and a later
/// LoadPolicy still installs normally.
TEST(PolicySwapTest, UpdateBeforeLoadIsRefusedAtPrepare) {
  ServiceConfig config;
  config.num_shards = 2;
  config.start_time = testutil::Noon();
  auto service_or = AuthorizationService::Create(config);
  ASSERT_TRUE(service_or.ok());
  AuthorizationService& service = **service_or;
  const auto report = service.ApplyPolicyUpdate(BothGrantsPolicy());
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsFailedPrecondition()) << report.status();
  EXPECT_EQ(service.current_policy(), nullptr);
  EXPECT_EQ(service.Stats().policy_swaps, 0u);
  ASSERT_TRUE(service.LoadPolicy(BothGrantsPolicy()).ok());
  EXPECT_TRUE(service.ApplyPolicyUpdate(NoGrantsPolicy()).ok());
}

// --------------------------------------------- Back-to-back serialization

TEST(PolicySwapTest, BackToBackUpdatesLandBothGenerations) {
  auto service = StartService(/*shards=*/2, /*fastpath=*/false);

  Policy first = BothGrantsPolicy();
  {
    auto worker = first.MutableRole("Worker");
    ASSERT_TRUE(worker.ok());
    (*worker)->permissions.insert(Permission{"read", "scan"});
  }
  Policy second = first;
  {
    auto worker = second.MutableRole("Worker");
    ASSERT_TRUE(worker.ok());
    (*worker)->permissions.insert(Permission{"read", "archive"});
  }

  // Two threads race their updates; update_mu_ serializes them, and the
  // second to run is prepared against the first one's generation — neither
  // edit may be lost. (Which "wins" the race is irrelevant: `second` is a
  // superset of `first`, so scan must survive either order.)
  std::thread a([&] { ASSERT_TRUE(service->ApplyPolicyUpdate(first).ok()); });
  std::thread b([&] { ASSERT_TRUE(service->ApplyPolicyUpdate(second).ok()); });
  a.join();
  b.join();
  ASSERT_TRUE(service->ApplyPolicyUpdate(second).ok());

  EXPECT_TRUE(service->CheckAccess(Req("read", "scan")).allowed);
  EXPECT_TRUE(service->CheckAccess(Req("read", "archive")).allowed);
  EXPECT_EQ(service->Stats().policy_swaps, 3u);
  EXPECT_EQ(service->Stats().policy_swap_failures, 0u);

  // Every shard serves the SAME generation object at the same version.
  const Policy* seen = nullptr;
  uint64_t version = 0;
  for (int shard = 0; shard < service->num_shards(); ++shard) {
    service->Inspect(static_cast<uint32_t>(shard),
                     [&](const AuthorizationEngine& engine) {
                       if (seen == nullptr) {
                         seen = engine.policy_generation().get();
                         version = engine.policy_version();
                       } else {
                         EXPECT_EQ(engine.policy_generation().get(), seen);
                         EXPECT_EQ(engine.policy_version(), version);
                       }
                     });
  }
  EXPECT_EQ(service->current_policy().get(), seen);
}

// -------------------------------------------------- Stale plans (engine)

/// Two plans prepared against the same base: the first commit flips the
/// generation, so the second must be refused — not silently applied over
/// a world it never diffed against.
TEST(PolicySwapTest, StalePlanIsRefusedAtCommit) {
  SimulatedClock clock(testutil::Noon());
  AuthorizationEngine engine(&clock);
  ASSERT_TRUE(
      engine.LoadPolicy(std::make_shared<const Policy>(BothGrantsPolicy()))
          .ok());
  const std::shared_ptr<const Policy> base = engine.policy_generation();

  Policy next_a = BothGrantsPolicy();
  {
    auto worker = next_a.MutableRole("Worker");
    ASSERT_TRUE(worker.ok());
    (*worker)->permissions.insert(Permission{"read", "scan"});
  }
  auto plan_a = AuthorizationEngine::PreparePolicyUpdate(base, next_a);
  ASSERT_TRUE(plan_a.ok()) << plan_a.status();
  auto plan_b = AuthorizationEngine::PreparePolicyUpdate(base, NoGrantsPolicy());
  ASSERT_TRUE(plan_b.ok()) << plan_b.status();

  const uint64_t version_before = engine.policy_version();
  ASSERT_TRUE(engine.CommitPolicyUpdate(*plan_a).ok());
  EXPECT_EQ(engine.policy_version(), version_before + 1);

  const auto stale = engine.CommitPolicyUpdate(*plan_b);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kFailedPrecondition);
  // The refused plan changed nothing: plan_a's generation still serves.
  EXPECT_EQ(engine.policy_generation().get(), plan_a->next.get());
  EXPECT_EQ(engine.policy_version(), version_before + 1);
  EXPECT_TRUE(
      engine.policy().roles().at("Worker").permissions.count(
          Permission{"read", "scan"}));
}

/// The pool generation moves on every commit even when no rule text
/// changed — the stamp component that retires warm verdicts.
TEST(PolicySwapTest, CommitAlwaysAdvancesThePoolGeneration) {
  SimulatedClock clock(testutil::Noon());
  AuthorizationEngine engine(&clock);
  ASSERT_TRUE(engine.LoadPolicy(BothGrantsPolicy()).ok());
  const uint64_t pool_before = engine.rule_manager().pool_generation();
  const uint64_t epoch_before = engine.decision_cache_epoch();

  Policy next = BothGrantsPolicy();
  {
    auto worker = next.MutableRole("Worker");
    ASSERT_TRUE(worker.ok());
    (*worker)->permissions.insert(Permission{"read", "scan"});
  }
  auto plan = AuthorizationEngine::PreparePolicyUpdate(
      engine.policy_generation(), next);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(engine.CommitPolicyUpdate(*plan).ok());
  EXPECT_GT(engine.rule_manager().pool_generation(), pool_before);
  // No blanket cache wipe: the epoch is the barrier's tool, not the swap's.
  EXPECT_EQ(engine.decision_cache_epoch(), epoch_before);
}

}  // namespace
}  // namespace sentinel
