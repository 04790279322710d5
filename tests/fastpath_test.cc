#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/decision_cache.h"
#include "core/engine.h"
#include "core/policy_parser.h"
#include "core/report.h"
#include "service/authorization_service.h"
#include "tests/test_util.h"

namespace sentinel {
namespace {

/// Stable-truth policy for the zero-hop read path: alice's Doctor grant
/// never changes during a test's steady state, Temp exists purely as admin
/// enable/disable churn fodder, Biller is a role alice never holds (so her
/// invoice deny is a stable negative verdict).
Policy FastLabPolicy() {
  const char* text = R"(
policy "fastlab"

role Doctor { permission: read(chart), write(chart) }
role Temp { permission: read(scratch) }
role Biller { permission: write(invoice) }

user alice { assign: Doctor }
user bob { assign: Temp }
)";
  auto policy = PolicyParser::Parse(text);
  EXPECT_TRUE(policy.ok()) << policy.status().message();
  return *policy;
}

AccessRequest Req(const std::string& op, const std::string& obj,
                  const std::string& purpose = "") {
  AccessRequest request;
  request.user = "alice";
  request.session = "s1";
  request.operation = op;
  request.object = obj;
  request.purpose = purpose;
  return request;
}

class FastPathServiceTest : public ::testing::Test {
 protected:
  void Start(int shards = 2) {
    ServiceConfig config;
    config.num_shards = shards;
    config.start_time = testutil::Noon();
    config.decision_cache_capacity = 256;
    config.decision_cache_fastpath = true;
    auto service_or = AuthorizationService::Create(config);
    ASSERT_TRUE(service_or.ok()) << service_or.status().message();
    service_ = std::move(*service_or);
    ASSERT_TRUE(service_->LoadPolicy(FastLabPolicy()).ok());
    ASSERT_TRUE(service_->CreateSession("alice", "s1").ok());
    ASSERT_TRUE(service_->AddActiveRole("alice", "s1", "Doctor").ok());
  }

  AuthorizationService& service() { return *service_; }

  std::unique_ptr<AuthorizationService> service_;
};

// --------------------------------------------------------- Hit semantics

TEST_F(FastPathServiceTest, ReplayedAllowIsAnsweredCallerSide) {
  Start();
  // First call dispatches (miss + fill), replays ride the snapshot.
  const AccessDecision first = service().CheckAccess(Req("read", "chart"));
  EXPECT_TRUE(first.allowed);
  const uint64_t warm_hits = service().Stats().fastpath_hits;

  const AccessDecision replay = service().CheckAccess(Req("read", "chart"));
  EXPECT_TRUE(replay.allowed);
  EXPECT_EQ(replay.rule, AuthorizationEngine::kCaRuleName);
  EXPECT_EQ(replay.outcome, AccessOutcome::kDecided);
  EXPECT_EQ(replay.shard, first.shard);
  ServiceStats stats = service().Stats();
  EXPECT_EQ(stats.fastpath_hits, warm_hits + 1);
}

TEST_F(FastPathServiceTest, ReplayedDenyCarriesTheDenyReason) {
  Start();
  // alice is no Biller: a stable negative verdict.
  const AccessDecision first = service().CheckAccess(Req("write", "invoice"));
  EXPECT_FALSE(first.allowed);
  const uint64_t warm_hits = service().Stats().fastpath_hits;

  const AccessDecision replay = service().CheckAccess(Req("write", "invoice"));
  EXPECT_FALSE(replay.allowed);
  EXPECT_EQ(replay.reason, AuthorizationEngine::kDenyReason);
  EXPECT_EQ(replay.outcome, AccessOutcome::kDecided);
  EXPECT_EQ(service().Stats().fastpath_hits, warm_hits + 1);
}

TEST_F(FastPathServiceTest, FastHitsBypassTheEngineButCountInRequests) {
  Start();
  service().CheckAccess(Req("read", "chart"));
  ServiceStats warm = service().Stats();

  // Ten replays: the shard engine decides nothing further, the fast-path
  // counter absorbs all of them.
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(service().CheckAccess(Req("read", "chart")).allowed);
  }
  ServiceStats after = service().Stats();
  EXPECT_EQ(after.decisions, warm.decisions);
  EXPECT_EQ(after.fastpath_hits, warm.fastpath_hits + 10);
}

TEST_F(FastPathServiceTest, PurposeCarryingRequestsNeverRideTheFastPath) {
  Start();
  service().CheckAccess(Req("read", "chart"));
  const uint64_t warm_hits = service().Stats().fastpath_hits;
  // Purpose strings are not part of the packed key: every purpose-carrying
  // request must dispatch, even when a purpose-free twin is cached.
  service().CheckAccess(Req("read", "chart", "care"));
  service().CheckAccess(Req("read", "chart", "care"));
  EXPECT_EQ(service().Stats().fastpath_hits, warm_hits);
}

TEST_F(FastPathServiceTest, BatchItemsRideTheSnapshotPositionally) {
  Start();
  // Warm two keys through the mailbox.
  ASSERT_TRUE(service().CheckAccess(Req("read", "chart")).allowed);
  ASSERT_FALSE(service().CheckAccess(Req("write", "invoice")).allowed);
  const uint64_t warm_hits = service().Stats().fastpath_hits;

  // A batch mixing warm hits, a cold miss and a purpose bypass: results
  // must stay positionally aligned regardless of which path answered.
  std::vector<AccessRequest> batch = {
      Req("read", "chart"),           // fast hit (allow)
      Req("write", "invoice"),        // fast hit (deny)
      Req("write", "chart"),          // cold: mailbox miss + fill
      Req("read", "chart", "care"),   // purpose: mailbox, uncached
      Req("read", "chart"),           // fast hit again
  };
  std::vector<AccessDecision> decisions = service().CheckAccessBatch(batch);
  ASSERT_EQ(decisions.size(), batch.size());
  EXPECT_TRUE(decisions[0].allowed);
  EXPECT_FALSE(decisions[1].allowed);
  EXPECT_EQ(decisions[1].reason, AuthorizationEngine::kDenyReason);
  EXPECT_TRUE(decisions[2].allowed);
  EXPECT_TRUE(decisions[3].allowed);
  EXPECT_TRUE(decisions[4].allowed);
  EXPECT_EQ(service().Stats().fastpath_hits, warm_hits + 3);
}

TEST_F(FastPathServiceTest, AllFastBatchSkipsTheMailboxEntirely) {
  Start();
  ASSERT_TRUE(service().CheckAccess(Req("read", "chart")).allowed);
  ServiceStats warm = service().Stats();

  std::vector<AccessRequest> batch(8, Req("read", "chart"));
  std::vector<AccessDecision> decisions = service().CheckAccessBatch(batch);
  ASSERT_EQ(decisions.size(), batch.size());
  for (const AccessDecision& d : decisions) EXPECT_TRUE(d.allowed);
  ServiceStats after = service().Stats();
  EXPECT_EQ(after.fastpath_hits, warm.fastpath_hits + 8);
  EXPECT_EQ(after.decisions, warm.decisions);
}

// ------------------------------------------------- Invalidation edges

TEST_F(FastPathServiceTest, AdminBroadcastMovesTheStampBeforeReturning) {
  Start();
  ASSERT_TRUE(service().CheckAccess(Req("read", "chart")).allowed);
  ASSERT_TRUE(service().CheckAccess(Req("read", "chart")).allowed);  // Warm.

  // The broadcast returns only after every shard applied it — and every
  // shard published its moved stamp first. A fast hit after this line can
  // therefore never replay the pre-broadcast verdict.
  ASSERT_TRUE(service().DeassignUser("alice", "Doctor").ok());
  const AccessDecision after = service().CheckAccess(Req("read", "chart"));
  EXPECT_FALSE(after.allowed);
  EXPECT_EQ(after.reason, AuthorizationEngine::kDenyReason);
}

TEST_F(FastPathServiceTest, SessionRoleChurnInvalidatesCallerSideReplays) {
  Start();
  ASSERT_TRUE(service().CheckAccess(Req("read", "chart")).allowed);
  ASSERT_TRUE(service().CheckAccess(Req("read", "chart")).allowed);  // Warm.

  ASSERT_TRUE(service().DropActiveRole("alice", "s1", "Doctor").ok());
  EXPECT_FALSE(service().CheckAccess(Req("read", "chart")).allowed);

  ASSERT_TRUE(service().AddActiveRole("alice", "s1", "Doctor").ok());
  EXPECT_TRUE(service().CheckAccess(Req("read", "chart")).allowed);
}

TEST_F(FastPathServiceTest, UnrelatedBroadcastCostsHitsNeverCorrectness) {
  Start();
  ASSERT_TRUE(service().CheckAccess(Req("read", "chart")).allowed);
  ASSERT_TRUE(service().CheckAccess(Req("read", "chart")).allowed);  // Warm.

  // An admin change that does not touch alice still moves the published
  // epoch word — the next call re-dispatches and re-fills, then replays
  // resume.
  ASSERT_TRUE(service().EnableRole("Temp").ok());
  EXPECT_TRUE(service().CheckAccess(Req("read", "chart")).allowed);
  const uint64_t hits = service().Stats().fastpath_hits;
  EXPECT_TRUE(service().CheckAccess(Req("read", "chart")).allowed);
  EXPECT_EQ(service().Stats().fastpath_hits, hits + 1);
}

/// Another user's login on the same shard moves only that session's
/// generation, so a warmed key keeps answering zero-hop.
TEST_F(FastPathServiceTest, OtherUsersLoginsLeaveWarmKeysZeroHop) {
  Start(/*shards=*/1);
  ASSERT_TRUE(service().CheckAccess(Req("read", "chart")).allowed);  // Fill.
  const uint64_t warm_hits = service().Stats().fastpath_hits;

  ASSERT_TRUE(service().CreateSession("bob", "b1").ok());
  ASSERT_TRUE(service().AddActiveRole("bob", "b1", "Temp").ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(service().CheckAccess(Req("read", "chart")).allowed);
  }
  EXPECT_EQ(service().Stats().fastpath_hits, warm_hits + 3);
}

// -------------------------------------- Torn publish (fault injection)

TEST_F(FastPathServiceTest, TornPublishForcesTheMailboxFallback) {
  Start();
  ASSERT_TRUE(service().CheckAccess(Req("read", "chart")).allowed);  // Fill.
  const uint32_t shard = service().ShardOf("alice");

  // Resolve the packed key and a shard-thread engine handle race-free.
  uint64_t key = 0;
  AuthorizationEngine* shard_engine = nullptr;
  service().Inspect(shard, [&](const AuthorizationEngine& engine) {
    shard_engine = const_cast<AuthorizationEngine*>(&engine);
    const Symbol session = engine.symbols().Find("s1");
    const Symbol op = engine.symbols().Find("read");
    const Symbol obj = engine.symbols().Find("chart");
    ASSERT_TRUE(session.valid() && op.valid() && obj.valid());
    key = *DecisionCache::PackKey(session, op, obj);
  });

  // Writer-stall fault: freeze the entry's slot mid-write, on the shard
  // thread. InjectShardFault returns without waiting, so barrier
  // with a no-op Inspect before reading.
  ASSERT_TRUE(service().InjectShardFault(shard, [shard_engine, key] {
    shard_engine->decision_cache_for_test().BeginTornPublishForTest(key);
  }));
  service().Inspect(shard, [](const AuthorizationEngine&) {});

  // The seqlock is odd: readers must refuse the slot and fall back. The
  // verdict still comes back right — through the mailbox.
  const uint64_t hits_before = service().Stats().fastpath_hits;
  const AccessDecision during = service().CheckAccess(Req("read", "chart"));
  EXPECT_TRUE(during.allowed);
  EXPECT_EQ(service().Stats().fastpath_hits, hits_before);

  // Publish completes: the same entry serves fast hits again.
  ASSERT_TRUE(service().InjectShardFault(shard, [shard_engine, key] {
    shard_engine->decision_cache_for_test().EndTornPublishForTest(key);
  }));
  service().Inspect(shard, [](const AuthorizationEngine&) {});
  EXPECT_TRUE(service().CheckAccess(Req("read", "chart")).allowed);
  EXPECT_EQ(service().Stats().fastpath_hits, hits_before + 1);
}

/// Every zero-hop probe either hits or counts one fallback reason.
TEST_F(FastPathServiceTest, EachFallbackReasonIsCountedOnce) {
  Start();
  const uint32_t shard = service().ShardOf("alice");
  uint64_t key = 0;
  AuthorizationEngine* shard_engine = nullptr;
  service().Inspect(shard, [&](const AuthorizationEngine& engine) {
    shard_engine = const_cast<AuthorizationEngine*>(&engine);
    key = *DecisionCache::PackKey(engine.symbols().Find("s1"),
                                  engine.symbols().Find("read"),
                                  engine.symbols().Find("chart"));
  });
  int probed = 0;
  const auto check = [&](const AccessRequest& request) {
    ++probed;
    return service().CheckAccess(request).allowed;
  };

  EXPECT_TRUE(check(Req("read", "chart")));            // Miss, then fill.
  EXPECT_TRUE(check(Req("read", "chart")));            // Hit.
  EXPECT_TRUE(check(Req("read", "chart", "care")));    // Purpose.
  EXPECT_FALSE(check(Req("read", "no-such-object")));  // Unknown symbol.
  ASSERT_TRUE(service().EnableRole("Temp").ok());      // Moves the epoch.
  EXPECT_TRUE(check(Req("read", "chart")));            // Stale, then refill.
  ASSERT_TRUE(service().InjectShardFault(shard, [shard_engine, key] {
    shard_engine->decision_cache_for_test().BeginTornPublishForTest(key);
  }));
  service().Inspect(shard, [](const AuthorizationEngine&) {});
  EXPECT_TRUE(check(Req("read", "chart")));  // Torn.
  ASSERT_TRUE(service().InjectShardFault(shard, [shard_engine, key] {
    shard_engine->decision_cache_for_test().EndTornPublishForTest(key);
  }));
  service().Inspect(shard, [](const AuthorizationEngine&) {});
  EXPECT_TRUE(check(Req("read", "chart")));  // Hit.

  const ServiceStats stats = service().Stats();
  EXPECT_EQ(stats.fastpath_hits, 2u);
  EXPECT_EQ(stats.fastpath_fallback_purpose, 1u);
  EXPECT_EQ(stats.fastpath_fallback_unknown_symbol, 1u);
  EXPECT_EQ(stats.fastpath_fallback_miss, 1u);
  EXPECT_EQ(stats.fastpath_fallback_stale, 1u);
  EXPECT_EQ(stats.fastpath_fallback_torn, 1u);
  EXPECT_EQ(stats.fastpath_hits + stats.fastpath_fallback_purpose +
                stats.fastpath_fallback_unknown_symbol +
                stats.fastpath_fallback_miss + stats.fastpath_fallback_stale +
                stats.fastpath_fallback_torn,
            static_cast<uint64_t>(probed));
  const std::string exposition = service().RenderMetrics();
  for (const char* reason :
       {"purpose", "unknown_symbol", "miss", "stale", "torn"}) {
    EXPECT_NE(exposition.find(std::string("decision_cache_fastpath_fallback_") +
                              reason + "_total"),
              std::string::npos)
        << reason;
  }
}

// ----------------------------------------------- Modes and observability

TEST(FastPathModeTest, SynchronousModeIgnoresTheFlag) {
  ServiceConfig config;
  config.num_shards = 1;
  config.synchronous = true;
  config.start_time = testutil::Noon();
  config.decision_cache_capacity = 256;
  config.decision_cache_fastpath = true;
  auto service_or = AuthorizationService::Create(config);
  ASSERT_TRUE(service_or.ok());
  AuthorizationService& service = **service_or;
  ASSERT_TRUE(service.LoadPolicy(FastLabPolicy()).ok());
  ASSERT_TRUE(service.CreateSession("alice", "s1").ok());
  ASSERT_TRUE(service.AddActiveRole("alice", "s1", "Doctor").ok());

  // Inline calls have no mailbox to skip: the engine's own cache serves
  // replays and the fast-path counter stays dark.
  EXPECT_TRUE(service.CheckAccess(Req("read", "chart")).allowed);
  EXPECT_TRUE(service.CheckAccess(Req("read", "chart")).allowed);
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.fastpath_hits, 0u);
  EXPECT_GE(stats.cache_hits, 1u);
}

TEST_F(FastPathServiceTest, HitsSurfaceInExpositionAndAdminReport) {
  Start();
  service().CheckAccess(Req("read", "chart"));
  for (int i = 0; i < 5; ++i) service().CheckAccess(Req("read", "chart"));

  const std::string exposition = service().RenderMetrics();
  EXPECT_NE(exposition.find("decision_cache_fastpath_hits_total"),
            std::string::npos);

  std::string report;
  service().Inspect(service().ShardOf("alice"),
                    [&report](const AuthorizationEngine& engine) {
                      report = GenerateAdminReport(engine, {});
                    });
  EXPECT_NE(report.find("zero-hop fast path:"), std::string::npos);
}

// ------------------------------------------------- Config validation

TEST(FastPathConfigTest, AcceptsNonPowerOfTwoMailboxCapacity) {
  ServiceConfig config;
  config.num_shards = 1;
  config.mailbox_capacity = 3;  // The decision lane is a deque: any bound.
  EXPECT_TRUE(AuthorizationService::ValidateConfig(config).ok());
  EXPECT_TRUE(AuthorizationService::Create(config).ok());

  config.mailbox_capacity = 4;
  EXPECT_TRUE(AuthorizationService::ValidateConfig(config).ok());
  config.mailbox_capacity = 0;  // Unbounded is fine.
  EXPECT_TRUE(AuthorizationService::ValidateConfig(config).ok());
}

TEST(FastPathConfigTest, RejectsFastPathWithoutACache) {
  ServiceConfig config;
  config.num_shards = 1;
  config.decision_cache_fastpath = true;
  config.decision_cache_capacity = 0;
  EXPECT_FALSE(AuthorizationService::ValidateConfig(config).ok());
  EXPECT_FALSE(AuthorizationService::Create(config).ok());

  config.decision_cache_capacity = 64;
  EXPECT_TRUE(AuthorizationService::ValidateConfig(config).ok());
}

TEST(FastPathConfigTest, ConstructorDegradeForcesTheFastPathOff) {
  ServiceConfig config;
  config.num_shards = 1;
  config.start_time = testutil::Noon();
  config.decision_cache_fastpath = true;
  config.decision_cache_capacity = 0;  // Invalid combination.
  AuthorizationService service(config);
  EXPECT_FALSE(service.init_status().ok());

  // Degraded but serving — with no cache there is no snapshot, so the fast
  // path must be off, not crashing on an empty table.
  ASSERT_TRUE(service.LoadPolicy(FastLabPolicy()).ok());
  ASSERT_TRUE(service.CreateSession("alice", "s1").ok());
  ASSERT_TRUE(service.AddActiveRole("alice", "s1", "Doctor").ok());
  EXPECT_TRUE(service.CheckAccess(Req("read", "chart")).allowed);
  EXPECT_TRUE(service.CheckAccess(Req("read", "chart")).allowed);
  EXPECT_EQ(service.Stats().fastpath_hits, 0u);
}

// ------------------------------------------------------- TSan stress

/// Concurrent readers hammer two stable-truth keys through the zero-hop
/// path while the main thread storms admin broadcasts, session churn and
/// timer advances. Truth for alice never changes, so every verdict is
/// checkable exactly; TSan checks the seqlock protocol underneath. Sized
/// to stay meaningful under --gtest_repeat=3 with TSan's ~10x slowdown.
TEST(FastPathStressTest, ReadersRaceAdminBroadcastsAndChurn) {
  ServiceConfig config;
  config.num_shards = 2;
  config.start_time = testutil::Noon();
  config.decision_cache_capacity = 1024;
  config.decision_cache_fastpath = true;
  auto service_or = AuthorizationService::Create(config);
  ASSERT_TRUE(service_or.ok());
  AuthorizationService& service = **service_or;
  ASSERT_TRUE(service.LoadPolicy(FastLabPolicy()).ok());
  ASSERT_TRUE(service.CreateSession("alice", "s1").ok());
  ASSERT_TRUE(service.AddActiveRole("alice", "s1", "Doctor").ok());

  // Warm both keys so readers start on the snapshot.
  ASSERT_TRUE(service.CheckAccess(Req("read", "chart")).allowed);
  ASSERT_FALSE(service.CheckAccess(Req("write", "invoice")).allowed);

  constexpr int kReaders = 4;
  constexpr int kIterations = 3000;
  std::atomic<uint64_t> divergences{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&service, &divergences] {
      for (int i = 0; i < kIterations; ++i) {
        const AccessDecision allow = service.CheckAccess(Req("read", "chart"));
        if (!allow.allowed || allow.outcome != AccessOutcome::kDecided) {
          divergences.fetch_add(1, std::memory_order_relaxed);
        }
        const AccessDecision deny =
            service.CheckAccess(Req("write", "invoice"));
        if (deny.allowed || deny.outcome != AccessOutcome::kDecided) {
          divergences.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // The storm: every op moves published stamps on every shard while the
  // readers above race the republishes.
  for (int round = 0; round < 100; ++round) {
    ASSERT_TRUE(service.DisableRole("Temp").ok());
    ASSERT_TRUE(service.EnableRole("Temp").ok());
    const std::string session = "bob-" + std::to_string(round);
    ASSERT_TRUE(service.CreateSession("bob", session).ok());
    ASSERT_TRUE(service.DeleteSession(session).ok());
    ASSERT_TRUE(service.AdvanceBy(kMinute).ok());
  }
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(divergences.load(), 0u);
  ServiceStats stats = service.Stats();
  EXPECT_GT(stats.fastpath_hits, 0u);

  // Post-storm linearization: stripping the grant must be visible to the
  // very next call.
  ASSERT_TRUE(service.DeassignUser("alice", "Doctor").ok());
  const AccessDecision after = service.CheckAccess(Req("read", "chart"));
  EXPECT_FALSE(after.allowed);
  EXPECT_EQ(after.reason, AuthorizationEngine::kDenyReason);
}

/// The same reader race against continuous PAUSELESS SWAPS instead of
/// epoch broadcasts: the storm thread streams ApplyPolicyUpdates toggling
/// Temp's permission set (each one regenerates rules, flips every shard's
/// generation pointer and republishes the stamp words — with no barrier and
/// no cache-epoch wipe) interleaved with session churn and advances.
/// alice's truths never change across generations, so every fast-path
/// verdict stays exactly checkable while the generation underneath it
/// turns over; TSan checks the seqlock + shared_ptr reclamation protocol.
TEST(FastPathStressTest, ReadersRaceContinuousPauselessSwaps) {
  ServiceConfig config;
  config.num_shards = 2;
  config.start_time = testutil::Noon();
  config.decision_cache_capacity = 1024;
  config.decision_cache_fastpath = true;
  auto service_or = AuthorizationService::Create(config);
  ASSERT_TRUE(service_or.ok());
  AuthorizationService& service = **service_or;
  ASSERT_TRUE(service.LoadPolicy(FastLabPolicy()).ok());
  ASSERT_TRUE(service.CreateSession("alice", "s1").ok());
  ASSERT_TRUE(service.AddActiveRole("alice", "s1", "Doctor").ok());

  // Warm both keys so readers start on the snapshot.
  ASSERT_TRUE(service.CheckAccess(Req("read", "chart")).allowed);
  ASSERT_FALSE(service.CheckAccess(Req("write", "invoice")).allowed);

  // Temp's grant toggles; alice (Doctor) is untouched in either variant.
  Policy plain = FastLabPolicy();
  Policy widened = FastLabPolicy();
  {
    auto temp = widened.MutableRole("Temp");
    ASSERT_TRUE(temp.ok());
    (*temp)->permissions.insert(Permission{"write", "scratch"});
  }

  constexpr int kReaders = 4;
  constexpr int kIterations = 3000;
  std::atomic<uint64_t> divergences{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&service, &divergences] {
      for (int i = 0; i < kIterations; ++i) {
        const AccessDecision allow = service.CheckAccess(Req("read", "chart"));
        if (!allow.allowed || allow.outcome != AccessOutcome::kDecided) {
          divergences.fetch_add(1, std::memory_order_relaxed);
        }
        const AccessDecision deny =
            service.CheckAccess(Req("write", "invoice"));
        if (deny.allowed || deny.outcome != AccessOutcome::kDecided) {
          divergences.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // The storm: every round retires a generation mid-flight on both shards
  // while readers race the stamp republishes and the dying generation's
  // reclamation.
  for (int round = 0; round < 100; ++round) {
    const auto widen = service.ApplyPolicyUpdate(widened);
    ASSERT_TRUE(widen.ok()) << widen.status();
    const auto narrow = service.ApplyPolicyUpdate(plain);
    ASSERT_TRUE(narrow.ok()) << narrow.status();
    const std::string session = "bob-" + std::to_string(round);
    ASSERT_TRUE(service.CreateSession("bob", session).ok());
    ASSERT_TRUE(service.DeleteSession(session).ok());
    ASSERT_TRUE(service.AdvanceBy(kMinute).ok());
  }
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(divergences.load(), 0u);
  ServiceStats stats = service.Stats();
  EXPECT_GT(stats.fastpath_hits, 0u);
  EXPECT_EQ(stats.policy_swaps, 200u);
  EXPECT_EQ(stats.policy_swap_failures, 0u);

  // Post-storm linearization: a swap that strips alice's ASSIGNMENT (a
  // policy edit, not a runtime deassign) must be visible — as a policy
  // deny, through cache and fast path — to the very next call.
  Policy stripped = FastLabPolicy();
  {
    auto alice = stripped.MutableUser("alice");
    ASSERT_TRUE(alice.ok());
    (*alice)->assignments.erase("Doctor");
  }
  const auto strip = service.ApplyPolicyUpdate(stripped);
  ASSERT_TRUE(strip.ok()) << strip.status();
  const AccessDecision after = service.CheckAccess(Req("read", "chart"));
  EXPECT_FALSE(after.allowed);
  EXPECT_EQ(after.reason, AuthorizationEngine::kDenyReason);
}

}  // namespace
}  // namespace sentinel
