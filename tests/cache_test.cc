#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/decision_cache.h"
#include "core/engine.h"
#include "core/policy_parser.h"
#include "service/authorization_service.h"
#include "tests/test_util.h"

namespace sentinel {
namespace {

/// A compact policy exercising every invalidation edge the decision cache
/// must honour: a plain role (Doctor), a GTRBAC shift role with a periodic
/// disable boundary (DayDoctor, 08:00-16:00), and a dynamic-SoD pair
/// (Auditor/Biller) whose conflicting activations reshuffle session state.
Policy CacheLabPolicy() {
  const char* text = R"(
policy "cachelab"

role Doctor { permission: read(chart), write(chart) }
role Nurse { permission: read(chart) }
role DayDoctor { enable: 08:00:00 - 16:00:00  permission: read(ward.log) }
role Auditor { permission: read(audit.log) }
role Biller { permission: write(invoice) }

dsd BooksSoD { roles: Auditor, Biller  n: 2 }

user dave { assign: Doctor, DayDoctor, Auditor, Biller }
user nina { assign: Nurse }
)";
  auto policy = PolicyParser::Parse(text);
  EXPECT_TRUE(policy.ok()) << policy.status().message();
  return *policy;
}

/// CacheLabPolicy plus an active-security denial threshold. The SEC rule
/// consumes rbac.accessDenied, so negative verdicts must NOT be cached
/// (a replayed deny would starve the denial-burst counter).
Policy ThresholdPolicy() {
  const char* text = R"(
policy "cachelab-sec"

role Doctor { permission: read(chart) }

user dave { assign: Doctor }

threshold burst { count: 3  window: 1m  disable-roles: Doctor }
)";
  auto policy = PolicyParser::Parse(text);
  EXPECT_TRUE(policy.ok()) << policy.status().message();
  return *policy;
}

class CacheTest : public ::testing::Test {
 protected:
  CacheTest() : clock_(testutil::Noon()), engine_(&clock_) {
    engine_.ConfigureDecisionCache(256);
  }

  void Load(const Policy& policy) {
    ASSERT_TRUE(engine_.LoadPolicy(policy).ok());
  }

  SimulatedClock clock_;
  AuthorizationEngine engine_;
};

// ------------------------------------------------------------ Hot path

TEST_F(CacheTest, RepeatCheckHitsCache) {
  Load(CacheLabPolicy());
  ASSERT_TRUE(engine_.CreateSession("dave", "s1").allowed);
  ASSERT_TRUE(engine_.AddActiveRole("dave", "s1", "Doctor").allowed);

  const Decision first = engine_.CheckAccess("s1", "read", "chart");
  EXPECT_TRUE(first.allowed);
  EXPECT_EQ(engine_.decision_cache_hits(), 0u);
  EXPECT_EQ(engine_.decision_cache_misses(), 1u);

  const Decision second = engine_.CheckAccess("s1", "read", "chart");
  EXPECT_TRUE(second.allowed);
  EXPECT_EQ(second.rule, first.rule);
  EXPECT_EQ(engine_.decision_cache_hits(), 1u);
  EXPECT_EQ(engine_.decision_cache_misses(), 1u);
}

TEST_F(CacheTest, NegativeVerdictCachedAndFlipsOnActivation) {
  Load(CacheLabPolicy());
  ASSERT_TRUE(engine_.CreateSession("dave", "s1").allowed);

  // No role active: deny, cached, replayed.
  EXPECT_FALSE(engine_.CheckAccess("s1", "read", "chart").allowed);
  const Decision replay = engine_.CheckAccess("s1", "read", "chart");
  EXPECT_FALSE(replay.allowed);
  EXPECT_EQ(replay.reason, "Permission Denied");
  EXPECT_EQ(engine_.decision_cache_hits(), 1u);

  // Activation bumps the session generation: the cached deny dies lazily.
  ASSERT_TRUE(engine_.AddActiveRole("dave", "s1", "Doctor").allowed);
  EXPECT_TRUE(engine_.CheckAccess("s1", "read", "chart").allowed);
  EXPECT_GE(engine_.decision_cache_stale(), 1u);
}

// ----------------------------------------------- Invalidation edges

/// Satellite edge (a): a cached ALLOW must flip when the role is disabled
/// by its GTRBAC enabling window closing at the periodic boundary.
TEST_F(CacheTest, CachedAllowFlipsAfterPeriodicDisableBoundary) {
  Load(CacheLabPolicy());
  ASSERT_TRUE(engine_.CreateSession("dave", "s1").allowed);
  ASSERT_TRUE(engine_.AddActiveRole("dave", "s1", "DayDoctor").allowed);

  // Noon: inside the 08:00-16:00 shift. Warm the cache.
  EXPECT_TRUE(engine_.CheckAccess("s1", "read", "ward.log").allowed);
  EXPECT_TRUE(engine_.CheckAccess("s1", "read", "ward.log").allowed);
  EXPECT_EQ(engine_.decision_cache_hits(), 1u);

  // Cross 16:00: SH.DayDoctor.off disables the role and deactivates every
  // instance, bumping the session generation. No explicit flush happens —
  // the stale entry must die on its next lookup.
  engine_.AdvanceTo(testutil::Noon() + 4 * kHour + kSecond);
  const Decision after = engine_.CheckAccess("s1", "read", "ward.log");
  EXPECT_FALSE(after.allowed);
  EXPECT_EQ(after.reason, "Permission Denied");
  EXPECT_GE(engine_.decision_cache_stale(), 1u);
}

/// Satellite edge (b): activation churn forced by a dynamic-SoD conflict
/// must invalidate the session's cached verdicts — and a *denied*
/// conflicting activation must leave them untouched.
TEST_F(CacheTest, CachedVerdictsFlipAcrossDsodConflictActivation) {
  Load(CacheLabPolicy());
  ASSERT_TRUE(engine_.CreateSession("dave", "s1").allowed);
  ASSERT_TRUE(engine_.AddActiveRole("dave", "s1", "Auditor").allowed);

  EXPECT_TRUE(engine_.CheckAccess("s1", "read", "audit.log").allowed);
  EXPECT_FALSE(engine_.CheckAccess("s1", "write", "invoice").allowed);
  EXPECT_TRUE(engine_.CheckAccess("s1", "read", "audit.log").allowed);
  EXPECT_EQ(engine_.decision_cache_hits(), 1u);

  // The DSoD conflict: Biller while Auditor is active. Denied by AAR, and
  // the denial must not corrupt the cache — the allow still replays.
  EXPECT_FALSE(engine_.AddActiveRole("dave", "s1", "Biller").allowed);
  EXPECT_TRUE(engine_.CheckAccess("s1", "read", "audit.log").allowed);

  // Resolve the conflict the legal way: drop Auditor, activate Biller.
  // Both cached verdicts (audit ALLOW, invoice DENY) must flip.
  ASSERT_TRUE(engine_.DropActiveRole("dave", "s1", "Auditor").allowed);
  ASSERT_TRUE(engine_.AddActiveRole("dave", "s1", "Biller").allowed);
  EXPECT_FALSE(engine_.CheckAccess("s1", "read", "audit.log").allowed);
  EXPECT_TRUE(engine_.CheckAccess("s1", "write", "invoice").allowed);
  EXPECT_GE(engine_.decision_cache_stale(), 2u);
}

/// Satellite edge (c): dropping the session role kills its cached ALLOW.
TEST_F(CacheTest, CachedAllowFlipsAfterSessionRoleDeactivation) {
  Load(CacheLabPolicy());
  ASSERT_TRUE(engine_.CreateSession("dave", "s1").allowed);
  ASSERT_TRUE(engine_.AddActiveRole("dave", "s1", "Doctor").allowed);

  EXPECT_TRUE(engine_.CheckAccess("s1", "write", "chart").allowed);
  EXPECT_TRUE(engine_.CheckAccess("s1", "write", "chart").allowed);
  EXPECT_EQ(engine_.decision_cache_hits(), 1u);

  ASSERT_TRUE(engine_.DropActiveRole("dave", "s1", "Doctor").allowed);
  EXPECT_FALSE(engine_.CheckAccess("s1", "write", "chart").allowed);
  EXPECT_GE(engine_.decision_cache_stale(), 1u);
}

/// Satellite edge (d): an admin broadcast bumps the policy epoch on every
/// shard, so cached verdicts re-validate — and flip when the broadcast
/// removed the authorization they relied on.
TEST(CacheServiceTest, CachedAllowFlipsAfterAdminBroadcast) {
  ServiceConfig config;
  config.num_shards = 2;
  config.start_time = testutil::Noon();
  config.decision_cache_capacity = 256;
  auto service_or = AuthorizationService::Create(config);
  ASSERT_TRUE(service_or.ok());
  AuthorizationService& service = **service_or;
  ASSERT_TRUE(service.LoadPolicy(CacheLabPolicy()).ok());

  ASSERT_TRUE(service.CreateSession("dave", "s1").ok());
  ASSERT_TRUE(service.AddActiveRole("dave", "s1", "Doctor").ok());

  AccessRequest request;
  request.user = "dave";
  request.session = "s1";
  request.operation = "read";
  request.object = "chart";
  EXPECT_TRUE(service.CheckAccess(request).allowed);
  EXPECT_TRUE(service.CheckAccess(request).allowed);
  ServiceStats warm = service.Stats();
  EXPECT_GE(warm.cache_hits, 1u);

  // An unrelated admin broadcast: the stamp's epoch component moves, the
  // entry re-validates as stale, but the verdict itself is unchanged.
  EXPECT_TRUE(service.AssignUser("nina", "Doctor").ok());
  EXPECT_TRUE(service.CheckAccess(request).allowed);
  ServiceStats after_unrelated = service.Stats();
  EXPECT_GE(after_unrelated.cache_stale, warm.cache_stale + 1);

  // A broadcast that strips the authorization: the cached ALLOW must flip.
  EXPECT_TRUE(service.DeassignUser("dave", "Doctor").ok());
  const AccessDecision denied = service.CheckAccess(request);
  EXPECT_FALSE(denied.allowed);
  EXPECT_EQ(denied.reason, "Permission Denied");
}

// ------------------------------------------------------ Safety gates

TEST_F(CacheTest, ThresholdPolicyDisablesNegativeCachingOnly) {
  Load(ThresholdPolicy());
  ASSERT_TRUE(engine_.CreateSession("dave", "s1").allowed);

  // Denials feed the SEC burst counter, so they must dispatch every time:
  // two identical denies, zero hits.
  EXPECT_FALSE(engine_.CheckAccess("s1", "write", "chart").allowed);
  EXPECT_FALSE(engine_.CheckAccess("s1", "write", "chart").allowed);
  EXPECT_EQ(engine_.decision_cache_hits(), 0u);

  // Positive verdicts raise nothing, so they still cache.
  ASSERT_TRUE(engine_.AddActiveRole("dave", "s1", "Doctor").allowed);
  EXPECT_TRUE(engine_.CheckAccess("s1", "read", "chart").allowed);
  EXPECT_TRUE(engine_.CheckAccess("s1", "read", "chart").allowed);
  EXPECT_EQ(engine_.decision_cache_hits(), 1u);
}

/// Regression from the policed differential arm: a *throttle-only*
/// threshold (no alert actions) also consumes rbac.accessDenied, so it
/// must gate negative caching exactly like an alert threshold. A replayed
/// (cached) deny would starve the per-principal denial window and the
/// admission throttle would never trip.
TEST_F(CacheTest, ThrottleOnlyThresholdAlsoDisablesNegativeCaching) {
  const char* text = R"(
policy "cachelab-throttle"

role Doctor { permission: read(chart) }

user dave { assign: Doctor }

threshold slowdown { count: 3  window: 1m  throttle-rate: 0.5 }
)";
  auto policy = PolicyParser::Parse(text);
  ASSERT_TRUE(policy.ok()) << policy.status().message();
  Load(*policy);

  std::vector<std::string> throttled;
  engine_.set_throttle_sink(
      [&throttled](const std::string& user, double rate_per_s,
                   int64_t burst) { throttled.push_back(user); });
  ASSERT_TRUE(engine_.CreateSession("dave", "s1").allowed);

  // Three identical denials: each must dispatch (zero negative-cache
  // hits) so each feeds the keyed window; the third trips the throttle.
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(engine_.CheckAccess("s1", "write", "chart").allowed) << i;
  }
  EXPECT_EQ(engine_.decision_cache_hits(), 0u);
  ASSERT_EQ(throttled.size(), 1u);
  EXPECT_EQ(throttled[0], "dave");

  // Positive verdicts still cache — gating is denial-only.
  ASSERT_TRUE(engine_.AddActiveRole("dave", "s1", "Doctor").allowed);
  EXPECT_TRUE(engine_.CheckAccess("s1", "read", "chart").allowed);
  EXPECT_TRUE(engine_.CheckAccess("s1", "read", "chart").allowed);
  EXPECT_EQ(engine_.decision_cache_hits(), 1u);
}

TEST_F(CacheTest, PurposeCarryingRequestsBypassTheCache) {
  Load(CacheLabPolicy());
  ASSERT_TRUE(engine_.CreateSession("dave", "s1").allowed);
  ASSERT_TRUE(engine_.AddActiveRole("dave", "s1", "Doctor").allowed);

  // The purpose string is not part of the packed key, so purpose-carrying
  // requests must neither hit nor fill.
  const Decision first = engine_.CheckAccess("s1", "read", "chart", "care");
  const Decision second = engine_.CheckAccess("s1", "read", "chart", "care");
  EXPECT_EQ(first.allowed, second.allowed);
  EXPECT_EQ(engine_.decision_cache_hits(), 0u);
  EXPECT_EQ(engine_.decision_cache_misses(), 0u);
  EXPECT_EQ(engine_.decision_cache().size(), 0u);
}

TEST_F(CacheTest, DisabledCacheCountsNothing) {
  SimulatedClock clock(testutil::Noon());
  AuthorizationEngine engine(&clock);  // No ConfigureDecisionCache call.
  ASSERT_TRUE(engine.LoadPolicy(CacheLabPolicy()).ok());
  ASSERT_TRUE(engine.CreateSession("dave", "s1").allowed);
  ASSERT_TRUE(engine.AddActiveRole("dave", "s1", "Doctor").allowed);
  EXPECT_TRUE(engine.CheckAccess("s1", "read", "chart").allowed);
  EXPECT_TRUE(engine.CheckAccess("s1", "read", "chart").allowed);
  EXPECT_EQ(engine.decision_cache_hits(), 0u);
  EXPECT_EQ(engine.decision_cache_misses(), 0u);
}

// ------------------------------------------------- DecisionCache unit

TEST(DecisionCacheUnitTest, PackKeyRejectsOverflowingSymbols) {
  EXPECT_TRUE(DecisionCache::PackKey(Symbol(1), Symbol(2), Symbol(3))
                  .has_value());
  EXPECT_FALSE(DecisionCache::PackKey(Symbol(1u << 24), Symbol(2), Symbol(3))
                   .has_value());
  EXPECT_FALSE(DecisionCache::PackKey(Symbol(1), Symbol(1u << 16), Symbol(3))
                   .has_value());
  EXPECT_FALSE(DecisionCache::PackKey(Symbol(1), Symbol(2), Symbol(1u << 24))
                   .has_value());
}

TEST(DecisionCacheUnitTest, LookupFillStaleRoundTrip) {
  DecisionCache cache;
  cache.Configure(64);
  const uint64_t key = *DecisionCache::PackKey(Symbol(7), Symbol(8), Symbol(9));
  DecisionCache::Stamp stamp{1, 2, 3, 4};

  DecisionCache::Verdict verdict{};
  EXPECT_EQ(cache.Lookup(key, stamp, &verdict), DecisionCache::Outcome::kMiss);

  cache.Fill(key, stamp, {true, true});
  EXPECT_EQ(cache.Lookup(key, stamp, &verdict), DecisionCache::Outcome::kHit);
  EXPECT_TRUE(verdict.allowed);

  // Any stamp component moving makes the entry stale.
  DecisionCache::Stamp moved = stamp;
  moved.session += 1;
  EXPECT_EQ(cache.Lookup(key, moved, &verdict),
            DecisionCache::Outcome::kStale);

  // Refill under the new stamp revives the slot in place.
  cache.Fill(key, moved, {false, true});
  EXPECT_EQ(cache.Lookup(key, moved, &verdict), DecisionCache::Outcome::kHit);
  EXPECT_FALSE(verdict.allowed);
  EXPECT_EQ(cache.size(), 1u);

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup(key, moved, &verdict), DecisionCache::Outcome::kMiss);
}

TEST(DecisionCacheUnitTest, EvictionKeepsTableBounded) {
  DecisionCache cache;
  cache.Configure(8);
  const DecisionCache::Stamp stamp{1, 1, 1, 1};
  for (uint32_t i = 1; i <= 100; ++i) {
    const uint64_t key =
        *DecisionCache::PackKey(Symbol(i), Symbol(1), Symbol(1));
    cache.Fill(key, stamp, {true, true});
    // The just-filled key is always findable (round-robin victims never
    // evict the entry being inserted).
    DecisionCache::Verdict verdict{};
    EXPECT_EQ(cache.Lookup(key, stamp, &verdict),
              DecisionCache::Outcome::kHit)
        << "key " << i;
  }
  EXPECT_LE(cache.size(), 8u);
}

// ------------------------------------------- Zero-hop reader (unit)

TEST(DecisionCacheSharedViewTest, SharedLookupReadsTheSlotsFillsWrite) {
  DecisionCache cache;
  cache.Configure(64);
  const uint64_t key = *DecisionCache::PackKey(Symbol(7), Symbol(8), Symbol(9));
  const DecisionCache::Stamp stamp{1, 2, 3, 4};

  DecisionCache::Verdict verdict{};
  EXPECT_EQ(cache.SharedLookup(key, stamp.session, &verdict),
            DecisionCache::Outcome::kMiss);  // Empty.

  cache.PublishCurrentStamp(stamp);
  cache.Fill(key, stamp, {true, true});
  ASSERT_EQ(cache.SharedLookup(key, stamp.session, &verdict),
            DecisionCache::Outcome::kHit);
  EXPECT_TRUE(verdict.allowed);
  EXPECT_TRUE(verdict.by_rule);

  // A different key in the same table misses without a false positive.
  const uint64_t other =
      *DecisionCache::PackKey(Symbol(1), Symbol(2), Symbol(3));
  EXPECT_EQ(cache.SharedLookup(other, stamp.session, &verdict),
            DecisionCache::Outcome::kMiss);
}

TEST(DecisionCacheSharedViewTest, MovedWordOrSessionGenerationKillsHits) {
  DecisionCache cache;
  cache.Configure(64);
  const uint64_t key = *DecisionCache::PackKey(Symbol(7), Symbol(8), Symbol(9));
  const DecisionCache::Stamp stamp{1, 1, 1, 1};
  cache.PublishCurrentStamp(stamp);
  cache.Fill(key, stamp, {false, false});

  DecisionCache::Verdict verdict{};
  ASSERT_EQ(cache.SharedLookup(key, stamp.session, &verdict),
            DecisionCache::Outcome::kHit);
  EXPECT_FALSE(verdict.allowed);
  EXPECT_FALSE(verdict.by_rule);

  // Any published word moving makes every entry filled under the old words
  // unreadable — the epoch | pool word and the roles word alike.
  DecisionCache::Stamp moved = stamp;
  moved.pool += 1;
  cache.PublishCurrentStamp(moved);
  EXPECT_EQ(cache.SharedLookup(key, stamp.session, &verdict),
            DecisionCache::Outcome::kStale);
  moved = stamp;
  moved.roles += 1;
  cache.PublishCurrentStamp(moved);
  EXPECT_EQ(cache.SharedLookup(key, stamp.session, &verdict),
            DecisionCache::Outcome::kStale);

  // Republishing the fill-time words revives the entry: staleness is a
  // property of the comparison, not the slot.
  cache.PublishCurrentStamp(stamp);
  EXPECT_EQ(cache.SharedLookup(key, stamp.session, &verdict),
            DecisionCache::Outcome::kHit);
  // The session's live generation is the fourth word.
  EXPECT_EQ(cache.SharedLookup(key, stamp.session + 1, &verdict),
            DecisionCache::Outcome::kStale);
}

TEST(DecisionCacheSharedViewTest, TornPublishMakesTheSlotUnreadable) {
  DecisionCache cache;
  cache.Configure(64);
  const uint64_t key = *DecisionCache::PackKey(Symbol(7), Symbol(8), Symbol(9));
  const DecisionCache::Stamp stamp{1, 1, 1, 1};
  cache.PublishCurrentStamp(stamp);
  cache.Fill(key, stamp, {true, true});

  DecisionCache::Verdict verdict{};
  ASSERT_EQ(cache.SharedLookup(key, stamp.session, &verdict),
            DecisionCache::Outcome::kHit);
  cache.BeginTornPublishForTest(key);  // Sequence left odd.
  EXPECT_EQ(cache.SharedLookup(key, stamp.session, &verdict),
            DecisionCache::Outcome::kTorn);
  // The shard is the writer: its own probe does not read the sequence.
  EXPECT_EQ(cache.Lookup(key, stamp, &verdict), DecisionCache::Outcome::kHit);
  cache.EndTornPublishForTest(key);
  EXPECT_EQ(cache.SharedLookup(key, stamp.session, &verdict),
            DecisionCache::Outcome::kHit);
}

TEST(DecisionCacheSharedViewTest, ClearWipesBothReaders) {
  DecisionCache cache;
  cache.Configure(64);
  const uint64_t key = *DecisionCache::PackKey(Symbol(7), Symbol(8), Symbol(9));
  const DecisionCache::Stamp stamp{1, 1, 1, 1};
  cache.PublishCurrentStamp(stamp);
  cache.Fill(key, stamp, {true, true});

  DecisionCache::Verdict verdict{};
  ASSERT_EQ(cache.SharedLookup(key, stamp.session, &verdict),
            DecisionCache::Outcome::kHit);
  cache.Clear();
  EXPECT_EQ(cache.SharedLookup(key, stamp.session, &verdict),
            DecisionCache::Outcome::kMiss);
  EXPECT_EQ(cache.Lookup(key, stamp, &verdict),
            DecisionCache::Outcome::kMiss);
}

TEST(DecisionCacheSharedViewTest, DisabledCacheAnswersNoReader) {
  DecisionCache cache;  // Never configured.
  EXPECT_FALSE(cache.enabled());
  DecisionCache::Verdict verdict{};
  EXPECT_EQ(cache.SharedLookup(42, 0, &verdict),
            DecisionCache::Outcome::kMiss);
  cache.PublishCurrentStamp({1, 1, 1, 1});  // Must not crash.
  cache.BeginTornPublishForTest(42);
  cache.EndTornPublishForTest(42);
}

/// One table, one stamp: the slot a CheckAccess fills is the one zero-hop
/// callers read, so the shard's Lookup and SharedLookup answer from it
/// together and stop together when a published word or the session's own
/// generation moves. Other sessions' logins move neither.
TEST_F(CacheTest, ShardAndZeroHopReadersShareOneSlot) {
  Load(CacheLabPolicy());
  ASSERT_TRUE(engine_.CreateSession("dave", "s1").allowed);
  ASSERT_TRUE(engine_.AddActiveRole("dave", "s1", "Doctor").allowed);
  ASSERT_TRUE(engine_.CheckAccess("s1", "read", "chart").allowed);  // Fill.

  const SymbolTable& symbols = engine_.symbols();
  const Symbol session = symbols.Find("s1");
  const uint64_t key = *DecisionCache::PackKey(session, symbols.Find("read"),
                                               symbols.Find("chart"));
  const DecisionCache& cache = engine_.decision_cache();
  const auto shard_hit = [&] {
    const DecisionCache::Stamp live{
        static_cast<uint32_t>(engine_.decision_cache_epoch()),
        static_cast<uint32_t>(engine_.rule_manager().pool_generation()),
        engine_.role_state().roles_generation(),
        engine_.rbac().db().SessionGeneration(session)};
    DecisionCache::Verdict verdict;
    return cache.Lookup(key, live, &verdict) ==
               DecisionCache::Outcome::kHit &&
           verdict.allowed;
  };
  const auto zero_hop_hit = [&] {
    DecisionCache::Verdict verdict;
    return cache.SharedLookup(
               key, engine_.rbac().db().SessionGeneration(session),
               &verdict) == DecisionCache::Outcome::kHit &&
           verdict.allowed;
  };
  EXPECT_TRUE(shard_hit());
  EXPECT_TRUE(zero_hop_hit());

  ASSERT_TRUE(engine_.CreateSession("nina", "n1").allowed);
  ASSERT_TRUE(engine_.AddActiveRole("nina", "n1", "Nurse").allowed);
  EXPECT_TRUE(shard_hit());
  EXPECT_TRUE(zero_hop_hit());

  // A published word: the epoch.
  engine_.BumpDecisionCacheEpoch();
  EXPECT_FALSE(shard_hit());
  EXPECT_FALSE(zero_hop_hit());

  // Refilled, then the session's own generation.
  ASSERT_TRUE(engine_.CheckAccess("s1", "read", "chart").allowed);
  EXPECT_TRUE(shard_hit());
  EXPECT_TRUE(zero_hop_hit());
  ASSERT_TRUE(engine_.AddActiveRole("dave", "s1", "Auditor").allowed);
  EXPECT_FALSE(shard_hit());
  EXPECT_FALSE(zero_hop_hit());

  // Refilled, then a role transition anywhere on the shard — even of a
  // role dave does not hold — moves the roles word.
  ASSERT_TRUE(engine_.CheckAccess("s1", "read", "chart").allowed);
  EXPECT_TRUE(shard_hit());
  EXPECT_TRUE(zero_hop_hit());
  ASSERT_TRUE(engine_.DisableRole("Biller").allowed);
  EXPECT_FALSE(shard_hit());
  EXPECT_FALSE(zero_hop_hit());
}

// -------------------------------------- Satellite 6: config validation

TEST(ServiceConfigValidationTest, RejectsZeroShards) {
  ServiceConfig config;
  config.num_shards = 0;
  EXPECT_FALSE(AuthorizationService::ValidateConfig(config).ok());
  auto service = AuthorizationService::Create(config);
  EXPECT_FALSE(service.ok());
}

TEST(ServiceConfigValidationTest, RejectsNegativeShardsOtherThanAuto) {
  ServiceConfig config;
  config.num_shards = -2;
  EXPECT_FALSE(AuthorizationService::ValidateConfig(config).ok());
  config.num_shards = ServiceConfig::kAutoShards;
  EXPECT_TRUE(AuthorizationService::ValidateConfig(config).ok());
}

TEST(ServiceConfigValidationTest, RejectsNonPowerOfTwoCacheCapacity) {
  ServiceConfig config;
  config.num_shards = 1;
  config.decision_cache_capacity = 3;
  EXPECT_FALSE(AuthorizationService::ValidateConfig(config).ok());
  auto rejected = AuthorizationService::Create(config);
  EXPECT_FALSE(rejected.ok());

  config.decision_cache_capacity = 0;  // Disabled is fine.
  EXPECT_TRUE(AuthorizationService::ValidateConfig(config).ok());
  config.decision_cache_capacity = 1024;
  EXPECT_TRUE(AuthorizationService::ValidateConfig(config).ok());
  auto accepted = AuthorizationService::Create(config);
  ASSERT_TRUE(accepted.ok());
  EXPECT_TRUE((*accepted)->init_status().ok());
}

TEST(ServiceConfigValidationTest, ConstructorDegradesLoudlyButStillServes) {
  ServiceConfig config;
  config.num_shards = 0;
  config.decision_cache_capacity = 12;  // Also invalid.
  config.start_time = testutil::Noon();
  AuthorizationService service(config);
  EXPECT_FALSE(service.init_status().ok());
  EXPECT_EQ(service.num_shards(), 1);

  // Degraded, not dead: the fallback single shard still decides.
  ASSERT_TRUE(service.LoadPolicy(CacheLabPolicy()).ok());
  ASSERT_TRUE(service.CreateSession("dave", "s1").ok());
  ASSERT_TRUE(service.AddActiveRole("dave", "s1", "Doctor").ok());
  AccessRequest request;
  request.session = "s1";
  request.operation = "read";
  request.object = "chart";
  EXPECT_TRUE(service.CheckAccess(request).allowed);
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, 0u);  // Cache off.
}

}  // namespace
}  // namespace sentinel
