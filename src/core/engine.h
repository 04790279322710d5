#ifndef SENTINELPP_CORE_ENGINE_H_
#define SENTINELPP_CORE_ENGINE_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "core/active_security.h"
#include "core/decision_cache.h"
#include "core/decision_log.h"
#include "core/policy.h"
#include "core/policy_update.h"
#include "core/privacy.h"
#include "event/event_detector.h"
#include "gtrbac/role_state.h"
#include "rbac/core_api.h"
#include "rules/decision.h"
#include "rules/rule_manager.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace sentinel {

class RuleGenerator;

/// Outcome summary of an incremental policy update (ApplyPolicyUpdate).
struct RegenReport {
  int roles_affected = 0;
  int users_affected = 0;
  int rules_removed = 0;
  int rules_added = 0;
  int events_added = 0;
  bool directives_rebuilt = false;
  /// Policy entries the base-state reconcile could not install because the
  /// live runtime state refused them (e.g. an assignment the engine's own
  /// runtime SSD state now conflicts with). Each skip is also logged at
  /// warning level. See ApplyBaseDelta for why the commit is best-effort
  /// instead of failing: a mid-apply refusal cannot be atomic.
  int base_entries_skipped = 0;
};

/// \brief The OWTE-rule-driven authorization engine — the paper's
/// contribution, assembled.
///
/// Every public operation raises a primitive event carrying the request's
/// parameters; the generated rule pool (compiled from the loaded Policy by
/// RuleGenerator) performs all checks and state changes; the Decision the
/// rules wrote is returned to the caller. Nothing in the request path is
/// hard-coded: change the policy, regenerate the affected rules, and the
/// engine's behaviour follows — the property the paper calls "seamless".
///
/// Fail-safe default: a request no rule decides is denied.
class AuthorizationEngine {
 public:
  /// The deciding rule name and denial reason the decision cache (and the
  /// service's zero-hop fast path) reconstruct Decisions from. The rule
  /// generator emits the global check-access rule under this name.
  static constexpr const char* kCaRuleName = "CA.global";
  static constexpr const char* kDenyReason = "Permission Denied";

  /// Parameter keys used on all engine events.
  static constexpr const char* kUser = "user";
  static constexpr const char* kSession = "session";
  static constexpr const char* kRole = "role";
  static constexpr const char* kOperation = "operation";
  static constexpr const char* kObject = "object";
  static constexpr const char* kPurpose = "purpose";

  /// The same keys pre-interned in the engine's symbol table — what the
  /// dispatch path and generated rules use instead of the string literals.
  struct ParamKeys {
    Symbol user;
    Symbol session;
    Symbol role;
    Symbol operation;
    Symbol object;
    Symbol purpose;
    Symbol context_key;    // "key" on rbac.contextChanged.
    Symbol context_value;  // "value" on rbac.contextChanged.
  };

  /// Core primitive events, defined at construction.
  struct CoreEvents {
    EventId create_session = kInvalidEventId;
    EventId delete_session = kInvalidEventId;
    EventId add_active_role = kInvalidEventId;   // Request (paper E2).
    EventId drop_active_role = kInvalidEventId;  // Request.
    EventId check_access = kInvalidEventId;      // Request (paper E6).
    EventId assign_user = kInvalidEventId;       // Administrative request.
    EventId deassign_user = kInvalidEventId;
    EventId enable_role = kInvalidEventId;       // GTRBAC transition request.
    EventId disable_role = kInvalidEventId;
    EventId session_role_added = kInvalidEventId;    // Post-state (E3).
    EventId session_role_dropped = kInvalidEventId;  // Post-state (E4).
    EventId role_enabled = kInvalidEventId;          // Post-state.
    EventId role_disabled = kInvalidEventId;         // Post-state.
    EventId access_denied = kInvalidEventId;   // Raised by CA's ELSE.
    EventId security_alert = kInvalidEventId;  // Raised by SEC rules.
    EventId context_changed = kInvalidEventId;  // External/context events.
  };

  /// `clock` must outlive the engine; not owned. The engine is built for
  /// deterministic simulated time; a wall-clock deployment would drive
  /// Poll() instead of AdvanceTo().
  explicit AuthorizationEngine(SimulatedClock* clock);
  ~AuthorizationEngine();

  AuthorizationEngine(const AuthorizationEngine&) = delete;
  AuthorizationEngine& operator=(const AuthorizationEngine&) = delete;

  // ------------------------------------------------------ Policy loading

  /// Validates and installs `policy`: instantiates the RBAC base state and
  /// generates the full rule pool. Call once on a fresh engine.
  Status LoadPolicy(const Policy& policy);

  /// Shared-generation install: every shard of a service installs the SAME
  /// immutable Policy object, so PreparePolicyUpdate/CommitPolicyUpdate can
  /// verify plan freshness by pointer identity. `policy` must not be null.
  Status LoadPolicy(std::shared_ptr<const Policy> policy);

  /// Diffs the loaded policy against `updated`, reconciles base state and
  /// regenerates only the affected rules (the paper's §5 regeneration).
  /// Equivalent to PreparePolicyUpdate + CommitPolicyUpdate in one call.
  Result<RegenReport> ApplyPolicyUpdate(const Policy& updated);

  /// \brief Off-thread half of a pauseless swap: validates `next` and
  /// precomputes every pure piece of the update (affected-role/user diffs,
  /// directive change, removal delta) against the generation `base`.
  ///
  /// Pure and static — safe to run on the admin caller's thread while the
  /// shards keep serving. `base` should be the currently installed shared
  /// generation; CommitPolicyUpdate rejects the plan if the engine has
  /// moved on. Cost follows the sections `next` edited: validation and
  /// every diff skip a role or user section `next` still shares with
  /// `base` (a `next` copied from `base` and then edited).
  static Result<PolicyUpdatePlan> PreparePolicyUpdate(
      std::shared_ptr<const Policy> base, Policy next);

  /// \brief On-thread half: applies the removal delta, flips the policy
  /// pointer to `plan.next` (the RCU publish — O(1); the retired
  /// generation is freed by refcount when the last shard flips), then
  /// incrementally regenerates affected rules and bumps the rule-pool
  /// generation so every cached/fast-path verdict stamped under the old
  /// generation dies at its next lookup. No cache-epoch wipe: that is
  /// precisely the stop-the-world cost this path removes.
  ///
  /// Fails with FailedPrecondition when `plan.base` is not the engine's
  /// live policy object (a newer update landed first — re-Prepare).
  Result<RegenReport> CommitPolicyUpdate(const PolicyUpdatePlan& plan);

  const Policy& policy() const { return *policy_; }
  /// The installed generation (shared across shards when loaded via the
  /// shared overload). Never null.
  const std::shared_ptr<const Policy>& policy_generation() const {
    return policy_;
  }
  /// Monotonic count of successfully committed policy generations.
  uint64_t policy_version() const { return policy_version_; }

  // ------------------------------------------------ Runtime (rule-driven)

  Decision CreateSession(const UserName& user, const SessionId& session);
  Decision DeleteSession(const SessionId& session);
  Decision AddActiveRole(const UserName& user, const SessionId& session,
                         const RoleName& role);
  Decision DropActiveRole(const UserName& user, const SessionId& session,
                          const RoleName& role);
  /// Purpose is optional; required when the object carries a privacy
  /// policy (privacy-aware RBAC).
  Decision CheckAccess(const SessionId& session, const OperationName& op,
                       const ObjectName& obj, const PurposeName& purpose = "");
  Decision AssignUser(const UserName& user, const RoleName& role);
  Decision DeassignUser(const UserName& user, const RoleName& role);
  Decision EnableRole(const RoleName& role);
  Decision DisableRole(const RoleName& role);

  /// Context-aware RBAC: records an environment value ("location",
  /// "network", ...) and raises the external context event. Generated CTX
  /// rules force-deactivate active roles whose context constraints no
  /// longer hold (paper §1; OASIS-style environmental predicates).
  void SetContext(const std::string& key, const std::string& value);
  /// Current context value, empty string when unset.
  const std::string& ContextValue(const std::string& key) const;
  /// True iff every (key, value) pair holds in the current context.
  bool ContextSatisfied(
      const std::map<std::string, std::string>& required) const;

  // --------------------------------------------------------------- Time

  /// Advances simulated time, firing temporal events (shift boundaries,
  /// duration expiries, audit ticks) at their exact instants.
  void AdvanceTo(Time t);
  void AdvanceBy(Duration d) { AdvanceTo(Now() + d); }
  Time Now() const { return clock_->Now(); }

  // --------------------------------------- Services for generated rules

  RbacSystem& rbac() { return rbac_; }
  const RbacSystem& rbac() const { return rbac_; }
  RoleStateTable& role_state() { return role_state_; }
  const RoleStateTable& role_state() const { return role_state_; }
  PrivacyStore& privacy() { return privacy_; }
  const PrivacyStore& privacy() const { return privacy_; }
  ActiveSecurityMonitor& security() { return security_; }
  const ActiveSecurityMonitor& security() const { return security_; }
  EventDetector& detector() { return detector_; }
  const EventDetector& detector() const { return detector_; }
  RuleManager& rule_manager() { return rules_; }
  const RuleManager& rule_manager() const { return rules_; }
  const CoreEvents& events() const { return events_; }
  SymbolTable& symbols() { return symbols_; }
  const SymbolTable& symbols() const { return symbols_; }
  const ParamKeys& keys() const { return keys_; }

  /// The verdict fields of the record of a cached verdict — `allowed`, and
  /// the rule and reason a Decision rebuilt from it names — for a replay
  /// here or a zero-hop hit. Safe from any thread: it reads only symbols
  /// interned at construction.
  DecisionRecord CachedVerdictRecord(DecisionCache::Verdict verdict) const;

  /// Drops `role` from `session` outside a user request (duration expiry,
  /// shift end, cascade), raising the post-state event.
  Status ForceDeactivate(Symbol user, Symbol session, Symbol role);
  /// Force-deactivates every active instance of `role`, session by session
  /// in name order; returns count.
  int DeactivateAllInstances(Symbol role);

  /// Active role instances of `user` across all their sessions.
  int CountUserActiveRoles(Symbol user) const;
  int CountUserActiveRoles(const UserName& user) const {
    return CountUserActiveRoles(symbols_.Find(user));
  }

  /// True iff a time-SoD of `kind` containing `role` is in effect now.
  bool TsodGuardedNow(const RoleName& role, TimeSodKind kind) const;
  /// True iff `role` triggers a CFD pair (its enabling is CFD-handled).
  bool IsCfdTrigger(const RoleName& role) const;

  /// Disabling-time SoD verdict: for every in-effect disabling time-SoD
  /// containing `role`, some counter-role must still be enabled.
  bool DisableTsodOk(const RoleName& role) const;
  /// Enabling-time SoD verdict: for every in-effect enabling time-SoD
  /// containing `role`, some counter-role must remain disabled.
  bool EnableTsodOk(const RoleName& role) const;

  /// Files a duration-expiry PLUS event under the role it bounds, so a
  /// deactivation can cancel its pending expiries, and drops that role's
  /// retired events. Called by the rule generator.
  void RegisterDurationEvent(Symbol role, EventId plus_event);
  /// Cancels the pending duration expiries of `role`'s activation in
  /// `session`.
  void CancelDurationTimers(Symbol session, Symbol role);

  /// Sink for threshold-rule throttle actions (ThresholdDirective::
  /// throttle_rate_per_s): the hosting service installs one per shard to
  /// feed its admission policer. Runs on the engine's thread inside rule
  /// dispatch, so it must be fast and thread-safe (the service's policer
  /// is lock-free).
  using ThrottleSink = std::function<void(
      const std::string& user, double rate_per_s, int64_t burst)>;
  void set_throttle_sink(ThrottleSink sink) {
    throttle_sink_ = std::move(sink);
  }
  /// Invoked by generated SEC rules when a throttle directive trips. No-op
  /// without a sink: a bare engine still records the alert, it just has no
  /// admission edge to police.
  void NotifyThrottle(const std::string& user, double rate_per_s,
                      int64_t burst) {
    if (throttle_sink_) throttle_sink_(user, rate_per_s, burst);
  }

  // ------------------------------------------------------ Introspection

  uint64_t decisions_made() const { return decisions_counter_->value(); }
  uint64_t denials() const { return denials_counter_->value(); }

  /// The engine's metrics registry. Instruments are registered during
  /// construction (engine, detector, rule manager); afterwards the
  /// structure is immutable, so Snapshot() may be called from any thread
  /// concurrently with the engine's own updates.
  telemetry::Registry& metrics() { return metrics_; }
  const telemetry::Registry& metrics() const { return metrics_; }

  /// The engine's span recorder. Single-threaded like the engine: read it
  /// only from the thread driving the engine (the service uses Inspect).
  telemetry::TraceCollector& tracer() { return tracer_; }
  const telemetry::TraceCollector& tracer() const { return tracer_; }

  /// Tunes hot-path sampling: wall-clock latency is measured on every
  /// `latency_every`-th dispatch (0 disables timing) and spans are recorded
  /// per the tracer's own sampling. Defaults: 32 and 256 — chosen so the
  /// full instrumentation stays within a few percent of the uninstrumented
  /// dispatch cost (see BENCH_PR3.json).
  void set_telemetry_sampling(uint32_t latency_every, uint32_t trace_every) {
    latency_sample_every_ = latency_every;
    latency_tick_ = latency_every == 0 ? 0 : 1;
    tracer_.set_sample_every(trace_every);
  }

  // ------------------------------------------------------ Decision cache

  /// Sizes the per-shard CheckAccess verdict cache: 0 disables (the
  /// default), otherwise a power of two — validated at the service
  /// boundary. Any existing entries are dropped.
  ///
  /// What the cache does: CheckAccess verdicts whose deciding rule is the
  /// global CA rule (or the fail-safe default deny) are memoized under a
  /// 64-bit (session, operation, object) symbol key together with a
  /// validity stamp — policy epoch, rule-pool generation, the shard's
  /// role-transition count, the session's generation. A later identical
  /// request whose recomputed stamp matches replays the verdict without
  /// raising rbac.checkAccess at all; every state change that could alter
  /// the verdict bumps one of the stamp's components at its firing site, so
  /// stale entries die lazily at lookup. The same entries answer zero-hop
  /// callers (DecisionCache::SharedLookup), which check the stamp against
  /// the words PublishFastPathState publishes plus the session's live
  /// generation: one table, one stamp. Guard rails, re-derived whenever
  /// the pool or epoch moves: caching is bypassed entirely if anything but
  /// the CA rule consumes rbac.checkAccess, denials are only cached while
  /// rbac.accessDenied has no consumers (active-security directives attach
  /// SEC rules to it, which must see every denial), and requests carrying a
  /// purpose always dispatch. Replayed denials carry rule/reason but no
  /// failed_condition (diagnostic only); replayed requests skip latency and
  /// span sampling but still count decisions/denials and feed the audit log.
  void ConfigureDecisionCache(size_t capacity);
  const DecisionCache& decision_cache() const { return decision_cache_; }
  /// Mutable cache access for tests (torn-publish fault injection) and
  /// service wiring. Must only be used by the engine's current owner (in
  /// the service, the thread holding the shard's owner lock).
  DecisionCache& decision_cache_for_test() { return decision_cache_; }

  /// Advances the stamp epoch, atomically invalidating every cached
  /// verdict. The engine bumps it itself on policy load/update and context
  /// change; the service bumps it on every shard inside each admin
  /// broadcast.
  void BumpDecisionCacheEpoch() {
    ++cache_epoch_;
    PublishFastPathState();
  }
  uint64_t decision_cache_epoch() const { return cache_epoch_; }

  uint64_t decision_cache_hits() const { return cache_hits_counter_->value(); }
  uint64_t decision_cache_misses() const {
    return cache_misses_counter_->value();
  }
  uint64_t decision_cache_stale() const {
    return cache_stale_counter_->value();
  }

  /// Bounded audit trail of the most recent decisions (administrators'
  /// report material; audit rules summarize it). Oldest first; a fixed-size
  /// ring buffer, so sustained traffic never grows it past its capacity.
  /// Records name things by symbol: resolve them through symbols().
  const DecisionLog& decision_log() const { return decision_log_; }
  /// Number of audit records shed once the ring filled up.
  uint64_t decision_log_overflow() const { return decision_log_.overflow(); }
  /// Sets the trail capacity (default 256; 0 disables recording, and with
  /// it the record sink).
  void set_decision_log_capacity(size_t capacity);

  /// Sink for decision records: called with each record as the trail
  /// stores it, `seq` assigned, on the thread running the engine — the
  /// hosting service installs one per shard to feed its audit exporter. It
  /// must not block; the record is valid only for the call.
  using RecordSink = std::function<void(const DecisionRecord& record)>;
  void set_record_sink(RecordSink sink) { record_sink_ = std::move(sink); }

 private:
  /// Raises `event` with a fresh Decision installed; applies the default
  /// deny when no rule decided.
  Decision Dispatch(EventId event, FlatParamMap params);

  /// Replays a precomputed removal delta, then re-adds from `to` guarded by
  /// live runtime-DB presence checks (the add half must see the shard's own
  /// runtime-diverged state, so it cannot be precomputed). Exact semantic
  /// equivalent of the old full-diff ReconcileBaseState.
  Status ApplyBaseDelta(const BaseStateDelta& delta, const Policy& to);

  /// The validity stamp a CheckAccess on `session` depends on, right now.
  DecisionCache::Stamp CacheStamp(Symbol session) const;
  /// Publishes the current epoch, pool and roles words for zero-hop
  /// readers. Called at the tail of every mutating public entry point, so
  /// the publish is complete before that call's result is acknowledged to
  /// its caller — the zero-hop read path's linearization anchor. A branch
  /// when the cache is off.
  void PublishFastPathState();
  /// Re-derives cache_positive_ok_ / cache_negative_ok_ from the current
  /// rule pool and event graph (called when pool generation or epoch moved).
  void RefreshCacheGates();
  /// Stores `record` in the trail and hands the stored slot to the record
  /// sink. Callers skip building a record while the trail is disabled.
  void Record(const DecisionRecord& record);
  /// The symbol a decision record stores for a verdict text (rule name,
  /// reason, condition label); the invalid symbol for empty text.
  Symbol RecordText(const std::string& text);
  /// True iff `decision` is one the cache can reconstruct exactly.
  static bool CacheableVerdict(const Decision& decision);
  /// Rebuilds a Decision from a cache hit and applies the bookkeeping the
  /// dispatched path would have done (counters, audit log, sampled span).
  /// The request symbols attribute the audit record like a full dispatch.
  Decision ReplayCachedVerdict(DecisionCache::Verdict verdict, Symbol session,
                               Symbol op, Symbol obj);

  SimulatedClock* clock_;  // Not owned.
  /// Shared by the detector, RBAC base and role-state table; declared
  /// first so it outlives every component that holds a pointer to it.
  SymbolTable symbols_;
  ParamKeys keys_;
  /// kCaRuleName and kDenyReason, interned at construction.
  Symbol ca_rule_name_;
  Symbol deny_reason_;
  /// The core events' names as symbols, indexed by EventId.
  std::vector<Symbol> event_names_;
  /// Declared before the detector and rule manager, which register their
  /// instruments on it at construction.
  telemetry::Registry metrics_;
  telemetry::TraceCollector tracer_;
  EventDetector detector_;
  RuleManager rules_;
  RbacSystem rbac_;
  RoleStateTable role_state_;
  PrivacyStore privacy_;
  ActiveSecurityMonitor security_;
  /// The installed generation. Always non-null (starts empty) because
  /// generated global rules read engine->policy() live at fire time. Only
  /// ever swapped on the engine's own thread; immutable once installed.
  std::shared_ptr<const Policy> policy_;
  uint64_t policy_version_ = 0;
  /// rbac_.base_removals() as of the last base-state reconcile. While the
  /// live counter still equals this mark, no runtime removal has touched
  /// the base relations and ApplyBaseDelta may replay the precomputed
  /// O(diff) add lists instead of re-scanning the whole target policy.
  uint64_t base_sync_mark_ = 0;
  /// Running count of policy entries skipped by best-effort reconciles
  /// (RegenReport::base_entries_skipped reports per-commit deltas).
  uint64_t base_reconcile_skips_ = 0;
  std::unique_ptr<RuleGenerator> generator_;
  CoreEvents events_;
  /// Live duration-expiry PLUS events by the role they bound.
  std::unordered_map<Symbol, std::vector<EventId>> duration_events_;
  std::map<std::string, std::string> context_;
  ThrottleSink throttle_sink_;
  DecisionLog decision_log_;
  RecordSink record_sink_;
  bool policy_loaded_ = false;
  DecisionCache decision_cache_;
  uint64_t cache_epoch_ = 0;
  /// Pool generation / epoch the gates below were derived under; starts
  /// out-of-band so the first cacheable request derives them.
  uint64_t gate_pool_generation_ = ~0ull;
  uint64_t gate_epoch_ = ~0ull;
  bool cache_positive_ok_ = false;
  bool cache_negative_ok_ = false;
  telemetry::Counter* decisions_counter_ = nullptr;  // Owned by metrics_.
  telemetry::Counter* denials_counter_ = nullptr;
  telemetry::Counter* cache_hits_counter_ = nullptr;
  telemetry::Counter* cache_misses_counter_ = nullptr;
  telemetry::Counter* cache_stale_counter_ = nullptr;
  telemetry::Counter* cache_fills_counter_ = nullptr;
  telemetry::Gauge* cache_entries_gauge_ = nullptr;
  telemetry::Histogram* latency_hist_ = nullptr;
  telemetry::Histogram* cascade_hist_ = nullptr;
  uint32_t latency_sample_every_ = 32;
  /// Dispatches until the next timed one; 0 = timing off. Starts at 1 so
  /// the first dispatch seeds the latency histogram (countdown instead of
  /// a modulo: no division on the fast path).
  uint32_t latency_tick_ = 1;
  /// Rule firings in the most recently drained cascade, stashed by the
  /// quiescent callback and recorded on sampled dispatches.
  uint64_t last_cascade_used_ = 0;
};

}  // namespace sentinel

#endif  // SENTINELPP_CORE_ENGINE_H_
