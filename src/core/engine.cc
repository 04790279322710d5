#include "core/engine.h"

#include "common/logging.h"
#include "core/rule_generator.h"

namespace sentinel {

// kCaRuleName is the one rule the decision cache may replay
// (rule_generator's global check-access rule). Its THEN is a pure Allow and
// its ELSE a Deny plus the rbac.accessDenied raise — which is why denials
// are only cached while that event has no consumers. Both constants live on
// the class so the service's zero-hop fast path reconstructs identical
// Decisions.

AuthorizationEngine::AuthorizationEngine(SimulatedClock* clock)
    : clock_(clock),
      detector_(clock, &symbols_, &metrics_, &tracer_),
      rules_(&detector_, &metrics_, &tracer_),
      rbac_(&symbols_),
      role_state_(&symbols_),
      policy_(std::make_shared<const Policy>()) {
  decisions_counter_ =
      metrics_.AddCounter("decisions_total", "authorization decisions made");
  denials_counter_ = metrics_.AddCounter("denials_total", "requests denied");
  cache_hits_counter_ = metrics_.AddCounter(
      "decision_cache_hits_total", "CheckAccess verdicts replayed from cache");
  cache_misses_counter_ = metrics_.AddCounter(
      "decision_cache_misses_total", "cacheable CheckAccess lookups that missed");
  cache_stale_counter_ = metrics_.AddCounter(
      "decision_cache_stale_total",
      "cache entries found dead (stamp mismatch) at lookup");
  cache_fills_counter_ = metrics_.AddCounter(
      "decision_cache_fills_total", "verdicts written into the cache");
  cache_entries_gauge_ = metrics_.AddGauge(
      "decision_cache_entries", "occupied decision cache slots");
  // 1us..16ms in powers of two, matching the ~sub-ms request path.
  latency_hist_ = metrics_.AddHistogram(
      "decision_latency_us", "sampled wall-clock dispatch latency (us)",
      telemetry::Histogram::ExponentialBounds(1, 2.0, 15));
  // 1..1024 firings per cascade, matching the default cascade budget.
  cascade_hist_ = metrics_.AddHistogram(
      "cascade_firings", "rule firings per drained cascade",
      telemetry::Histogram::ExponentialBounds(1, 2.0, 11));
  decision_log_.set_overflow_counter(metrics_.AddCounter(
      "decision_log_overflow_total",
      "decision audit records evicted from the in-memory ring"));
  keys_.user = symbols_.Intern(kUser);
  keys_.session = symbols_.Intern(kSession);
  keys_.role = symbols_.Intern(kRole);
  keys_.operation = symbols_.Intern(kOperation);
  keys_.object = symbols_.Intern(kObject);
  keys_.purpose = symbols_.Intern(kPurpose);
  keys_.context_key = symbols_.Intern("key");
  keys_.context_value = symbols_.Intern("value");
  rules_.set_engine(this);
  // Each independent trigger (request or timer firing) gets a fresh
  // cascade budget once its own cascade has fully drained. The drained
  // length is only stashed here — Dispatch records it into the histogram
  // on sampled dispatches, keeping the per-trigger path free of the
  // bucket-search cost.
  detector_.SetQuiescentCallback([this] {
    last_cascade_used_ = rules_.cascade_used();
    rules_.ResetCascadeBudget();
  });
  generator_ = std::make_unique<RuleGenerator>(this);

  // Each core event's name is interned beside its definition: a decision
  // record names its request event by symbol.
  auto define = [this](const char* name) {
    auto result = detector_.DefinePrimitive(name);
    // Core event names are unique literals; failure is impossible.
    if (!result.ok()) return kInvalidEventId;
    const size_t index = static_cast<size_t>(*result);
    if (event_names_.size() <= index) event_names_.resize(index + 1);
    event_names_[index] = symbols_.Intern(name);
    return *result;
  };
  events_.create_session = define("rbac.createSession");
  events_.delete_session = define("rbac.deleteSession");
  events_.add_active_role = define("rbac.addActiveRole");
  events_.drop_active_role = define("rbac.dropActiveRole");
  events_.check_access = define("rbac.checkAccess");
  events_.assign_user = define("rbac.assignUser");
  events_.deassign_user = define("rbac.deassignUser");
  events_.enable_role = define("rbac.enableRole");
  events_.disable_role = define("rbac.disableRole");
  events_.session_role_added = define("rbac.sessionRoleAdded");
  events_.session_role_dropped = define("rbac.sessionRoleDropped");
  events_.role_enabled = define("rbac.roleEnabled");
  events_.role_disabled = define("rbac.roleDisabled");
  events_.access_denied = define("rbac.accessDenied");
  events_.security_alert = define("rbac.securityAlert");
  events_.context_changed = define("rbac.contextChanged");
  ca_rule_name_ = symbols_.Intern(kCaRuleName);
  deny_reason_ = symbols_.Intern(kDenyReason);
}

AuthorizationEngine::~AuthorizationEngine() = default;

Status AuthorizationEngine::LoadPolicy(const Policy& policy) {
  return LoadPolicy(std::make_shared<const Policy>(policy));
}

Status AuthorizationEngine::LoadPolicy(std::shared_ptr<const Policy> policy) {
  if (policy_loaded_) {
    return Status::FailedPrecondition(
        "a policy is already loaded; use ApplyPolicyUpdate");
  }
  if (!policy) return Status::InvalidArgument("null policy");
  SENTINEL_RETURN_IF_ERROR(policy->Validate());
  SENTINEL_RETURN_IF_ERROR(
      ApplyBaseDelta(ComputeBaseStateDelta(*policy_, *policy), *policy));
  policy_ = std::move(policy);
  policy_loaded_ = true;
  ++policy_version_;
  auto stats = generator_->GenerateAll(*policy_);
  if (!stats.ok()) return stats.status();
  BumpDecisionCacheEpoch();
  return Status::OK();
}

Result<RegenReport> AuthorizationEngine::ApplyPolicyUpdate(
    const Policy& updated) {
  if (!policy_loaded_) {
    return Status::FailedPrecondition("no policy loaded yet");
  }
  auto plan = PreparePolicyUpdate(policy_, updated);
  if (!plan.ok()) return plan.status();
  return CommitPolicyUpdate(*plan);
}

Result<PolicyUpdatePlan> AuthorizationEngine::PreparePolicyUpdate(
    std::shared_ptr<const Policy> base, Policy next) {
  if (!base) return Status::FailedPrecondition("no policy loaded yet");
  // An installed generation passed Validate when it was loaded or
  // prepared, so the sections `next` still shares with it need no
  // re-check (see Policy::Validate).
  SENTINEL_RETURN_IF_ERROR(next.Validate(base.get()));
  PolicyUpdatePlan plan;
  plan.base = std::move(base);
  plan.next = std::make_shared<const Policy>(std::move(next));
  plan.affected_roles = Policy::AffectedRoles(*plan.base, *plan.next);
  plan.affected_users = Policy::AffectedUsers(*plan.base, *plan.next);
  plan.directives_changed = Policy::DirectivesChanged(*plan.base, *plan.next);
  plan.delta = ComputeBaseStateDelta(*plan.base, *plan.next);
  return plan;
}

Result<RegenReport> AuthorizationEngine::CommitPolicyUpdate(
    const PolicyUpdatePlan& plan) {
  if (!policy_loaded_) {
    return Status::FailedPrecondition("no policy loaded yet");
  }
  if (plan.base.get() != policy_.get()) {
    return Status::FailedPrecondition(
        "stale policy update plan: another generation was installed since "
        "it was prepared");
  }
  const uint64_t skips_before = base_reconcile_skips_;
  SENTINEL_RETURN_IF_ERROR(ApplyBaseDelta(plan.delta, *plan.next));
  // The RCU flip: one pointer store. The retired generation stays alive
  // for as long as anything (another shard, the service's handle, an
  // in-flight plan) still references it, then frees by refcount.
  policy_ = plan.next;
  ++policy_version_;

  auto regen = generator_->Regenerate(*policy_, plan.affected_roles,
                                      plan.affected_users,
                                      plan.directives_changed);
  if (!regen.ok()) return regen.status();
  // Invalidate through the stamp, not the epoch: every cached verdict
  // carries the rule-pool generation, so bumping it retires entries filled
  // under the old generation lazily at lookup — without the blanket cache
  // wipe the epoch barrier used to pay for.
  rules_.BumpPoolGeneration();
  PublishFastPathState();

  RegenReport report;
  report.roles_affected = static_cast<int>(plan.affected_roles.size());
  report.users_affected = static_cast<int>(plan.affected_users.size());
  report.rules_removed = regen->rules_removed;
  report.rules_added = regen->rules_added;
  report.events_added = regen->events_added;
  report.directives_rebuilt = plan.directives_changed;
  report.base_entries_skipped =
      static_cast<int>(base_reconcile_skips_ - skips_before);
  return report;
}

Status AuthorizationEngine::ApplyBaseDelta(const BaseStateDelta& delta,
                                           const Policy& to) {
  // Ordered so that constraint stores never spuriously reject: retire
  // constraints first, shrink relations, then grow them, then re-install
  // constraints. Steps 1-4 replay the precomputed removal delta. While no
  // runtime base-state removal has run since the last reconcile (the common
  // case — base_removals() still at the mark), the runtime DB is a superset
  // of the old policy's entries, so the precomputed add delta is all that
  // can be missing: O(diff). A deassign/revoke/delete since then (an admin
  // request, an active-security response) moves the counter, and the
  // commit re-syncs by replaying every entry of the target policy through
  // the same presence-guarded steps.
  const bool resync = rbac_.base_removals() != base_sync_mark_;
  const BaseStateDelta everything =
      resync ? ComputeBaseStateDelta(Policy(), to) : BaseStateDelta();
  const BaseStateDelta& adds = resync ? everything : delta;
  // The adds are BEST-EFFORT: an entry the live runtime state refuses
  // (e.g. a policy assignment that now conflicts with runtime SSD state
  // after an active-security deassign elsewhere) is skipped, counted, and
  // logged — never a commit failure. Refusing mid-apply cannot be atomic
  // (steps 1-4 already mutated), and in the sharded service runtime state
  // legitimately differs per shard (decision-triggered rule actions land
  // only on the deciding shard), so a per-shard refusal would leave the
  // generations split-brained and wedge every later plan as stale. The
  // runtime constraint wins; the dropped entry surfaces in
  // RegenReport::base_entries_skipped and the warning log.
  const auto best_effort = [this](const Status& status) {
    if (status.ok()) return;
    ++base_reconcile_skips_;
    SENTINEL_LOG(kWarning)
        << "policy reconcile skipped an entry the live state refuses: "
        << status.message();
  };
  // 1. Drop SSD/DSD sets that changed or disappeared.
  for (const std::string& name : delta.drop_ssd) (void)rbac_.DeleteSsdSet(name);
  for (const std::string& name : delta.drop_dsd) (void)rbac_.DeleteDsdSet(name);
  // 2. Deassign removed assignments; revoke removed grants.
  for (const auto& [user, role] : delta.deassign) {
    (void)rbac_.DeassignUser(user, role);
  }
  for (const auto& [role, perm] : delta.revoke) {
    (void)rbac_.RevokePermission(perm.operation, perm.object, role);
  }
  // 3. Remove hierarchy edges that disappeared.
  for (const auto& [senior, junior] : delta.drop_edges) {
    (void)rbac_.DeleteInheritance(senior, junior);
  }
  // 4. Delete roles and users that disappeared.
  for (const RoleName& name : delta.drop_roles) {
    (void)rbac_.DeleteRole(name);
    role_state_.EraseRole(name);
  }
  for (const UserName& name : delta.drop_users) (void)rbac_.DeleteUser(name);
  // 5-7. Users and roles, then edges, grants and assignments, then SoD
  // sets. Each add is guarded by presence: a runtime *add* may already
  // have installed an entry the list names (e.g. a runtime-assigned
  // (user, role) the new policy now also carries).
  for (const UserName& name : adds.add_users) {
    if (!rbac_.db().HasUser(name)) {
      best_effort(rbac_.AddUser(name));
    }
  }
  for (const RoleName& name : adds.add_roles) {
    if (!rbac_.db().HasRole(name)) {
      best_effort(rbac_.AddRole(name));
    }
  }
  for (const auto& [senior, junior] : adds.add_edges) {
    if (!rbac_.hierarchy().ImmediateJuniors(senior).count(junior)) {
      best_effort(rbac_.AddInheritance(senior, junior));
    }
  }
  for (const auto& [role, perm] : adds.add_grants) {
    if (!rbac_.db().IsGranted(perm, role)) {
      best_effort(rbac_.GrantPermission(perm.operation, perm.object, role));
    }
  }
  for (const auto& [user, role] : adds.add_assignments) {
    if (!rbac_.db().IsAssigned(user, role)) {
      best_effort(rbac_.AssignUser(user, role));
    }
  }
  for (const std::string& name : adds.add_ssd) {
    if (!rbac_.ssd().GetSet(name).ok()) {
      const auto& set = to.ssd_sets().at(name);
      best_effort(rbac_.InstallSsdSet(name, set.roles, set.n));
    }
  }
  for (const std::string& name : adds.add_dsd) {
    if (!rbac_.dsd().GetSet(name).ok()) {
      const auto& set = to.dsd_sets().at(name);
      best_effort(rbac_.InstallDsdSet(name, set.roles, set.n));
    }
  }
  // 8. Privacy store: rebuild when purposes/object policies changed (the
  // reconcile is the store's only mutator, so an unchanged delta means an
  // unchanged store).
  if (delta.privacy_changed) {
    privacy_ = PrivacyStore();
    for (const PurposeSpec& purpose : to.purposes()) {
      SENTINEL_RETURN_IF_ERROR(privacy_.AddPurpose(purpose.name,
                                                   purpose.parent));
    }
    for (const ObjectPolicySpec& spec : to.object_policies()) {
      SENTINEL_RETURN_IF_ERROR(
          privacy_.SetObjectPolicy(spec.object, spec.purposes));
    }
  }
  // 9. Role enablement: initialize from enabling windows at current time.
  // Only window-bearing roles (and roles whose window disappeared) can
  // change enablement here, so the precomputed lists cover every case the
  // full role iteration did.
  const Time now = Now();
  for (const RoleName& name : delta.window_roles) {
    const auto& window = to.roles().at(name).enabling_window;
    if (window->Contains(now)) {
      role_state_.Enable(name);
    } else {
      role_state_.Disable(name);
      DeactivateAllInstances(symbols_.Find(name));
    }
  }
  for (const RoleName& name : delta.window_removed) {
    role_state_.Enable(name);  // Window removed.
  }
  // The reconcile itself deassigns/revokes/deletes through the counted
  // mutators, so the mark is captured after the fact: the next commit may
  // take the O(diff) path unless NEW removals land in between.
  base_sync_mark_ = rbac_.base_removals();
  return Status::OK();
}

Decision AuthorizationEngine::Dispatch(EventId event, FlatParamMap params) {
  // Sampled instrumentation keeps the fast path flat: wall-clock reads
  // happen on one dispatch in latency_sample_every_, spans per the
  // tracer's own sampling. A traced-but-untimed span reports wall_ns 0.
  const bool timed = latency_tick_ != 0 && --latency_tick_ == 0;
  if (timed) latency_tick_ = latency_sample_every_;
  const int64_t start_ns = timed ? telemetry::NowNanos() : 0;
  const bool traced = tracer_.Begin(Now(), detector_.name(event));
  // Attribution symbols must be read before the params move below; the
  // record keeps them as they are, and only the audit writer resolves them.
  const bool logged = decision_log_.capacity() > 0;
  Symbol a_user, a_session, a_role, a_op, a_obj, a_purpose;
  if (logged) {
    a_user = params.Get(keys_.user).AsSymbol();
    a_session = params.Get(keys_.session).AsSymbol();
    a_role = params.Get(keys_.role).AsSymbol();
    a_op = params.Get(keys_.operation).AsSymbol();
    a_obj = params.Get(keys_.object).AsSymbol();
    a_purpose = params.Get(keys_.purpose).AsSymbol();
  }
  Decision decision;
  {
    ScopedDecision scope(&rules_, &decision);
    (void)detector_.Raise(event, std::move(params));
  }
  if (!decision.decided) {
    // Fail-safe default: requests no rule adjudicates are denied.
    decision.Deny("", "Permission Denied");
  }
  const int64_t elapsed_ns = timed ? telemetry::NowNanos() - start_ns : 0;
  decisions_counter_->Inc();
  if (!decision.allowed) denials_counter_->Inc();
  if (timed) {
    latency_hist_->Record(elapsed_ns / 1000);
    // Same sample as the latency read: cascade length of the drain this
    // dispatch just triggered (quiet cascades are not observations).
    if (last_cascade_used_ > 0) {
      cascade_hist_->Record(static_cast<int64_t>(last_cascade_used_));
    }
  }
  if (traced) tracer_.End(decision.allowed, decision.rule, elapsed_ns);
  if (logged) {
    Record({.when = Now(),
            .wall_us = WallTimeMicros(),
            .latency_us = elapsed_ns / 1000,
            .event = event_names_[event],
            .user = a_user,
            .session = a_session,
            .role = a_role,
            .op = a_op,
            .object = a_obj,
            .purpose = a_purpose,
            .allowed = decision.allowed,
            .rule = RecordText(decision.rule),
            .reason = RecordText(decision.reason),
            .failed_condition = RecordText(decision.failed_condition)});
  }
  // Whatever this dispatch's cascade mutated is reflected in the published
  // words by the time the caller (and, through the service, the client) learns
  // the outcome. Every mutating engine entry point funnels through here.
  PublishFastPathState();
  return decision;
}

void AuthorizationEngine::set_decision_log_capacity(size_t capacity) {
  decision_log_.set_capacity(capacity);
}

void AuthorizationEngine::Record(const DecisionRecord& record) {
  const DecisionRecord* stored = decision_log_.Push(record);
  if (stored != nullptr && record_sink_) record_sink_(*stored);
}

Symbol AuthorizationEngine::RecordText(const std::string& text) {
  // Rule names, literal reasons and condition labels are a closed set, so
  // after the first decision each is already in the table and this is a
  // lookup.
  return text.empty() ? Symbol() : symbols_.Intern(text);
}

Decision AuthorizationEngine::CreateSession(const UserName& user,
                                            const SessionId& session) {
  return Dispatch(events_.create_session,
                  {{keys_.user, Value(symbols_.Intern(user))},
                   {keys_.session, Value(symbols_.Intern(session))}});
}

Decision AuthorizationEngine::DeleteSession(const SessionId& session) {
  return Dispatch(events_.delete_session,
                  {{keys_.session, Value(symbols_.Intern(session))}});
}

Decision AuthorizationEngine::AddActiveRole(const UserName& user,
                                            const SessionId& session,
                                            const RoleName& role) {
  return Dispatch(events_.add_active_role,
                  {{keys_.user, Value(symbols_.Intern(user))},
                   {keys_.session, Value(symbols_.Intern(session))},
                   {keys_.role, Value(symbols_.Intern(role))}});
}

Decision AuthorizationEngine::DropActiveRole(const UserName& user,
                                             const SessionId& session,
                                             const RoleName& role) {
  return Dispatch(events_.drop_active_role,
                  {{keys_.user, Value(symbols_.Intern(user))},
                   {keys_.session, Value(symbols_.Intern(session))},
                   {keys_.role, Value(symbols_.Intern(role))}});
}

void AuthorizationEngine::ConfigureDecisionCache(size_t capacity) {
  decision_cache_.Configure(capacity);
  cache_entries_gauge_->Set(0);
  // Seed the published words so readers arriving before the first
  // mutation validate against real values, not zero-init.
  PublishFastPathState();
}

void AuthorizationEngine::PublishFastPathState() {
  if (decision_cache_.enabled()) {
    decision_cache_.PublishCurrentStamp(CacheStamp(Symbol()));
  }
}

DecisionCache::Stamp AuthorizationEngine::CacheStamp(Symbol session) const {
  DecisionCache::Stamp stamp;
  stamp.epoch = static_cast<uint32_t>(cache_epoch_);
  stamp.pool = static_cast<uint32_t>(rules_.pool_generation());
  stamp.roles = role_state_.roles_generation();
  stamp.session = rbac_.db().SessionGeneration(session);
  return stamp;
}

void AuthorizationEngine::RefreshCacheGates() {
  gate_pool_generation_ = rules_.pool_generation();
  gate_epoch_ = cache_epoch_;
  // Replaying a verdict skips the rbac.checkAccess Raise, which is sound
  // only while the event's sole consumer is the rule dispatcher firing the
  // CA rule whose verdict we reconstruct. Any other consumer — another
  // rule, a composite operand, an indexed filter, an external subscriber —
  // would miss occurrences, so its presence turns the cache off.
  const std::vector<Rule*>* ca_rules = rules_.RulesFor(events_.check_access);
  const size_t rule_count = ca_rules == nullptr ? 0 : ca_rules->size();
  const size_t expected_consumers = rule_count > 0 ? 1 : 0;
  cache_positive_ok_ =
      detector_.ConsumerCount(events_.check_access) == expected_consumers &&
      (rule_count == 0 ||
       (rule_count == 1 && (*ca_rules)[0]->name() == kCaRuleName));
  // The CA rule's ELSE raises rbac.accessDenied; a replayed denial
  // suppresses that raise, so denials are cacheable only while nothing
  // consumes it (active-security SEC rules do — denial bursts must count).
  cache_negative_ok_ = cache_positive_ok_ &&
                       detector_.ConsumerCount(events_.access_denied) == 0;
}

bool AuthorizationEngine::CacheableVerdict(const Decision& decision) {
  if (decision.allowed) return decision.rule == kCaRuleName;
  return (decision.rule.empty() || decision.rule == kCaRuleName) &&
         decision.reason == kDenyReason;
}

Decision AuthorizationEngine::ReplayCachedVerdict(DecisionCache::Verdict
                                                      verdict,
                                                  Symbol session, Symbol op,
                                                  Symbol obj) {
  // Replays join the same sampled latency stream as full dispatches: on a
  // cache-heavy workload the decision_latency_us p50 must reflect hits,
  // not just the residue of misses.
  const bool timed = latency_tick_ != 0 && --latency_tick_ == 0;
  if (timed) latency_tick_ = latency_sample_every_;
  const int64_t start_ns = timed ? telemetry::NowNanos() : 0;
  Decision decision;
  if (verdict.allowed) {
    decision.Allow(kCaRuleName);
  } else {
    decision.Deny(verdict.by_rule ? kCaRuleName : "", kDenyReason);
  }
  decisions_counter_->Inc();
  if (!decision.allowed) denials_counter_->Inc();
  if (timed) {
    latency_hist_->Record((telemetry::NowNanos() - start_ns) / 1000);
  }
  if (tracer_.Begin(Now(), detector_.name(events_.check_access))) {
    tracer_.EndCached(decision.allowed, decision.rule);
  }
  if (decision_log_.capacity() > 0) {
    DecisionRecord record = CachedVerdictRecord(verdict);
    record.when = Now();
    record.wall_us = WallTimeMicros();
    record.event = event_names_[events_.check_access];
    record.session = session;
    record.op = op;
    record.object = obj;
    Record(record);
  }
  return decision;
}

DecisionRecord AuthorizationEngine::CachedVerdictRecord(
    DecisionCache::Verdict verdict) const {
  DecisionRecord record;
  record.allowed = verdict.allowed;
  if (verdict.allowed || verdict.by_rule) record.rule = ca_rule_name_;
  if (!verdict.allowed) record.reason = deny_reason_;
  return record;
}

Decision AuthorizationEngine::CheckAccess(const SessionId& session,
                                          const OperationName& op,
                                          const ObjectName& obj,
                                          const PurposeName& purpose) {
  const Symbol session_sym = symbols_.Intern(session);
  const Symbol op_sym = symbols_.Intern(op);
  const Symbol obj_sym = symbols_.Intern(obj);
  uint64_t key = 0;
  DecisionCache::Stamp stamp;
  bool fillable = false;
  // Purpose is deliberately outside the packed key, so privacy-qualified
  // requests always dispatch.
  if (decision_cache_.enabled() && purpose.empty()) {
    if (gate_pool_generation_ != rules_.pool_generation() ||
        gate_epoch_ != cache_epoch_) {
      RefreshCacheGates();
    }
    const std::optional<uint64_t> packed =
        DecisionCache::PackKey(session_sym, op_sym, obj_sym);
    if (packed.has_value() && cache_positive_ok_) {
      key = *packed;
      stamp = CacheStamp(session_sym);
      DecisionCache::Verdict verdict;
      switch (decision_cache_.Lookup(key, stamp, &verdict)) {
        case DecisionCache::Outcome::kHit:
          cache_hits_counter_->Inc();
          return ReplayCachedVerdict(verdict, session_sym, op_sym, obj_sym);
        case DecisionCache::Outcome::kStale:
          cache_stale_counter_->Inc();
          fillable = true;
          break;
        case DecisionCache::Outcome::kMiss:
        case DecisionCache::Outcome::kTorn:  // Only SharedLookup tears.
          cache_misses_counter_->Inc();
          fillable = true;
          break;
      }
    }
  }
  FlatParamMap params = {{keys_.session, Value(session_sym)},
                         {keys_.operation, Value(op_sym)},
                         {keys_.object, Value(obj_sym)}};
  if (!purpose.empty()) {
    params.Set(keys_.purpose, Value(symbols_.Intern(purpose)));
  }
  Decision decision = Dispatch(events_.check_access, std::move(params));
  // Fill only when the pre-dispatch stamp still holds: a denial's cascade
  // (SEC alerts disabling rules or roles) may have moved the very state
  // this verdict was computed under.
  if (fillable && (decision.allowed || cache_negative_ok_) &&
      CacheableVerdict(decision) && CacheStamp(session_sym) == stamp) {
    decision_cache_.Fill(key, stamp,
                         DecisionCache::Verdict{
                             decision.allowed, decision.rule == kCaRuleName});
    cache_fills_counter_->Inc();
    cache_entries_gauge_->Set(static_cast<int64_t>(decision_cache_.size()));
  }
  return decision;
}

Decision AuthorizationEngine::AssignUser(const UserName& user,
                                         const RoleName& role) {
  return Dispatch(events_.assign_user,
                  {{keys_.user, Value(symbols_.Intern(user))},
                   {keys_.role, Value(symbols_.Intern(role))}});
}

Decision AuthorizationEngine::DeassignUser(const UserName& user,
                                           const RoleName& role) {
  return Dispatch(events_.deassign_user,
                  {{keys_.user, Value(symbols_.Intern(user))},
                   {keys_.role, Value(symbols_.Intern(role))}});
}

Decision AuthorizationEngine::EnableRole(const RoleName& role) {
  return Dispatch(events_.enable_role,
                  {{keys_.role, Value(symbols_.Intern(role))}});
}

Decision AuthorizationEngine::DisableRole(const RoleName& role) {
  return Dispatch(events_.disable_role,
                  {{keys_.role, Value(symbols_.Intern(role))}});
}

void AuthorizationEngine::AdvanceTo(Time t) {
  detector_.AdvanceTo(t, clock_);
  // Timer-driven firings (periodic enable/disable, duration expiry) mutate
  // role state without passing through Dispatch.
  PublishFastPathState();
}

void AuthorizationEngine::SetContext(const std::string& key,
                                     const std::string& value) {
  context_[key] = value;
  // Context moves can flip CTX-rule verdict paths that never touch a
  // session or role generation; a full epoch bump is the safe blanket.
  BumpDecisionCacheEpoch();
  const Symbol key_sym = symbols_.Intern(key);
  const Symbol value_sym = symbols_.Intern(value);
  (void)detector_.Raise(events_.context_changed,
                        {{keys_.context_key, Value(key_sym)},
                         {keys_.context_value, Value(value_sym)}});
  // Context moves never produce a Decision, but the audit trail (and the
  // replay tool reconstructing this engine's inputs from it) must see them:
  // record a synthetic always-allowed entry, key/value riding in the
  // op/object slots.
  if (decision_log_.capacity() > 0) {
    Record({.when = Now(),
            .wall_us = WallTimeMicros(),
            .event = event_names_[events_.context_changed],
            .op = key_sym,
            .object = value_sym,
            .allowed = true});
  }
  // The contextChanged cascade may itself mutate state after the epoch
  // bump above already published; re-publish at the tail.
  PublishFastPathState();
}

const std::string& AuthorizationEngine::ContextValue(
    const std::string& key) const {
  static const std::string* kEmpty = new std::string();
  auto it = context_.find(key);
  return it == context_.end() ? *kEmpty : it->second;
}

bool AuthorizationEngine::ContextSatisfied(
    const std::map<std::string, std::string>& required) const {
  for (const auto& [key, value] : required) {
    auto it = context_.find(key);
    if (it == context_.end() || it->second != value) return false;
  }
  return true;
}

Status AuthorizationEngine::ForceDeactivate(Symbol user, Symbol session,
                                            Symbol role) {
  SENTINEL_RETURN_IF_ERROR(rbac_.db().DropSessionRole(session, role));
  CancelDurationTimers(session, role);
  return detector_.Raise(events_.session_role_dropped,
                         {{keys_.user, Value(user)},
                          {keys_.session, Value(session)},
                          {keys_.role, Value(role)}});
}

int AuthorizationEngine::DeactivateAllInstances(Symbol role) {
  const RbacDatabase& db = rbac_.db();
  int count = 0;
  for (Symbol session : symbols_.ByName(db.SessionsWithRole(role))) {
    // An earlier drop's cascade may have dropped this instance already;
    // ForceDeactivate then fails and raises nothing.
    const RbacDatabase::SessionState* state = db.GetSessionState(session);
    if (state != nullptr && ForceDeactivate(state->user, session, role).ok()) {
      ++count;
    }
  }
  return count;
}

int AuthorizationEngine::CountUserActiveRoles(Symbol user) const {
  int count = 0;
  for (Symbol session : rbac_.db().UserSessions(user)) {
    const RbacDatabase::SessionState* state =
        rbac_.db().GetSessionState(session);
    if (state != nullptr) count += static_cast<int>(state->active_roles.size());
  }
  return count;
}

bool AuthorizationEngine::TsodGuardedNow(const RoleName& role,
                                         TimeSodKind kind) const {
  const Time now = Now();
  for (const TimeSod& constraint : policy_->time_sods()) {
    if (constraint.kind != kind) continue;
    if (constraint.roles.count(role) == 0) continue;
    if (constraint.period.Contains(now)) return true;
  }
  return false;
}

bool AuthorizationEngine::IsCfdTrigger(const RoleName& role) const {
  for (const CfdPair& pair : policy_->cfd_pairs()) {
    if (pair.trigger == role) return true;
  }
  return false;
}

bool AuthorizationEngine::DisableTsodOk(const RoleName& role) const {
  const Time now = Now();
  for (const TimeSod& constraint : policy_->time_sods()) {
    if (constraint.kind != TimeSodKind::kDisabling) continue;
    if (constraint.roles.count(role) == 0) continue;
    if (!constraint.period.Contains(now)) continue;
    bool counter_enabled = false;
    for (const RoleName& other : constraint.roles) {
      if (other != role && role_state_.IsEnabled(other)) {
        counter_enabled = true;
        break;
      }
    }
    if (!counter_enabled) return false;
  }
  return true;
}

bool AuthorizationEngine::EnableTsodOk(const RoleName& role) const {
  const Time now = Now();
  for (const TimeSod& constraint : policy_->time_sods()) {
    if (constraint.kind != TimeSodKind::kEnabling) continue;
    if (constraint.roles.count(role) == 0) continue;
    if (!constraint.period.Contains(now)) continue;
    bool counter_disabled = false;
    for (const RoleName& other : constraint.roles) {
      if (other != role && !role_state_.IsEnabled(other)) {
        counter_disabled = true;
        break;
      }
    }
    if (!counter_disabled) return false;
  }
  return true;
}

void AuthorizationEngine::RegisterDurationEvent(Symbol role,
                                                EventId plus_event) {
  std::vector<EventId>& events = duration_events_[role];
  std::erase_if(events, [this](EventId event) {
    return detector_.IsDeactivated(event);
  });
  events.push_back(plus_event);
}

void AuthorizationEngine::CancelDurationTimers(Symbol session, Symbol role) {
  // Both duration families start from a filter on the role (ev.added.<role>
  // and ev.added.u.<user>.r.<role>), so only events filed under `role` can
  // hold an expiry of this activation; each PLUS buckets its expiries by
  // session, so the cancel checks one bucket per event.
  auto it = duration_events_.find(role);
  if (it == duration_events_.end()) return;
  const FlatParamMap match{{keys_.session, Value(session)},
                           {keys_.role, Value(role)}};
  for (EventId event : it->second) {
    if (detector_.IsDeactivated(event)) continue;
    (void)detector_.CancelPendingPlus(event, match);
  }
}

}  // namespace sentinel
