#include "service/authorization_service.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/logging.h"
#include "core/decision_cache.h"
#include "telemetry/exposition.h"

namespace sentinel {
namespace {

using telemetry::NowNanos;

/// Fixed FNV-1a so request placement never depends on platform hash seeds:
/// the same user lands on the same shard in every run and every process.
uint64_t Fnv1a(const std::string& name) {
  uint64_t hash = 1469598103934665603ull;
  for (const char c : name) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// The shard whose thread is running this code; null on every other thread
/// (a caller running an envelope inline, or synchronous mode).
thread_local const void* tls_serving_shard = nullptr;

}  // namespace

void AuthorizationService::Latch::Arrive() {
  std::lock_guard<std::mutex> lock(mu_);
  if (--remaining_ == 0) cv_.notify_all();
}

void AuthorizationService::Latch::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return remaining_ <= 0; });
}

Status AuthorizationService::ValidateConfig(const ServiceConfig& config) {
  if (config.num_shards != ServiceConfig::kAutoShards &&
      config.num_shards < 1) {
    return Status::InvalidArgument(
        "num_shards must be >= 1 or ServiceConfig::kAutoShards; got " +
        std::to_string(config.num_shards));
  }
  if (config.decision_cache_capacity != 0 &&
      !DecisionCache::IsPowerOfTwo(config.decision_cache_capacity)) {
    return Status::InvalidArgument(
        "decision_cache_capacity must be 0 or a power of two; got " +
        std::to_string(config.decision_cache_capacity));
  }
  if (config.overload_policy == OverloadPolicy::kShed &&
      config.mailbox_capacity == 0) {
    return Status::InvalidArgument(
        "overload_policy kShed requires mailbox_capacity > 0 — an unbounded "
        "mailbox can never shed");
  }
  if (config.decision_cache_fastpath && config.decision_cache_capacity == 0) {
    return Status::InvalidArgument(
        "decision_cache_fastpath requires decision_cache_capacity > 0 — "
        "there is no snapshot to read with the cache off");
  }
  if (config.default_deadline < 0) {
    return Status::InvalidArgument(
        "default_deadline must be >= 0 (0 disables); got " +
        std::to_string(config.default_deadline));
  }
  if (!config.audit_path.empty() && config.audit_queue_capacity == 0) {
    return Status::InvalidArgument(
        "audit_queue_capacity must be > 0 when audit_path is set — a "
        "zero-capacity hand-off would drop every record");
  }
  if (config.quota_rate_per_s < 0) {
    return Status::InvalidArgument(
        "quota_rate_per_s must be >= 0 (0 disables the default quota); got " +
        std::to_string(config.quota_rate_per_s));
  }
  if (config.quota_burst < 0) {
    return Status::InvalidArgument(
        "quota_burst must be >= 0 (0 behaves as 1); got " +
        std::to_string(config.quota_burst));
  }
  if (config.policer_capacity == 0 ||
      !DecisionCache::IsPowerOfTwo(config.policer_capacity)) {
    return Status::InvalidArgument(
        "policer_capacity must be a power of two (the policer is an "
        "open-addressed slot table); got " +
        std::to_string(config.policer_capacity));
  }
  bool any_static_quota = config.quota_rate_per_s > 0;
  for (const PrincipalQuota& quota : config.quota_overrides) {
    if (quota.principal.empty()) {
      return Status::InvalidArgument(
          "quota_overrides entries must name a principal");
    }
    if (quota.rate_per_s > 0) any_static_quota = true;
  }
  if (any_static_quota &&
      config.quota_enforcement == QuotaEnforcement::kOnOverload &&
      config.mailbox_capacity == 0) {
    return Status::InvalidArgument(
        "a static quota with QuotaEnforcement::kOnOverload requires "
        "mailbox_capacity > 0 — an unbounded mailbox never overloads, so "
        "the quota could never refuse anything; bound the mailbox or use "
        "QuotaEnforcement::kAlways");
  }
  return Status::OK();
}

Result<std::unique_ptr<AuthorizationService>> AuthorizationService::Create(
    const ServiceConfig& config) {
  SENTINEL_RETURN_IF_ERROR(ValidateConfig(config));
  return std::make_unique<AuthorizationService>(config);
}

AuthorizationService::AuthorizationService(const ServiceConfig& config)
    : synchronous_(config.synchronous),
      init_status_(ValidateConfig(config)),
      shed_on_full_(config.overload_policy == OverloadPolicy::kShed),
      default_deadline_(config.default_deadline) {
  int count = config.num_shards;
  size_t cache_capacity = config.decision_cache_capacity;
  bool fastpath = config.decision_cache_fastpath;
  if (!init_status_.ok()) {
    SENTINEL_LOG(kError) << "AuthorizationService config rejected ("
                        << init_status_.message()
                        << "); degrading to 1 shard, cache off, fast path "
                           "off, no overload protection";
    count = 1;
    cache_capacity = 0;
    fastpath = false;
    shed_on_full_ = false;
    default_deadline_ = 0;
  }
  if (count <= 0) {
    count = static_cast<int>(std::thread::hardware_concurrency());
    if (count <= 0) count = 1;
  }
  if (synchronous_) count = 1;
  // Synchronous calls already run inline on the caller's thread; the fast
  // path would only add a redundant probe in front of the engine's own
  // cache lookup.
  fastpath_ = fastpath && cache_capacity > 0 && !synchronous_;
  latency_sample_every_ = config.latency_sample_every;
  now_.store(config.start_time, std::memory_order_release);

  // Service-boundary instruments, registered (like the shards' own) before
  // any thread exists — the registry is structurally frozen from here on.
  requests_counter_ = service_metrics_.AddCounter(
      "service_requests_total", "requests accepted at the service boundary");
  batches_counter_ =
      service_metrics_.AddCounter("service_batches_total",
                                  "CheckAccessBatch calls");
  broadcasts_counter_ = service_metrics_.AddCounter(
      "admin_broadcasts_total", "epoch-barriered admin broadcasts");
  sessions_gauge_ = service_metrics_.AddGauge(
      "service_sessions", "sessions tracked in the routing registry");
  batch_size_hist_ = service_metrics_.AddHistogram(
      "batch_size", "requests per CheckAccessBatch call",
      telemetry::Histogram::ExponentialBounds(1, 2.0, 11));
  // Identical name and bounds to the engines' series: snapshot merging
  // folds sampled fast-path hits into the same latency distribution.
  fastpath_latency_hist_ = service_metrics_.AddHistogram(
      "decision_latency_us", "sampled wall-clock dispatch latency (us)",
      telemetry::Histogram::ExponentialBounds(1, 2.0, 15));
  policer_refused_counter_ = service_metrics_.AddCounter(
      "policer_refused_total",
      "requests refused kOverloaded for exceeding their principal's quota");
  envelopes_inline_counter_ = service_metrics_.AddCounter(
      "service_envelopes_inline_total",
      "decision envelopes run on the caller's thread (idle shard, or "
      "synchronous mode)");
  envelopes_queued_counter_ = service_metrics_.AddCounter(
      "service_envelopes_queued_total",
      "decision envelopes handed to a shard thread through its mailbox");
  // Always constructed: threshold rules can throttle a principal at runtime
  // even when no static quota was configured. Inactive, it costs one
  // relaxed load per request.
  Policer::Options policer_options;
  policer_options.capacity =
      init_status_.ok() ? config.policer_capacity : size_t{1024};
  policer_options.clock = config.quota_clock;
  if (init_status_.ok() && config.quota_rate_per_s > 0) {
    policer_options.default_quota = Policer::Quota{
        config.quota_rate_per_s,
        config.quota_burst < 1 ? int64_t{1} : config.quota_burst};
  }
  policer_ = std::make_unique<Policer>(std::move(policer_options));
  if (init_status_.ok()) {
    for (const PrincipalQuota& quota : config.quota_overrides) {
      policer_->SetQuota(quota.principal,
                         Policer::Quota{quota.rate_per_s, quota.burst});
    }
    quota_always_ = config.quota_enforcement == QuotaEnforcement::kAlways;
    quota_key_delimiter_ = config.quota_key_delimiter;
    // The reserved top quarter of a bounded mailbox: over-quota requests
    // admit only up to this depth, so conformant principals always find
    // headroom an abuser cannot occupy.
    const size_t cap = synchronous_ ? 0 : config.mailbox_capacity;
    over_quota_max_depth_ = cap > 0 ? cap - cap / 4 : 0;
  }
  policy_swaps_counter_ = service_metrics_.AddCounter(
      "policy_swap_total", "policy generations committed pauselessly");
  policy_swap_failures_counter_ = service_metrics_.AddCounter(
      "policy_swap_failures_total",
      "policy updates rejected at prepare or commit");
  swap_build_hist_ = service_metrics_.AddHistogram(
      "policy_swap_build_us",
      "off-thread prepare cost of a policy update (validate+diff, us)",
      telemetry::Histogram::ExponentialBounds(1, 2.0, 15));

  // The exporter must exist before any shard thread starts: ShardLoop reads
  // audit_ without synchronization, relying on the thread-start fence.
  if (init_status_.ok() && !config.audit_path.empty()) {
    audit::AuditExporter::Options audit_options;
    audit_options.path = config.audit_path;
    audit_options.rotate_bytes = config.audit_rotate_bytes;
    audit_options.queue_capacity = config.audit_queue_capacity;
    audit_ = std::make_unique<audit::AuditExporter>(std::move(audit_options));
  }

  shards_.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = static_cast<uint32_t>(i);
    shard->clock = std::make_unique<SimulatedClock>(config.start_time);
    shard->engine = std::make_unique<AuthorizationEngine>(shard->clock.get());
    shard->engine->set_decision_log_capacity(config.decision_log_capacity);
    shard->engine->set_telemetry_sampling(config.latency_sample_every,
                                          config.trace_sample_every);
    // Close the paper's reaction loop: a threshold rule that decides to
    // throttle a principal (ThresholdDirective::throttle_rate_per_s) lands
    // here, under the shard's owner lock, and installs the penalty quota in
    // the shared policer. SetQuota is lock-free and thread-safe.
    shard->engine->set_throttle_sink(
        [this](const std::string& user, double rate_per_s, int64_t burst) {
          policer_->SetQuota(user, Policer::Quota{rate_per_s, burst});
        });
    if (!init_status_.ok()) {
      shard->mailbox.set_capacity(0);
    } else {
      shard->mailbox.set_capacity(config.mailbox_capacity);
    }
    // Overload instruments live in the shard engine's registry so they are
    // merged, rendered and reported alongside its other series. Registered
    // here — still before any thread exists, so the registry stays
    // structurally frozen once the shards start.
    telemetry::Registry& registry = shard->engine->metrics();
    shard->shed_counter = registry.AddCounter(
        "mailbox_shed_total",
        "decision envelopes refused at a full shard mailbox");
    shard->expired_counter = registry.AddCounter(
        "mailbox_expired_total",
        "decision envelopes answered kOverloaded after deadline expiry");
    shard->fastpath_counter = registry.AddCounter(
        "decision_cache_fastpath_hits_total",
        "CheckAccess verdicts answered caller-side from the published cache "
        "snapshot (zero mailbox hops)");
    static constexpr const char* kFallbackSeries[kFastPathFallbacks][2] = {
        {"purpose", "the request carries a purpose"},
        {"unknown_symbol", "a name the shard has not interned, or a key too "
                           "wide to pack"},
        {"miss", "the key is not cached"},
        {"stale", "the entry's stamp no longer matches"},
        {"torn", "the slot was written during the read"}};
    for (int reason = 0; reason < kFastPathFallbacks; ++reason) {
      shard->fastpath_fallbacks[reason] = registry.AddCounter(
          std::string("decision_cache_fastpath_fallback_") +
              kFallbackSeries[reason][0] + "_total",
          std::string("zero-hop probes sent to the mailbox: ") +
              kFallbackSeries[reason][1]);
    }
    shard->queue_depth_hist = registry.AddHistogram(
        "mailbox_queue_depth", "shard mailbox depth observed at each push",
        telemetry::Histogram::ExponentialBounds(1, 2.0, 12));
    shard->queue_wait_hist = registry.AddHistogram(
        "mailbox_queue_wait_us",
        "submit-to-run wait of decision envelopes a shard thread ran "
        "(us); inline runs record none",
        telemetry::Histogram::ExponentialBounds(1, 2.0, 15));
    shard->swap_commit_hist = registry.AddHistogram(
        "policy_swap_commit_us",
        "on-shard-thread cost of one pauseless swap commit (us)",
        telemetry::Histogram::ExponentialBounds(1, 2.0, 15));
    if (cache_capacity > 0) {
      shard->engine->ConfigureDecisionCache(cache_capacity);
    }
    if (config.telemetry_report_interval > 0) {
      telemetry::ReportSink sink;
      if (config.telemetry_sink) {
        // Tag each report with its shard of origin; the engine itself does
        // not know it is sharded.
        sink = [user_sink = config.telemetry_sink,
                index = shard->index](const std::string& body) {
          user_sink("# shard " + std::to_string(index) + '\n' + body);
        };
      }
      // Cannot fail here: the engine is fresh (no "telemetry.*" events yet)
      // and the interval was checked above.
      (void)InstallPeriodicMetricsReporter(
          *shard->engine, config.telemetry_report_interval, std::move(sink));
    }
    shards_.push_back(std::move(shard));
  }
  if (!synchronous_) {
    for (auto& shard : shards_) {
      shard->thread = std::thread(&AuthorizationService::ShardLoop, this,
                                  shard.get());
    }
  }
}

AuthorizationService::~AuthorizationService() { Shutdown(); }

void AuthorizationService::ShardLoop(Shard* shard) {
  tls_serving_shard = shard;
  std::deque<Task> batch;
  while (shard->mailbox.Park()) {
    Latch* last = nullptr;
    {
      // Pop and run under the owner lock, so an inline caller never
      // overtakes an envelope this thread has taken out of the mailbox.
      std::lock_guard<std::mutex> owner(shard->owner);
      shard->mailbox.TryPopAll(&batch);
      for (Task& task : batch) {
        if (last != nullptr) last->Arrive();
        last = RunTask(*shard, task);
      }
    }
    // The batch's last waiter wakes to a free lock: its next call can run
    // inline.
    if (last != nullptr) last->Arrive();
  }
}

AuthorizationService::Latch* AuthorizationService::RunTask(Shard& shard,
                                                           Task& task) {
  Latch* const done = task(shard);
  // Tap after every task, not every mailbox batch, which could outrun the
  // whole ring. An envelope has already tapped after each of its engine
  // calls (RunEnvelope); this catches admin broadcasts and time advances.
  if (audit_ != nullptr) DrainShardAudit(shard);
  return done;
}

AuthorizationService::InlineRun AuthorizationService::RunInline(Shard& shard,
                                                                Task& task) {
  Latch* done = nullptr;
  {
    std::unique_lock<std::mutex> owner(shard.owner, std::defer_lock);
    if (synchronous_) {
      owner.lock();
    } else if (!owner.try_lock()) {
      return InlineRun::kBusy;
    }
    if (shut_down_.load(std::memory_order_acquire)) return InlineRun::kClosed;
    // Only after the lock: the shard thread pops under it and runs what it
    // popped before letting go, so an empty mailbox here means nothing is
    // queued or popped ahead of this task.
    if (shard.mailbox.depth() != 0) return InlineRun::kBusy;
    done = RunTask(shard, task);
  }
  if (done != nullptr) done->Arrive();
  return InlineRun::kRan;
}

AuthorizationService::PushResult AuthorizationService::PushDecision(
    Shard& shard, Task task, bool block, int64_t deadline_ns,
    size_t max_depth, bool run_inline) {
  if (run_inline) {
    switch (RunInline(shard, task)) {
      case InlineRun::kRan:
        envelopes_inline_counter_->Add();
        return PushResult::kOk;
      case InlineRun::kClosed:
        return PushResult::kClosed;
      case InlineRun::kBusy:
        break;  // Queue behind the shard's work.
    }
  }
  size_t depth = 0;
  const PushResult result = shard.mailbox.PushBounded(
      std::move(task), block, deadline_ns, &depth, max_depth);
  if (result == PushResult::kOk) {
    envelopes_queued_counter_->Add();
    shard.queue_depth_hist->RecordShared(static_cast<int64_t>(depth));
  }
  return result;
}

bool AuthorizationService::PushExempt(Shard& shard, Task task) {
  if (synchronous_) return RunInline(shard, task) == InlineRun::kRan;
  return shard.mailbox.Push(std::move(task));
}

bool AuthorizationService::RunOnEveryShard(
    const std::function<void(Shard&)>& fn) {
  Latch done(static_cast<int>(shards_.size()));
  bool reached = true;
  for (auto& shard : shards_) {
    if (!PushExempt(*shard, [&fn, &done](Shard& s) {
          fn(s);
          return &done;
        })) {
      reached = false;
      done.Arrive();
    }
  }
  done.Wait();
  return reached;
}

void AuthorizationService::DrainShardAudit(Shard& shard) {
  AuthorizationEngine& engine = *shard.engine;
  if (!engine.HasUndrainedDecisions()) return;
  const uint64_t epoch = shard.applied_epoch.load(std::memory_order_relaxed);
  const uint64_t missed = engine.DrainDecisionLog(
      [this, &shard, epoch](const DecisionRecord& record) {
        audit_->Offer(audit::FromDecisionRecord(
            record, static_cast<int>(shard.index), epoch));
      });
  if (missed > 0) audit_->AddUpstreamLoss(missed);
}

void AuthorizationService::OfferServiceRecord(const char* kind,
                                              const AccessRequest* request,
                                              const AccessDecision& decision) {
  audit::AuditRecord record;
  record.kind = kind;
  record.shard = static_cast<int>(decision.shard);
  record.epoch = decision.epoch;
  record.wall_us = WallTimeMicros();
  record.sim_us = Now();
  record.allowed = decision.allowed;
  record.outcome = static_cast<int>(decision.outcome);
  record.rule = decision.rule;
  record.reason = decision.reason;
  record.latency_us = decision.latency;
  if (request != nullptr) {
    record.user = request->user;
    record.session = request->session;
    record.op = request->operation;
    record.object = request->object;
    record.purpose = request->purpose;
  }
  audit_->Offer(std::move(record));
}

void AuthorizationService::Shutdown() {
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  if (shut_down_.load(std::memory_order_relaxed)) return;
  {
    // Under admin_mu_, between two broadcasts: each one reaches every shard
    // or none.
    std::lock_guard<std::mutex> admin_lock(admin_mu_);
    shut_down_.store(true, std::memory_order_release);
    for (auto& shard : shards_) shard->mailbox.Close();
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  // Every shard thread is joined (or never existed); the owner lock waits
  // out an inline run that began before the close, and no later one can
  // begin. A final drain collects whatever the last envelopes pushed, then
  // Close flushes the stream to disk before Shutdown returns — the
  // "explicit flush/close on shutdown" half of the exporter contract.
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> owner(shard->owner);
    if (audit_ != nullptr) DrainShardAudit(*shard);
  }
  if (audit_ != nullptr) audit_->Close();
}

// ----------------------------------------------------------------- Routing

uint32_t AuthorizationService::ShardOf(const std::string& user) const {
  return static_cast<uint32_t>(Fnv1a(user) % shards_.size());
}

uint32_t AuthorizationService::RouteSession(const SessionId& session) const {
  {
    std::shared_lock<std::shared_mutex> lock(session_mu_);
    auto it = sessions_.find(session);
    if (it != sessions_.end()) return it->second;
  }
  // Unknown session: any shard denies it identically; pick one
  // deterministically.
  return ShardOf(session);
}

uint32_t AuthorizationService::RouteRequest(
    const AccessRequest& request) const {
  if (!request.user.empty()) return ShardOf(request.user);
  return RouteSession(request.session);
}

// ------------------------------------------------------------- Conversions

AccessDecision AuthorizationService::ShutdownDecision() {
  AccessDecision decision;
  decision.allowed = false;
  decision.reason = "service is shut down";
  decision.outcome = AccessOutcome::kShutdown;
  return decision;
}

void AuthorizationService::Refuse(OverloadKind kind, Shard& shard,
                                  const AccessRequest& request,
                                  int64_t submit_ns, AccessDecision* out) {
  AccessDecision decision;
  decision.allowed = false;
  decision.outcome = AccessOutcome::kOverloaded;
  // The outcome enum is wire-pinned; the reason string is what
  // distinguishes indiscriminate shedding, deadline expiry, and quota
  // refusal to callers.
  switch (kind) {
    case OverloadKind::kShed:
      shard.shed_counter->Add();
      decision.reason = "overloaded: shed";
      break;
    case OverloadKind::kExpired:
      shard.expired_counter->Add();
      decision.reason = "overloaded: deadline exceeded";
      break;
    case OverloadKind::kOverQuota:
      policer_refused_counter_->Add();
      decision.reason = "overloaded: over quota";
      break;
  }
  decision.shard = shard.index;
  decision.epoch = admin_epoch();
  decision.latency = (NowNanos() - submit_ns) / 1000;
  if (audit_ != nullptr) {
    OfferServiceRecord("service.overload", &request, decision);
  }
  *out = std::move(decision);
}

AdminResult AuthorizationService::ToAdminResult(
    const AccessDecision& decision) {
  AdminResult result;
  switch (decision.outcome) {
    case AccessOutcome::kDecided:
      result.status = decision.allowed
                          ? Status::OK()
                          : Status::ConstraintViolation(decision.reason);
      break;
    case AccessOutcome::kOverloaded:
      result.status = Status::ResourceExhausted(decision.reason);
      break;
    case AccessOutcome::kShutdown:
      result.status = Status::FailedPrecondition(decision.reason);
      break;
  }
  result.outcome = decision.outcome;
  result.epoch = decision.epoch;
  result.shard = decision.shard;
  result.latency = decision.latency;
  return result;
}

int64_t AuthorizationService::DeadlineNanos(const AccessRequest& request,
                                            int64_t submit_ns) const {
  const Duration deadline_us = request.EffectiveDeadline(default_deadline_);
  if (synchronous_ || deadline_us <= 0) return 0;
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  if (deadline_us > kMax / 1000) return kMax;
  const int64_t budget_ns = static_cast<int64_t>(deadline_us) * 1000;
  if (submit_ns > kMax - budget_ns) return kMax;
  return submit_ns + budget_ns;
}

AccessDecision AuthorizationService::Convert(const Decision& decision,
                                             uint32_t shard, uint64_t epoch,
                                             int64_t submit_ns) const {
  AccessDecision out;
  out.allowed = decision.allowed;
  out.rule = decision.rule;
  out.reason = decision.reason;
  out.failed_condition = decision.failed_condition;
  out.latency = (NowNanos() - submit_ns) / 1000;
  out.shard = shard;
  out.epoch = epoch;
  return out;
}

// ------------------------------------------------------------ Dispatch core

Policer::Verdict AuthorizationService::AdmitPrincipal(
    const AccessRequest& request) {
  if (!policer_->active()) return Policer::Verdict::kUnpoliced;
  std::string_view principal = request.user.empty()
                                   ? std::string_view(request.session)
                                   : std::string_view(request.user);
  if (quota_key_delimiter_ != '\0') {
    const size_t cut = principal.find(quota_key_delimiter_);
    if (cut != std::string_view::npos) principal = principal.substr(0, cut);
  }
  return policer_->Admit(principal);
}

void AuthorizationService::SetPrincipalQuota(const std::string& principal,
                                             double rate_per_s,
                                             int64_t burst) {
  if (rate_per_s <= 0) {
    policer_->ResetQuota(principal);
    return;
  }
  policer_->SetQuota(principal, Policer::Quota{rate_per_s, burst});
}

bool AuthorizationService::Broadcast(
    const std::function<void(AuthorizationEngine&, uint32_t)>& fn,
    bool admin) {
  std::lock_guard<std::mutex> admin_lock(admin_mu_);
  broadcasts_counter_->Add();
  const uint64_t epoch = admin_epoch_.load(std::memory_order_relaxed) + 1;
  const bool reached = RunOnEveryShard([&fn, epoch, admin](Shard& s) {
    // Admin envelopes carry the cache-epoch bump with them, so any request
    // queued behind this one already sees every memoized verdict from the
    // old policy world as stale.
    if (admin) s.engine->BumpDecisionCacheEpoch();
    fn(*s.engine, s.index);
    s.applied_epoch.store(epoch, std::memory_order_release);
  });
  if (reached) admin_epoch_.store(epoch, std::memory_order_release);
  return reached;
}

AdminResult AuthorizationService::BroadcastRequest(
    uint32_t authoritative,
    const std::function<Decision(AuthorizationEngine&)>& op) {
  const int64_t submit_ns = NowNanos();
  Decision authoritative_decision;
  if (!Broadcast([&](AuthorizationEngine& engine, uint32_t shard) {
        const Decision decision = op(engine);
        if (shard == authoritative) authoritative_decision = decision;
      })) {
    return ToAdminResult(ShutdownDecision());
  }
  return ToAdminResult(Convert(authoritative_decision, authoritative,
                               admin_epoch(), submit_ns));
}

// ------------------------------------------------------------------ Policy

Status AuthorizationService::LoadPolicy(const Policy& policy) {
  // One immutable generation shared by every shard: pointer identity is
  // what lets CommitPolicyUpdate reject plans prepared against a policy
  // that is no longer installed. update_mu_ orders the install against any
  // concurrent ApplyPolicyUpdate reading current_policy_.
  std::lock_guard<std::mutex> update_lock(update_mu_);
  auto shared = std::make_shared<const Policy>(policy);
  std::vector<Status> statuses(shards_.size());
  if (!Broadcast([&](AuthorizationEngine& engine, uint32_t shard) {
        statuses[shard] = engine.LoadPolicy(shared);
      })) {
    return Status::FailedPrecondition(
        "service is shut down; policy not loaded");
  }
  for (const Status& status : statuses) {
    SENTINEL_RETURN_IF_ERROR(status);
  }
  current_policy_ = std::move(shared);
  return Status::OK();
}

std::shared_ptr<const Policy> AuthorizationService::current_policy() const {
  std::lock_guard<std::mutex> update_lock(update_mu_);
  return current_policy_;
}

Result<RegenReport> AuthorizationService::ApplyPolicyUpdate(
    const Policy& updated) {
  std::lock_guard<std::mutex> update_lock(update_mu_);
  // Prepare once, off every shard thread: validation and the diffs happen
  // here, on the admin caller's time. With no policy loaded yet, prepare
  // refuses with FailedPrecondition.
  const int64_t build_start_ns = NowNanos();
  auto plan = AuthorizationEngine::PreparePolicyUpdate(current_policy_,
                                                       updated);
  swap_build_hist_->RecordShared((NowNanos() - build_start_ns) / 1000);
  if (!plan.ok()) {
    policy_swap_failures_counter_->Add();
    SENTINEL_LOG(kError) << "policy update rejected at prepare: "
                         << plan.status().message();
    return plan.status();
  }

  // Commit per shard as ordinary exempt-lane envelopes — no epoch, no
  // barrier between shards, no cache wipe. Each shard flips mid-stream;
  // the wait below is only the caller's linearization point (on return,
  // every shard serves the new generation).
  std::vector<Result<RegenReport>> reports(
      shards_.size(),
      Result<RegenReport>(Status::FailedPrecondition(
          "service is shut down; update not applied on every shard")));
  // A shard that can no longer take the commit keeps the shutdown error.
  RunOnEveryShard([&plan, &reports](Shard& s) {
    const int64_t start_ns = NowNanos();
    reports[s.index] = s.engine->CommitPolicyUpdate(*plan);
    s.swap_commit_hist->Record((NowNanos() - start_ns) / 1000);
  });
  for (auto& report : reports) {
    if (!report.ok()) {
      // Loud rollback: validation failures are caught at Prepare before
      // any shard mutates, so a commit failure is the rare builder error.
      // current_policy_ stays put, the error is returned and logged, and
      // any shard that did flip will reject the next plan with
      // FailedPrecondition rather than diverge silently.
      policy_swap_failures_counter_->Add();
      SENTINEL_LOG(kError) << "policy swap failed to commit: "
                           << report.status().message();
      return report.status();
    }
  }
  current_policy_ = plan->next;
  policy_swaps_counter_->Add();
  if (audit_ != nullptr) {
    AccessDecision marker;
    marker.allowed = true;
    marker.epoch = admin_epoch();
    OfferServiceRecord("service.swap", nullptr, marker);
  }
  return reports[0];
}

// ------------------------------------------------------------ Request path

bool AuthorizationService::TryFastPath(const AccessRequest& request,
                                       AccessDecision* out) {
  // Purpose stays outside the packed cache key (privacy-qualified requests
  // always dispatch), so it bypasses here too.
  if (!request.purpose.empty()) {
    shards_[RouteRequest(request)]->fastpath_fallbacks[kFallbackPurpose]->Add();
    return false;
  }
  // Clock reads are sampled exactly like the engines' dispatch path; an
  // unsampled hit never touches the wall clock and reports latency 0.
  thread_local uint32_t latency_tick = 1;
  const bool timed =
      latency_sample_every_ != 0 && --latency_tick == 0;
  if (timed) latency_tick = latency_sample_every_;
  const int64_t start_ns = timed ? NowNanos() : 0;

  Shard& home = *shards_[RouteRequest(request)];
  // Linearization anchor: the epoch is read before the snapshot probe, so
  // the decision we return is stamped no newer than the state it was
  // validated against.
  const uint64_t epoch = home.applied_epoch.load(std::memory_order_acquire);
  const AuthorizationEngine& engine = *home.engine;
  const SymbolTable& symbols = engine.symbols();
  // Find, never Intern: interning is the engine owner's privilege. A name
  // this shard has not published yet is simply a miss.
  const Symbol session = symbols.Find(request.session);
  const Symbol op = symbols.Find(request.operation);
  const Symbol obj = symbols.Find(request.object);
  const auto fall_back = [&home](FastPathFallback reason) {
    home.fastpath_fallbacks[reason]->Add();
    return false;
  };
  if (!session.valid() || !op.valid() || !obj.valid()) {
    return fall_back(kFallbackUnknownSymbol);
  }
  const std::optional<uint64_t> key = DecisionCache::PackKey(session, op, obj);
  if (!key.has_value()) return fall_back(kFallbackUnknownSymbol);
  DecisionCache::Verdict verdict;
  switch (engine.decision_cache().SharedLookup(
      *key, engine.rbac().db().SessionGeneration(session), &verdict)) {
    case DecisionCache::Outcome::kHit:
      break;
    case DecisionCache::Outcome::kMiss:
      return fall_back(kFallbackMiss);
    case DecisionCache::Outcome::kStale:
      return fall_back(kFallbackStale);
    case DecisionCache::Outcome::kTorn:
      return fall_back(kFallbackTorn);
  }
  out->allowed = verdict.allowed;
  if (verdict.allowed) {
    out->rule = AuthorizationEngine::kCaRuleName;
  } else {
    if (verdict.by_rule) out->rule = AuthorizationEngine::kCaRuleName;
    out->reason = AuthorizationEngine::kDenyReason;
  }
  out->shard = home.index;
  out->epoch = epoch;
  out->outcome = AccessOutcome::kDecided;
  home.fastpath_counter->Add();
  if (timed) {
    const int64_t latency_us = (NowNanos() - start_ns) / 1000;
    out->latency = latency_us;
    fastpath_latency_hist_->RecordShared(latency_us);
  }
  return true;
}

AccessDecision AuthorizationService::CheckAccess(const AccessRequest& request) {
  AccessDecision decision;
  Dispatch({&request, 1}, &decision);
  return decision;
}

std::vector<AccessDecision> AuthorizationService::CheckAccessBatch(
    std::span<const AccessRequest> requests) {
  std::vector<AccessDecision> results(requests.size());
  CheckAccessBatchInto(requests, results);
  return results;
}

void AuthorizationService::CheckAccessBatchInto(
    std::span<const AccessRequest> requests,
    std::span<AccessDecision> results) {
  assert(requests.size() == results.size());
  if (requests.empty()) return;
  batches_counter_->Add();
  batch_size_hist_->RecordShared(static_cast<int64_t>(requests.size()));
  Dispatch(requests, results.data());
}

void AuthorizationService::Dispatch(std::span<const AccessRequest> requests,
                                    AccessDecision* out, const SessionOp* op,
                                    uint32_t op_shard) {
  const size_t n = requests.size();
  requests_counter_->Add(n);
  // A batch of one (CheckAccess, every session op) keeps its bookkeeping on
  // the stack.
  Item one;
  std::vector<Item> many(n > 1 ? n : 0);
  Item* const items = n > 1 ? many.data() : &one;

  // Zero-hop probe first: a snapshot hit consumes no decision-lane
  // capacity, which is the resource quotas protect, and a batch answered
  // entirely from snapshots involves no shard at all.
  size_t pending = n;
  if (op == nullptr && fastpath_) {
    for (size_t i = 0; i < n; ++i) {
      if (!TryFastPath(requests[i], &out[i])) continue;
      items[i].key = kAnswered;
      --pending;
      // Fast-path hits bypass the engine and its DecisionLog entirely; the
      // service-level record keeps them in the durable stream.
      if (audit_ != nullptr) {
        OfferServiceRecord("service.fastpath", &requests[i], out[i]);
      }
    }
    if (pending == 0) return;
  }

  // Policing, routing and deadlines, per item. Under kAlways an over-quota
  // check is refused right here; under kOnOverload it is grouped into a
  // restricted envelope (never blocks, reserved depth) where a bounded
  // mailbox makes that mean something.
  const int64_t submit_ns = NowNanos();
  std::vector<uint32_t> group_end(2 * shards_.size() + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    if (items[i].key == kAnswered) continue;
    const AccessRequest& request = requests[i];
    uint32_t shard = op_shard;
    bool restricted = false;
    if (op == nullptr) {
      shard = RouteRequest(request);
      if (AdmitPrincipal(request) == Policer::Verdict::kOverQuota) {
        if (quota_always_) {
          Refuse(OverloadKind::kOverQuota, *shards_[shard], request,
                 submit_ns, &out[i]);
          items[i].key = kAnswered;
          continue;
        }
        restricted = over_quota_max_depth_ != 0;
      }
    }
    items[i].key = shard * 2 + (restricted ? 1 : 0);
    // Deadlines are per item: expiry is judged request by request when the
    // envelope runs, so one slow item never spoils its batch-mates' budget.
    items[i].deadline_ns = DeadlineNanos(request, submit_ns);
    ++group_end[items[i].key + 1];
  }

  // Counting sort into envelope order, stable in request order. Once the
  // items are placed, group k ends at group_end[k] and k + 1 starts there.
  int envelopes = 0;
  for (size_t k = 1; k < group_end.size(); ++k) {
    if (group_end[k] != 0) ++envelopes;
    group_end[k] += group_end[k - 1];
  }
  if (envelopes == 0) return;
  // No item has the last key, so its entry keeps the total.
  const uint32_t placed = group_end.back();
  for (size_t i = 0; i < n; ++i) {
    if (items[i].key != kAnswered) {
      items[group_end[items[i].key]++].order = static_cast<uint32_t>(i);
    }
  }
  Latch done(envelopes);
  Call call{this, requests, out, op, submit_ns, items, &done};
  // All but the last envelope go to their shard threads first, so the
  // shards work in parallel while this thread runs the last one itself
  // when its shard is idle. In synchronous mode there is only one.
  uint32_t begin = 0;
  for (size_t key = 0; key + 1 < group_end.size(); ++key) {
    const uint32_t end = group_end[key];
    if (end == begin) continue;
    SubmitEnvelope(call, static_cast<uint32_t>(key / 2), key % 2 == 1, begin,
                   end, /*run_inline=*/end == placed);
    begin = end;
  }
  done.Wait();
}

void AuthorizationService::SubmitEnvelope(const Call& call, uint32_t shard,
                                          bool restricted, uint32_t begin,
                                          uint32_t end, bool run_inline) {
  Shard& home = *shards_[shard];
  // A blocked admission may wait until the envelope's *latest* item
  // deadline: earlier-expiring items are answered kOverloaded by the
  // per-item check once the envelope runs. Any item without a deadline
  // makes the wait unbounded (0).
  int64_t push_deadline_ns = 0;
  for (uint32_t k = begin; k < end; ++k) {
    const int64_t deadline_ns = call.items[call.items[k].order].deadline_ns;
    if (deadline_ns == 0) {
      push_deadline_ns = 0;
      break;
    }
    push_deadline_ns = std::max(push_deadline_ns, deadline_ns);
  }
  // Weighted admission: a restricted (over-quota) envelope never blocks for
  // space and only fills the non-reserved depth, so at saturation it is
  // refused first while conformant principals keep the full block/shed
  // semantics.
  const PushResult pushed = PushDecision(
      home,
      [c = &call, begin, end](Shard& s) {
        return c->service->RunEnvelope(*c, s, begin, end);
      },
      !shed_on_full_ && !restricted, push_deadline_ns,
      restricted ? over_quota_max_depth_ : 0, run_inline);
  if (pushed == PushResult::kOk) return;
  // An over-quota item turned away at a full mailbox is both a shed and a
  // quota refusal.
  if (pushed == PushResult::kFull && restricted) {
    home.shed_counter->Add(end - begin);
  }
  const OverloadKind kind = pushed == PushResult::kExpired
                                ? OverloadKind::kExpired
                            : restricted ? OverloadKind::kOverQuota
                                         : OverloadKind::kShed;
  for (uint32_t k = begin; k < end; ++k) {
    const uint32_t i = call.items[k].order;
    if (pushed == PushResult::kClosed) {
      call.out[i] = ShutdownDecision();
    } else {
      Refuse(kind, home, call.requests[i], call.submit_ns, &call.out[i]);
    }
  }
  call.done->Arrive();
}

AuthorizationService::Latch* AuthorizationService::RunEnvelope(
    const Call& call, Shard& shard, uint32_t begin, uint32_t end) {
  const int64_t start_ns = NowNanos();
  // Only an envelope that crossed the mailbox waited in it.
  if (tls_serving_shard == &shard) {
    shard.queue_wait_hist->Record((start_ns - call.submit_ns) / 1000);
  }
  const uint64_t epoch = shard.applied_epoch.load(std::memory_order_relaxed);
  for (uint32_t k = begin; k < end; ++k) {
    const uint32_t i = call.items[k].order;
    const AccessRequest& request = call.requests[i];
    const int64_t deadline_ns = call.items[i].deadline_ns;
    if (deadline_ns != 0 && start_ns > deadline_ns) {
      Refuse(OverloadKind::kExpired, shard, request, call.submit_ns,
             &call.out[i]);
      continue;
    }
    const Decision decision =
        call.op != nullptr
            ? (*call.op)(*shard.engine)
            : shard.engine->CheckAccess(request.session, request.operation,
                                        request.object, request.purpose);
    // Tap per engine call: a batch of any size then leaves at most one
    // call's records in the ring at a time, so it never wraps.
    if (audit_ != nullptr) DrainShardAudit(shard);
    call.out[i] = Convert(decision, shard.index, epoch, call.submit_ns);
  }
  return call.done;
}

AdminResult AuthorizationService::RunSessionOp(uint32_t shard,
                                               const char* name,
                                               const UserName& user,
                                               const SessionId& session,
                                               const RoleName& role,
                                               const SessionOp& op) {
  AccessRequest request;
  request.user = user;
  request.session = session;
  request.operation = name;
  request.object = role;
  AccessDecision decision;
  Dispatch({&request, 1}, &decision, &op, shard);
  return ToAdminResult(decision);
}

AdminResult AuthorizationService::CreateSession(const UserName& user,
                                                const SessionId& session) {
  const AdminResult result = RunSessionOp(
      ShardOf(user), "CreateSession", user, session, {},
      [&user, &session](AuthorizationEngine& engine) {
        return engine.CreateSession(user, session);
      });
  if (result.ok()) {
    std::unique_lock<std::shared_mutex> lock(session_mu_);
    sessions_[session] = result.shard;
    sessions_gauge_->Set(static_cast<int64_t>(sessions_.size()));
  }
  return result;
}

AdminResult AuthorizationService::DeleteSession(const SessionId& session) {
  // The service does not track a session's user: a refusal names none.
  const AdminResult result = RunSessionOp(
      RouteSession(session), "DeleteSession", {}, session, {},
      [&session](AuthorizationEngine& engine) {
        return engine.DeleteSession(session);
      });
  if (result.ok()) {
    std::unique_lock<std::shared_mutex> lock(session_mu_);
    sessions_.erase(session);
    sessions_gauge_->Set(static_cast<int64_t>(sessions_.size()));
  }
  return result;
}

AdminResult AuthorizationService::AddActiveRole(const UserName& user,
                                                const SessionId& session,
                                                const RoleName& role) {
  return RunSessionOp(ShardOf(user), "AddActiveRole", user, session, role,
                      [&user, &session, &role](AuthorizationEngine& engine) {
                        return engine.AddActiveRole(user, session, role);
                      });
}

AdminResult AuthorizationService::DropActiveRole(const UserName& user,
                                                 const SessionId& session,
                                                 const RoleName& role) {
  return RunSessionOp(ShardOf(user), "DropActiveRole", user, session, role,
                      [&user, &session, &role](AuthorizationEngine& engine) {
                        return engine.DropActiveRole(user, session, role);
                      });
}

// ---------------------------------------------------------- Administration

AdminResult AuthorizationService::AssignUser(const UserName& user,
                                             const RoleName& role) {
  return BroadcastRequest(ShardOf(user),
                          [&user, &role](AuthorizationEngine& engine) {
                            return engine.AssignUser(user, role);
                          });
}

AdminResult AuthorizationService::DeassignUser(const UserName& user,
                                               const RoleName& role) {
  return BroadcastRequest(ShardOf(user),
                          [&user, &role](AuthorizationEngine& engine) {
                            return engine.DeassignUser(user, role);
                          });
}

AdminResult AuthorizationService::EnableRole(const RoleName& role) {
  return BroadcastRequest(0, [&role](AuthorizationEngine& engine) {
    return engine.EnableRole(role);
  });
}

AdminResult AuthorizationService::DisableRole(const RoleName& role) {
  return BroadcastRequest(0, [&role](AuthorizationEngine& engine) {
    return engine.DisableRole(role);
  });
}

void AuthorizationService::SetContext(const std::string& key,
                                      const std::string& value) {
  Broadcast([&key, &value](AuthorizationEngine& engine, uint32_t) {
    engine.SetContext(key, value);
  });
}

// -------------------------------------------------------------------- Time

Status AuthorizationService::AdvanceTo(Time t) {
  // Not an admin broadcast for the decision cache: temporal firings
  // invalidate precisely via role/session generations.
  if (!Broadcast(
          [t](AuthorizationEngine& engine, uint32_t) { engine.AdvanceTo(t); },
          /*admin=*/false)) {
    // Pretending the advance happened would let callers observe a time
    // that no shard ever reached.
    return Status::FailedPrecondition(
        "service is shut down; time not advanced");
  }
  Time current = now_.load(std::memory_order_relaxed);
  while (t > current &&
         !now_.compare_exchange_weak(current, t, std::memory_order_release,
                                     std::memory_order_relaxed)) {
  }
  return Status::OK();
}

// ---------------------------------------------------------- Introspection

void AuthorizationService::Inspect(
    uint32_t shard,
    const std::function<void(const AuthorizationEngine&)>& fn) {
  Shard& target = *shards_[shard];
  Latch done(1);
  const bool pushed = PushExempt(target, [&fn, &done](Shard& s) {
    fn(*s.engine);
    return &done;
  });
  if (pushed) {
    done.Wait();
    return;
  }
  // Closed: the owner lock keeps out a still-draining shard thread and any
  // inline run.
  std::lock_guard<std::mutex> owner(target.owner);
  fn(*target.engine);
}

ServiceStats AuthorizationService::Stats() {
  ServiceStats stats;
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    Inspect(static_cast<uint32_t>(shard), [&](const AuthorizationEngine& e) {
      stats.decisions += e.decisions_made();
      stats.denials += e.denials();
      stats.audit_overflow += e.decision_log_overflow();
      stats.cache_hits += e.decision_cache_hits();
      stats.cache_misses += e.decision_cache_misses();
      stats.cache_stale += e.decision_cache_stale();
    });
    // Overload and fast-path counters are plain atomics bumped at the
    // producer edge; no shard-thread quiescing needed to read them exactly.
    stats.shed += shards_[shard]->shed_counter->value();
    stats.expired += shards_[shard]->expired_counter->value();
    stats.fastpath_hits += shards_[shard]->fastpath_counter->value();
    const auto& fallbacks = shards_[shard]->fastpath_fallbacks;
    stats.fastpath_fallback_purpose += fallbacks[kFallbackPurpose]->value();
    stats.fastpath_fallback_unknown_symbol +=
        fallbacks[kFallbackUnknownSymbol]->value();
    stats.fastpath_fallback_miss += fallbacks[kFallbackMiss]->value();
    stats.fastpath_fallback_stale += fallbacks[kFallbackStale]->value();
    stats.fastpath_fallback_torn += fallbacks[kFallbackTorn]->value();
  }
  if (audit_ != nullptr) {
    const audit::AuditExporter::Counters counters = audit_->counters();
    stats.audit_records = counters.records;
    stats.audit_drops = counters.drops;
    stats.audit_bytes = counters.bytes;
  }
  stats.policy_swaps = policy_swaps_counter_->value();
  stats.policy_swap_failures = policy_swap_failures_counter_->value();
  stats.policer_admitted = policer_->admitted();
  stats.policer_over_quota = policer_->over_quota_verdicts();
  stats.policer_refused = policer_refused_counter_->value();
  stats.policer_refill_tokens = policer_->refilled_tokens();
  stats.envelopes_inline = envelopes_inline_counter_->value();
  stats.envelopes_queued = envelopes_queued_counter_->value();
  return stats;
}

size_t AuthorizationService::MailboxDepth(uint32_t shard) const {
  return shards_[shard]->mailbox.depth();
}

size_t AuthorizationService::MailboxPeakDepth(uint32_t shard) const {
  return shards_[shard]->mailbox.peak_depth();
}

bool AuthorizationService::InjectShardFault(uint32_t shard,
                                            std::function<void()> fn) {
  return PushExempt(*shards_[shard], [fn = std::move(fn)](Shard&) -> Latch* {
    fn();
    return nullptr;
  });
}

// -------------------------------------------------------------- Telemetry

TelemetrySnapshot AuthorizationService::Snapshot() {
  TelemetrySnapshot snap;
  snap.now = Now();
  snap.admin_epoch = admin_epoch();
  snap.num_shards = num_shards();
  // Metrics merge without queueing behind the shards: registries are
  // structurally frozen after construction and reads are atomic loads, so
  // this is safe against concurrent shard-thread updates.
  snap.metrics = service_metrics_.Snapshot();
  for (const auto& shard : shards_) {
    snap.metrics.MergeFrom(shard->engine->metrics().Snapshot());
  }
  // The exporter is not a registry; splice its counters into the merged
  // view so the scrape endpoint carries the whole audit pipeline story
  // (decision_log_overflow_total arrives via the shard registries above).
  if (audit_ != nullptr) {
    const audit::AuditExporter::Counters counters = audit_->counters();
    snap.metrics.counters.push_back(telemetry::CounterSnapshot{
        "audit_export_records_total",
        "audit records durably written by the exporter", counters.records});
    snap.metrics.counters.push_back(telemetry::CounterSnapshot{
        "audit_export_drops_total",
        "audit records lost (hand-off full, write failure, or ring "
        "eviction before the tap)",
        counters.drops});
    snap.metrics.counters.push_back(telemetry::CounterSnapshot{
        "audit_export_bytes_total", "serialized audit bytes written",
        counters.bytes});
  }
  // The policer is not a registry either; splice its counters and a
  // point-in-time occupancy scan the same way (policer_refused_total lives
  // in service_metrics_ and is already merged above).
  snap.metrics.counters.push_back(telemetry::CounterSnapshot{
      "policer_admitted_total",
      "requests admitted within their principal's quota",
      policer_->admitted()});
  snap.metrics.counters.push_back(telemetry::CounterSnapshot{
      "policer_over_quota_total",
      "admission checks that found the principal's bucket empty",
      policer_->over_quota_verdicts()});
  snap.metrics.counters.push_back(telemetry::CounterSnapshot{
      "policer_refill_tokens_total",
      "tokens regained by refill-on-read across all buckets",
      policer_->refilled_tokens()});
  snap.metrics.counters.push_back(telemetry::CounterSnapshot{
      "policer_overflow_total",
      "admissions that failed open because the policer slot table was full",
      policer_->overflows()});
  const Policer::Occupancy occupancy = policer_->Occupy();
  snap.metrics.gauges.push_back(telemetry::GaugeSnapshot{
      "policer_tracked_principals", "principals with a claimed bucket",
      static_cast<int64_t>(occupancy.tracked)});
  snap.metrics.gauges.push_back(telemetry::GaugeSnapshot{
      "policer_over_quota_principals",
      "principals whose bucket is currently empty",
      static_cast<int64_t>(occupancy.over_quota)});
  snap.metrics.gauges.push_back(telemetry::GaugeSnapshot{
      "policer_throttled_principals",
      "principals under an explicit per-principal quota override",
      static_cast<int64_t>(occupancy.throttled)});
  // Spans hold strings the engine's owner mutates freely, so they are
  // copied under the owner lock via Inspect.
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    Inspect(static_cast<uint32_t>(shard), [&](const AuthorizationEngine& e) {
      std::vector<telemetry::DecisionSpan> spans = e.tracer().Spans();
      for (telemetry::DecisionSpan& span : spans) {
        span.shard = static_cast<uint32_t>(shard);
      }
      snap.spans.insert(snap.spans.end(),
                        std::make_move_iterator(spans.begin()),
                        std::make_move_iterator(spans.end()));
    });
  }
  return snap;
}

std::string AuthorizationService::RenderMetrics() {
  const TelemetrySnapshot snap = Snapshot();
  std::ostringstream os;
  os << telemetry::RenderPrometheus(snap.metrics);
  for (const telemetry::DecisionSpan& span : snap.spans) {
    os << "# trace " << telemetry::DescribeSpan(span) << '\n';
  }
  return os.str();
}

std::string AuthorizationService::RenderMetricsJson() {
  const TelemetrySnapshot snap = Snapshot();
  std::ostringstream os;
  os << "{\"now\":" << snap.now << ",\"admin_epoch\":" << snap.admin_epoch
     << ",\"num_shards\":" << snap.num_shards
     << ",\"metrics\":" << telemetry::RenderJson(snap.metrics)
     << ",\"spans\":" << telemetry::RenderSpansJson(snap.spans) << '}';
  return os.str();
}

}  // namespace sentinel
