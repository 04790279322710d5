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
  if (config.mailbox_capacity != 0 &&
      !DecisionCache::IsPowerOfTwo(config.mailbox_capacity)) {
    return Status::InvalidArgument(
        "mailbox_capacity must be 0 or a power of two (the decision lane is "
        "a slot ring); got " +
        std::to_string(config.mailbox_capacity));
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
    const size_t cap = config.mailbox_capacity;
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
    // here, on the shard thread, and installs the penalty quota in the
    // shared policer. SetQuota is lock-free and thread-safe.
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
    shard->queue_depth_hist = registry.AddHistogram(
        "mailbox_queue_depth", "shard mailbox depth observed at each push",
        telemetry::Histogram::ExponentialBounds(1, 2.0, 12));
    shard->queue_wait_hist = registry.AddHistogram(
        "mailbox_queue_wait_us",
        "submit-to-dequeue wait of decision envelopes (us)",
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
    timer_thread_ = std::thread(&AuthorizationService::TimerLoop, this);
  }
}

AuthorizationService::~AuthorizationService() { Shutdown(); }

void AuthorizationService::ShardLoop(Shard* shard) {
  std::deque<std::function<void(Shard&)>> batch;
  const bool tap = audit_ != nullptr;
  while (shard->mailbox.PopAll(&batch)) {
    for (auto& task : batch) {
      task(*shard);
      // Tap after every envelope, not every PopAll batch: one envelope can
      // emit at most its own requests' records, so a ring sized to the
      // largest batch never wraps between taps (see
      // ServiceConfig::audit_path), while a long PopAll batch could outrun
      // the whole ring before a per-batch drain.
      if (tap) DrainShardAudit(*shard);
    }
  }
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

void AuthorizationService::TimerLoop() {
  std::deque<TimerCommand> batch;
  while (timer_mailbox_.PopAll(&batch)) {
    for (TimerCommand& command : batch) {
      ApplyAdvance(command.target);
      command.done->Arrive();
    }
  }
}

void AuthorizationService::Shutdown() {
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  if (shut_down_.load(std::memory_order_relaxed)) return;
  shut_down_.store(true, std::memory_order_release);
  if (!synchronous_) {
    // Order matters: the timer thread broadcasts into shard mailboxes, so
    // it must drain and exit before those mailboxes close.
    timer_mailbox_.Close();
    if (timer_thread_.joinable()) timer_thread_.join();
    for (auto& shard : shards_) shard->mailbox.Close();
    for (auto& shard : shards_) {
      if (shard->thread.joinable()) shard->thread.join();
    }
  }
  if (audit_ != nullptr) {
    // Every shard thread is joined (or never existed): a final inline drain
    // collects whatever the last envelopes pushed, then Close flushes the
    // stream to disk before Shutdown returns — the "explicit flush/close on
    // shutdown" half of the exporter contract.
    for (auto& shard : shards_) DrainShardAudit(*shard);
    audit_->Close();
  }
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

AccessDecision AuthorizationService::OverloadDecision(OverloadKind kind,
                                                      uint32_t shard,
                                                      int64_t submit_ns) const {
  AccessDecision decision;
  decision.allowed = false;
  decision.outcome = AccessOutcome::kOverloaded;
  // The outcome enum is wire-pinned; the reason string is what
  // distinguishes indiscriminate shedding, deadline expiry, and quota
  // refusal to callers.
  switch (kind) {
    case OverloadKind::kShed:
      decision.reason = "overloaded: shed";
      break;
    case OverloadKind::kExpired:
      decision.reason = "overloaded: deadline exceeded";
      break;
    case OverloadKind::kOverQuota:
      decision.reason = "overloaded: over quota";
      break;
  }
  decision.shard = shard;
  decision.epoch = admin_epoch();
  decision.latency = (NowNanos() - submit_ns) / 1000;
  return decision;
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

int64_t AuthorizationService::DeadlineNanos(Duration deadline_us,
                                            int64_t submit_ns) {
  if (deadline_us <= 0) return 0;
  // Saturate both steps: a huge but valid budget must mean "effectively
  // never", and `submit_ns + budget` overflowing would be signed UB that in
  // practice wraps negative — an already-expired deadline that sheds every
  // request carrying it.
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

std::string_view AuthorizationService::PrincipalOf(
    const AccessRequest& request) const {
  std::string_view principal = request.user.empty()
                                   ? std::string_view(request.session)
                                   : std::string_view(request.user);
  if (quota_key_delimiter_ != '\0') {
    const size_t cut = principal.find(quota_key_delimiter_);
    if (cut != std::string_view::npos) principal = principal.substr(0, cut);
  }
  return principal;
}

Policer::Verdict AuthorizationService::AdmitPrincipal(
    const AccessRequest& request) {
  if (!policer_->active()) return Policer::Verdict::kUnpoliced;
  return policer_->Admit(PrincipalOf(request));
}

AccessDecision AuthorizationService::RefuseOverQuota(
    const AccessRequest* request, uint32_t shard, int64_t submit_ns) {
  policer_refused_counter_->Add();
  const AccessDecision refused =
      OverloadDecision(OverloadKind::kOverQuota, shard, submit_ns);
  if (audit_ != nullptr) {
    OfferServiceRecord("service.overload", request, refused);
  }
  return refused;
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

AccessDecision AuthorizationService::RunOnShard(
    uint32_t shard, const std::function<Decision(AuthorizationEngine&)>& op,
    Duration deadline_us, bool over_quota) {
  const int64_t submit_ns = NowNanos();
  requests_counter_->Add();
  Shard& home = *shards_[shard];
  if (synchronous_) {
    // No queue, no admission control: the engine runs inline immediately,
    // so a deadline can never expire before dispatch.
    const Decision decision = op(*home.engine);
    if (audit_ != nullptr) DrainShardAudit(home);
    return Convert(decision, shard,
                   home.applied_epoch.load(std::memory_order_relaxed),
                   submit_ns);
  }
  const int64_t deadline_ns = DeadlineNanos(deadline_us, submit_ns);
  AccessDecision out;
  Latch done(1);
  // Once admitted, the producer always waits for this envelope to run —
  // expiry is decided at dequeue (answered kOverloaded without engine
  // time), never by abandoning an envelope whose captures live on this
  // stack frame.
  auto envelope = [&](Shard& s) {
    const int64_t start_ns = NowNanos();
    s.queue_wait_hist->Record((start_ns - submit_ns) / 1000);
    if (deadline_ns != 0 && start_ns > deadline_ns) {
      s.expired_counter->Add();
      out = OverloadDecision(OverloadKind::kExpired, s.index, submit_ns);
      if (audit_ != nullptr) {
        OfferServiceRecord("service.overload", nullptr, out);
      }
    } else {
      const Decision decision = op(*s.engine);
      out = Convert(decision, s.index,
                    s.applied_epoch.load(std::memory_order_relaxed),
                    submit_ns);
    }
    done.Arrive();
  };
  using PushResult = Mailbox<std::function<void(Shard&)>>::PushResult;
  size_t depth = 0;
  // Weighted admission: an over-quota producer never blocks for space and
  // only fills the non-reserved depth, so at saturation it is refused
  // first while conformant principals keep the full block/shed semantics.
  const bool block = !shed_on_full_ && !over_quota;
  const size_t max_depth = over_quota ? over_quota_max_depth_ : 0;
  switch (home.mailbox.PushBounded(std::move(envelope), block, deadline_ns,
                                   &depth, max_depth)) {
    case PushResult::kClosed:
      return ShutdownDecision();
    case PushResult::kFull: {
      home.shed_counter->Add();
      if (over_quota) return RefuseOverQuota(nullptr, shard, submit_ns);
      const AccessDecision shed =
          OverloadDecision(OverloadKind::kShed, shard, submit_ns);
      if (audit_ != nullptr) {
        OfferServiceRecord("service.overload", nullptr, shed);
      }
      return shed;
    }
    case PushResult::kExpired: {
      home.expired_counter->Add();
      const AccessDecision expired =
          OverloadDecision(OverloadKind::kExpired, shard, submit_ns);
      if (audit_ != nullptr) {
        OfferServiceRecord("service.overload", nullptr, expired);
      }
      return expired;
    }
    case PushResult::kOk:
      break;
  }
  home.queue_depth_hist->RecordShared(static_cast<int64_t>(depth));
  done.Wait();
  return out;
}

void AuthorizationService::Broadcast(
    const std::function<void(AuthorizationEngine&, uint32_t)>& fn,
    bool admin) {
  std::lock_guard<std::mutex> admin_lock(admin_mu_);
  broadcasts_counter_->Add();
  const uint64_t epoch = admin_epoch_.load(std::memory_order_relaxed) + 1;
  if (synchronous_) {
    if (admin) shards_[0]->engine->BumpDecisionCacheEpoch();
    fn(*shards_[0]->engine, 0);
    shards_[0]->applied_epoch.store(epoch, std::memory_order_release);
    admin_epoch_.store(epoch, std::memory_order_release);
    if (audit_ != nullptr) DrainShardAudit(*shards_[0]);
    return;
  }
  Latch done(static_cast<int>(shards_.size()));
  for (auto& shard : shards_) {
    const bool pushed =
        shard->mailbox.Push([&fn, &done, epoch, admin](Shard& s) {
          // Admin envelopes carry the cache-epoch bump with them, so any
          // request queued behind this one already sees every memoized
          // verdict from the old policy world as stale.
          if (admin) s.engine->BumpDecisionCacheEpoch();
          fn(*s.engine, s.index);
          s.applied_epoch.store(epoch, std::memory_order_release);
          done.Arrive();
        });
    // A closed mailbox (shutdown race) can no longer observe the update;
    // count it down so the barrier still completes.
    if (!pushed) done.Arrive();
  }
  done.Wait();
  admin_epoch_.store(epoch, std::memory_order_release);
}

AccessDecision AuthorizationService::BroadcastRequest(
    uint32_t authoritative,
    const std::function<Decision(AuthorizationEngine&)>& op) {
  const int64_t submit_ns = NowNanos();
  Decision authoritative_decision;
  Broadcast([&](AuthorizationEngine& engine, uint32_t shard) {
    const Decision decision = op(engine);
    if (shard == authoritative) authoritative_decision = decision;
  });
  return Convert(authoritative_decision, authoritative, admin_epoch(),
                 submit_ns);
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
  Broadcast([&](AuthorizationEngine& engine, uint32_t shard) {
    statuses[shard] = engine.LoadPolicy(shared);
  });
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
  // the latch below is only the caller's linearization point (on return,
  // every shard serves the new generation).
  std::vector<Result<RegenReport>> reports(
      shards_.size(), Result<RegenReport>(Status::Internal("not applied")));
  if (synchronous_) {
    reports[0] = shards_[0]->engine->CommitPolicyUpdate(*plan);
    if (audit_ != nullptr) DrainShardAudit(*shards_[0]);
  } else {
    Latch done(static_cast<int>(shards_.size()));
    for (auto& shard : shards_) {
      const bool pushed =
          shard->mailbox.Push([&plan, &reports, &done](Shard& s) {
            const int64_t start_ns = NowNanos();
            reports[s.index] = s.engine->CommitPolicyUpdate(*plan);
            s.swap_commit_hist->Record((NowNanos() - start_ns) / 1000);
            done.Arrive();
          });
      // A closed mailbox (shutdown race) can no longer commit; count it
      // down so the caller is not stranded — its slot keeps the
      // "not applied" error.
      if (!pushed) done.Arrive();
    }
    done.Wait();
  }
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
  if (!request.purpose.empty()) return false;
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
  const SymbolTable& symbols = home.engine->symbols();
  // Find, never Intern: interning is the shard thread's privilege. A name
  // this shard has not published yet is simply a miss.
  const Symbol session = symbols.Find(request.session);
  const Symbol op = symbols.Find(request.operation);
  const Symbol obj = symbols.Find(request.object);
  if (!session.valid() || !op.valid() || !obj.valid()) return false;
  const std::optional<uint64_t> key = DecisionCache::PackKey(session, op, obj);
  if (!key.has_value()) return false;
  DecisionCache::Verdict verdict;
  if (!home.engine->decision_cache().SharedLookup(*key, &verdict)) {
    return false;
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
  if (fastpath_) {
    AccessDecision fast;
    if (TryFastPath(request, &fast)) {
      requests_counter_->Add();
      // Fast-path hits bypass the engine and its DecisionLog entirely; the
      // service-level record keeps them in the durable stream.
      if (audit_ != nullptr) {
        OfferServiceRecord("service.fastpath", &request, fast);
      }
      return fast;
    }
  }
  // Policing happens after the fast-path probe: a snapshot hit consumes no
  // decision-lane capacity, which is the resource quotas protect.
  bool over_quota = false;
  if (AdmitPrincipal(request) == Policer::Verdict::kOverQuota) {
    if (quota_always_) {
      requests_counter_->Add();
      return RefuseOverQuota(&request, RouteRequest(request), NowNanos());
    }
    over_quota = true;
  }
  return RunOnShard(RouteRequest(request),
                    [&request](AuthorizationEngine& engine) {
                      return engine.CheckAccess(request.session,
                                                request.operation,
                                                request.object,
                                                request.purpose);
                    },
                    request.EffectiveDeadline(default_deadline_), over_quota);
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
  const int64_t submit_ns = NowNanos();
  AccessDecision* const out = results.data();
  if (requests.empty()) return;
  batches_counter_->Add();
  requests_counter_->Add(requests.size());
  batch_size_hist_->RecordShared(static_cast<int64_t>(requests.size()));
  if (synchronous_) {
    Shard& shard = *shards_[0];
    for (size_t i = 0; i < requests.size(); ++i) {
      // Inline dispatch still debits quota buckets; only kAlways can turn
      // the verdict into a refusal here (there is no queue to overload).
      if (AdmitPrincipal(requests[i]) == Policer::Verdict::kOverQuota &&
          quota_always_) {
        out[i] = RefuseOverQuota(&requests[i], 0, submit_ns);
        continue;
      }
      const Decision decision = shard.engine->CheckAccess(
          requests[i].session, requests[i].operation, requests[i].object,
          requests[i].purpose);
      out[i] = Convert(decision, 0,
                       shard.applied_epoch.load(std::memory_order_relaxed),
                       submit_ns);
    }
    if (audit_ != nullptr) DrainShardAudit(shard);
    return;
  }
  // Per-item zero-hop probe first: only the misses pay a mailbox hop, and
  // a batch answered entirely from snapshots involves no shard at all.
  std::vector<uint32_t> pending;
  pending.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    if (!fastpath_ || !TryFastPath(requests[i], &out[i])) {
      pending.push_back(static_cast<uint32_t>(i));
    } else if (audit_ != nullptr) {
      OfferServiceRecord("service.fastpath", &requests[i], out[i]);
    }
  }
  if (pending.empty()) return;
  // Admission policing, per item: each miss debits its principal's bucket.
  // Under kAlways an over-quota item is refused right here; under
  // kOnOverload it is grouped into a separate envelope that takes the
  // restricted (never-block, reserved-depth) push below.
  std::vector<int64_t> deadlines(requests.size(), 0);
  std::vector<std::vector<uint32_t>> indices(shards_.size());
  std::vector<std::vector<uint32_t>> over_indices(shards_.size());
  for (const uint32_t i : pending) {
    bool over_quota = false;
    if (AdmitPrincipal(requests[i]) == Policer::Verdict::kOverQuota) {
      if (quota_always_) {
        out[i] = RefuseOverQuota(&requests[i], RouteRequest(requests[i]),
                                 submit_ns);
        continue;
      }
      over_quota = true;
    }
    // Deadlines are per item: expiry is judged request by request when the
    // envelope runs, so one slow item never spoils its batch-mates' budget.
    deadlines[i] = DeadlineNanos(
        requests[i].EffectiveDeadline(default_deadline_), submit_ns);
    (over_quota ? over_indices : indices)[RouteRequest(requests[i])]
        .push_back(i);
  }
  int involved = 0;
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    if (!indices[shard].empty()) ++involved;
    if (!over_indices[shard].empty()) ++involved;
  }
  if (involved == 0) return;
  using PushResult = Mailbox<std::function<void(Shard&)>>::PushResult;
  Latch done(involved);
  // One envelope per involved (shard, quota-class) pair, carrying that
  // group's request indices.
  auto submit = [&](size_t shard, const std::vector<uint32_t>& group,
                    bool over_quota) {
    Shard& home = *shards_[shard];
    // A blocked admission may wait until the envelope's *latest* item
    // deadline: earlier-expiring items are answered kOverloaded by the
    // per-item check once the envelope runs. Any item without a deadline
    // makes the wait unbounded (0).
    int64_t push_deadline_ns = 0;
    for (const uint32_t i : group) {
      if (deadlines[i] == 0) {
        push_deadline_ns = 0;
        break;
      }
      push_deadline_ns = std::max(push_deadline_ns, deadlines[i]);
    }
    // Capture a copy: the lambda is built (and `mine` populated) before
    // the push decides, and the refusal fallbacks below still need the
    // list.
    auto envelope = [this, requests, &deadlines, out, &done, submit_ns,
                     mine = group](Shard& s) {
      const int64_t start_ns = NowNanos();
      s.queue_wait_hist->Record((start_ns - submit_ns) / 1000);
      const uint64_t epoch = s.applied_epoch.load(std::memory_order_relaxed);
      for (const uint32_t i : mine) {
        if (deadlines[i] != 0 && start_ns > deadlines[i]) {
          s.expired_counter->Add();
          out[i] = OverloadDecision(OverloadKind::kExpired, s.index,
                                    submit_ns);
          if (audit_ != nullptr) {
            OfferServiceRecord("service.overload", &requests[i], out[i]);
          }
          continue;
        }
        const Decision decision = s.engine->CheckAccess(
            requests[i].session, requests[i].operation, requests[i].object,
            requests[i].purpose);
        out[i] = Convert(decision, s.index, epoch, submit_ns);
      }
      done.Arrive();
    };
    size_t depth = 0;
    const bool block = !shed_on_full_ && !over_quota;
    switch (home.mailbox.PushBounded(std::move(envelope), block,
                                     push_deadline_ns, &depth,
                                     over_quota ? over_quota_max_depth_
                                                : size_t{0})) {
      case PushResult::kClosed:
        for (const uint32_t i : group) out[i] = ShutdownDecision();
        done.Arrive();
        return;
      case PushResult::kFull:
        home.shed_counter->Add(group.size());
        for (const uint32_t i : group) {
          if (over_quota) {
            out[i] = RefuseOverQuota(&requests[i], home.index, submit_ns);
            continue;
          }
          out[i] = OverloadDecision(OverloadKind::kShed, home.index,
                                    submit_ns);
          if (audit_ != nullptr) {
            OfferServiceRecord("service.overload", &requests[i], out[i]);
          }
        }
        done.Arrive();
        return;
      case PushResult::kExpired:
        home.expired_counter->Add(group.size());
        for (const uint32_t i : group) {
          out[i] = OverloadDecision(OverloadKind::kExpired, home.index,
                                    submit_ns);
          if (audit_ != nullptr) {
            OfferServiceRecord("service.overload", &requests[i], out[i]);
          }
        }
        done.Arrive();
        return;
      case PushResult::kOk:
        break;
    }
    home.queue_depth_hist->RecordShared(static_cast<int64_t>(depth));
  };
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    if (!indices[shard].empty()) submit(shard, indices[shard], false);
    if (!over_indices[shard].empty()) {
      submit(shard, over_indices[shard], true);
    }
  }
  done.Wait();
}

AdminResult AuthorizationService::CreateSession(const UserName& user,
                                                const SessionId& session) {
  const uint32_t shard = ShardOf(user);
  AccessDecision decision = RunOnShard(
      shard,
      [&user, &session](AuthorizationEngine& engine) {
        return engine.CreateSession(user, session);
      },
      default_deadline_);
  if (decision.allowed) {
    std::unique_lock<std::shared_mutex> lock(session_mu_);
    sessions_[session] = shard;
    sessions_gauge_->Set(static_cast<int64_t>(sessions_.size()));
  }
  return ToAdminResult(decision);
}

AdminResult AuthorizationService::DeleteSession(const SessionId& session) {
  const uint32_t shard = RouteSession(session);
  AccessDecision decision = RunOnShard(
      shard,
      [&session](AuthorizationEngine& engine) {
        return engine.DeleteSession(session);
      },
      default_deadline_);
  if (decision.allowed) {
    std::unique_lock<std::shared_mutex> lock(session_mu_);
    sessions_.erase(session);
    sessions_gauge_->Set(static_cast<int64_t>(sessions_.size()));
  }
  return ToAdminResult(decision);
}

AdminResult AuthorizationService::AddActiveRole(const UserName& user,
                                                const SessionId& session,
                                                const RoleName& role) {
  return ToAdminResult(
      RunOnShard(ShardOf(user),
                 [&user, &session, &role](AuthorizationEngine& engine) {
                   return engine.AddActiveRole(user, session, role);
                 },
                 default_deadline_));
}

AdminResult AuthorizationService::DropActiveRole(const UserName& user,
                                                 const SessionId& session,
                                                 const RoleName& role) {
  return ToAdminResult(
      RunOnShard(ShardOf(user),
                 [&user, &session, &role](AuthorizationEngine& engine) {
                   return engine.DropActiveRole(user, session, role);
                 },
                 default_deadline_));
}

// ---------------------------------------------------------- Administration

AdminResult AuthorizationService::AssignUser(const UserName& user,
                                             const RoleName& role) {
  return ToAdminResult(
      BroadcastRequest(ShardOf(user),
                       [&user, &role](AuthorizationEngine& engine) {
                         return engine.AssignUser(user, role);
                       }));
}

AdminResult AuthorizationService::DeassignUser(const UserName& user,
                                               const RoleName& role) {
  return ToAdminResult(
      BroadcastRequest(ShardOf(user),
                       [&user, &role](AuthorizationEngine& engine) {
                         return engine.DeassignUser(user, role);
                       }));
}

AdminResult AuthorizationService::EnableRole(const RoleName& role) {
  return ToAdminResult(
      BroadcastRequest(0, [&role](AuthorizationEngine& engine) {
        return engine.EnableRole(role);
      }));
}

AdminResult AuthorizationService::DisableRole(const RoleName& role) {
  return ToAdminResult(
      BroadcastRequest(0, [&role](AuthorizationEngine& engine) {
        return engine.DisableRole(role);
      }));
}

void AuthorizationService::SetContext(const std::string& key,
                                      const std::string& value) {
  Broadcast([&key, &value](AuthorizationEngine& engine, uint32_t) {
    engine.SetContext(key, value);
  });
}

// -------------------------------------------------------------------- Time

void AuthorizationService::ApplyAdvance(Time target) {
  // Not an admin broadcast for the decision cache: temporal firings
  // invalidate precisely via role/session generations.
  Broadcast(
      [target](AuthorizationEngine& engine, uint32_t) {
        engine.AdvanceTo(target);
      },
      /*admin=*/false);
  Time current = now_.load(std::memory_order_relaxed);
  while (target > current &&
         !now_.compare_exchange_weak(current, target,
                                     std::memory_order_release,
                                     std::memory_order_relaxed)) {
  }
}

Status AuthorizationService::AdvanceTo(Time t) {
  if (synchronous_) {
    if (shut_down_.load(std::memory_order_acquire)) {
      return Status::FailedPrecondition(
          "service is shut down; time not advanced");
    }
    ApplyAdvance(t);
    return Status::OK();
  }
  Latch done(1);
  // A closed timer mailbox means Shutdown already joined the timer thread:
  // the advance can never happen, and pretending it did would let callers
  // observe a time that no shard ever reached.
  if (!timer_mailbox_.Push(TimerCommand{t, &done})) {
    return Status::FailedPrecondition(
        "service is shut down; time not advanced");
  }
  done.Wait();
  return Status::OK();
}

// ---------------------------------------------------------- Introspection

void AuthorizationService::Inspect(
    uint32_t shard,
    const std::function<void(const AuthorizationEngine&)>& fn) {
  Shard& target = *shards_[shard];
  if (synchronous_) {
    fn(*target.engine);
    return;
  }
  Latch done(1);
  const bool pushed = target.mailbox.Push([&](Shard& s) {
    fn(*s.engine);
    done.Arrive();
  });
  if (pushed) {
    done.Wait();
    return;
  }
  // Mailbox closed: wait for shutdown to finish joining the shard threads
  // (shutdown_mu_ is held for the whole join), then inspect inline.
  std::lock_guard<std::mutex> lock(shutdown_mu_);
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
  if (synchronous_) {
    fn();
    return true;
  }
  return shards_[shard]->mailbox.Push(
      [fn = std::move(fn)](Shard&) { fn(); });
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
  // Spans hold strings the shard thread mutates freely, so they are copied
  // on the shard thread via Inspect.
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
