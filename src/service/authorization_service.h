#ifndef SENTINELPP_SERVICE_AUTHORIZATION_SERVICE_H_
#define SENTINELPP_SERVICE_AUTHORIZATION_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/sentinelpp.h"
#include "audit/exporter.h"
#include "common/clock.h"
#include "common/status.h"
#include "core/engine.h"
#include "service/mailbox.h"
#include "service/policer.h"
#include "telemetry/reporter.h"

namespace sentinel {

/// Producer-side policy when a shard mailbox is at capacity.
enum class OverloadPolicy {
  /// Wait for the shard to drain, up to the request's deadline (forever
  /// when it has none). Backpressure: callers slow down, nothing is lost.
  kBlock,
  /// Fail fast with AccessOutcome::kOverloaded. Load shedding: callers
  /// stay responsive, excess traffic is refused explicitly.
  kShed,
};

/// When an over-quota verdict turns into a refusal.
enum class QuotaEnforcement {
  /// Work-conserving (the default): over-quota requests still run while the
  /// shard has headroom, but they may never block for space and are shut
  /// out of the mailbox's reserved top quarter — at saturation they are
  /// refused first, and conformant principals keep the PR-5 block/shed
  /// semantics over the full capacity.
  kOnOverload,
  /// Hard cap: an over-quota request is refused immediately at admission,
  /// idle shard or not. Deterministic (and the only mode with any effect in
  /// synchronous mode, where there is no queue to overload) — what the
  /// differential harness's policer arm runs.
  kAlways,
};

/// One principal's static quota override (ServiceConfig::quota_overrides).
struct PrincipalQuota {
  std::string principal;
  /// Sustained tokens per second; <= 0 marks the principal explicitly
  /// unpoliced (exempt from the default quota).
  double rate_per_s = 0;
  /// Bucket depth in requests (values < 1 behave as 1).
  int64_t burst = 1;
};

/// Shape of an AuthorizationService.
struct ServiceConfig {
  /// Sentinel for num_shards: one shard per hardware thread.
  static constexpr int kAutoShards = -1;

  /// Number of engine shards / shard threads. kAutoShards (the default)
  /// resolves to std::thread::hardware_concurrency(); explicit values must
  /// be >= 1 — 0 and other negatives are rejected by ValidateConfig with a
  /// Status error, not silently clamped.
  int num_shards = kAutoShards;
  /// Synchronous single-shard mode: one engine, every call runs inline on
  /// the caller's thread, no threads are spawned (concurrent callers take
  /// turns on the shard's owner lock). Semantically identical to driving an
  /// AuthorizationEngine directly — the mode existing tests and benches
  /// (and the stress test's oracle) rely on.
  bool synchronous = false;
  /// Simulated start time for every shard clock.
  Time start_time = 0;
  /// Per-shard decision audit ring capacity (see DecisionLog).
  size_t decision_log_capacity = 256;
  /// When > 0, a PERIODIC-driven metrics reporter is installed on every
  /// shard engine: each simulated interval, the shard renders its registry
  /// and hands it to `telemetry_sink`. Ticks ride the shards' simulated
  /// clocks, so reports fire during AdvanceTo — deterministically.
  Duration telemetry_report_interval = 0;
  /// Destination for periodic reports (default: the INFO log). Reports are
  /// prefixed "# shard N"; the sink runs on shard threads, so a shared sink
  /// must be thread-safe.
  telemetry::ReportSink telemetry_sink;
  /// Per-shard hot-path sampling: wall-clock latency is measured on every
  /// Nth dispatch (0 disables) and every Mth request records a full trace
  /// span. See AuthorizationEngine::set_telemetry_sampling.
  uint32_t latency_sample_every = 32;
  uint32_t trace_sample_every = 256;
  /// Per-shard decision cache capacity in slots; 0 (the default) disables
  /// caching. Nonzero values must be a power of two (the cache is an
  /// open-addressed table) — anything else is rejected by ValidateConfig.
  /// See AuthorizationEngine::ConfigureDecisionCache for semantics.
  size_t decision_cache_capacity = 0;
  /// Zero-hop read path: purpose-free CheckAccess / CheckAccessBatch items
  /// first consult the home shard's decision cache from the *caller's*
  /// thread — a cache hit whose validity stamp matches the shard's
  /// published words and the session's live generation is answered without
  /// a mailbox hop or any lock. Misses, stale entries, purpose-qualified
  /// requests and symbol-overflow keys fall back to the engine unchanged
  /// (inline on an idle shard, else through its mailbox). Requires
  /// decision_cache_capacity > 0 (rejected by ValidateConfig otherwise) and
  /// is ignored in synchronous mode, where every call is already inline.
  /// Caveat: fast-path hits are counted in decision_cache_fastpath_hits_total
  /// and service_requests_total but bypass the shard engine — they do not
  /// appear in its decisions_total or its decision audit log.
  bool decision_cache_fastpath = false;
  /// Per-shard mailbox capacity in queued envelopes for decision traffic
  /// (CheckAccess, session/role calls, one batch envelope per involved
  /// shard). 0 (the default) = unbounded, the pre-overload-protection
  /// behavior. Admin broadcasts and time advances are exempt — the epoch
  /// barrier requires every shard to observe every admin envelope.
  size_t mailbox_capacity = 0;
  /// What a producer does when its shard mailbox is full. Only meaningful
  /// with mailbox_capacity > 0; kShed with capacity 0 is rejected by
  /// ValidateConfig as a misconfiguration (it could never shed).
  OverloadPolicy overload_policy = OverloadPolicy::kBlock;
  /// Wall-clock decision budget in microseconds applied to every
  /// decision-path call that does not carry its own AccessRequest::deadline
  /// (0 = none). Expiry — in queue, or blocked waiting for mailbox space —
  /// yields AccessOutcome::kOverloaded, never a policy deny.
  Duration default_deadline = 0;
  /// Durable audit stream: when non-empty, an async JSONL exporter (see
  /// audit::AuditExporter) is attached and every shard's DecisionLog is
  /// tapped after each engine call it makes — by the thread that made the
  /// call, under the shard's owner lock, without copying the ring and
  /// without ever blocking on I/O. Fast-path hits and overload verdicts,
  /// which never reach an engine, are exported as service-level records
  /// (seq 0).
  std::string audit_path;
  /// Rotate the audit file once it exceeds this size; 0 disables. See
  /// audit::AuditExporter::Options::rotate_bytes.
  uint64_t audit_rotate_bytes = 0;
  /// Exporter hand-off buffer, in records; beyond it the exporter drops
  /// (counted in audit_export_drops_total), never blocks a shard. Must be
  /// > 0 when audit_path is set.
  size_t audit_queue_capacity = 65536;
  /// Default per-principal quota at the decision-path admission edge:
  /// sustained tokens per second refilled on read (GCRA — no background
  /// thread), checked before the mailbox push. 0 (the default) applies no
  /// default quota; principals can still be throttled individually via
  /// quota_overrides or the policy's own threshold rules (see
  /// ThresholdDirective::throttle_rate_per_s). Negative rates are rejected
  /// by ValidateConfig.
  double quota_rate_per_s = 0;
  /// Bucket depth for the default quota, in requests (how large a burst a
  /// full bucket absorbs). 0 behaves as 1.
  int64_t quota_burst = 0;
  /// Static per-principal overrides, applied at construction. rate <= 0
  /// exempts that principal from the default quota.
  std::vector<PrincipalQuota> quota_overrides;
  /// When over-quota verdicts turn into refusals (see QuotaEnforcement).
  /// kOnOverload with an unbounded mailbox and a static quota is rejected
  /// by ValidateConfig: nothing would ever be refused.
  QuotaEnforcement quota_enforcement = QuotaEnforcement::kOnOverload;
  /// Policer slot-table capacity (principals tracked); must be a power of
  /// two. Principals beyond it fail open (unpoliced) and are counted.
  size_t policer_capacity = 1024;
  /// When non-zero, the policing key is the principal name truncated at the
  /// first occurrence of this delimiter — "tenant-a/alice" and
  /// "tenant-a/bob" then share the "tenant-a" bucket (role/tenant
  /// aggregation). 0 (the default) polices full principal names.
  char quota_key_delimiter = '\0';
  /// Nanosecond clock driving refill arithmetic; defaults to the steady
  /// wall clock. Injectable so tests and the differential harness control
  /// refill exactly.
  std::function<int64_t()> quota_clock;
};

/// Aggregated per-shard counters (gathered with a quiescing inspection).
struct ServiceStats {
  uint64_t decisions = 0;
  uint64_t denials = 0;
  uint64_t audit_overflow = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_stale = 0;
  /// Decision envelopes refused at a full mailbox (kShed policy). Every
  /// shed is a caller-visible kOverloaded decision — the counter and the
  /// caller-observed outcomes reconcile exactly.
  uint64_t shed = 0;
  /// Decision envelopes answered kOverloaded because their deadline passed
  /// — in queue, or while blocked waiting for mailbox space.
  uint64_t expired = 0;
  /// CheckAccess verdicts answered on the caller's thread from a shard's
  /// published cache snapshot — zero mailbox hops, zero locks.
  uint64_t fastpath_hits = 0;
  /// Zero-hop probes sent to the mailbox instead, by reason: the request
  /// carries a purpose; the shard has not interned one of its names (or
  /// the key is too wide to pack); the key is absent; its entry is stale;
  /// the slot was being written. Hits plus these five count every probe.
  uint64_t fastpath_fallback_purpose = 0;
  uint64_t fastpath_fallback_unknown_symbol = 0;
  uint64_t fastpath_fallback_miss = 0;
  uint64_t fastpath_fallback_stale = 0;
  uint64_t fastpath_fallback_torn = 0;
  /// Audit export pipeline (zeros when no audit_path was configured).
  /// Completeness invariant when only engine-dispatched traffic runs:
  /// audit_records + audit_drops covers every decision made.
  uint64_t audit_records = 0;
  uint64_t audit_drops = 0;
  uint64_t audit_bytes = 0;
  /// Policy generations committed via the pauseless swap path, and update
  /// attempts rejected at Prepare (validation/diff failure) or Commit.
  uint64_t policy_swaps = 0;
  uint64_t policy_swap_failures = 0;
  /// Admission policer: requests admitted within quota, over-quota
  /// verdicts, caller-visible refusals ("overloaded: over quota"), and
  /// tokens regained by refill-on-read. refused <= over_quota always —
  /// under kOnOverload an over-quota request is still served while the
  /// shard has headroom.
  uint64_t policer_admitted = 0;
  uint64_t policer_over_quota = 0;
  uint64_t policer_refused = 0;
  uint64_t policer_refill_tokens = 0;
  /// Decision envelopes (checks, batches, session ops) by how they ran: on
  /// the caller's thread, because the shard was idle (or the service is
  /// synchronous), or through the shard's mailbox. Refused envelopes count
  /// in neither.
  uint64_t envelopes_inline = 0;
  uint64_t envelopes_queued = 0;
};

/// \brief One observability capture of the whole service: every shard
/// registry merged with the service-boundary registry, plus the sampled
/// decision spans gathered from each shard (shard-tagged, oldest first
/// within a shard).
struct TelemetrySnapshot {
  Time now = 0;
  uint64_t admin_epoch = 0;
  int num_shards = 0;
  telemetry::RegistrySnapshot metrics;
  std::vector<telemetry::DecisionSpan> spans;
};

/// \brief Sharded concurrent front-end over N AuthorizationEngines.
///
/// The actor-style design the paper's "thousands of events per second"
/// target asks for, built on the observation (Ali & Fernández) that
/// request-path state is read-mostly and partitionable per user:
///
///  * **Shard-per-core.** The service owns `num_shards` engines, each with
///    its own SimulatedClock, SymbolTable and rule pool. An engine is owned
///    by its shard's owner lock, not by a thread: every engine call runs
///    under it, so engines stay single-threaded internally. A dedicated
///    shard thread pops its mailbox under the lock and runs what it popped
///    before letting go; a caller whose last envelope targets an idle shard
///    (lock free, mailbox empty) takes the lock with try_lock and runs the
///    envelope itself, crossing no thread. The mailbox is two deques (the
///    decision lane and the exempt admin lane) under one mutex.
///  * **Zero-hop read path (opt-in).** With `decision_cache_fastpath` set,
///    purpose-free CheckAccess calls probe the home shard's decision cache
///    from the caller's thread — the same seqlock-stamped slots and stamps
///    the shard reads — and return repeated verdicts without entering the
///    mailbox at all. An entry answers while its stamp equals the epoch,
///    pool and role words the shard published at the end of its last
///    mutating call plus the session's live generation. Any admin
///    broadcast, role transition or change to that session moves one of
///    them before the mutation is acknowledged, so a fast hit can never
///    replay across a change the caller has been told about, while other
///    sessions' logins leave it answering.
///  * **Routing by user.** Every request carrying a user name is delivered
///    to `hash(user) % num_shards` (a fixed FNV-1a hash, so placement is
///    deterministic across runs and across service instances). Sessions,
///    DSD state, per-user caps and GTRBAC activations are therefore always
///    shard-local. Session-only calls (DeleteSession, legacy CheckAccess
///    without a user) resolve the home shard through a session registry
///    maintained at session create/delete.
///  * **Admin broadcast + epoch barrier.** Policy loads, user-role
///    administration, role enable/disable, and context changes are pushed
///    to *every* shard mailbox and stamped with a fresh epoch; the caller
///    blocks until all shards applied it. So any request submitted after
///    the broadcast returns runs after the admin envelope on every shard,
///    queued or inline — a request never observes a half-applied update
///    (it sees either the whole old or the whole new policy).
///  * **Pauseless policy swap (RCU).** Incremental policy updates skip the
///    barrier: the update is validated and diffed once off the shard
///    threads into an immutable shared generation, and each shard flips
///    its policy pointer + regenerates only affected rules inside one
///    mailbox envelope — requests on other shards keep flowing, and each
///    shard's in-flight envelope still sees entirely-old or entirely-new
///    policy (an envelope runs start to finish under the shard's owner
///    lock, inline or on the shard thread, and so does a commit). Cached and
///    fast-path verdicts invalidate through the rule-pool generation in
///    their stamps, not an epoch wipe. The retired generation frees by
///    shared_ptr refcount once the last shard has flipped. Note
///    admin_epoch() deliberately does not move on swaps.
///  * **Time as a broadcast.** AdvanceTo is an epoch-barriered broadcast
///    serialized with admin operations, so all shards observe temporal
///    events (shift boundaries, duration expiries) in one order relative
///    to them.
///  * **One request path.** Single checks, batches and session calls are
///    all batches through one envelope per involved shard. All but a
///    call's last envelope queue; the last runs inline when its shard is
///    idle, so a session op or single-shard check on an idle shard crosses
///    no thread while a multi-shard batch keeps its parallelism.
///    Broadcasts, swap commits, Inspect and injected faults always run on
///    the shard threads. Synchronous mode is the same inline executor with
///    a blocking lock and no shard threads.
///
/// No service method may be called while the calling thread holds an owner
/// lock — from inside an Inspect callback, an injected fault, or a sink an
/// engine calls: the call could try to take that lock again.
///
/// Caveat (documented, by design): constraints whose scope is global across
/// users — role activation cardinalities, active-security denial thresholds
/// — are enforced per shard, since each shard only sees its own users'
/// activity. Per-user and per-session semantics are exact.
class AuthorizationService {
 public:
  /// Config checks applied before construction: num_shards must be >= 1 or
  /// kAutoShards, decision_cache_capacity must be 0 or a power of two.
  static Status ValidateConfig(const ServiceConfig& config);

  /// Validating factory — the Status-returning construction path. Rejects
  /// malformed configs instead of degrading.
  static Result<std::unique_ptr<AuthorizationService>> Create(
      const ServiceConfig& config = {});

  /// Constructs directly. A config ValidateConfig rejects does not throw:
  /// the service degrades loudly (1 shard, cache off, error logged) and
  /// records the rejection in init_status(). Prefer Create().
  explicit AuthorizationService(const ServiceConfig& config = {});
  ~AuthorizationService();

  /// OK unless the constructor was handed a config ValidateConfig rejects.
  const Status& init_status() const { return init_status_; }

  AuthorizationService(const AuthorizationService&) = delete;
  AuthorizationService& operator=(const AuthorizationService&) = delete;

  // ------------------------------------------------------ Policy (broadcast)

  /// Validates and installs `policy` on every shard. Call once.
  Status LoadPolicy(const Policy& policy);

  /// Applies an incremental policy update to every shard as a pauseless
  /// swap: prepare once on this thread, commit per shard without a barrier
  /// — shards keep serving throughout, and on return every shard runs the
  /// new generation (the return is the linearization point: requests
  /// submitted afterwards see the new policy everywhere). No epoch barrier
  /// and no blanket cache wipe: stamped entries die lazily through the
  /// rule-pool generation. Serialized against concurrent updates; the
  /// returned report is shard 0's. Fails with FailedPrecondition before
  /// LoadPolicy.
  Result<RegenReport> ApplyPolicyUpdate(const Policy& updated);

  /// The policy generation the service currently serves (the last
  /// successfully loaded/applied policy). Null before LoadPolicy.
  std::shared_ptr<const Policy> current_policy() const;

  // ------------------------------------------------------- Request path

  /// Decides one access request on its home shard; blocks for the verdict.
  AccessDecision CheckAccess(const AccessRequest& request);

  /// Decides a batch with one envelope per involved shard instead of one
  /// per request — the bulk-caller fast path. All but the last envelope
  /// cross a mailbox; the caller runs the last itself when its shard is
  /// idle. Results are positionally aligned with `requests`.
  std::vector<AccessDecision> CheckAccessBatch(
      std::span<const AccessRequest> requests);

  /// Allocation-free batch variant for callers that own a reusable result
  /// buffer (the wire server's reactor thread): decides `requests` into
  /// `results`, which must be exactly requests.size() long. Same admission,
  /// deadline and fast-path semantics as CheckAccessBatch.
  void CheckAccessBatchInto(std::span<const AccessRequest> requests,
                            std::span<AccessDecision> results);

  // --------------------------------------------- Session lifecycle (typed)
  //
  // Mutators return AdminResult — status + epoch + shard — not the
  // check-shaped AccessDecision (see AdminResult in api/sentinelpp.h).

  AdminResult CreateSession(const UserName& user, const SessionId& session);
  AdminResult DeleteSession(const SessionId& session);
  AdminResult AddActiveRole(const UserName& user, const SessionId& session,
                            const RoleName& role);
  AdminResult DropActiveRole(const UserName& user, const SessionId& session,
                             const RoleName& role);

  // ------------------------------------- Administration (broadcast + epoch)

  AdminResult AssignUser(const UserName& user, const RoleName& role);
  AdminResult DeassignUser(const UserName& user, const RoleName& role);
  AdminResult EnableRole(const RoleName& role);
  AdminResult DisableRole(const RoleName& role);
  /// Context-aware RBAC environment change, visible on all shards.
  void SetContext(const std::string& key, const std::string& value);

  // --------------------------------------------------------------- Time

  /// Advances simulated time on every shard: an epoch-barriered broadcast
  /// from the caller's thread, serialized with admin operations. Blocks
  /// until all shards fired their temporal events up to `t`. After
  /// Shutdown() no shard can take the advance, and the call says so with
  /// FailedPrecondition instead of silently returning as if time had
  /// moved.
  Status AdvanceTo(Time t);
  Status AdvanceBy(Duration d) { return AdvanceTo(Now() + d); }
  Time Now() const { return now_.load(std::memory_order_acquire); }

  // ------------------------------------------------------ Introspection

  int num_shards() const { return static_cast<int>(shards_.size()); }
  bool synchronous() const { return synchronous_; }
  /// Epoch of the latest completed admin broadcast.
  uint64_t admin_epoch() const {
    return admin_epoch_.load(std::memory_order_acquire);
  }
  /// Home shard of `user` — deterministic in (user, num_shards).
  uint32_t ShardOf(const std::string& user) const;

  /// Runs `fn` against one shard's engine on that shard's thread (inline in
  /// synchronous mode, and under the owner lock after Shutdown()) and
  /// blocks until done — the race-free window tests and stats use to look
  /// inside an engine. `fn` must not call back into the service.
  void Inspect(uint32_t shard,
               const std::function<void(const AuthorizationEngine&)>& fn);

  /// Aggregates decision/denial/audit-overflow counters across shards.
  ServiceStats Stats();

  /// Current / high-water queued-envelope depth of one shard mailbox
  /// (exempt admin envelopes included). Always 0 in synchronous mode.
  size_t MailboxDepth(uint32_t shard) const;
  size_t MailboxPeakDepth(uint32_t shard) const;

  /// The attached audit exporter, or nullptr when audit_path was empty.
  /// For tests (stall injection, flush) and tools (final counter lines);
  /// the exporter's own API is thread-safe.
  audit::AuditExporter* audit_exporter() { return audit_.get(); }

  /// The admission policer. Always present; thread-safe. Direct access is
  /// the operator/test surface (TokensAvailable, Occupy); prefer
  /// SetPrincipalQuota for installing quotas.
  Policer& policer() { return *policer_; }

  /// Installs (rate_per_s > 0) or lifts (rate_per_s <= 0, reverting to the
  /// default quota) a per-principal quota at runtime — the same path the
  /// policy's threshold rules use to throttle an abusive principal. Takes
  /// effect on the next admission; never blocks on shard threads.
  void SetPrincipalQuota(const std::string& principal, double rate_per_s,
                         int64_t burst);

  /// Test-only fault injection: enqueues `fn` on `shard`'s mailbox through
  /// the exempt lane (never shed, never expired) and returns immediately,
  /// without waiting for it to run. While `fn` runs, the shard thread holds
  /// the owner lock and is stalled: decision traffic behind it queues and
  /// ages (no caller can run inline) and, with a bounded mailbox, producers
  /// shed or block — the deterministic way tests create overload. Returns
  /// false once Shutdown() has run. In synchronous mode `fn` runs inline
  /// before returning. `fn` must not call back into the service.
  bool InjectShardFault(uint32_t shard, std::function<void()> fn);

  // -------------------------------------------------------- Telemetry

  /// Captures the merged metrics view plus sampled decision spans. Metric
  /// merging is lock-free (pure atomic loads against each shard registry);
  /// span gathering uses Inspect, briefly queueing behind each shard's
  /// in-flight work.
  TelemetrySnapshot Snapshot();

  /// The Prometheus text exposition of Snapshot(), with sampled spans
  /// appended as "# trace ..." comment lines — the scrape endpoint body.
  std::string RenderMetrics();

  /// The same capture as a JSON document ({"now", "admin_epoch",
  /// "num_shards", "metrics", "spans"}).
  std::string RenderMetricsJson();

  /// Closes every mailbox, drains queued envelopes (queued requests still
  /// get real decisions), joins all threads, then takes every owner lock,
  /// so no envelope is running anywhere when it returns. Idempotent; the
  /// destructor calls it. In either mode, requests submitted after
  /// shutdown are answered with a denied "service is shut down" decision
  /// (kShutdown), and mutators, LoadPolicy and AdvanceTo with
  /// FailedPrecondition.
  void Shutdown();

 private:
  struct Shard;
  class Latch;
  /// One mailbox envelope: what runs between two audit taps. It returns
  /// the latch its caller waits on (null when nobody waits); the executor
  /// counts it down once it has let go of the owner lock, so a caller's
  /// next call finds the shard free.
  using Task = std::function<Latch*(Shard&)>;
  using PushResult = Mailbox<Task>::PushResult;
  using SessionOp = std::function<Decision(AuthorizationEngine&)>;

  /// Why TryFastPath sent a check to the mailbox (see ServiceStats).
  enum FastPathFallback {
    kFallbackPurpose,
    kFallbackUnknownSymbol,
    kFallbackMiss,
    kFallbackStale,
    kFallbackTorn,
    kFastPathFallbacks
  };

  struct Shard {
    uint32_t index = 0;
    std::unique_ptr<SimulatedClock> clock;
    /// The owner lock: held around every engine call, on the shard thread
    /// or an inline caller, so the engine and everything documented as
    /// single-writer (symbol interning, decision-cache writes, Counter::Inc,
    /// Histogram::Record, the DecisionLog and its audit tap) has one writer
    /// at a time, each ordered after the last.
    std::mutex owner;
    std::unique_ptr<AuthorizationEngine> engine;
    /// Epoch of the last admin envelope this shard applied.
    std::atomic<uint64_t> applied_epoch{0};
    Mailbox<Task> mailbox;
    /// Overload instruments, registered in the shard engine's registry so
    /// they merge into RenderMetrics and the admin report like any other
    /// per-shard series. Shed/expired are bumped from producer threads as
    /// well as the shard thread — multi-writer, hence Add/RecordShared.
    telemetry::Counter* shed_counter = nullptr;     // Owned by the registry.
    telemetry::Counter* expired_counter = nullptr;  // Owned by the registry.
    telemetry::Counter* fastpath_counter = nullptr;
    /// Indexed by FastPathFallback; bumped from caller threads.
    telemetry::Counter* fastpath_fallbacks[kFastPathFallbacks] = {};
    telemetry::Histogram* queue_depth_hist = nullptr;
    telemetry::Histogram* queue_wait_hist = nullptr;
    /// On-shard-thread cost of one pauseless swap commit (delta replay +
    /// affected-rule regenerate + pointer flip), in microseconds — the
    /// stall a swap actually imposes on this shard's request stream.
    telemetry::Histogram* swap_commit_hist = nullptr;
    std::thread thread;
  };

  /// Countdown latch (mutex+condvar; C++20 <latch> kept out so TSan's view
  /// stays trivial).
  class Latch {
   public:
    explicit Latch(int count) : remaining_(count) {}
    void Arrive();
    void Wait();

   private:
    std::mutex mu_;
    std::condition_variable cv_;
    int remaining_;
  };

  /// Per-item bookkeeping of one Dispatch call.
  struct Item {
    int64_t deadline_ns = 0;  // Steady-clock expiry instant; 0 = none.
    uint32_t key = 0;         // shard * 2 + restricted, or kAnswered.
    uint32_t order = 0;       // Slot k: the k-th item in envelope order.
  };
  static constexpr uint32_t kAnswered = UINT32_MAX;

  /// One Dispatch call's state, on the caller's stack. The call waits for
  /// every envelope it pushed: once admitted, an envelope always runs
  /// (expiry is judged when it runs), so nothing here is ever abandoned.
  struct Call {
    /// Lets an envelope capture only {&call, begin, end}, which fits
    /// std::function's inline storage: pushing one allocates nothing.
    AuthorizationService* service = nullptr;
    std::span<const AccessRequest> requests;
    AccessDecision* out = nullptr;
    const SessionOp* op = nullptr;  // Null for access checks.
    int64_t submit_ns = 0;
    const Item* items = nullptr;
    Latch* done = nullptr;
  };

  /// The one decision path: decides `requests` into `out`. Access checks
  /// take the zero-hop probe and policing and route by RouteRequest; a
  /// session op (`op`, one request carrying its attribution) runs on
  /// `op_shard`. Then: deadlines, one envelope per (shard, quota class),
  /// and every refusal.
  void Dispatch(std::span<const AccessRequest> requests, AccessDecision* out,
                const SessionOp* op = nullptr, uint32_t op_shard = 0);
  /// Runs (`run_inline`, when the shard is idle) or pushes the envelope for
  /// envelope-order slots [begin, end) on `shard`; a refused push answers
  /// each of its items.
  void SubmitEnvelope(const Call& call, uint32_t shard, bool restricted,
                      uint32_t begin, uint32_t end, bool run_inline);
  /// The envelope body: per item, the expiry check, then the engine call
  /// and the audit tap. Returns the call's latch.
  Latch* RunEnvelope(const Call& call, Shard& shard, uint32_t begin,
                     uint32_t end);
  /// A session op as a batch of one on `shard`. A refusal's audit record
  /// names `user`, `session`, the op's `name` and its `role`.
  AdminResult RunSessionOp(uint32_t shard, const char* name,
                           const UserName& user, const SessionId& session,
                           const RoleName& role, const SessionOp& op);

  /// Decision lane: with `run_inline`, the inline executor first; when it
  /// finds the shard busy, Mailbox::PushBounded. Counts how the envelope
  /// ran.
  PushResult PushDecision(Shard& shard, Task task, bool block,
                          int64_t deadline_ns, size_t max_depth,
                          bool run_inline);
  /// Exempt lane: Mailbox::Push, or in synchronous mode the inline
  /// executor. False once Shutdown() has run.
  bool PushExempt(Shard& shard, Task task);
  /// How RunInline left its task.
  enum class InlineRun { kRan, kBusy, kClosed };
  /// The inline executor: runs `task` on the calling thread under `shard`'s
  /// owner lock, as the shard thread would. Synchronous mode waits for the
  /// lock. Otherwise the task runs only if try_lock wins and the mailbox is
  /// empty once the lock is held — the shard thread pops only under the
  /// lock and runs what it popped before letting go, so nothing queued or
  /// popped is overtaken — and kBusy leaves it to be queued. kClosed once
  /// Shutdown() has run.
  InlineRun RunInline(Shard& shard, Task& task);
  /// Runs `fn` on every shard through the exempt lane and waits; true iff
  /// every shard ran it. Shutdown() closes the mailboxes under admin_mu_,
  /// so only a caller holding admin_mu_ reaches every shard or none; the
  /// ApplyPolicyUpdate commit, which does not, can reach some of them.
  bool RunOnEveryShard(const std::function<void(Shard&)>& fn);
  /// What the owner of a shard does with one envelope: the task, then the
  /// tap. Returns the task's latch, for the caller to count down once it
  /// has let go of the owner lock.
  Latch* RunTask(Shard& shard, Task& task);

  static AdminResult ToAdminResult(const AccessDecision& decision);

  /// Zero-hop read path: answers `request` from its home shard's decision
  /// cache, entirely on the caller's thread. Returns true and fills `*out`
  /// only on a hit whose stamp matches the shard's published words and the
  /// session's live generation; every other case (purpose-qualified,
  /// unknown symbols, key overflow, miss, stale, torn publish) counts its
  /// FastPathFallback, returns false, and the caller takes the mailbox path.
  bool TryFastPath(const AccessRequest& request, AccessDecision* out);

  /// `request`'s steady-clock expiry instant in ns for a budget starting
  /// at `submit_ns`; 0 = none, and always 0 in synchronous mode (nothing
  /// queues). Saturates both steps at INT64_MAX — a huge but valid budget
  /// means "effectively never", not signed-overflow UB wrapping to an
  /// already-expired instant that sheds every request carrying it.
  int64_t DeadlineNanos(const AccessRequest& request, int64_t submit_ns) const;

  /// Why a request was answered kOverloaded without reaching an engine.
  enum class OverloadKind { kShed, kExpired, kOverQuota };
  /// Answers `request` kOverloaded: the kind's counter, the decision, and
  /// the attributed service.overload audit record.
  void Refuse(OverloadKind kind, Shard& shard, const AccessRequest& request,
              int64_t submit_ns, AccessDecision* out);

  /// Policer verdict for `request` (kUnpoliced when policing is inactive).
  /// The key is the user, else the session, cut at quota_key_delimiter.
  Policer::Verdict AdmitPrincipal(const AccessRequest& request);

  /// Pushes `fn` to every shard with a fresh epoch and waits for all shards
  /// to apply it; false when it reached none (after Shutdown()).
  /// Serialized by admin_mu_. `admin` distinguishes real administrative
  /// changes (which also bump each shard's decision-cache epoch) from time
  /// advances (which must not — temporal firings invalidate precisely
  /// through role/session generations, and wiping the cache every tick
  /// would defeat it).
  bool Broadcast(
      const std::function<void(AuthorizationEngine&, uint32_t shard)>& fn,
      bool admin = true);

  /// Broadcast answering with the Decision observed on `authoritative` (the
  /// home shard for user-scoped admin ops, shard 0 for role-scoped ones),
  /// or FailedPrecondition when the broadcast reached no shard.
  AdminResult BroadcastRequest(
      uint32_t authoritative,
      const std::function<Decision(AuthorizationEngine&)>& op);

  void ShardLoop(Shard* shard);

  /// Export tap: hands the shard's undrained DecisionLog tail to the audit
  /// exporter and accounts ring evictions as drops. Under the shard's owner
  /// lock only. One comparison when nothing is new.
  void DrainShardAudit(Shard& shard);

  /// Exports a service-level audit marker (seq 0): a verdict that never
  /// reached an engine — fast-path hit or overload. Any-thread safe;
  /// `request` may be null when no attribution exists at the call site.
  void OfferServiceRecord(const char* kind, const AccessRequest* request,
                          const AccessDecision& decision);

  /// Resolves the shard handling `request` (user key, else session
  /// registry, else session hash).
  uint32_t RouteRequest(const AccessRequest& request) const;
  uint32_t RouteSession(const SessionId& session) const;

  static AccessDecision ShutdownDecision();
  AccessDecision Convert(const Decision& decision, uint32_t shard,
                         uint64_t epoch, int64_t submit_ns) const;

  bool synchronous_ = false;
  Status init_status_;
  /// Overload knobs, frozen at construction.
  bool shed_on_full_ = false;
  Duration default_deadline_ = 0;
  /// Admission policer — always constructed (rule-driven throttling can
  /// install quotas at runtime even with no static quota configured); one
  /// relaxed load per request while inactive.
  std::unique_ptr<Policer> policer_;
  /// QuotaEnforcement::kAlways — refuse over-quota at admission.
  bool quota_always_ = false;
  /// Tenant-aggregation delimiter (0 = full principal names).
  char quota_key_delimiter_ = '\0';
  /// Decision-lane depth over-quota requests may fill under kOnOverload:
  /// capacity minus the reserved top quarter. The reservation is what makes
  /// shedding weighted — conformant principals always find headroom an
  /// abuser cannot occupy. 0 where no bound applies (unbounded mailbox,
  /// synchronous mode): over-quota requests then share envelopes.
  size_t over_quota_max_depth_ = 0;
  /// Zero-hop read path enabled (config flag, cache on, not synchronous).
  bool fastpath_ = false;
  /// Async audit writer; null when audit_path was empty. Created before the
  /// shard threads start and Closed (flushing) inside Shutdown, so every
  /// shard-thread Offer happens while it is alive.
  std::unique_ptr<audit::AuditExporter> audit_;
  /// Fast-path latency sampling interval (mirrors the engines' setting).
  uint32_t latency_sample_every_ = 32;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Service-boundary metrics (request/batch/broadcast counts), bumped from
  /// arbitrary caller threads — multi-writer instruments (Add/RecordShared),
  /// unlike the shards' single-writer registries.
  telemetry::Registry service_metrics_;
  telemetry::Counter* requests_counter_ = nullptr;  // Owned by the registry.
  telemetry::Counter* batches_counter_ = nullptr;
  telemetry::Counter* broadcasts_counter_ = nullptr;
  /// Caller-visible over-quota refusals ("overloaded: over quota").
  telemetry::Counter* policer_refused_counter_ = nullptr;
  /// Decision envelopes run inline / pushed to a mailbox (ServiceStats).
  telemetry::Counter* envelopes_inline_counter_ = nullptr;
  telemetry::Counter* envelopes_queued_counter_ = nullptr;
  telemetry::Gauge* sessions_gauge_ = nullptr;
  telemetry::Histogram* batch_size_hist_ = nullptr;
  /// Sampled fast-path hit latency. Same name and bounds as the engines'
  /// decision_latency_us, so snapshots merge hits and dispatches into one
  /// series — a cache-heavy workload's p50 must reflect the hits.
  telemetry::Histogram* fastpath_latency_hist_ = nullptr;

  /// Serializes admin broadcasts and time advances so epochs hit every
  /// mailbox in one order; Shutdown() closes the mailboxes under it.
  std::mutex admin_mu_;
  std::atomic<uint64_t> admin_epoch_{0};

  /// Serializes policy updates (and orders them against LoadPolicy's
  /// installation of current_policy_); never held by shard threads.
  mutable std::mutex update_mu_;
  /// The installed shared generation — the identity base the next
  /// PreparePolicyUpdate pins its plan to. Guarded by update_mu_.
  std::shared_ptr<const Policy> current_policy_;
  telemetry::Counter* policy_swaps_counter_ = nullptr;  // Owned by registry.
  telemetry::Counter* policy_swap_failures_counter_ = nullptr;
  /// Off-thread prepare cost (validate + diff + delta), in microseconds.
  telemetry::Histogram* swap_build_hist_ = nullptr;

  std::atomic<Time> now_{0};

  /// session -> home shard, for session-only calls.
  mutable std::shared_mutex session_mu_;
  std::unordered_map<SessionId, uint32_t> sessions_;

  std::mutex shutdown_mu_;
  /// Set by Shutdown() under both mutexes; the inline executor reads it
  /// under the owner lock, as its closed mailbox.
  std::atomic<bool> shut_down_{false};
};

}  // namespace sentinel

#endif  // SENTINELPP_SERVICE_AUTHORIZATION_SERVICE_H_
