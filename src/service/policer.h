#ifndef SENTINELPP_SERVICE_POLICER_H_
#define SENTINELPP_SERVICE_POLICER_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "telemetry/metrics.h"

namespace sentinel {

/// \brief Lock-free per-principal token-bucket policer (GCRA form) for the
/// service's decision-lane admission control.
///
/// Each principal (user name, or session id for user-less legacy requests)
/// owns one bucket in a fixed open-addressed slot table. The bucket is a single
/// `atomic<int64_t>`: the GCRA *theoretical arrival time* (TAT) in clock
/// nanoseconds. A request conforms iff `tat - now <= tau` where
/// `tau = (burst - 1) * T` and `T = 1e9 / rate` ns is the emission
/// interval; admission advances `tat = max(tat, now) + T` with one CAS.
/// Refill is therefore pure arithmetic on read — no background thread, no
/// per-bucket lock, no stored token count to decay — and an idle bucket's
/// tokens clamp at `burst` automatically because `max(tat, now)` forgets
/// any surplus idle time.
///
/// Concurrency contract: `Admit` may be called from any number of producer
/// threads; `SetQuota` / `ResetQuota` from admin or shard threads
/// concurrently with admission. Slots are claimed by a CAS on the key word
/// (0 = empty); all other slot fields start at 0, which is a valid state
/// ("bucket full, default quota"), so a claim publishes nothing that needs
/// ordering beyond the key CAS itself. Quota words are read individually
/// with relaxed loads — a quota update racing an admission applies to that
/// admission or the next one, never to neither.
///
/// Overflow hygiene: the conformance test is written `tat - now <= tau`
/// (never `now + tau`, which can wrap for a huge `tau`), and the TAT
/// advance saturates at INT64_MAX, so hostile clocks or quotas cannot
/// produce signed-overflow UB — the same bug class as the service's
/// DeadlineNanos fix.
class Policer {
 public:
  /// One principal's quota. rate_per_s <= 0 disables policing for the
  /// bucket (the principal is unpoliced, not unlimited-bucket).
  struct Quota {
    double rate_per_s = 0;
    /// Bucket depth in requests; values < 1 are treated as 1.
    int64_t burst = 1;
  };

  enum class Verdict {
    kUnpoliced,   ///< No quota applies to this principal.
    kConforming,  ///< Within quota; one token debited.
    kOverQuota,   ///< Bucket empty; nothing debited.
  };

  struct Options {
    /// Slot-table capacity; must be a power of two (validated by the
    /// service config). Principals beyond capacity fail open (kUnpoliced)
    /// and are counted in overflows().
    size_t capacity = 1024;
    /// Default quota applied to every principal; rate 0 = no default
    /// policing (only explicit SetQuota overrides police).
    Quota default_quota;
    /// Nanosecond clock; defaults to telemetry::NowNanos. Injectable so
    /// the differential harness and the refill unit tests are exact.
    std::function<int64_t()> clock;
  };

  /// Aggregate view for gauges (table scan; Snapshot-path cost only).
  struct Occupancy {
    uint64_t tracked = 0;     ///< Claimed slots.
    uint64_t over_quota = 0;  ///< Buckets currently empty.
    uint64_t throttled = 0;   ///< Buckets with an explicit quota override.
  };

  explicit Policer(Options options)
      : clock_(options.clock ? std::move(options.clock)
                             : [] { return telemetry::NowNanos(); }),
        mask_(options.capacity - 1),
        slots_(std::make_unique<Slot[]>(options.capacity)) {
    SetDefaultQuota(options.default_quota);
  }

  Policer(const Policer&) = delete;
  Policer& operator=(const Policer&) = delete;

  /// One relaxed load on the hot path when no quota exists anywhere.
  bool active() const { return active_.load(std::memory_order_acquire); }

  /// Checks `principal` against its bucket, debiting one token when
  /// conforming. kUnpoliced costs one atomic load when the policer has
  /// never seen a quota.
  Verdict Admit(std::string_view principal) {
    if (!active()) return Verdict::kUnpoliced;
    Slot* slot = FindSlot(Hash(principal), /*claim=*/true);
    if (slot == nullptr) {
      overflows_.fetch_add(1, std::memory_order_relaxed);
      return Verdict::kUnpoliced;  // Fail open, loudly countable.
    }
    int64_t interval = slot->interval_ns.load(std::memory_order_relaxed);
    int64_t tau = slot->tau_ns.load(std::memory_order_relaxed);
    if (interval == 0) {  // No override: the default quota, if any.
      interval = default_interval_ns_.load(std::memory_order_relaxed);
      tau = default_tau_ns_.load(std::memory_order_relaxed);
      if (interval == 0) return Verdict::kUnpoliced;
    } else if (interval < 0) {
      return Verdict::kUnpoliced;  // Explicit "unpoliced" override.
    }
    const int64_t now = clock_();
    int64_t tat = slot->tat.load(std::memory_order_relaxed);
    for (;;) {
      if (tat - now > tau) {
        over_quota_.fetch_add(1, std::memory_order_relaxed);
        return Verdict::kOverQuota;
      }
      const int64_t base = tat > now ? tat : now;
      const int64_t next =
          base > std::numeric_limits<int64_t>::max() - interval
              ? std::numeric_limits<int64_t>::max()
              : base + interval;
      if (slot->tat.compare_exchange_weak(tat, next,
                                          std::memory_order_relaxed)) {
        if (tat < now) {
          // Tokens regained while the bucket idled — the refill-on-read
          // accounting the telemetry exposes. Clamped to the bucket depth,
          // like the arithmetic itself. Counted only on the winning CAS so
          // contention cannot double-count a refill.
          const int64_t regained = (now - tat) / interval;
          refilled_.fetch_add(
              static_cast<uint64_t>(std::min(regained, tau / interval + 1)),
              std::memory_order_relaxed);
        }
        admitted_.fetch_add(1, std::memory_order_relaxed);
        return Verdict::kConforming;
      }
    }
  }

  /// Installs (or replaces) `principal`'s quota. rate_per_s <= 0 marks the
  /// principal explicitly unpoliced (overriding any default). The bucket's
  /// fill level is preserved across rate changes in TAT form.
  void SetQuota(std::string_view principal, Quota quota) {
    Slot* slot = FindSlot(Hash(principal), /*claim=*/true);
    if (slot == nullptr) {
      overflows_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (quota.rate_per_s <= 0) {
      slot->tau_ns.store(0, std::memory_order_relaxed);
      slot->interval_ns.store(-1, std::memory_order_relaxed);
    } else {
      const int64_t interval = IntervalNs(quota.rate_per_s);
      const int64_t burst = quota.burst < 1 ? 1 : quota.burst;
      slot->tau_ns.store(SaturatingMul(interval, burst - 1),
                         std::memory_order_relaxed);
      slot->interval_ns.store(interval, std::memory_order_relaxed);
      overrides_.fetch_add(1, std::memory_order_relaxed);
      active_.store(true, std::memory_order_release);
    }
  }

  /// Reverts `principal` to the default quota (claims a slot if needed,
  /// same as any first touch).
  void ResetQuota(std::string_view principal) {
    Slot* slot = FindSlot(Hash(principal), /*claim=*/false);
    if (slot == nullptr) return;
    slot->tau_ns.store(0, std::memory_order_relaxed);
    slot->interval_ns.store(0, std::memory_order_relaxed);
  }

  /// Replaces the default quota applied to principals without an override.
  void SetDefaultQuota(Quota quota) {
    if (quota.rate_per_s <= 0) {
      default_tau_ns_.store(0, std::memory_order_relaxed);
      default_interval_ns_.store(0, std::memory_order_relaxed);
      return;
    }
    const int64_t interval = IntervalNs(quota.rate_per_s);
    const int64_t burst = quota.burst < 1 ? 1 : quota.burst;
    default_tau_ns_.store(SaturatingMul(interval, burst - 1),
                          std::memory_order_relaxed);
    default_interval_ns_.store(interval, std::memory_order_relaxed);
    active_.store(true, std::memory_order_release);
  }

  /// Whole tokens currently available to `principal` (bucket depth for a
  /// never-seen principal). Test/introspection surface.
  int64_t TokensAvailable(std::string_view principal) {
    int64_t interval = default_interval_ns_.load(std::memory_order_relaxed);
    int64_t tau = default_tau_ns_.load(std::memory_order_relaxed);
    int64_t tat = 0;
    if (Slot* slot = FindSlot(Hash(principal), /*claim=*/false)) {
      const int64_t override_interval =
          slot->interval_ns.load(std::memory_order_relaxed);
      if (override_interval != 0) {
        interval = override_interval;
        tau = slot->tau_ns.load(std::memory_order_relaxed);
      }
      tat = slot->tat.load(std::memory_order_relaxed);
    }
    if (interval <= 0) return std::numeric_limits<int64_t>::max();
    const int64_t now = clock_();
    const int64_t burst = tau / interval + 1;
    if (tat <= now) return burst;
    const int64_t spent = (tat - now + interval - 1) / interval;
    return spent >= burst ? 0 : burst - spent;
  }

  /// Scans the table (Snapshot-path cost, not hot-path).
  Occupancy Occupy() {
    Occupancy occupancy;
    const int64_t now = clock_();
    const int64_t default_interval =
        default_interval_ns_.load(std::memory_order_relaxed);
    const int64_t default_tau =
        default_tau_ns_.load(std::memory_order_relaxed);
    for (size_t i = 0; i <= mask_; ++i) {
      Slot& slot = slots_[i];
      if (slot.key.load(std::memory_order_acquire) == 0) continue;
      ++occupancy.tracked;
      int64_t interval = slot.interval_ns.load(std::memory_order_relaxed);
      int64_t tau = slot.tau_ns.load(std::memory_order_relaxed);
      if (interval > 0) {
        ++occupancy.throttled;
      } else if (interval == 0) {
        interval = default_interval;
        tau = default_tau;
      }
      if (interval > 0 &&
          slot.tat.load(std::memory_order_relaxed) - now > tau) {
        ++occupancy.over_quota;
      }
    }
    return occupancy;
  }

  uint64_t admitted() const {
    return admitted_.load(std::memory_order_relaxed);
  }
  uint64_t over_quota_verdicts() const {
    return over_quota_.load(std::memory_order_relaxed);
  }
  uint64_t refilled_tokens() const {
    return refilled_.load(std::memory_order_relaxed);
  }
  uint64_t overflows() const {
    return overflows_.load(std::memory_order_relaxed);
  }
  uint64_t overrides_installed() const {
    return overrides_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    std::atomic<uint64_t> key{0};  ///< 0 = empty; claimed by CAS.
    std::atomic<int64_t> tat{0};   ///< GCRA theoretical arrival time (ns).
    /// Per-principal override: 0 = use default, < 0 = explicitly
    /// unpoliced, > 0 = emission interval in ns.
    std::atomic<int64_t> interval_ns{0};
    std::atomic<int64_t> tau_ns{0};
  };

  static int64_t IntervalNs(double rate_per_s) {
    const double interval = 1e9 / rate_per_s;
    if (interval >= 9.2e18) return std::numeric_limits<int64_t>::max();
    return interval < 1.0 ? 1 : static_cast<int64_t>(interval);
  }

  static int64_t SaturatingMul(int64_t a, int64_t b) {
    if (a <= 0 || b <= 0) return 0;
    if (a > std::numeric_limits<int64_t>::max() / b) {
      return std::numeric_limits<int64_t>::max();
    }
    return a * b;
  }

  /// FNV-1a, matching the service's shard routing hash discipline; 0 is
  /// reserved as the empty-slot marker.
  static uint64_t Hash(std::string_view principal) {
    uint64_t hash = 1469598103934665603ull;
    for (const char c : principal) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ull;
    }
    return hash == 0 ? 1 : hash;
  }

  /// Bounded linear probe; claims an empty slot when `claim`. Returns
  /// nullptr when the probe window holds neither the key nor (claimable)
  /// space — the fail-open path.
  Slot* FindSlot(uint64_t key, bool claim) {
    const size_t table = mask_ + 1;
    const size_t max_probes = table < kMaxProbes ? table : kMaxProbes;
    for (size_t probe = 0; probe < max_probes; ++probe) {
      Slot& slot = slots_[(key + probe) & mask_];
      uint64_t seen = slot.key.load(std::memory_order_acquire);
      if (seen == key) return &slot;
      if (seen == 0) {
        if (!claim) return nullptr;
        if (slot.key.compare_exchange_strong(seen, key,
                                             std::memory_order_acq_rel)) {
          return &slot;
        }
        if (seen == key) return &slot;  // Lost the race to ourselves.
        // Lost to a different principal: keep probing.
      }
    }
    return nullptr;
  }

  static constexpr size_t kMaxProbes = 16;

  const std::function<int64_t()> clock_;
  const size_t mask_;
  std::unique_ptr<Slot[]> slots_;

  std::atomic<bool> active_{false};
  std::atomic<int64_t> default_interval_ns_{0};
  std::atomic<int64_t> default_tau_ns_{0};

  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> over_quota_{0};
  std::atomic<uint64_t> refilled_{0};
  std::atomic<uint64_t> overflows_{0};
  std::atomic<uint64_t> overrides_{0};
};

}  // namespace sentinel

#endif  // SENTINELPP_SERVICE_POLICER_H_
