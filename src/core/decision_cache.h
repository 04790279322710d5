#ifndef SENTINELPP_CORE_DECISION_CACHE_H_
#define SENTINELPP_CORE_DECISION_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/interner.h"

namespace sentinel {

/// \brief Per-shard memo table for CheckAccess verdicts, readable from any
/// thread.
///
/// The paper's observation cuts both ways: because every state change that
/// can affect an authorization verdict flows through the rule machinery as
/// an event, those same firing sites can invalidate a verdict cache
/// *precisely* — no TTLs, no scan-and-evict. Each entry carries the Stamp
/// of the state it was computed under (policy epoch, rule-pool generation,
/// the shard's role-transition count, the session's generation); a lookup
/// whose current Stamp differs treats the entry as dead. Stale entries are
/// never searched for — they die lazily when probed or get overwritten by
/// a later fill.
///
/// Shape: fixed-capacity open-addressed table, power-of-two slots, bounded
/// linear probe window; Lookup and Fill never allocate. Slots are only
/// reclaimed by overwrite or Clear() — the table tolerates dead weight by
/// design. One slot array, one stamp per entry, two readers:
///
///  * the engine (Lookup), on whichever thread holds its shard's owner
///    lock, compares an entry's stamp with the live values it recomputes;
///  * any caller thread (SharedLookup, the zero-hop read path) compares the
///    same stamp with the epoch, pool and role words the engine publishes
///    at the tail of every mutating call (PublishCurrentStamp) plus the
///    session's live generation, which RbacDatabase keeps readable from any
///    thread.
///
/// Only the engine writes (Fill, Clear), one thread at a time: the shard's
/// owner lock, which the service holds around every engine call on the
/// shard thread or an inline caller, orders each writer after the last. So
/// the engine reads its own slots without the seqlock. Memory ordering
/// contract (no fences, which ThreadSanitizer does not model):
///
///  * Writer per slot: seq -> odd (relaxed), data stores (release, so none
///    is visible before the odd sequence), seq -> even (release).
///  * Reader: seq load (acquire; odd => fall back), data loads (acquire, so
///    the re-load cannot move above them), seq re-load (changed => torn,
///    fall back).
///  * Published words: release-stored after every mutating engine call
///    returns (AuthorizationEngine::PublishFastPathState). Every stamp word
///    only grows, so a word equal to an entry's proves that component has
///    not moved since the fill as of the moment it was read, and a hit
///    replays a verdict valid as of the last *completed* engine call —
///    in-flight mutations are unacknowledged to their callers, so the read
///    linearizes before them.
class DecisionCache {
 public:
  /// The validity stamp: an entry is alive iff every component still equals
  /// the current value. Components are compared exactly (not hashed
  /// together) so distinct states can never alias.
  struct Stamp {
    uint32_t epoch = 0;    ///< Engine policy/admin-broadcast epoch.
    uint32_t pool = 0;     ///< RuleManager pool generation.
    uint32_t roles = 0;    ///< RoleStateTable role-transition count.
    uint32_t session = 0;  ///< RbacDatabase generation of the key's session.
    bool operator==(const Stamp&) const = default;
  };

  /// What a hit reconstructs. Only CA-rule verdicts and the fail-safe
  /// default deny are cacheable, so two bits suffice; the engine rebuilds
  /// the Decision strings from them.
  struct Verdict {
    bool allowed = false;
    /// Deny attribution: true = the CA rule's ELSE branch, false = the
    /// fail-safe default (no rule decided). Meaningless for allows.
    bool by_rule = false;
  };

  /// kTorn only comes from SharedLookup: a slot whose write was in flight
  /// or moved under the read.
  enum class Outcome { kHit, kMiss, kStale, kTorn };

  static bool IsPowerOfTwo(size_t n) { return n != 0 && (n & (n - 1)) == 0; }

  /// (session, operation, object) packed 24/16/24 into one key. Returns
  /// nullopt when a symbol id overflows its field (callers bypass the cache
  /// for such requests; with dense interning this needs ~16M distinct
  /// session/object names or 65k operations).
  static std::optional<uint64_t> PackKey(Symbol session, Symbol op,
                                         Symbol obj) {
    const uint64_t s = session.id();
    const uint64_t o = op.id();
    const uint64_t b = obj.id();
    if (s >= (1u << 24) || o >= (1u << 16) || b >= (1u << 24)) {
      return std::nullopt;
    }
    return (s << 40) | (o << 24) | b;
  }

  /// Sizes the table to `capacity` slots (0 disables, otherwise must be a
  /// power of two — validated at the service boundary) and drops every
  /// cached entry. Not thread-safe: call before concurrent readers exist
  /// (the service configures at construction).
  void Configure(size_t capacity) {
    slots_ = std::vector<Slot>(IsPowerOfTwo(capacity) ? capacity : 0);
    live_ = 0;
    fills_ = 0;
  }

  bool enabled() const { return !slots_.empty(); }
  /// Occupied slots (live and stale alike — staleness is only decidable
  /// per key, at lookup time).
  size_t size() const { return live_; }

  /// The engine's probe against the live `stamp` (under the owner lock).
  Outcome Lookup(uint64_t key, const Stamp& stamp, Verdict* out) const {
    const uint64_t stored = key + 1;
    const size_t mask = slots_.size() - 1;
    size_t index = Mix(key) & mask;
    for (size_t i = 0; i < kProbeWindow; ++i, index = (index + 1) & mask) {
      const Slot& slot = slots_[index];
      const uint64_t k = slot.key_plus_1.load(std::memory_order_relaxed);
      // Fills take the first empty slot in the window and slots never
      // empty out again, so an empty slot proves the key is absent.
      if (k == 0) return Outcome::kMiss;
      if (k != stored) continue;
      if (slot.stamp_lo.load(std::memory_order_relaxed) != PackLo(stamp) ||
          slot.stamp_hi.load(std::memory_order_relaxed) != PackHi(stamp)) {
        return Outcome::kStale;
      }
      *out = Unpack(slot.verdict.load(std::memory_order_relaxed));
      return Outcome::kHit;
    }
    return Outcome::kMiss;
  }

  /// Writes a verdict under its stamp (engine only, under the owner lock).
  void Fill(uint64_t key, const Stamp& stamp, Verdict verdict) {
    const uint64_t stored = key + 1;
    const size_t mask = slots_.size() - 1;
    const size_t home = Mix(key) & mask;
    size_t victim = kNoSlot;
    size_t index = home;
    for (size_t i = 0; i < kProbeWindow; ++i, index = (index + 1) & mask) {
      const uint64_t k =
          slots_[index].key_plus_1.load(std::memory_order_relaxed);
      if (k == stored) {  // Refresh in place.
        Write(index, stored, stamp, verdict);
        return;
      }
      if (k == 0 && victim == kNoSlot) victim = index;
    }
    if (victim == kNoSlot) {
      // Window full of other keys: rotate the eviction point so one hot
      // bucket cannot pin a single victim slot forever.
      victim = (home + static_cast<size_t>(fills_ % kProbeWindow)) & mask;
    } else {
      ++live_;
    }
    ++fills_;
    Write(victim, stored, stamp, verdict);
  }

  void Clear() {
    for (size_t i = 0; i < slots_.size(); ++i) {
      Write(i, 0, Stamp{}, Verdict{});
    }
    live_ = 0;
  }

  // ------------------------------------------------------ Zero-hop reads

  /// Publishes `current`'s epoch, pool and roles words (engine only, under
  /// the owner lock).
  /// The engine calls it at the tail of every mutating public call; the
  /// session word is not published — SharedLookup's caller reads it live.
  void PublishCurrentStamp(const Stamp& current) {
    published_lo_.store(PackLo(current), std::memory_order_release);
    published_roles_.store(current.roles, std::memory_order_release);
  }

  /// Caller-side zero-hop probe: kHit (with `*out` set) only for an entry
  /// whose stamp equals the published words and `session_generation`, the
  /// key's session's live RbacDatabase::SessionGeneration. Otherwise it
  /// says why — kMiss (disabled, window empty or key absent), kStale (stamp
  /// mismatch) or kTorn (write in flight, torn read) — and the caller falls
  /// back to the mailbox, which re-derives exactly. Safe from any thread.
  Outcome SharedLookup(uint64_t key, uint32_t session_generation,
                       Verdict* out) const {
    if (slots_.empty()) return Outcome::kMiss;
    const uint64_t want_lo = published_lo_.load(std::memory_order_acquire);
    const uint64_t want_hi =
        published_roles_.load(std::memory_order_acquire) |
        (static_cast<uint64_t>(session_generation) << 32);
    const uint64_t stored = key + 1;
    const size_t mask = slots_.size() - 1;
    size_t index = Mix(key) & mask;
    for (size_t i = 0; i < kProbeWindow; ++i, index = (index + 1) & mask) {
      const Slot& slot = slots_[index];
      const uint32_t seq = slot.seq.load(std::memory_order_acquire);
      if ((seq & 1u) != 0) return Outcome::kTorn;  // Write in flight.
      // Acquire data loads keep the re-check below after all four.
      const uint64_t k = slot.key_plus_1.load(std::memory_order_acquire);
      const uint64_t lo = slot.stamp_lo.load(std::memory_order_acquire);
      const uint64_t hi = slot.stamp_hi.load(std::memory_order_acquire);
      const uint32_t v = slot.verdict.load(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_relaxed) != seq) {
        return Outcome::kTorn;
      }
      if (k == 0) return Outcome::kMiss;  // Absent, as in Lookup.
      if (k != stored) continue;
      if (lo != want_lo || hi != want_hi) return Outcome::kStale;
      *out = Unpack(v);
      return Outcome::kHit;
    }
    return Outcome::kMiss;
  }

  /// Test-only fault injection (under the owner lock, via InjectShardFault):
  /// freezes `key`'s slot mid-write — sequence left odd — until
  /// EndTornPublishForTest. Callers must treat the slot as unreadable and
  /// fall back to the mailbox; the shard's own Lookup still reads it.
  void BeginTornPublishForTest(uint64_t key) { BumpSeqForTest(key); }
  void EndTornPublishForTest(uint64_t key) { BumpSeqForTest(key); }

 private:
  /// One entry, 32 bytes: two share a cache line, so a probe window spans
  /// kProbeWindow / 2 lines.
  struct alignas(32) Slot {
    std::atomic<uint64_t> key_plus_1{0};  ///< Packed key + 1; 0 = empty.
    std::atomic<uint64_t> stamp_lo{0};    ///< epoch | pool << 32.
    std::atomic<uint64_t> stamp_hi{0};    ///< roles | session << 32.
    std::atomic<uint32_t> seq{0};         ///< Seqlock: odd = write in flight.
    std::atomic<uint32_t> verdict{0};     ///< bit0 allowed, bit1 by_rule.
  };
  static_assert(sizeof(Slot) == 32);

  static constexpr size_t kProbeWindow = 8;
  static constexpr size_t kNoSlot = static_cast<size_t>(-1);

  /// SplitMix64 finalizer — spreads the packed symbol-id fields across the
  /// whole index range.
  static uint64_t Mix(uint64_t key) {
    key += 0x9e3779b97f4a7c15ull;
    key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ull;
    key = (key ^ (key >> 27)) * 0x94d049bb133111ebull;
    return key ^ (key >> 31);
  }

  static uint64_t PackLo(const Stamp& s) {
    return static_cast<uint64_t>(s.epoch) |
           (static_cast<uint64_t>(s.pool) << 32);
  }
  static uint64_t PackHi(const Stamp& s) {
    return static_cast<uint64_t>(s.roles) |
           (static_cast<uint64_t>(s.session) << 32);
  }
  static Verdict Unpack(uint32_t v) {
    return Verdict{(v & 1u) != 0, (v & 2u) != 0};
  }

  /// Seqlock write of one slot (engine only, under the owner lock).
  void Write(size_t index, uint64_t stored, const Stamp& stamp,
             Verdict verdict) {
    Slot& slot = slots_[index];
    const uint32_t seq = slot.seq.load(std::memory_order_relaxed);
    slot.seq.store(seq + 1, std::memory_order_relaxed);
    // Release data stores keep the odd sequence above before each of them:
    // a reader that loads any new word also sees the write in flight.
    slot.key_plus_1.store(stored, std::memory_order_release);
    slot.stamp_lo.store(PackLo(stamp), std::memory_order_release);
    slot.stamp_hi.store(PackHi(stamp), std::memory_order_release);
    slot.verdict.store((verdict.allowed ? 1u : 0u) |
                           (verdict.by_rule ? 2u : 0u),
                       std::memory_order_release);
    slot.seq.store(seq + 2, std::memory_order_release);
  }

  /// Moves the sequence of the slot holding `key` (its home slot when
  /// absent) by one. No-op while the cache is disabled.
  void BumpSeqForTest(uint64_t key) {
    if (slots_.empty()) return;
    const uint64_t stored = key + 1;
    const size_t mask = slots_.size() - 1;
    const size_t home = Mix(key) & mask;
    Slot* slot = &slots_[home];
    for (size_t i = 0, index = home; i < kProbeWindow;
         ++i, index = (index + 1) & mask) {
      if (slots_[index].key_plus_1.load(std::memory_order_relaxed) == stored) {
        slot = &slots_[index];
        break;
      }
    }
    slot->seq.store(slot->seq.load(std::memory_order_relaxed) + 1,
                    std::memory_order_release);
  }

  std::vector<Slot> slots_;
  std::atomic<uint64_t> published_lo_{0};     ///< epoch | pool << 32.
  std::atomic<uint64_t> published_roles_{0};  ///< roles (high half zero).
  size_t live_ = 0;
  uint64_t fills_ = 0;
};

}  // namespace sentinel

#endif  // SENTINELPP_CORE_DECISION_CACHE_H_
