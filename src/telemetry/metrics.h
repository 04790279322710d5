#ifndef SENTINELPP_TELEMETRY_METRICS_H_
#define SENTINELPP_TELEMETRY_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace sentinel {
namespace telemetry {

/// Wall-clock nanoseconds (steady, monotonic) — the latency timebase.
/// Distinct from the engine's simulated `Time`: latencies are real elapsed
/// time even when the policy clock is simulated.
int64_t NowNanos();

/// \brief Monotonic event counter.
///
/// Threading contract: `Inc` is the single-writer fast path — a relaxed
/// load+store pair with no lock prefix, valid only when writers never
/// overlap and each happens after the last (each engine shard owns its
/// registry, and the shard's owner lock serializes whichever thread runs
/// the engine). `Add` is a full atomic RMW for multi-writer counters
/// (service-level metrics bumped from arbitrary caller threads). `value`
/// may be read from any thread at any time; scrapes never block writers.
class Counter {
 public:
  void Inc(uint64_t n = 1) {
    v_.store(v_.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
  }
  void Add(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// \brief Settable instantaneous value (same threading contract: `Set` from
/// one writer or under the owner's own serialization; reads from anywhere).
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// \brief Point-in-time copy of one histogram, mergeable across shards.
///
/// `bounds` are ascending inclusive upper bounds; `counts` has
/// `bounds.size() + 1` entries — counts[i] holds observations `v` with
/// `bounds[i-1] < v <= bounds[i]`. counts[0] is the underflow bucket (every
/// observation `<= bounds[0]`, however negative) and counts.back() the
/// overflow bucket (`> bounds.back()`, the "+Inf" bucket).
struct HistogramSnapshot {
  std::string name;
  std::string help;
  std::vector<int64_t> bounds;
  std::vector<uint64_t> counts;
  int64_t sum = 0;

  uint64_t TotalCount() const;
  /// Adds `other`'s buckets and sum into this snapshot. Merging is
  /// commutative and associative (pure element-wise addition), so shard
  /// order never changes the merged result. Returns false (and leaves this
  /// snapshot untouched) when the bucket layouts differ.
  bool MergeFrom(const HistogramSnapshot& other);
  /// Estimated p-th percentile (p in [0,100]), linearly interpolated
  /// within the owning bucket; 0 when empty. The overflow bucket clamps to
  /// its lower bound (there is no upper edge to interpolate toward).
  double Percentile(double p) const;
};

/// \brief Fixed-bucket histogram; Record is the single-writer fast path
/// (same contract as Counter::Inc: serialized writers, not one thread).
class Histogram {
 public:
  /// `bounds` must be non-empty and strictly ascending.
  explicit Histogram(std::vector<int64_t> bounds);

  void Record(int64_t v);
  /// Multi-writer Record (full RMWs) for series bumped from arbitrary
  /// caller threads — the service-boundary analog of Counter::Add.
  void RecordShared(int64_t v);
  HistogramSnapshot Snapshot() const;

  /// `count` bounds starting at `start`, each `factor`× the previous —
  /// the standard latency-bucket shape.
  static std::vector<int64_t> ExponentialBounds(int64_t start, double factor,
                                                int count);

 private:
  std::vector<int64_t> bounds_;
  std::vector<std::atomic<uint64_t>> counts_;  // bounds_.size() + 1.
  std::atomic<int64_t> sum_{0};
};

struct CounterSnapshot {
  std::string name;
  std::string help;
  uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  std::string help;
  int64_t value = 0;
};

/// \brief Point-in-time copy of a whole registry; the unit of cross-shard
/// merging and of exposition rendering.
struct RegistrySnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Adds `other` into this snapshot, matching series by name; names absent
  /// here are appended. Gauges sum (the merged view of per-shard gauges is
  /// their total, e.g. pending timers across shards). Histograms with
  /// mismatched bucket layouts are skipped.
  void MergeFrom(const RegistrySnapshot& other);

  const CounterSnapshot* FindCounter(const std::string& name) const;
  const GaugeSnapshot* FindGauge(const std::string& name) const;
  const HistogramSnapshot* FindHistogram(const std::string& name) const;
};

/// \brief Named-metric registry: one per engine shard plus one for the
/// service boundary.
///
/// Registration (Add*) happens during construction wiring — engine ctor,
/// service ctor — strictly before any concurrent scrape exists, and returns
/// stable pointers the instrumented code keeps. After that the registry
/// structure is immutable; `Snapshot` only loads atomics, so scraping a
/// shard's registry from another thread never takes a lock and never
/// perturbs the shard's request path.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Add* returns the existing instrument when `name` was already
  /// registered (idempotent re-wiring), so callers can share series.
  Counter* AddCounter(const std::string& name, const std::string& help);
  Gauge* AddGauge(const std::string& name, const std::string& help);
  Histogram* AddHistogram(const std::string& name, const std::string& help,
                          std::vector<int64_t> bounds);

  RegistrySnapshot Snapshot() const;

 private:
  /// Name/help for one counter or gauge; `slot` indexes the value deque.
  struct Meta {
    std::string name;
    std::string help;
    size_t slot;
  };

  template <typename T>
  struct Entry {
    std::string name;
    std::string help;
    T instrument;
    template <typename... Args>
    Entry(std::string n, std::string h, Args&&... args)
        : name(std::move(n)),
          help(std::move(h)),
          instrument(std::forward<Args>(args)...) {}
  };

  mutable std::mutex mu_;  // Guards registration only; scrapes are lock-free.
  /// Counter/gauge values live apart from their metadata, packed in deque
  /// chunks (stable addresses, 8 per cache line): a dispatch bumps half a
  /// dozen series, and interleaving each 8-byte atomic with 64 bytes of
  /// cold strings would spread those bumps over six cache lines.
  std::deque<Counter> counter_slots_;
  std::deque<Gauge> gauge_slots_;
  std::vector<Meta> counter_meta_;
  std::vector<Meta> gauge_meta_;
  std::deque<Entry<Histogram>> histograms_;
};

}  // namespace telemetry
}  // namespace sentinel

#endif  // SENTINELPP_TELEMETRY_METRICS_H_
