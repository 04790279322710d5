#ifndef SENTINELPP_TELEMETRY_TRACE_H_
#define SENTINELPP_TELEMETRY_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/value.h"

namespace sentinel {
namespace telemetry {

/// One step inside a sampled decision span.
struct TraceStep {
  enum class Kind { kEvent, kRule };

  Kind kind = Kind::kEvent;
  /// Event name ("rbac.checkAccess", "flt.role.PM") or rule name ("CA.global").
  std::string name;
  // Rule steps only:
  int priority = 0;
  bool else_branch = false;  // Which OWTE branch the firing took.
  /// Classification ("activity-control") and granularity ("globalized").
  /// Coupling is always immediate in this engine (cascades drain
  /// synchronously), so this pair is the discriminating rule metadata.
  /// Static-storage strings (RuleClassToString and friends) — pointers, not
  /// copies, so recording a rule step never allocates.
  const char* rule_class = "";
  const char* granularity = "";
};

/// \brief One sampled request, end to end: the triggering operation, every
/// occurrence the composite-event detector dispatched for it, every rule
/// firing in the cascade (priority, branch), and the final verdict.
struct DecisionSpan {
  uint64_t seq = 0;          // Collector-local, monotonic.
  uint32_t shard = 0;        // Filled in by the service when gathering.
  Time when = 0;             // Simulated time at dispatch.
  std::string operation;     // The request's primitive event name.
  bool allowed = false;
  std::string rule;          // Rule that produced the final verdict.
  /// Verdict replayed from the shard's decision cache: no event was raised
  /// and no rule fired, so the span has no steps and wall_ns 0.
  bool cached = false;
  int64_t wall_ns = 0;       // Real elapsed time for the whole cascade.
  std::vector<TraceStep> steps;
  uint32_t dropped_steps = 0;  // Steps past max_steps_per_span.
};

/// Compact single-line rendering (exposition comments, log sinks).
std::string DescribeSpan(const DecisionSpan& span);

/// \brief Per-shard span recorder: sampling decision, in-flight step
/// accumulation, fixed-capacity ring of finished spans.
///
/// Single-threaded by design, like the engine that owns it: Begin/Add*/End
/// run inside Dispatch under the shard's owner lock (on the shard thread or
/// a caller running an envelope inline); readers copy the ring via the
/// service's Inspect, under the same lock. Nothing here is atomic and
/// nothing needs to be.
class TraceCollector {
 public:
  struct Options {
    /// Record every Nth request (1 = every request, 0 = tracing off). The
    /// very first request is always sampled so a fresh service has a span
    /// to show.
    uint32_t sample_every = 256;
    /// Finished spans retained (oldest evicted first).
    size_t capacity = 64;
    /// Steps kept per span; the rest are counted in dropped_steps.
    size_t max_steps = 48;
  };

  // Two constructors instead of a defaulted argument: GCC rejects a nested
  // class with member initializers as a default argument in its encloser.
  TraceCollector() = default;
  explicit TraceCollector(Options options)
      : options_(options),
        until_next_sample_(options.sample_every == 0 ? 0 : 1) {}

  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  const Options& options() const { return options_; }
  void set_sample_every(uint32_t n) {
    options_.sample_every = n;
    until_next_sample_ = n == 0 ? 0 : 1;  // Next request re-seeds the sample.
  }

  /// Starts a span for the request beginning now iff it is sampled;
  /// returns whether it was. Nested Begins (a cascade re-entering the
  /// engine) attach to the outer span rather than opening a new one.
  ///
  /// Inline countdown instead of `seen % every`: the not-sampled path —
  /// nearly every dispatch — is a decrement and two branches, no division
  /// and no call. until_next_sample_ == 0 means tracing is off.
  bool Begin(Time now, const std::string& operation) {
    if (active_) return false;  // Cascade re-entry: keep the outer span.
    ++requests_seen_;
    if (until_next_sample_ == 0 || --until_next_sample_ != 0) return false;
    until_next_sample_ = options_.sample_every;
    return BeginSampled(now, operation);
  }
  bool active() const { return active_; }

  void AddEventStep(const std::string& name);
  /// `rule_class` / `granularity` must point at static storage (the
  /// *ToString helpers); the step keeps the pointers.
  void AddRuleStep(const std::string& name, int priority, bool else_branch,
                   const char* rule_class, const char* granularity);

  /// Finishes the active span with the verdict and pushes it to the ring.
  void End(bool allowed, const std::string& rule, int64_t wall_ns);

  /// End() for a decision-cache replay: marks the span cached (it has no
  /// steps — nothing was raised or fired) and records zero wall time.
  void EndCached(bool allowed, const std::string& rule) {
    if (!active_) return;
    current_.cached = true;
    End(allowed, rule, 0);
  }

  /// Finished spans, oldest first (a copy — callers hold no ring refs).
  std::vector<DecisionSpan> Spans() const;

  uint64_t requests_seen() const { return requests_seen_; }
  uint64_t spans_recorded() const { return spans_recorded_; }
  size_t ring_size() const { return ring_.size(); }

 private:
  /// Opens the span once the countdown elected this request.
  bool BeginSampled(Time now, const std::string& operation);

  Options options_ = Options();
  /// Requests until the next sampled span; 0 = tracing off. Starts at 1 so
  /// the very first request is always sampled.
  uint32_t until_next_sample_ = 1;
  std::vector<DecisionSpan> ring_;  // Ring once full; head_ = oldest.
  size_t head_ = 0;
  DecisionSpan current_;
  bool active_ = false;
  uint64_t requests_seen_ = 0;
  uint64_t spans_recorded_ = 0;
};

}  // namespace telemetry
}  // namespace sentinel

#endif  // SENTINELPP_TELEMETRY_TRACE_H_
