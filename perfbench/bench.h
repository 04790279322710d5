// Shared shape of the sentinelpp end-to-end benchmark: the workloads, the
// generated enterprise, the key streams both processes derive from the
// seeds, and small timing/JSON helpers. See README.md for what each
// workload is for and which layer metric should move on which workload.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "api/sentinelpp.h"
#include "workload/scenario_gen.h"

namespace perfbench {

enum class Workload { kPepHot, kBulkCold, kChurnMixed };

bool ParseWorkload(std::string_view name, Workload* out);
/// Checks per write: pep-hot sends one frame per check; bulk-cold and
/// churn-mixed pipeline bursts of 32, which also keeps their mailbox
/// hand-offs, and so the host's wake-up delays, to one per burst.
inline uint64_t Burst(Workload w) { return w == Workload::kPepHot ? 1 : 32; }
/// churn-mixed runs logins and swaps beside the checks; the other two run
/// an admin probe of the same logins and swaps around the check traffic.
inline bool Churn(Workload w) { return w == Workload::kChurnMixed; }

// ---------------------------------------------------------------- Shape

inline constexpr int kShards = 2;
inline constexpr size_t kCacheSlots = 4096;  // per shard
inline constexpr int kUsers = 20000;
inline constexpr int kObjects = 2048;
inline constexpr int kHotSessions = 64;
inline constexpr int kHotTriples = 256;
inline constexpr int kColdTriplesPerSession = 4;  // 80,000 cold keys
inline constexpr int kConnections = 2;
/// Every workload is an open loop at this rate over both connections.
inline constexpr double kOpenLoopRate = 20000;
inline constexpr int kLoginsPerSecond = 1000;
/// One swap per second in churn-mixed. A swap of this policy costs the
/// admin thread about 75 ms (most of it PreparePolicyUpdate validating all
/// 20k users), so one every 50 ms would starve the logins.
inline constexpr int kLoginsPerSwap = 1000;
/// The admin probe of pep-hot and bulk-cold on the idle service: logins
/// back to back with a swap after every kProbeLoginsPerSwap-th, half just
/// before the check traffic and half just after it.
inline constexpr int kProbeLogins = 2000;
inline constexpr int kProbeLoginsPerSwap = 100;
/// Default per-principal quota in churn-mixed: far above any principal's
/// share of 20k checks/s, so it admits everything and only adds its cost.
inline constexpr double kQuotaRate = 1e6;
inline constexpr int64_t kQuotaBurst = 100000;

sentinel::ScenarioParams MakeScenarioParams(uint64_t scenario_seed);
/// Simulated time is pinned here for the whole run: 12:00, inside every
/// generated shift window.
sentinel::Time StartTime();
sentinel::ServiceConfig MakeServiceConfig(Workload workload,
                                          const std::string& audit_path);

std::string UserName(int index);
std::string SetupSession(int index);
std::string LoginSession(uint64_t login);

// --------------------------------------------------------------- Inputs

/// Everything a run sends, derived from the policy and the key seed only,
/// so the serving process and the load process build identical copies.
struct Inputs {
  Workload workload = Workload::kPepHot;
  uint64_t key_seed = 0;
  /// The workload's key set: purpose-free (user, session, op, object).
  std::vector<sentinel::AccessRequest> keys;
  std::vector<int> key_user;  // user index of each key
  /// bulk-cold: a seeded permutation of `keys`; connection c walks
  /// order[c*half, (c+1)*half) cyclically, so no key returns while it
  /// could still sit in the 2 x 4096 cache slots.
  std::vector<uint32_t> order;
  /// Users that never appear in a hot key and hold at least one role:
  /// logins draw from them.
  std::vector<int> login_users;
  /// First assigned role of each user (what a login activates).
  std::vector<std::string> first_role;

  /// Key index of the i-th check sent on connection `conn`.
  uint32_t KeyAt(int conn, uint64_t i) const;
  int LoginUser(uint64_t login) const;
  uint64_t SwapSalt(uint64_t swap) const;
};

Inputs MakeInputs(const sentinel::Policy& policy, Workload workload,
                  uint64_t key_seed);

/// Set-up order shared by the service and the oracle: user by user, one
/// session each, then every assigned role in policy order.
template <typename Fn>
void ForEachSetupActivation(const sentinel::Policy& policy, Fn&& fn) {
  for (int i = 0; i < kUsers; ++i) {
    const std::string user = UserName(i);
    const auto it = policy.users().find(user);
    fn(i, user, static_cast<const sentinel::RoleName*>(nullptr));
    if (it == policy.users().end()) continue;
    for (const sentinel::RoleName& role : it->second.assignments) {
      fn(i, user, &role);
    }
  }
}

// -------------------------------------------------------------- Processes

/// Command-line options of both processes (see main.cc).
struct Options {
  Workload workload = Workload::kPepHot;
  uint64_t scenario_seed = 1;
  uint64_t key_seed = 1;
  double warmup_s = 1;
  double seconds = 10;
  bool trace = false;
  uint16_t port = 0;
  std::string audit_path;
  std::string spans_path;
};

/// The serving side: one timed set-up, WireServer, the admin thread, and
/// in traced runs the direct layer calls.
int RunServe(const Options& options);
/// The load side: the verdict oracle, then the check traffic over loopback.
int RunLoad(const Options& options);

// ------------------------------------------------------------- Helpers

int64_t NowNs();
uint64_t Mix64(uint64_t x);
/// Nearest-rank percentile of `samples` (sorted in place); 0 when empty.
double PercentileNs(std::vector<int64_t>& samples, double p);
/// Peak resident set of this process, in MiB (VmHWM).
double PeakRssMb();
/// 1 ns timer slack for the calling thread, so paced sleeps wake on time.
void SetTightTimerSlack();

/// Timed samples grouped into kIntervalNs windows by when they were taken.
/// Percentile(p, q) takes the p-th percentile within each window, then the
/// q-th percentile across windows: host stalls on a shared machine land in
/// some windows, and a low q keeps them from setting a run's figure.
class IntervalSamples {
 public:
  static constexpr int64_t kIntervalNs = 100'000'000;

  explicit IntervalSamples(int64_t origin_ns) : origin_ns_(origin_ns) {}
  void Add(int64_t at_ns, int64_t value_ns);
  double Percentile(double p, double q);
  uint64_t size() const { return size_; }

 private:
  int64_t origin_ns_;
  uint64_t size_ = 0;
  std::vector<std::vector<int64_t>> windows_;
};

/// Latency figures report the first quartile of the per-window values.
inline constexpr double kWindowQuantile = 25;

/// Minimal JSON object writer for the one-line reports the processes
/// exchange with run.py.
class Json {
 public:
  Json& Num(std::string_view key, double value);
  Json& Int(std::string_view key, int64_t value);
  Json& Str(std::string_view key, std::string_view value);
  std::string Done() const { return body_ + "}"; }

 private:
  void Key(std::string_view key);
  std::string body_ = "{";
};

/// Benchmark-side spans around the calls the benchmark makes into each
/// layer. Recording is off unless tracing; spans stay in memory and are
/// written as JSON lines when the run ends.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  /// Records one finished span; returns its id (0 when disabled).
  uint64_t Add(const char* name, uint64_t parent, int64_t start_ns,
               int64_t end_ns, uint64_t count = 1);
  /// Appends every span to `path`.
  bool WriteTo(const std::string& path) const;

 private:
  struct Span {
    uint64_t id;
    uint64_t parent;
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    uint64_t count;
  };
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
