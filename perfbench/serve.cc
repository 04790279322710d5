// Serving side of the benchmark. Protocol with run.py, one line each way
// per step on stdout/stdin:
//   -> {"event":"listening", port, set-up timings, shard map, verdicts}
//   <- "quit"                      a set-up-only process ends here
//   <- "go"                        traffic is about to start
//   -> {"event":"started"}
//   <- "stop <cursor0> <cursor1>"  traffic ended after that many checks
//   -> {"event":"report", counters, admin samples, rss, layer calls}

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdlib>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "layers.h"
#include "net/server.h"

namespace perfbench {
namespace {

using sentinel::AccessOutcome;
using sentinel::AuthorizationService;
using sentinel::net::WireServer;

/// Runs the set-up on one CPU. Its tens of thousands of sequential round
/// trips then wake threads on that CPU rather than sending cross-CPU
/// wake-ups through the hypervisor, whose delay on a shared host varies
/// severalfold; what remains is the set-up's own work. Every thread started
/// meanwhile (shards, timer, reactor, audit writer) inherits the one CPU,
/// so Release() gives all of them the original CPU set back.
class OneCpu {
 public:
  OneCpu() {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &saved_)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
      return;
    }
  }
  ~OneCpu() { Release(); }
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;

  void Release() {
    if (!pinned_) return;
    pinned_ = false;
    DIR* tasks = opendir("/proc/self/task");
    if (tasks == nullptr) return;
    while (const dirent* entry = readdir(tasks)) {
      const pid_t tid = static_cast<pid_t>(std::atoi(entry->d_name));
      if (tid > 0) (void)sched_setaffinity(tid, sizeof(saved_), &saved_);
    }
    closedir(tasks);
  }

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// Everything the set-up builds. Members are destroyed in reverse order:
/// the server stops before the service it calls goes away.
struct Stack {
  std::unique_ptr<sentinel::Scenario> scenario;
  std::unique_ptr<AuthorizationService> service;
  std::unique_ptr<WireServer> server;
};

/// The set-up: scenario generation, LoadPolicy, every user's session and
/// activations, server start. Adds its stage times to `out` and returns
/// false (with a message on stderr) when any step fails; refused
/// activations are verdicts, not failures.
bool SetUp(const Options& options, Stack* stack, SpanLog& spans, Json* out) {
  const int64_t t0 = NowNs();
  stack->scenario = std::make_unique<sentinel::Scenario>(
      sentinel::GenerateScenario(MakeScenarioParams(options.scenario_seed)));
  const int64_t t1 = NowNs();
  if (!options.audit_path.empty()) std::remove(options.audit_path.c_str());
  auto created = AuthorizationService::Create(
      MakeServiceConfig(options.workload, options.audit_path));
  if (!created.ok()) {
    std::fprintf(stderr, "serve: bad config: %s\n",
                 std::string(created.status().message()).c_str());
    return false;
  }
  stack->service = std::move(*created);
  AuthorizationService& service = *stack->service;
  const sentinel::Status loaded = service.LoadPolicy(stack->scenario->policy);
  if (!loaded.ok()) {
    std::fprintf(stderr, "serve: LoadPolicy: %s\n",
                 std::string(loaded.message()).c_str());
    return false;
  }
  const int64_t t2 = NowNs();
  std::string verdicts;
  bool ok = true;
  ForEachSetupActivation(
      stack->scenario->policy,
      [&](int index, const std::string& user, const sentinel::RoleName* role) {
        if (!ok) return;
        const std::string session = SetupSession(index);
        if (role == nullptr) {
          const sentinel::AdminResult r = service.CreateSession(user, session);
          if (!r.ok()) {
            std::fprintf(stderr, "serve: CreateSession %s: %s\n", user.c_str(),
                         std::string(r.status.message()).c_str());
            ok = false;
          }
          return;
        }
        const sentinel::AdminResult r =
            service.AddActiveRole(user, session, *role);
        if (r.outcome != AccessOutcome::kDecided) {
          std::fprintf(stderr, "serve: AddActiveRole not decided\n");
          ok = false;
        }
        verdicts.push_back(r.ok() ? '1' : '0');
      });
  if (!ok) return false;
  const int64_t t3 = NowNs();
  sentinel::net::ServerConfig net_config;
  net_config.idle_timeout_ms = 0;
  stack->server = std::make_unique<WireServer>(&service, net_config);
  const sentinel::Status started = stack->server->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "serve: Start: %s\n",
                 std::string(started.message()).c_str());
    return false;
  }
  const int64_t t4 = NowNs();
  out->Num("setup_s", (t4 - t0) / 1e9)
      .Num("generate_s", (t1 - t0) / 1e9)
      .Num("load_policy_s", (t2 - t1) / 1e9)
      .Num("sessions_s", (t3 - t2) / 1e9)
      .Num("net_start_s", (t4 - t3) / 1e9)
      .Str("setup_verdicts", verdicts);
  const uint64_t root = spans.Add("setup", 0, t0, t4);
  spans.Add("workload.GenerateScenario", root, t0, t1);
  spans.Add("service.LoadPolicy", root, t1, t2);
  spans.Add("service.sessions", root, t2, t3, kUsers + verdicts.size());
  spans.Add("net.Start", root, t3, t4);
  return true;
}

/// What the admin thread did: login and swap latencies, login verdicts.
struct AdminLog {
  std::vector<int64_t> login_ns;
  IntervalSamples login_windows{NowNs()};
  std::vector<int64_t> swap_ns;
  std::vector<int64_t> swap_cpu_ns;  // the admin thread's own CPU time
  std::string login_verdicts;
  uint64_t errors = 0;
};

/// One login: create a session, activate the user's first role (timed
/// together), then delete the session. Login n always names the same user
/// and session, so the oracle replays the sequence by index.
void Login(AuthorizationService& service, const Inputs& inputs,
           SpanLog& spans, AdminLog* log) {
  const uint64_t n = log->login_ns.size();
  const int user = inputs.LoginUser(n);
  const std::string name = UserName(user);
  const std::string session = LoginSession(n);
  const int64_t t0 = NowNs();
  const sentinel::AdminResult created = service.CreateSession(name, session);
  const int64_t t1 = NowNs();
  const sentinel::AdminResult activated = service.AddActiveRole(
      name, session, inputs.first_role[static_cast<size_t>(user)]);
  const int64_t t2 = NowNs();
  const sentinel::AdminResult deleted = service.DeleteSession(session);
  const int64_t t3 = NowNs();
  log->login_ns.push_back(t2 - t0);
  log->login_windows.Add(t0, t2 - t0);
  log->login_verdicts.push_back(activated.ok() ? '1' : '0');
  if (!created.ok() || !deleted.ok() ||
      activated.outcome != AccessOutcome::kDecided) {
    ++log->errors;
  }
  const uint64_t login = spans.Add("admin.login", 0, t0, t2);
  spans.Add("service.CreateSession", login, t0, t1);
  spans.Add("service.AddActiveRole", login, t1, t2);
  spans.Add("service.DeleteSession", login, t2, t3);
}

/// CPU time of the calling thread.
int64_t ThreadCpuNs() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<int64_t>(t.tv_sec) * 1'000'000'000 + t.tv_nsec;
}

/// One pauseless swap that toggles a permission no check asks for. Only
/// ApplyPolicyUpdate is timed, not building the next policy: wall time, and
/// the CPU time it costs the calling thread (validating and diffing the
/// update), which stalls on a shared host do not inflate.
void Swap(AuthorizationService& service, const Inputs& inputs, SpanLog& spans,
          AdminLog* log) {
  auto next = sentinel::WithToggledPermission(
      *service.current_policy(), inputs.SwapSalt(log->swap_ns.size()));
  if (!next.ok()) {
    ++log->errors;
    return;
  }
  const int64_t cpu0 = ThreadCpuNs();
  const int64_t t0 = NowNs();
  const auto applied = service.ApplyPolicyUpdate(*next);
  const int64_t t1 = NowNs();
  if (!applied.ok()) ++log->errors;
  log->swap_ns.push_back(t1 - t0);
  log->swap_cpu_ns.push_back(ThreadCpuNs() - cpu0);
  spans.Add("admin.swap", 0, t0, t1);
}

/// churn-mixed's admin thread: logins at kLoginsPerSecond and a swap after
/// every kLoginsPerSwap-th login, until `stop` is set.
void RunChurn(AuthorizationService& service, const Inputs& inputs,
              const std::atomic<bool>& stop, SpanLog& spans, AdminLog* log) {
  SetTightTimerSlack();
  const int64_t period_ns = 1'000'000'000 / kLoginsPerSecond;
  int64_t due = NowNs();
  while (!stop.load(std::memory_order_acquire)) {
    const int64_t now = NowNs();
    if (due > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    }
    Login(service, inputs, spans, log);
    if (log->login_ns.size() % kLoginsPerSwap == 0) {
      Swap(service, inputs, spans, log);
    }
    due += period_ns;
    // Catch up after a swap, but never burst more than 100 ms of logins.
    if (due < NowNs() - 100 * period_ns) due = NowNs();
  }
}

/// Counter readings at the edges of the check traffic.
struct Counters {
  sentinel::ServiceStats stats;
  sentinel::net::ServerStats wire;
  sentinel::telemetry::HistogramSnapshot queue_wait;
};

Counters ReadCounters(AuthorizationService& service,
                      const WireServer& server) {
  Counters counters;
  counters.stats = service.Stats();
  counters.wire = server.stats();
  const sentinel::TelemetrySnapshot snapshot = service.Snapshot();
  if (const auto* h = snapshot.metrics.FindHistogram("mailbox_queue_wait_us")) {
    counters.queue_wait = *h;
  }
  return counters;
}

/// Traffic-window deltas of the program's own counters.
void AddTrafficCounters(const Counters& a, const Counters& b, Json* out) {
  const auto d = [](uint64_t after, uint64_t before) {
    return static_cast<int64_t>(after - before);
  };
  out->Int("wire_requests", d(b.wire.requests, a.wire.requests))
      .Int("wire_batches", d(b.wire.batches, a.wire.batches))
      .Int("wire_bytes_in", d(b.wire.bytes_in, a.wire.bytes_in))
      .Int("wire_bytes_out", d(b.wire.bytes_out, a.wire.bytes_out))
      .Int("fastpath_hits", d(b.stats.fastpath_hits, a.stats.fastpath_hits))
      .Int("cache_hits", d(b.stats.cache_hits, a.stats.cache_hits))
      .Int("cache_misses", d(b.stats.cache_misses, a.stats.cache_misses))
      .Int("cache_stale", d(b.stats.cache_stale, a.stats.cache_stale))
      .Int("overloaded", d(b.stats.shed + b.stats.expired +
                               b.stats.policer_refused,
                           a.stats.shed + a.stats.expired +
                               a.stats.policer_refused))
      .Int("policer_admitted",
           d(b.stats.policer_admitted, a.stats.policer_admitted));
  // The one value read from a program histogram: its buckets are powers of
  // two in microseconds, so every sub-microsecond wait reads 0.5.
  sentinel::telemetry::HistogramSnapshot wait = b.queue_wait;
  if (wait.counts.size() == a.queue_wait.counts.size()) {
    for (size_t i = 0; i < wait.counts.size(); ++i) {
      wait.counts[i] -= a.queue_wait.counts[i];
    }
    wait.sum -= a.queue_wait.sum;
  }
  out->Num("queue_wait_p50_us", wait.Percentile(50));
}

void AddAdmin(AdminLog& log, Json* out) {
  out->Int("logins", static_cast<int64_t>(log.login_ns.size()))
      .Int("swaps", static_cast<int64_t>(log.swap_ns.size()))
      .Int("admin_errors", static_cast<int64_t>(log.errors))
      .Num("login_p50_us",
           log.login_windows.Percentile(50, kWindowQuantile) / 1e3)
      .Num("swap_p50_ms", PercentileNs(log.swap_ns, 50) / 1e6)
      .Num("swap_cpu_ms", PercentileNs(log.swap_cpu_ns, 50) / 1e6)
      .Str("login_verdicts", log.login_verdicts);
}

/// User plus system CPU time of this process so far.
double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

bool ReadLine(std::string* line) {
  return static_cast<bool>(std::getline(std::cin, *line));
}

}  // namespace

int RunServe(const Options& options) {
  SpanLog spans(options.trace);
  Stack stack;
  Json listening;
  listening.Str("event", "listening");
  OneCpu one_cpu;
  if (!SetUp(options, &stack, spans, &listening)) return 1;
  one_cpu.Release();
  AuthorizationService& service = *stack.service;
  WireServer& server = *stack.server;
  const sentinel::Policy& policy = stack.scenario->policy;
  const Inputs inputs = MakeInputs(policy, options.workload, options.key_seed);

  std::string shard_map(kUsers, '0');
  for (int i = 0; i < kUsers; ++i) {
    shard_map[static_cast<size_t>(i)] =
        static_cast<char>('0' + service.ShardOf(UserName(i)));
  }
  listening.Int("port", server.port())
      .Int("shards", service.num_shards())
      .Str("shard_map", shard_map);
  std::printf("%s\n", listening.Done().c_str());
  std::fflush(stdout);

  // "quit" ends a set-up-only process: run.py times several set-ups, each
  // in a fresh process, and serves traffic from the last.
  std::string line;
  if (ReadLine(&line) && line == "quit") return 0;
  if (line != "go") return 1;
  AdminLog admin;
  // The probe: the churn's logins and swaps back to back on the idle
  // service, so every workload reports both latencies. Its halves run 15 s
  // apart, so one moment of a shared host does not set its figures.
  const auto probe = [&] {
    for (int i = 0; i < kProbeLogins / 2; ++i) {
      Login(service, inputs, spans, &admin);
      if (admin.login_ns.size() % kProbeLoginsPerSwap == 0) {
        Swap(service, inputs, spans, &admin);
      }
    }
  };
  if (!Churn(options.workload)) probe();
  const Counters before = ReadCounters(service, server);
  const double cpu_before = ProcessCpuSeconds();
  std::printf("{\"event\":\"started\"}\n");
  std::fflush(stdout);
  std::atomic<bool> stop_admin{false};
  std::thread churn;
  if (Churn(options.workload)) {
    churn = std::thread([&] {
      RunChurn(service, inputs, stop_admin, spans, &admin);
    });
  }
  uint64_t cursors[2] = {0, 0};
  const bool stopped =
      ReadLine(&line) &&
      std::sscanf(line.c_str(), "stop %" SCNu64 " %" SCNu64, &cursors[0],
                  &cursors[1]) == 2;
  const double cpu_s = ProcessCpuSeconds() - cpu_before;
  const Counters after = ReadCounters(service, server);

  Json report;
  report.Str("event", "report");
  AddTrafficCounters(before, after, &report);
  report.Num("traffic_cpu_s", cpu_s);
  std::vector<sentinel::AccessDecision> decisions;
  if (stopped && options.trace) {
    // Still under churn in churn-mixed: the same inputs as the traffic.
    const double sweep =
        static_cast<double>(after.wire.requests - before.wire.requests) /
        static_cast<double>(std::max<uint64_t>(
            1, after.wire.batches - before.wire.batches));
    TimeServiceChecks(service, inputs, cursors,
                      static_cast<size_t>(std::max(1.0, sweep + 0.5)), spans,
                      &decisions, &report);
  }
  if (churn.joinable()) {
    stop_admin.store(true, std::memory_order_release);
    churn.join();
  } else if (stopped) {
    probe();
  }
  AddAdmin(admin, &report);
  // Peak of the serving side only: the traced run's standalone engine
  // below is not part of what a deployment holds.
  report.Num("rss_mb", PeakRssMb());
  if (stopped && options.trace) {
    TimeServiceSwaps(service, inputs, spans, &report);
    TimeEngine(policy, inputs, spans, &report);
    TimeCodec(inputs, decisions, spans, &report);
  }

  server.Stop();
  service.Shutdown();
  // After Shutdown every shard's decision ring has drained into the
  // exporter and the file is flushed, so these counts are final.
  const sentinel::ServiceStats final_stats = service.Stats();
  report.Int("swap_failures", static_cast<int64_t>(final_stats.policy_swap_failures))
      .Int("audit_records", static_cast<int64_t>(final_stats.audit_records))
      .Int("audit_drops", static_cast<int64_t>(final_stats.audit_drops))
      .Int("audit_bytes", static_cast<int64_t>(final_stats.audit_bytes))
      // Every decision the service made, engine-dispatched or not, plus
      // one marker per committed swap: what a complete stream holds.
      .Int("audited_decisions",
           static_cast<int64_t>(final_stats.decisions +
                                final_stats.fastpath_hits + final_stats.shed +
                                final_stats.expired +
                                final_stats.policer_refused +
                                final_stats.policy_swaps));
  if (!options.audit_path.empty()) std::remove(options.audit_path.c_str());
  if (options.trace && !options.spans_path.empty() &&
      !spans.WriteTo(options.spans_path)) {
    std::fprintf(stderr, "serve: cannot write %s\n", options.spans_path.c_str());
  }
  std::printf("%s\n", report.Done().c_str());
  std::fflush(stdout);
  return stopped ? 0 : 1;
}

}  // namespace perfbench
