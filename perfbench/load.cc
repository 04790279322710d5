// Load side of the benchmark: the verdict oracle, then one thread driving
// both connections. Protocol with run.py:
//   <- "<shard map>"   one digit per user, from the service's ShardOf
//   -> {"event":"ready", expected verdicts, oracle counts}
//   <- "go"
//   -> {"event":"result", check latencies, throughput, failures}

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "baseline/direct_enforcer.h"
#include "bench.h"
#include "net/frame.h"

namespace perfbench {
namespace {

namespace wire = sentinel::wire;
using sentinel::AccessOutcome;

/// One DirectEnforcer per shard, fed exactly the operations the service
/// routes to that shard, and in traced runs one global enforcer over every
/// user: the difference in admitted activations is the per-shard Rule 4
/// gap.
struct Oracle {
  std::vector<std::unique_ptr<sentinel::SimulatedClock>> clocks;
  std::vector<std::unique_ptr<sentinel::DirectEnforcer>> shards;
  std::unique_ptr<sentinel::DirectEnforcer> global;

  std::string setup_verdicts;
  int64_t admitted = 0;
  int64_t admitted_global = 0;
  std::vector<bool> expected;  // per key
  std::string login_verdicts;
  bool ok = true;
};

void BuildOracle(const sentinel::Policy& policy, const Inputs& inputs,
                 const std::string& shard_map, uint64_t max_logins,
                 bool global, Oracle* oracle) {
  const auto make = [&] {
    oracle->clocks.push_back(
        std::make_unique<sentinel::SimulatedClock>(StartTime()));
    auto enforcer = std::make_unique<sentinel::DirectEnforcer>(
        oracle->clocks.back().get());
    if (!enforcer->LoadPolicy(policy).ok()) oracle->ok = false;
    return enforcer;
  };
  for (int s = 0; s < kShards; ++s) oracle->shards.push_back(make());
  if (global) oracle->global = make();
  const auto shard_of = [&](int user) -> sentinel::DirectEnforcer& {
    return *oracle->shards[static_cast<size_t>(
        shard_map[static_cast<size_t>(user)] - '0')];
  };

  ForEachSetupActivation(
      policy, [&](int index, const std::string& user,
                  const sentinel::RoleName* role) {
        sentinel::DirectEnforcer& home = shard_of(index);
        const std::string session = SetupSession(index);
        sentinel::DirectEnforcer* all = oracle->global.get();
        if (role == nullptr) {
          if (!home.CreateSession(user, session).allowed ||
              (all != nullptr && !all->CreateSession(user, session).allowed)) {
            oracle->ok = false;
          }
          return;
        }
        const bool admitted = home.AddActiveRole(user, session, *role).allowed;
        oracle->setup_verdicts.push_back(admitted ? '1' : '0');
        oracle->admitted += admitted;
        if (all != nullptr) {
          oracle->admitted_global +=
              all->AddActiveRole(user, session, *role).allowed;
        }
      });

  // Swaps toggle a permission no check asks for, so the oracle's verdicts
  // do not depend on where they fall between checks and logins.
  oracle->expected.resize(inputs.keys.size());
  for (size_t k = 0; k < inputs.keys.size(); ++k) {
    const sentinel::AccessRequest& r = inputs.keys[k];
    oracle->expected[k] = shard_of(inputs.key_user[k])
                              .CheckAccess(r.session, r.operation, r.object)
                              .allowed;
  }
  // Each login is undone before the next, so every login sees the set-up
  // state and its verdict depends on its index only.
  for (uint64_t n = 0; n < max_logins; ++n) {
    const int user = inputs.LoginUser(n);
    const std::string name = UserName(user);
    const std::string session = LoginSession(n);
    sentinel::DirectEnforcer& home = shard_of(user);
    if (!home.CreateSession(name, session).allowed) oracle->ok = false;
    oracle->login_verdicts.push_back(
        home.AddActiveRole(name, session,
                           inputs.first_role[static_cast<size_t>(user)])
                .allowed
            ? '1'
            : '0');
    if (!home.DeleteSession(session).allowed) oracle->ok = false;
  }
}

// ------------------------------------------------------------- Traffic

struct Conn {
  int fd = -1;
  sentinel::net::FrameDecoder decoder;
  std::string out;
  size_t out_offset = 0;
  uint64_t sent = 0;  // position in this connection's key stream
  uint64_t in_flight = 0;
};

/// One request in flight, found again by its request id.
struct Slot {
  uint64_t id = 0;
  int64_t due_ns = 0;
  int64_t send_ns = 0;
  uint32_t key = 0;
  bool measured = false;
};

struct Stats {
  uint64_t attempted = 0;  // checks due in the window
  uint64_t decided = 0;
  uint64_t overloaded = 0;
  uint64_t shutdown = 0;
  uint64_t protocol_errors = 0;
  uint64_t transport_errors = 0;
  uint64_t unanswered = 0;
  uint64_t mismatches = 0;
  uint64_t replies = 0;
  /// Latency from due time, by due time. At 20k/s a 100 ms window holds
  /// 2,000 checks: 20 beyond its p99.
  IntervalSamples latency_ns{0};
  int64_t last_reply_ns = 0;  // last decided reply of a measured check
  std::vector<int64_t> wire_ns;     // from send
  std::vector<int64_t> lag_ns;      // send - due
};

class Traffic {
 public:
  Traffic(const Options& options, const Inputs& inputs,
         const std::vector<bool>& expected, SpanLog& spans)
      : options_(options),
        inputs_(inputs),
        expected_(expected),
        spans_(spans),
        slots_(kRing) {}

  bool Connect(uint16_t port) {
    for (Conn& conn : conns_) {
      conn.fd = socket(AF_INET, SOCK_STREAM, 0);
      if (conn.fd < 0) return false;
      const int one = 1;
      (void)setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (connect(conn.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0) {
        return false;
      }
      if (fcntl(conn.fd, F_SETFL, fcntl(conn.fd, F_GETFL) | O_NONBLOCK) != 0) {
        return false;
      }
    }
    return true;
  }

  ~Traffic() {
    for (Conn& conn : conns_) {
      if (conn.fd >= 0) close(conn.fd);
    }
  }

  /// Runs the warm-up and the measured window; false on a transport failure.
  bool Run() {
    SetTightTimerSlack();
    start_ns_ = NowNs() + 1'000'000;
    window_start_ns_ = start_ns_ + static_cast<int64_t>(options_.warmup_s * 1e9);
    window_end_ns_ = window_start_ns_ + static_cast<int64_t>(options_.seconds * 1e9);
    stats_.latency_ns = IntervalSamples(window_start_ns_);
    const bool ok = RunSchedule();
    for (size_t i = 0; i < kRing; ++i) {
      // Requests never answered before the drain deadline.
      if (slots_[i].id != 0 && slots_[i].measured) ++stats_.unanswered;
    }
    return ok;
  }

  Stats& stats() { return stats_; }
  uint64_t cursor(int conn) const { return conns_[conn].sent; }
  /// Decided verdicts of measured checks per second, from the start of the
  /// window to the last of those verdicts.
  double Throughput() const {
    const int64_t span = stats_.last_reply_ns - window_start_ns_;
    return span > 0 ? static_cast<double>(stats_.decided) * 1e9 /
                          static_cast<double>(span)
                    : 0.0;
  }

 private:
  static constexpr size_t kRing = size_t{1} << 20;
  static constexpr int64_t kDrainNs = 5'000'000'000;

  /// The open loop: burst i of Burst(workload) checks is due at start +
  /// i * burst / rate on connection i % 2, written with one write; every
  /// check is timed from its burst's due time.
  bool RunSchedule() {
    const uint64_t burst = Burst(options_.workload);
    const int64_t period_ns =
        static_cast<int64_t>(1e9 * static_cast<double>(burst) / kOpenLoopRate);
    uint64_t seq = 0;
    bool sending = true;
    for (;;) {
      int64_t now = NowNs();
      while (sending) {
        const int64_t due = start_ns_ + static_cast<int64_t>(seq) * period_ns;
        if (due > now) break;
        if (due >= window_end_ns_) {
          sending = false;
          break;
        }
        const int c = static_cast<int>(seq % kConnections);
        const int64_t send_ns = NowNs();
        for (uint64_t k = 0; k < burst; ++k) {
          if (!Enqueue(c, due, send_ns)) return false;
        }
        if (!Flush(conns_[c])) return false;
        ++seq;
        now = NowNs();
      }
      if (!sending && InFlight() == 0) return true;
      if (!sending && now > window_end_ns_ + kDrainNs) return true;
      const int64_t wait =
          sending ? start_ns_ + static_cast<int64_t>(seq) * period_ns - now
                  : 10'000'000;
      if (!Poll(wait)) return false;
    }
  }

  uint64_t InFlight() const {
    uint64_t n = 0;
    for (const Conn& conn : conns_) n += conn.in_flight;
    return n;
  }

  /// Encodes the next check of connection `c` into its output buffer.
  /// Fails when the ring wraps onto a request still unanswered, which takes
  /// tens of seconds of silence from the server at these rates.
  bool Enqueue(int c, int64_t due_ns, int64_t send_ns) {
    Conn& conn = conns_[c];
    const uint32_t key = inputs_.KeyAt(c, conn.sent++);
    const uint64_t id = ++next_id_;
    Slot& slot = slots_[id & (kRing - 1)];
    if (slot.id != 0) {
      ++stats_.transport_errors;
      return false;
    }
    slot = Slot{id, due_ns, send_ns, key, due_ns >= window_start_ns_ &&
                                              due_ns < window_end_ns_};
    if (slot.measured) {
      ++stats_.attempted;
      stats_.lag_ns.push_back(send_ns - due_ns);
    }
    ++conn.in_flight;
    return wire::EncodeCheckRequest(id, inputs_.keys[key], &conn.out).ok();
  }

  bool Flush(Conn& conn) {
    while (conn.out_offset < conn.out.size()) {
      const ssize_t n = write(conn.fd, conn.out.data() + conn.out_offset,
                              conn.out.size() - conn.out_offset);
      if (n > 0) {
        conn.out_offset += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      if (n < 0 && errno == EINTR) continue;
      ++stats_.transport_errors;
      return false;
    }
    conn.out.clear();
    conn.out_offset = 0;
    return true;
  }

  bool Poll(int64_t wait_ns) {
    pollfd fds[kConnections];
    for (int c = 0; c < kConnections; ++c) {
      fds[c].fd = conns_[c].fd;
      fds[c].events = static_cast<short>(
          POLLIN | (conns_[c].out.empty() ? 0 : POLLOUT));
      fds[c].revents = 0;
    }
    timespec ts{};
    if (wait_ns > 0) {
      ts.tv_sec = wait_ns / 1'000'000'000;
      ts.tv_nsec = wait_ns % 1'000'000'000;
    }
    const int ready = ppoll(fds, kConnections, &ts, nullptr);
    if (ready < 0) return errno == EINTR;
    for (int c = 0; c < kConnections; ++c) {
      if (fds[c].revents & POLLOUT) {
        if (!Flush(conns_[c])) return false;
      }
      if (fds[c].revents & (POLLIN | POLLERR | POLLHUP)) {
        if (!Receive(c)) return false;
      }
    }
    return true;
  }

  bool Receive(int c) {
    Conn& conn = conns_[c];
    char buffer[1 << 16];
    for (;;) {
      const ssize_t n = read(conn.fd, buffer, sizeof(buffer));
      if (n > 0) {
        const int64_t recv_ns = NowNs();
        conn.decoder.Feed(buffer, static_cast<size_t>(n));
        if (!Decode(conn, recv_ns)) return false;
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      if (n < 0 && errno == EINTR) continue;
      ++stats_.transport_errors;  // EOF or error: the server went away
      return false;
    }
  }

  bool Decode(Conn& conn, int64_t recv_ns) {
    wire::FrameView frame;
    wire::ProtocolError error;
    for (;;) {
      switch (conn.decoder.Poll(&frame, &error)) {
        case sentinel::net::FrameDecoder::Next::kNeedMore:
          return true;
        case sentinel::net::FrameDecoder::Next::kError:
          ++stats_.protocol_errors;
          return false;
        case sentinel::net::FrameDecoder::Next::kFrame:
          break;
      }
      Slot* slot = Find(frame.request_id);
      if (slot == nullptr) {
        ++stats_.protocol_errors;
        continue;
      }
      --conn.in_flight;
      ++stats_.replies;
      const bool measured = slot->measured;
      bool decided = false;
      if (frame.type == wire::MsgType::kDecision) {
        wire::DecisionMsg msg;
        if (!wire::DecodeDecision(frame, &msg, &error)) {
          ++stats_.protocol_errors;
        } else if (msg.decision.outcome == AccessOutcome::kDecided) {
          decided = true;
          if (msg.decision.allowed != expected_[slot->key]) ++stats_.mismatches;
        } else if (measured) {
          ++(msg.decision.outcome == AccessOutcome::kOverloaded
                 ? stats_.overloaded
                 : stats_.shutdown);
        }
      } else if (measured) {
        ++stats_.protocol_errors;  // kError, or a type a check never gets
      }
      if (measured && decided) {
        ++stats_.decided;
        stats_.latency_ns.Add(slot->due_ns, recv_ns - slot->due_ns);
        stats_.last_reply_ns = std::max(stats_.last_reply_ns, recv_ns);
        stats_.wire_ns.push_back(recv_ns - slot->send_ns);
        if (spans_.enabled() && slot->id % 16 == 0) {
          spans_.Add("wire.check", 0, slot->send_ns, recv_ns);
        }
      }
      slot->id = 0;
    }
  }

  Slot* Find(uint64_t id) {
    Slot& slot = slots_[id & (kRing - 1)];
    return id != 0 && slot.id == id ? &slot : nullptr;
  }

  const Options& options_;
  const Inputs& inputs_;
  const std::vector<bool>& expected_;
  SpanLog& spans_;
  Conn conns_[kConnections];
  std::vector<Slot> slots_;
  uint64_t next_id_ = 0;
  int64_t start_ns_ = 0;
  int64_t window_start_ns_ = 0;
  int64_t window_end_ns_ = 0;
  Stats stats_;
};

}  // namespace

int RunLoad(const Options& options) {
  std::string shard_map;
  if (!std::getline(std::cin, shard_map) ||
      shard_map.size() != static_cast<size_t>(kUsers)) {
    std::fprintf(stderr, "load: expected a shard map of %d digits\n", kUsers);
    return 1;
  }
  const int64_t t0 = NowNs();
  const sentinel::Scenario scenario =
      sentinel::GenerateScenario(MakeScenarioParams(options.scenario_seed));
  const Inputs inputs =
      MakeInputs(scenario.policy, options.workload, options.key_seed);
  // Enough logins for the churn during traffic and a traced run's layer
  // calls, or the probe's; run.py fails a run whose admin thread did more.
  const uint64_t max_logins =
      Churn(options.workload)
          ? static_cast<uint64_t>(kLoginsPerSecond *
                                  (options.warmup_s + options.seconds + 20))
          : kProbeLogins;
  Oracle oracle;
  BuildOracle(scenario.policy, inputs, shard_map, max_logins, options.trace,
              &oracle);
  uint64_t granted = 0;
  for (const bool allowed : oracle.expected) granted += allowed;
  Json ready;
  ready.Str("event", "ready")
      .Int("oracle_ok", oracle.ok)
      .Num("oracle_s", (NowNs() - t0) / 1e9)
      .Int("cap_overshoot",
           options.trace ? oracle.admitted - oracle.admitted_global : 0)
      .Int("keys", static_cast<int64_t>(inputs.keys.size()))
      .Num("granted_frac", static_cast<double>(granted) /
                               static_cast<double>(inputs.keys.size()))
      .Str("setup_verdicts", oracle.setup_verdicts)
      .Str("login_verdicts", oracle.login_verdicts);
  std::printf("%s\n", ready.Done().c_str());
  std::fflush(stdout);

  std::string line;
  if (!std::getline(std::cin, line) || line != "go") return 1;
  SpanLog spans(options.trace);
  Traffic traffic(options, inputs, oracle.expected, spans);
  bool ok = traffic.Connect(options.port);
  if (!ok) {
    std::fprintf(stderr, "load: connect to port %u failed\n", options.port);
  } else {
    ok = traffic.Run();
  }
  Stats& stats = traffic.stats();
  const uint64_t failed = stats.overloaded + stats.shutdown +
                          stats.protocol_errors + stats.transport_errors +
                          stats.unanswered;
  Json result;
  result.Str("event", "result")
      .Int("transport_ok", ok)
      .Int("attempted", static_cast<int64_t>(stats.attempted))
      .Int("decided", static_cast<int64_t>(stats.decided))
      .Int("failed", static_cast<int64_t>(failed))
      .Int("overloaded", static_cast<int64_t>(stats.overloaded))
      .Int("shutdown", static_cast<int64_t>(stats.shutdown))
      .Int("protocol_errors", static_cast<int64_t>(stats.protocol_errors))
      .Int("transport_errors", static_cast<int64_t>(stats.transport_errors))
      .Int("unanswered", static_cast<int64_t>(stats.unanswered))
      .Int("mismatches", static_cast<int64_t>(stats.mismatches))
      .Int("replies", static_cast<int64_t>(stats.replies))
      .Int("samples", static_cast<int64_t>(stats.latency_ns.size()))
      .Num("check_p50_us",
           stats.latency_ns.Percentile(50, kWindowQuantile) / 1e3)
      .Num("check_p99_us",
           stats.latency_ns.Percentile(99, kWindowQuantile) / 1e3)
      .Num("wire_p50_us", PercentileNs(stats.wire_ns, 50) / 1e3)
      .Num("lag_p99_us", PercentileNs(stats.lag_ns, 99) / 1e3)
      .Num("checks_per_s", traffic.Throughput())
      .Int("cursor0", static_cast<int64_t>(traffic.cursor(0)))
      .Int("cursor1", static_cast<int64_t>(traffic.cursor(1)));
  if (options.trace && !options.spans_path.empty() &&
      !spans.WriteTo(options.spans_path)) {
    std::fprintf(stderr, "load: cannot write %s\n", options.spans_path.c_str());
  }
  std::printf("%s\n", result.Done().c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}

}  // namespace perfbench
