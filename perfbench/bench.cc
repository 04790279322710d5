#include "bench.h"

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>

#include "common/calendar.h"
#include "common/rng.h"
#include "net/server.h"

namespace perfbench {

namespace {

constexpr const char* kWorkloadNames[] = {"pep-hot", "bulk-cold",
                                          "churn-mixed"};
constexpr const char* kOperations[] = {"read", "write", "exec", "approve"};

}  // namespace

bool ParseWorkload(std::string_view name, Workload* out) {
  for (int i = 0; i < 3; ++i) {
    if (name == kWorkloadNames[i]) {
      *out = static_cast<Workload>(i);
      return true;
    }
  }
  return false;
}

sentinel::ScenarioParams MakeScenarioParams(uint64_t scenario_seed) {
  sentinel::ScenarioParams params;
  params.seed = scenario_seed;
  params.divisions = 4;
  params.depth = 5;
  params.branching = 3;
  params.num_objects = kObjects;
  params.num_users = kUsers;
  params.num_requests = 0;  // The benchmark makes its own key streams.
  return params;
}

sentinel::Time StartTime() { return sentinel::MakeTime(2026, 7, 6, 12, 0, 0); }

sentinel::ServiceConfig MakeServiceConfig(Workload workload,
                                          const std::string& audit_path) {
  sentinel::ServiceConfig config;
  config.num_shards = kShards;
  config.start_time = StartTime();
  config.decision_cache_capacity = kCacheSlots;
  config.decision_cache_fastpath = true;
  if (Churn(workload)) {
    config.audit_path = audit_path;
    // The export tap needs one envelope's records to fit the decision ring,
    // and a reactor sweep after a stall carries up to max_batch requests.
    // With the default 256-slot ring such sweeps drop audit records.
    config.decision_log_capacity = sentinel::net::ServerConfig{}.max_batch;
    config.quota_rate_per_s = kQuotaRate;
    config.quota_burst = kQuotaBurst;
    config.quota_enforcement = sentinel::QuotaEnforcement::kAlways;
  }
  return config;
}

std::string UserName(int index) { return sentinel::ScenarioUserName(index); }

std::string SetupSession(int index) {
  std::string session = "s";
  session += std::to_string(index);
  return session;
}

std::string LoginSession(uint64_t login) {
  std::string session = "l";
  session += std::to_string(login);
  return session;
}

// --------------------------------------------------------------- Inputs

uint32_t Inputs::KeyAt(int conn, uint64_t i) const {
  if (workload == Workload::kBulkCold) {
    const uint64_t half = order.size() / kConnections;
    return order[static_cast<size_t>(conn) * half + i % half];
  }
  const uint64_t h =
      Mix64(key_seed * 0x9E3779B97F4A7C15ull + (i << 1) + static_cast<uint64_t>(conn));
  return static_cast<uint32_t>(h % keys.size());
}

int Inputs::LoginUser(uint64_t login) const {
  const uint64_t h = Mix64(key_seed ^ (0xA5A5A5A5ull + login * 0x100000001B3ull));
  return login_users[h % login_users.size()];
}

uint64_t Inputs::SwapSalt(uint64_t swap) const {
  return Mix64(key_seed + 0x5EED0000ull + swap);
}

Inputs MakeInputs(const sentinel::Policy& policy, Workload workload,
                  uint64_t key_seed) {
  Inputs in;
  in.workload = workload;
  in.key_seed = key_seed;
  sentinel::Rng rng(Mix64(key_seed ^ 0xC0FFEEull));

  std::vector<const sentinel::UserSpec*> specs(kUsers, nullptr);
  in.first_role.resize(kUsers);
  std::vector<int> with_roles;
  for (int i = 0; i < kUsers; ++i) {
    const auto it = policy.users().find(UserName(i));
    if (it == policy.users().end() || it->second.assignments.empty()) continue;
    specs[static_cast<size_t>(i)] = &it->second;
    in.first_role[static_cast<size_t>(i)] = *it->second.assignments.begin();
    with_roles.push_back(i);
  }

  // About half the keys name a permission of one of the user's assigned
  // roles (granted unless that activation was refused); the rest name a
  // random operation and object (almost always denied).
  const auto make_key = [&](int user, bool granted) {
    sentinel::AccessRequest request;
    request.user = UserName(user);
    request.session = SetupSession(user);
    const sentinel::UserSpec* spec = specs[static_cast<size_t>(user)];
    if (granted && spec != nullptr) {
      auto role = spec->assignments.begin();
      std::advance(role, static_cast<long>(
                             rng.NextBounded(spec->assignments.size())));
      const auto& perms = policy.roles().at(*role).permissions;
      if (!perms.empty()) {
        auto perm = perms.begin();
        std::advance(perm, static_cast<long>(rng.NextBounded(perms.size())));
        request.operation = perm->operation;
        request.object = perm->object;
        return request;
      }
    }
    request.operation = kOperations[rng.NextBounded(4)];
    request.object =
        sentinel::ScenarioObjectName(static_cast<int>(rng.NextBounded(kObjects)));
    return request;
  };
  const auto add_key = [&](int user, bool granted) {
    in.keys.push_back(make_key(user, granted));
    in.key_user.push_back(user);
  };

  // The hot set exists in every workload: logins always come from outside
  // it, so pep-hot and churn-mixed share the same key stream and the
  // admin probe of the other workloads runs the same login sequence.
  std::vector<int> hot = with_roles;
  rng.Shuffle(&hot);
  hot.resize(kHotSessions);
  const std::set<int> hot_set(hot.begin(), hot.end());
  for (const int user : with_roles) {
    if (hot_set.count(user) == 0) in.login_users.push_back(user);
  }

  if (workload == Workload::kBulkCold) {
    for (int user = 0; user < kUsers; ++user) {
      for (int k = 0; k < kColdTriplesPerSession; ++k) add_key(user, k % 2 == 0);
    }
    in.order.resize(in.keys.size());
    for (size_t i = 0; i < in.order.size(); ++i) {
      in.order[i] = static_cast<uint32_t>(i);
    }
    rng.Shuffle(&in.order);
  } else {
    const int per_session = kHotTriples / kHotSessions;
    for (const int user : hot) {
      for (int k = 0; k < per_session; ++k) add_key(user, k % 2 == 0);
    }
  }
  return in;
}

// ------------------------------------------------------------- Helpers

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double PercentileNs(std::vector<int64_t>& samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const size_t index =
      rank < 1 ? 0 : std::min(samples.size(), static_cast<size_t>(rank)) - 1;
  return static_cast<double>(samples[index]);
}

void IntervalSamples::Add(int64_t at_ns, int64_t value_ns) {
  const int64_t offset = at_ns > origin_ns_ ? at_ns - origin_ns_ : 0;
  const size_t window = static_cast<size_t>(offset / kIntervalNs);
  if (window >= windows_.size()) windows_.resize(window + 1);
  windows_[window].push_back(value_ns);
  ++size_;
}

double IntervalSamples::Percentile(double p, double q) {
  std::vector<int64_t> per_window;
  for (std::vector<int64_t>& samples : windows_) {
    if (!samples.empty()) {
      per_window.push_back(static_cast<int64_t>(PercentileNs(samples, p)));
    }
  }
  return PercentileNs(per_window, q);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

void SetTightTimerSlack() { (void)prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

void Json::Key(std::string_view key) {
  if (body_.size() > 1) body_ += ',';
  body_ += '"';
  body_ += key;
  body_ += "\":";
}

Json& Json::Num(std::string_view key, double value) {
  Key(key);
  if (!std::isfinite(value)) value = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  body_ += buf;
  return *this;
}

Json& Json::Int(std::string_view key, int64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

Json& Json::Str(std::string_view key, std::string_view value) {
  Key(key);
  body_ += '"';
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      body_ += '\\';
      body_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      body_ += ' ';
    } else {
      body_ += c;
    }
  }
  body_ += '"';
  return *this;
}

uint64_t SpanLog::Add(const char* name, uint64_t parent, int64_t start_ns,
                      int64_t end_ns, uint64_t count) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = spans_.size() + 1;
  spans_.push_back(Span{id, parent, name, start_ns, end_ns, count});
  return id;
}

bool SpanLog::WriteTo(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* out = std::fopen(path.c_str(), "a");
  if (out == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(out,
                 "{\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                 ",\"name\":\"%s\",\"start_ns\":%" PRId64 ",\"end_ns\":%" PRId64
                 ",\"count\":%" PRIu64 "}\n",
                 s.id, s.parent, s.name, s.start_ns, s.end_ns, s.count);
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
