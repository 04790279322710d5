// Socket-level end-to-end tests for the epoll reactor: real TCP
// connections against a live AuthorizationService, covering the happy
// path (typed verdicts, pipelining), every protocol-error edge the
// torture suite pins at the decoder level — now through actual sockets —
// idle harvesting, graceful drain, and a multi-client stress arm meant to
// run under TSan (N client threads vs one reactor vs shard threads vs
// concurrent admin churn).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "workload/policy_gen.h"

namespace sentinel {
namespace {

using net::WireClient;
using net::WireServer;

constexpr int kUsers = 4;

std::string SessionOf(int user) { return "sess" + std::to_string(user); }

/// Flat policy: every user holds `worker` (read ledger). `auditor`
/// (read audit.log) exists for the admin-churn stress arm.
Policy NetPolicy() {
  Policy policy("net-test");
  RoleSpec worker;
  worker.name = "worker";
  worker.permissions.insert(Permission{"read", "ledger"});
  (void)policy.AddRole(std::move(worker));
  RoleSpec auditor;
  auditor.name = "auditor";
  auditor.permissions.insert(Permission{"read", "audit.log"});
  (void)policy.AddRole(std::move(auditor));
  for (int u = 0; u < kUsers; ++u) {
    UserSpec user;
    user.name = SyntheticUserName(u);
    user.assignments.insert("worker");
    user.assignments.insert("auditor");
    (void)policy.AddUser(std::move(user));
  }
  return policy;
}

AccessRequest ReadLedger(int user) {
  return AccessRequest{SyntheticUserName(user), SessionOf(user), "read",
                       "ledger", ""};
}

AccessRequest WriteLedger(int user) {
  return AccessRequest{SyntheticUserName(user), SessionOf(user), "write",
                       "ledger", ""};
}

class NetTest : public ::testing::Test {
 protected:
  void StartService(ServiceConfig config) {
    service_ = std::make_unique<AuthorizationService>(config);
    ASSERT_TRUE(service_->LoadPolicy(NetPolicy()).ok());
    for (int u = 0; u < kUsers; ++u) {
      ASSERT_TRUE(
          service_->CreateSession(SyntheticUserName(u), SessionOf(u)).ok());
      ASSERT_TRUE(service_
                      ->AddActiveRole(SyntheticUserName(u), SessionOf(u),
                                      "worker")
                      .ok());
    }
  }

  void StartServer(net::ServerConfig net_config = {}) {
    server_ = std::make_unique<WireServer>(service_.get(), net_config);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);
  }

  void StartDefault() {
    ServiceConfig config;
    config.num_shards = 2;
    config.start_time = MakeTime(2026, 7, 6, 12, 0, 0);
    StartService(config);
    StartServer();
  }

  std::unique_ptr<WireClient> Connect() {
    auto connected = WireClient::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(connected.ok()) << connected.status().message();
    return std::move(connected).value();
  }

  /// Polls server stats until `predicate` holds or ~2s pass.
  template <typename Predicate>
  bool WaitFor(Predicate predicate) {
    for (int i = 0; i < 200; ++i) {
      if (predicate()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return predicate();
  }

  std::unique_ptr<AuthorizationService> service_;
  std::unique_ptr<WireServer> server_;
};

// The library names the threads it starts, so per-thread CPU reads
// straight off /proc/<pid>/task/*/comm (or top -H) on a running server.
TEST_F(NetTest, NamesTheThreadsItStarts) {
  const std::string audit_path =
      testing::TempDir() + "sentinelpp_net_thread_names.jsonl";
  ServiceConfig config;
  config.num_shards = 2;
  config.start_time = MakeTime(2026, 7, 6, 12, 0, 0);
  config.audit_path = audit_path;
  StartService(config);
  StartServer();
  const std::set<std::string> expected = {"shard-0", "shard-1",
                                          "audit-writer", "net-reactor"};
  std::set<std::string> found;
  // Each thread names itself once it runs: poll until all four have.
  EXPECT_TRUE(WaitFor([&] {
    found.clear();
    for (const auto& task :
         std::filesystem::directory_iterator("/proc/self/task")) {
      std::ifstream comm(task.path() / "comm");
      std::string name;
      if (std::getline(comm, name) && expected.count(name) > 0) {
        found.insert(name);
      }
    }
    return found == expected;
  })) << "found " << found.size() << " of the 4 thread names";
  server_.reset();
  service_.reset();
  std::remove(audit_path.c_str());
}

TEST_F(NetTest, StartsOnEphemeralPortAndStops) {
  StartDefault();
  const uint16_t port = server_->port();
  EXPECT_NE(port, 0);
  server_->Stop();
  EXPECT_FALSE(WireClient::Connect("127.0.0.1", port, 200).ok());
}

TEST_F(NetTest, VerdictsCarryEveryTypedField) {
  StartDefault();
  auto client = Connect();

  auto allowed = client->Check(ReadLedger(0));
  ASSERT_TRUE(allowed.ok()) << allowed.status().message();
  EXPECT_TRUE(allowed.value().allowed);
  EXPECT_EQ(allowed.value().outcome, AccessOutcome::kDecided);
  EXPECT_FALSE(allowed.value().rule.empty())
      << "the deciding OWTE rule crosses the wire";
  EXPECT_GT(allowed.value().epoch, 0u)
      << "policy load + session setup bumped the admin epoch";

  auto denied = client->Check(WriteLedger(0));
  ASSERT_TRUE(denied.ok()) << denied.status().message();
  EXPECT_FALSE(denied.value().allowed);
  EXPECT_EQ(denied.value().outcome, AccessOutcome::kDecided);
  EXPECT_FALSE(denied.value().reason.empty());

  // Both verdicts match what an in-process caller sees.
  const AccessDecision local = service_->CheckAccess(ReadLedger(0));
  EXPECT_EQ(local.allowed, allowed.value().allowed);
  EXPECT_EQ(local.rule, allowed.value().rule);
}

TEST_F(NetTest, PipelinedBatchAlignsPositionally) {
  StartDefault();
  auto client = Connect();
  std::vector<AccessRequest> requests;
  for (int i = 0; i < 64; ++i) {
    requests.push_back(i % 2 == 0 ? ReadLedger(i % kUsers)
                                  : WriteLedger(i % kUsers));
  }
  auto decisions = client->CheckBatch(requests);
  ASSERT_TRUE(decisions.ok()) << decisions.status().message();
  ASSERT_EQ(decisions.value().size(), requests.size());
  for (size_t i = 0; i < decisions.value().size(); ++i) {
    EXPECT_EQ(decisions.value()[i].allowed, i % 2 == 0) << "index " << i;
  }
  // The whole pipeline folded into far fewer service batches than
  // requests (one per reactor sweep chunk, not one per request).
  EXPECT_LT(server_->stats().batches, 64u);
}

// Regression: a pipeline deeper than max_batch leaves complete frames in
// the decoder after the sweep's chunk fills — with the bytes already off
// the socket no readable event re-announces them, so the reactor's
// redrain pass must answer them (previously they hung until idle close).
TEST_F(NetTest, PipeliningBeyondMaxBatchStillAnswersEverything) {
  ServiceConfig config;
  config.num_shards = 2;
  config.start_time = MakeTime(2026, 7, 6, 12, 0, 0);
  StartService(config);
  net::ServerConfig net_config;
  net_config.max_batch = 8;
  StartServer(net_config);

  auto client = Connect();
  std::vector<AccessRequest> requests;
  for (int i = 0; i < 100; ++i) requests.push_back(ReadLedger(i % kUsers));
  auto decisions = client->CheckBatch(requests);
  ASSERT_TRUE(decisions.ok()) << decisions.status().message();
  ASSERT_EQ(decisions.value().size(), requests.size());
  for (size_t i = 0; i < decisions.value().size(); ++i) {
    EXPECT_TRUE(decisions.value()[i].allowed) << "index " << i;
  }
  // The backlog dispatched in max_batch chunks, not one giant batch.
  EXPECT_GE(server_->stats().batches, 100u / 8u);
  EXPECT_EQ(server_->stats().protocol_errors, 0u);
}

TEST_F(NetTest, SingleByteDribbleOverSocket) {
  StartDefault();
  auto client = Connect();
  std::string bytes;
  ASSERT_TRUE(wire::EncodeCheckRequest(41, ReadLedger(1), &bytes).ok());
  ASSERT_TRUE(client->SendRaw(bytes, /*chunk=*/1).ok());
  auto frame = client->ReadRawFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  ASSERT_EQ(frame.value().type, wire::MsgType::kDecision);
  wire::DecisionMsg msg;
  wire::ProtocolError error;
  ASSERT_TRUE(wire::DecodeDecision(frame.value(), &msg, &error));
  EXPECT_EQ(msg.request_id, 41u);
  EXPECT_TRUE(msg.decision.allowed);
}

TEST_F(NetTest, OversizedLengthPrefixIsFatal) {
  StartDefault();
  auto client = Connect();
  std::string bytes;
  wire::PutU32(wire::kMaxFrameBytes + 1, &bytes);
  ASSERT_TRUE(client->SendRaw(bytes).ok());
  auto frame = client->ReadRawFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  ASSERT_EQ(frame.value().type, wire::MsgType::kError);
  wire::ErrorMsg msg;
  wire::ProtocolError error;
  ASSERT_TRUE(wire::DecodeError(frame.value(), &msg, &error));
  EXPECT_EQ(msg.code, wire::WireError::kFrameTooLarge);
  EXPECT_EQ(msg.request_id, 0u) << "framing errors are not request-scoped";
  // Fatal: the server closes after flushing the error.
  EXPECT_FALSE(client->ReadRawFrame().ok());
  EXPECT_TRUE(client->eof());
  EXPECT_GE(server_->stats().protocol_errors, 1u);
}

TEST_F(NetTest, UnknownVersionIsFatal) {
  StartDefault();
  auto client = Connect();
  std::string bytes;
  wire::EncodePing(1, &bytes);
  bytes[wire::kLengthPrefixBytes] = char(wire::kWireVersion + 1);
  ASSERT_TRUE(client->SendRaw(bytes).ok());
  auto frame = client->ReadRawFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  ASSERT_EQ(frame.value().type, wire::MsgType::kError);
  wire::ErrorMsg msg;
  wire::ProtocolError error;
  ASSERT_TRUE(wire::DecodeError(frame.value(), &msg, &error));
  EXPECT_EQ(msg.code, wire::WireError::kUnsupportedVersion);
  EXPECT_EQ(msg.request_id, 0u) << "framing errors are not request-scoped";
  EXPECT_FALSE(client->ReadRawFrame().ok());
  EXPECT_TRUE(client->eof());
}

// Regression: a framing error following a valid frame must not echo the
// previous frame's correlation id — framing-level errors carry id 0.
TEST_F(NetTest, FramingErrorDoesNotEchoStaleRequestId) {
  StartDefault();
  auto client = Connect();
  std::string bytes;
  wire::EncodePing(7, &bytes);
  wire::PutU32(wire::kMaxFrameBytes + 1, &bytes);  // poison right behind it
  ASSERT_TRUE(client->SendRaw(bytes).ok());
  auto pong = client->ReadRawFrame();
  ASSERT_TRUE(pong.ok()) << pong.status().message();
  EXPECT_EQ(pong.value().type, wire::MsgType::kPong);
  auto frame = client->ReadRawFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  ASSERT_EQ(frame.value().type, wire::MsgType::kError);
  wire::ErrorMsg msg;
  wire::ProtocolError error;
  ASSERT_TRUE(wire::DecodeError(frame.value(), &msg, &error));
  EXPECT_EQ(msg.code, wire::WireError::kFrameTooLarge);
  EXPECT_EQ(msg.request_id, 0u) << "must not echo the ping's id 7";
  EXPECT_FALSE(client->ReadRawFrame().ok());
  EXPECT_TRUE(client->eof());
}

TEST_F(NetTest, InvalidDeadlineIsRequestScopedAndConnectionSurvives) {
  StartDefault();
  auto client = Connect();
  AccessRequest bad = ReadLedger(0);
  bad.deadline = -7;  // negative non-sentinel: encoder ships it, wire rejects
  std::string bytes;
  ASSERT_TRUE(wire::EncodeCheckRequest(11, bad, &bytes).ok());
  ASSERT_TRUE(client->SendRaw(bytes).ok());
  auto frame = client->ReadRawFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  ASSERT_EQ(frame.value().type, wire::MsgType::kError);
  wire::ErrorMsg msg;
  wire::ProtocolError error;
  ASSERT_TRUE(wire::DecodeError(frame.value(), &msg, &error));
  EXPECT_EQ(msg.code, wire::WireError::kInvalidDeadline);
  EXPECT_EQ(msg.request_id, 11u);

  // Same connection keeps working — and the sentinel itself is fine.
  AccessRequest patient = ReadLedger(0);
  patient.deadline = AccessRequest::kNoDeadline;
  auto decision = client->Check(patient);
  ASSERT_TRUE(decision.ok()) << decision.status().message();
  EXPECT_TRUE(decision.value().allowed);
}

TEST_F(NetTest, UnknownMessageTypeSurvives) {
  StartDefault();
  auto client = Connect();
  std::string bytes;
  wire::EncodePing(21, &bytes);
  bytes[wire::kLengthPrefixBytes + 1] = '\x7f';  // a type id from the future
  ASSERT_TRUE(client->SendRaw(bytes).ok());
  auto frame = client->ReadRawFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  ASSERT_EQ(frame.value().type, wire::MsgType::kError);
  wire::ErrorMsg msg;
  wire::ProtocolError error;
  ASSERT_TRUE(wire::DecodeError(frame.value(), &msg, &error));
  EXPECT_EQ(msg.code, wire::WireError::kUnknownMessageType);
  EXPECT_EQ(msg.request_id, 21u);
  EXPECT_TRUE(client->Ping().ok()) << "framing stayed intact";
}

TEST_F(NetTest, TruncatedTrailingFrameCountsAsProtocolError) {
  StartDefault();
  {
    auto client = Connect();
    std::string bytes;
    ASSERT_TRUE(wire::EncodeCheckRequest(1, ReadLedger(0), &bytes).ok());
    std::string tail;
    ASSERT_TRUE(wire::EncodeCheckRequest(2, ReadLedger(1), &tail).ok());
    bytes += tail.substr(0, tail.size() / 2);
    ASSERT_TRUE(client->SendRaw(bytes).ok());
    // The complete first request is still answered.
    auto frame = client->ReadRawFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().message();
    EXPECT_EQ(frame.value().type, wire::MsgType::kDecision);
  }  // client destructor closes mid-frame
  EXPECT_TRUE(WaitFor([&] {
    return server_->stats().protocol_errors >= 1;
  })) << "EOF with a truncated trailing frame must count";
}

// At the connection cap the listener is de-registered from epoll (a
// ready listener the reactor refuses to accept from would spin it at
// 100% CPU); closing a connection must re-arm it so waiting connects in
// the backlog get accepted.
TEST_F(NetTest, ConnectionCapResumesAcceptingAfterClose) {
  ServiceConfig config;
  config.num_shards = 1;
  config.start_time = MakeTime(2026, 7, 6, 12, 0, 0);
  StartService(config);
  net::ServerConfig net_config;
  net_config.max_connections = 2;
  StartServer(net_config);

  auto first = Connect();
  auto second = Connect();
  ASSERT_TRUE(first->Ping().ok());
  ASSERT_TRUE(second->Ping().ok());
  ASSERT_TRUE(WaitFor([&] { return server_->stats().accepted == 2; }));

  // Third TCP connect completes via the kernel backlog but the reactor,
  // at cap, must not accept it yet.
  auto third = Connect();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(server_->stats().accepted, 2u);

  first->Close();
  EXPECT_TRUE(WaitFor([&] { return server_->stats().accepted == 3; }))
      << "freed slot must re-arm the listener";
  EXPECT_TRUE(third->Ping().ok());
}

TEST_F(NetTest, IdleConnectionsAreHarvested) {
  ServiceConfig config;
  config.num_shards = 1;
  config.start_time = MakeTime(2026, 7, 6, 12, 0, 0);
  StartService(config);
  net::ServerConfig net_config;
  net_config.idle_timeout_ms = 100;
  StartServer(net_config);

  auto client = Connect();
  ASSERT_TRUE(client->Ping().ok());
  EXPECT_TRUE(WaitFor([&] { return server_->stats().idle_closed >= 1; }));
  EXPECT_FALSE(client->Ping().ok()) << "server hung up on the idler";
  EXPECT_TRUE(client->eof());
}

TEST_F(NetTest, GracefulStopDrainsInFlightWork) {
  StartDefault();
  auto client = Connect();
  std::vector<AccessRequest> requests(128, ReadLedger(2));
  auto decisions = client->CheckBatch(requests);
  ASSERT_TRUE(decisions.ok()) << decisions.status().message();
  server_->Stop();
  const net::ServerStats stats = server_->stats();
  EXPECT_EQ(stats.requests, 128u);
  EXPECT_EQ(stats.decisions, 128u)
      << "every request received before Stop() was answered";
  EXPECT_FALSE(client->Check(ReadLedger(0)).ok())
      << "post-stop traffic fails, it does not hang";
}

// The TSan arm: concurrent clients + reactor + shard threads + admin
// churn through the epoch barrier, with the zero-hop fastpath on so the
// cache-snapshot handoff is exercised across the wire too.
TEST_F(NetTest, ConcurrentClientsWithAdminChurn) {
  ServiceConfig config;
  config.num_shards = 2;
  config.start_time = MakeTime(2026, 7, 6, 12, 0, 0);
  config.decision_cache_capacity = 1024;
  config.decision_cache_fastpath = true;
  StartService(config);
  StartServer();

  constexpr int kClients = 4;
  constexpr int kPerClient = 200;
  std::atomic<uint64_t> decided{0};
  std::atomic<uint64_t> failures{0};

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto connected = WireClient::Connect("127.0.0.1", server_->port());
      if (!connected.ok()) {
        ++failures;
        return;
      }
      auto client = std::move(connected).value();
      for (int i = 0; i < kPerClient; ++i) {
        if (i % 8 == 7) {
          // A pipelined burst in the middle of the closed loop.
          std::vector<AccessRequest> burst(8, ReadLedger(c));
          auto decisions = client->CheckBatch(burst);
          if (!decisions.ok()) {
            ++failures;
            return;
          }
          for (const AccessDecision& decision : decisions.value()) {
            if (decision.outcome == AccessOutcome::kDecided &&
                decision.allowed) {
              ++decided;
            } else {
              ++failures;
            }
          }
          continue;
        }
        auto decision = client->Check(i % 2 == 0 ? ReadLedger(c)
                                                 : WriteLedger(c));
        if (!decision.ok() ||
            decision.value().outcome != AccessOutcome::kDecided) {
          ++failures;
          return;
        }
        if (decision.value().allowed != (i % 2 == 0)) ++failures;
        ++decided;
      }
    });
  }

  // Admin churn: toggle an unrelated role through the epoch barrier while
  // the wire traffic flows. Every toggle invalidates cache generations.
  std::atomic<bool> stop_churn{false};
  std::thread churn([&] {
    int flips = 0;
    while (!stop_churn.load(std::memory_order_acquire)) {
      const std::string user = SyntheticUserName(0);
      if (flips % 2 == 0) {
        (void)service_->AddActiveRole(user, SessionOf(0), "auditor");
      } else {
        (void)service_->DropActiveRole(user, SessionOf(0), "auditor");
      }
      ++flips;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (std::thread& thread : clients) thread.join();
  stop_churn.store(true, std::memory_order_release);
  churn.join();

  EXPECT_EQ(failures.load(), 0u);
  // Every 8th iteration answers a burst of 8 instead of a single check.
  constexpr uint64_t kPerClientDecided =
      (kPerClient - kPerClient / 8) + (kPerClient / 8) * 8;
  EXPECT_EQ(decided.load(), kClients * kPerClientDecided);
  EXPECT_EQ(server_->stats().protocol_errors, 0u);
}

}  // namespace
}  // namespace sentinel
