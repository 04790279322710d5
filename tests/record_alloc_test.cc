// Heap allocations a serving thread makes to record a decision. Decision
// and audit records are fixed-field, so after a warm-up a decision must
// allocate exactly as much with the decision ring on as with it off, and a
// zero-hop hit as much with the audit exporter attached as without it.
//
// This binary replaces the global operator new with one that counts the
// calling thread's allocations, so the audit writer's own work (it turns
// records into text on its thread) does not count. Every unaligned form of
// new and delete is replaced, so each allocation and its release pair
// malloc with free, which is what a sanitizer's allocator checks.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "core/engine.h"
#include "service/authorization_service.h"
#include "tests/test_util.h"

namespace {
thread_local uint64_t tls_allocations = 0;
}  // namespace

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++tls_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size) {
  void* p = ::operator new(size, std::nothrow);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace sentinel {
namespace {

template <typename Fn>
uint64_t CountAllocations(Fn&& fn) {
  const uint64_t before = tls_allocations;
  fn();
  return tls_allocations - before;
}

/// Allocations of 1,000 rounds of one allowed and one denied CheckAccess
/// on a bare engine whose decision ring holds `ring` records, after a
/// warm-up longer than the ring.
uint64_t EngineCheckAllocations(size_t ring) {
  SimulatedClock clock(testutil::Noon());
  AuthorizationEngine engine(&clock);
  engine.set_decision_log_capacity(ring);
  EXPECT_TRUE(engine.LoadPolicy(testutil::EnterpriseXyzPolicy()).ok());
  EXPECT_TRUE(engine.CreateSession("carol", "s1").allowed);
  EXPECT_TRUE(engine.AddActiveRole("carol", "s1", "Clerk").allowed);
  const std::string session = "s1";
  const std::string read = "read";
  const std::string write = "write";
  const std::string ledger = "ledger";
  int allowed = 0;
  const auto round = [&] {
    allowed += engine.CheckAccess(session, read, ledger).allowed;
    allowed += engine.CheckAccess(session, write, ledger).allowed;
  };
  for (int i = 0; i < 300; ++i) round();
  const uint64_t allocations = CountAllocations([&] {
    for (int i = 0; i < 1000; ++i) round();
  });
  EXPECT_EQ(allowed, 1300);
  EXPECT_EQ(engine.decision_log().size(), ring);
  return allocations;
}

TEST(RecordAllocationTest, EngineCheckAllocatesNoMoreWithTheRingOn) {
  EXPECT_EQ(EngineCheckAllocations(256), EngineCheckAllocations(0));
}

/// Allocations on the calling thread over 1,000 zero-hop allowed checks,
/// after a warm-up, on a one-shard service exporting to `audit_path`
/// (none when empty).
uint64_t ZeroHopAllocations(const std::string& audit_path) {
  ServiceConfig config;
  config.num_shards = 1;
  config.start_time = testutil::Noon();
  config.decision_cache_capacity = 256;
  config.decision_cache_fastpath = true;
  config.audit_path = audit_path;
  AuthorizationService service(config);
  EXPECT_TRUE(service.init_status().ok());
  EXPECT_TRUE(service.LoadPolicy(testutil::EnterpriseXyzPolicy()).ok());
  EXPECT_TRUE(service.CreateSession("carol", "s1").ok());
  EXPECT_TRUE(service.AddActiveRole("carol", "s1", "Clerk").ok());
  AccessRequest request;
  request.user = "carol";
  request.session = "s1";
  request.operation = "read";
  request.object = "ledger";
  int allowed = 0;
  for (int i = 0; i < 1000; ++i) allowed += service.CheckAccess(request).allowed;
  const uint64_t hits_before = service.Stats().fastpath_hits;
  const uint64_t allocations = CountAllocations([&] {
    for (int i = 0; i < 1000; ++i) {
      allowed += service.CheckAccess(request).allowed;
    }
  });
  EXPECT_EQ(allowed, 2000);
  EXPECT_EQ(service.Stats().fastpath_hits - hits_before, 1000u);
  service.Shutdown();
  if (!audit_path.empty()) {
    EXPECT_EQ(service.audit_exporter()->counters().drops, 0u);
  }
  return allocations;
}

TEST(RecordAllocationTest, ZeroHopHitAllocatesNoMoreWithTheExporter) {
  const std::string path =
      testing::TempDir() + "sentinelpp_record_alloc.jsonl";
  std::remove(path.c_str());
  EXPECT_EQ(ZeroHopAllocations(path), ZeroHopAllocations(""));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sentinel
