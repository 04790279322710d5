#include "common/interner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/value.h"

namespace sentinel {
namespace {

// ------------------------------------------------------------ SymbolTable

TEST(SymbolTableTest, InternAssignsDenseIdsInOrder) {
  SymbolTable t;
  EXPECT_EQ(t.Intern("alice").id(), 0u);
  EXPECT_EQ(t.Intern("bob").id(), 1u);
  EXPECT_EQ(t.Intern("carol").id(), 2u);
  EXPECT_EQ(t.size(), 3u);
}

TEST(SymbolTableTest, ReinternReturnsSameSymbol) {
  SymbolTable t;
  const Symbol a = t.Intern("alice");
  const Symbol b = t.Intern("bob");
  EXPECT_EQ(t.Intern("alice"), a);
  EXPECT_EQ(t.Intern("bob"), b);
  EXPECT_EQ(t.size(), 2u);
}

TEST(SymbolTableTest, FindDoesNotIntern) {
  SymbolTable t;
  EXPECT_FALSE(t.Find("ghost").valid());
  EXPECT_EQ(t.size(), 0u);
  const Symbol s = t.Intern("real");
  EXPECT_EQ(t.Find("real"), s);
}

TEST(SymbolTableTest, NameOfRoundTripsAndHandlesInvalid) {
  SymbolTable t;
  const Symbol s = t.Intern("role:doctor");
  EXPECT_EQ(t.NameOf(s), "role:doctor");
  EXPECT_EQ(t.NameOf(Symbol()), "");
  EXPECT_EQ(t.NameOf(Symbol(999)), "");
}

TEST(SymbolTableTest, IdsAndNamesStableAcrossGrowth) {
  SymbolTable t;
  // Enough insertions to force several rehashes of the index.
  std::vector<Symbol> syms;
  for (int i = 0; i < 1000; ++i) {
    syms.push_back(t.Intern("name" + std::to_string(i)));
  }
  const std::string* early = &t.NameOf(syms[0]);
  for (int i = 0; i < 1000; ++i) {
    const std::string name = "name" + std::to_string(i);
    EXPECT_EQ(syms[i].id(), static_cast<uint32_t>(i));
    EXPECT_EQ(t.Find(name), syms[i]);
    EXPECT_EQ(t.NameOf(syms[i]), name);
  }
  // NameOf references stay valid for the table's lifetime.
  EXPECT_EQ(early, &t.NameOf(syms[0]));
}

TEST(SymbolTableTest, EmptyStringIsAValidDistinctSymbol) {
  SymbolTable t;
  const Symbol empty = t.Intern("");
  EXPECT_TRUE(empty.valid());
  EXPECT_EQ(t.NameOf(empty), "");
  EXPECT_EQ(t.Intern(""), empty);
}

/// Zero-hop contract: Find and NameOf run from caller threads while the
/// single shard-thread writer interns new names and grows the index.
/// Readers must only ever see fully-published symbols — a name that was
/// interned before the reader started can never go missing, and any Symbol
/// Find returns must round-trip through NameOf.
TEST(SymbolTableTest, ConcurrentFindsStayCoherentDuringInterning) {
  SymbolTable t;
  constexpr int kSeeded = 256;
  constexpr int kExtra = 4096;  // Forces index growth mid-flight.
  for (int i = 0; i < kSeeded; ++i) {
    t.Intern("seed" + std::to_string(i));
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> violations{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&t, &stop, &violations] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string seeded = "seed" + std::to_string(i % kSeeded);
        const Symbol s = t.Find(seeded);
        if (!s.valid() || t.NameOf(s) != seeded) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
        // In-flight names: absent or fully published, never half-built.
        const std::string racing = "extra" + std::to_string(i % kExtra);
        const Symbol e = t.Find(racing);
        if (e.valid() && t.NameOf(e) != racing) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
        ++i;
      }
    });
  }

  for (int i = 0; i < kExtra; ++i) {
    t.Intern("extra" + std::to_string(i));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(t.size(), static_cast<size_t>(kSeeded + kExtra));
  for (int i = 0; i < kExtra; ++i) {
    const std::string name = "extra" + std::to_string(i);
    EXPECT_EQ(t.NameOf(t.Find(name)), name);
  }
}

// ----------------------------------------------------------- FlatParamMap

Symbol Sym(uint32_t id) { return Symbol(id); }

TEST(FlatParamMapTest, SetKeepsEntriesSortedRegardlessOfInsertOrder) {
  FlatParamMap m;
  m.Set(Sym(5), Value(5));
  m.Set(Sym(1), Value(1));
  m.Set(Sym(3), Value(3));
  ASSERT_EQ(m.size(), 3u);
  uint32_t prev = 0;
  for (const auto& e : m) {
    EXPECT_GE(e.key.id(), prev);
    prev = e.key.id();
    EXPECT_EQ(e.value, Value(static_cast<int64_t>(e.key.id())));
  }
}

TEST(FlatParamMapTest, LatestWriteWins) {
  FlatParamMap m;
  m.Set(Sym(2), Value(Sym(10)));
  m.Set(Sym(2), Value(Sym(11)));
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.Get(Sym(2)), Value(Sym(11)));
}

TEST(FlatParamMapTest, FindAndGetMissingKey) {
  FlatParamMap m;
  m.Set(Sym(1), Value(1));
  EXPECT_EQ(m.Find(Sym(9)), nullptr);
  EXPECT_TRUE(m.Get(Sym(9)).is_null());
  EXPECT_FALSE(m.Contains(Sym(9)));
  EXPECT_TRUE(m.Contains(Sym(1)));
}

TEST(FlatParamMapTest, SpillsToHeapPastInlineCapacityAndStaysSorted) {
  FlatParamMap m;
  // Insert in descending order, well past kInlineCapacity (6).
  for (uint32_t i = 20; i > 0; --i) {
    m.Set(Sym(i), Value(static_cast<int64_t>(i)));
  }
  ASSERT_EQ(m.size(), 20u);
  uint32_t expect = 1;
  for (const auto& e : m) {
    EXPECT_EQ(e.key.id(), expect);
    EXPECT_EQ(e.value, Value(static_cast<int64_t>(expect)));
    ++expect;
  }
  // Lookups still work after the spill.
  EXPECT_EQ(m.Get(Sym(20)), Value(int64_t{20}));
  EXPECT_EQ(m.Get(Sym(1)), Value(int64_t{1}));
}

TEST(FlatParamMapTest, EqualityIsOrderInsensitive) {
  FlatParamMap a{{Sym(1), Value(1)}, {Sym(2), Value(2)}};
  FlatParamMap b;
  b.Set(Sym(2), Value(2));
  b.Set(Sym(1), Value(1));
  EXPECT_EQ(a, b);
  b.Set(Sym(1), Value(7));
  EXPECT_FALSE(a == b);
}

TEST(FlatParamMapTest, ContainsAllIsSubsetWithEqualValues) {
  FlatParamMap super{{Sym(1), Value(1)}, {Sym(2), Value(2)}, {Sym(3), Value(3)}};
  FlatParamMap sub{{Sym(1), Value(1)}, {Sym(3), Value(3)}};
  EXPECT_TRUE(super.ContainsAll(sub));
  EXPECT_TRUE(super.ContainsAll({}));
  sub.Set(Sym(3), Value(9));  // Wrong value.
  EXPECT_FALSE(super.ContainsAll(sub));
  FlatParamMap missing{{Sym(4), Value(4)}};
  EXPECT_FALSE(super.ContainsAll(missing));
}

TEST(FlatParamMapTest, MergeFromOverlayWins) {
  FlatParamMap base{{Sym(1), Value(1)}, {Sym(2), Value(2)}};
  FlatParamMap overlay{{Sym(2), Value(22)}, {Sym(3), Value(3)}};
  base.MergeFrom(overlay);
  EXPECT_EQ(base.size(), 3u);
  EXPECT_EQ(base.Get(Sym(1)), Value(1));
  EXPECT_EQ(base.Get(Sym(2)), Value(22));
  EXPECT_EQ(base.Get(Sym(3)), Value(3));
}

TEST(FlatParamMapTest, ToStringSortsByKeyNameAndQuotesSymbols) {
  SymbolTable t;
  // Interned out of name order: rendering sorts by name, not by id.
  const Symbol b = t.Intern("b");
  const Symbol a = t.Intern("a");
  const Symbol c = t.Intern("c");
  const FlatParamMap m{
      {b, Value(t.Intern("beta"))}, {a, Value(1)}, {c, Value(true)}};
  EXPECT_EQ(m.ToString(t), "{a=1, b=\"beta\", c=true}");
  EXPECT_EQ(FlatParamMap().ToString(t), "{}");
}

// Copies and moves across the spill boundary. Inline maps hold at most
// kInlineCapacity entries; larger ones live on the heap.
constexpr uint32_t kInline = FlatParamMap::kInlineCapacity;
const uint32_t kSizes[] = {2, kInline, kInline + 1, 20};

/// Keys first..first+n-1, each valued ten times its id, set in descending
/// order so every insert lands in front of the existing entries.
FlatParamMap Filled(uint32_t first, uint32_t n) {
  FlatParamMap m;
  for (uint32_t id = first + n; id-- > first;) {
    m.Set(Sym(id), Value(int64_t{id} * 10));
  }
  return m;
}

std::vector<uint32_t> Ids(uint32_t first, uint32_t n) {
  std::vector<uint32_t> ids(n);
  std::iota(ids.begin(), ids.end(), first);
  return ids;
}

/// The keys in iteration order, after checking each entry's value.
std::vector<uint32_t> KeysOf(const FlatParamMap& m) {
  std::vector<uint32_t> keys;
  for (const FlatParamMap::Entry& e : m) {
    EXPECT_EQ(e.value, Value(int64_t{e.key.id()} * 10));
    keys.push_back(e.key.id());
  }
  EXPECT_EQ(keys.size(), m.size());
  return keys;
}

/// Sets one key in front of `keys` and enough after them to spill, then
/// checks the order: a map that was copied, moved or assigned stays usable.
void ExpectAcceptsSets(FlatParamMap& m, std::vector<uint32_t> keys) {
  m.Set(Sym(0), Value(int64_t{0}));
  keys.insert(keys.begin(), 0);
  for (uint32_t id = 500; id <= 500 + kInline; ++id) {
    m.Set(Sym(id), Value(int64_t{id} * 10));
    keys.push_back(id);
  }
  EXPECT_EQ(KeysOf(m), keys);
}

TEST(FlatParamMapTest, CopyConstructKeepsBothMapsIndependent) {
  for (const uint32_t n : kSizes) {
    SCOPED_TRACE(n);
    const FlatParamMap source = Filled(1, n);
    FlatParamMap copy(source);
    EXPECT_EQ(KeysOf(copy), Ids(1, n));
    EXPECT_EQ(copy, source);
    ExpectAcceptsSets(copy, Ids(1, n));
    EXPECT_EQ(KeysOf(source), Ids(1, n));
  }
}

TEST(FlatParamMapTest, MoveConstructLeavesSourceEmptyAndReusable) {
  for (const uint32_t n : kSizes) {
    SCOPED_TRACE(n);
    FlatParamMap source = Filled(1, n);
    FlatParamMap moved(std::move(source));
    EXPECT_EQ(KeysOf(moved), Ids(1, n));
    EXPECT_TRUE(source.empty());
    EXPECT_EQ(source.begin(), source.end());
    ExpectAcceptsSets(source, {});
    ExpectAcceptsSets(moved, Ids(1, n));
  }
}

TEST(FlatParamMapTest, CopyAssignBetweenInlineAndSpilledMaps) {
  for (const uint32_t from : kSizes) {
    for (const uint32_t to : kSizes) {
      SCOPED_TRACE(::testing::Message() << from << " onto " << to);
      const FlatParamMap source = Filled(1, from);
      FlatParamMap target = Filled(100, to);
      target = source;
      EXPECT_EQ(KeysOf(target), Ids(1, from));
      ExpectAcceptsSets(target, Ids(1, from));
      EXPECT_EQ(KeysOf(source), Ids(1, from));
    }
  }
}

TEST(FlatParamMapTest, MoveAssignBetweenInlineAndSpilledMaps) {
  for (const uint32_t from : kSizes) {
    for (const uint32_t to : kSizes) {
      SCOPED_TRACE(::testing::Message() << from << " onto " << to);
      FlatParamMap source = Filled(1, from);
      FlatParamMap target = Filled(100, to);
      target = std::move(source);
      EXPECT_EQ(KeysOf(target), Ids(1, from));
      EXPECT_TRUE(source.empty());
      ExpectAcceptsSets(source, {});
      ExpectAcceptsSets(target, Ids(1, from));
    }
  }
}

TEST(FlatParamMapTest, SelfAssignmentKeepsContents) {
  for (const uint32_t n : kSizes) {
    SCOPED_TRACE(n);
    FlatParamMap m = Filled(1, n);
    FlatParamMap& alias = m;  // Assign through an alias, as generic code may.
    m = alias;
    EXPECT_EQ(KeysOf(m), Ids(1, n));
    m = std::move(alias);
    EXPECT_EQ(KeysOf(m), Ids(1, n));
    ExpectAcceptsSets(m, Ids(1, n));
  }
}

}  // namespace
}  // namespace sentinel
