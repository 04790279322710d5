#ifndef SENTINELPP_COMMON_INTERNER_H_
#define SENTINELPP_COMMON_INTERNER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/symbol.h"
#include "common/value.h"

namespace sentinel {

/// \brief Maps strings to dense 32-bit Symbol ids, with stable reverse lookup.
///
/// Each engine owns one SymbolTable and shares it with its detector, RBAC
/// database and role-state table, so a name interned once at policy-load time
/// is an integer everywhere on the request path. Interned strings are never
/// released; NameOf references stay valid for the table's lifetime.
///
/// Concurrency: Intern has one writer at a time — the engine, on whichever
/// thread holds its shard's owner lock (the shard thread or a caller running
/// an envelope inline); the lock orders each writer after the last. Find,
/// NameOf and size are lock-free and may run on any thread concurrently with
/// Intern — the service's zero-hop read path resolves request names on
/// caller threads while the shard keeps interning. A concurrent reader may
/// miss a symbol whose Intern has not fully published yet (Find returns the
/// invalid symbol, NameOf the empty string — both conservative), but it can
/// never observe a torn or dangling name. Publish order: write the string,
/// release-store size_, release-store the index slot.
class SymbolTable {
 public:
  SymbolTable() = default;
  ~SymbolTable();
  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;

  /// Returns the symbol for `name`, interning it if new. O(1) amortized.
  /// One writer at a time: callers serialize (the service's owner lock).
  Symbol Intern(std::string_view name);

  /// Returns the symbol for `name`, or an invalid symbol if never interned.
  /// Safe from any thread.
  Symbol Find(std::string_view name) const;

  /// Reverse lookup. Invalid/out-of-range symbols map to the empty string.
  /// Safe from any thread.
  const std::string& NameOf(Symbol s) const;

  /// `symbols` sorted by name: the order of loops whose order is visible
  /// (events raised, first offender reported). Safe from any thread.
  std::vector<Symbol> ByName(std::vector<Symbol> symbols) const;

  size_t size() const { return size_.load(std::memory_order_acquire); }

 private:
  // Names live in fixed-size blocks behind atomic pointers: a string, once
  // written, never moves, so NameOf references stay valid for the table's
  // lifetime and readers never chase a reallocating container.
  static constexpr size_t kBlockShift = 12;               // 4096 names/block.
  static constexpr size_t kBlockSize = size_t{1} << kBlockShift;
  static constexpr size_t kMaxBlocks = size_t{1} << kBlockShift;  // ~16.7M.

  /// Open-addressed lookup index. Each slot packs (hash tag << 32 | id + 1);
  /// 0 marks an empty slot. Grown tables are built aside and published
  /// whole; the outgrown ones are retired, not freed, so an in-flight
  /// reader keeps probing a valid — merely stale — view.
  struct IndexTable {
    explicit IndexTable(size_t capacity)
        : mask(capacity - 1), slots(new std::atomic<uint64_t>[capacity]()) {}
    const size_t mask;
    std::unique_ptr<std::atomic<uint64_t>[]> slots;
  };

  static uint64_t HashName(std::string_view name);
  /// The stored name for a published id (no bounds/validity checks).
  const std::string& NameUnchecked(uint32_t id) const {
    const std::string* block =
        blocks_[id >> kBlockShift].load(std::memory_order_acquire);
    return block[id & (kBlockSize - 1)];
  }
  static void InsertSlot(IndexTable* table, uint64_t hash, uint32_t id);
  void GrowIndex(size_t min_live);

  std::array<std::atomic<std::string*>, kMaxBlocks> blocks_{};
  std::atomic<uint32_t> size_{0};
  std::atomic<IndexTable*> index_{nullptr};
  std::vector<std::unique_ptr<IndexTable>> tables_;  // Current + retired.
};

/// \brief A small sorted flat map from Symbol to Value.
///
/// The parameter list of an event occurrence. Param maps carry at most a
/// handful of entries (user/session/role/...), so a sorted inline array
/// beats a node-based map on every raise, merge and compare; entries spill
/// to the heap only past kInlineCapacity. Keys are unique and kept sorted
/// by symbol id, which makes equality and subset checks a linear merge.
///
/// Entries are trivially copyable (a Value holds no string), so copies are
/// plain member copies. `heap_` is empty unless the map has spilled; after
/// a spill every entry lives in `heap_` and entries never move back inline.
/// A moved-from map is empty.
class FlatParamMap {
 public:
  struct Entry {
    Symbol key;
    Value value;

    friend bool operator==(const Entry& a, const Entry& b) {
      return a.key == b.key && a.value == b.value;
    }
  };
  static_assert(std::is_trivially_copyable_v<Entry>);

  static constexpr size_t kInlineCapacity = 6;

  FlatParamMap() = default;
  FlatParamMap(std::initializer_list<Entry> entries) {
    for (const Entry& e : entries) Set(e.key, e.value);
  }

  FlatParamMap(const FlatParamMap&) = default;
  FlatParamMap& operator=(const FlatParamMap&) = default;
  FlatParamMap(FlatParamMap&& other) noexcept { *this = std::move(other); }
  FlatParamMap& operator=(FlatParamMap&& other) noexcept {
    if (this != &other) {
      inline_ = other.inline_;
      heap_ = std::move(other.heap_);
      other.heap_.clear();
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }

  /// Inserts or overwrites (latest write wins, as with std::map::operator[]).
  void Set(Symbol key, Value value);

  /// Returns the entry for `key`, or nullptr.
  const Value* Find(Symbol key) const;

  /// Returns the value for `key`, or a null Value if absent.
  const Value& Get(Symbol key) const;

  bool Contains(Symbol key) const { return Find(key) != nullptr; }

  /// True when every entry of `sub` is present here with an equal value.
  bool ContainsAll(const FlatParamMap& sub) const;

  /// Overlays `overlay` onto this map; on key conflicts the overlay wins.
  /// Matches the seed's MergeParams semantics (later constituent wins).
  void MergeFrom(const FlatParamMap& overlay);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const Entry* begin() const { return data(); }
  const Entry* end() const { return data() + size_; }

  friend bool operator==(const FlatParamMap& a, const FlatParamMap& b) {
    if (a.size_ != b.size_) return false;
    const Entry* pa = a.data();
    const Entry* pb = b.data();
    for (size_t i = 0; i < a.size_; ++i) {
      if (!(pa[i] == pb[i])) return false;
    }
    return true;
  }

  /// Renders as `{a=1, b="x"}` with entries sorted by key name and symbol
  /// values resolved through `symbols`, for logs and debugging.
  std::string ToString(const SymbolTable& symbols) const;

 private:
  bool spilled() const { return size_ > kInlineCapacity; }
  const Entry* data() const {
    return spilled() ? heap_.data() : inline_.data();
  }
  Entry* data() { return spilled() ? heap_.data() : inline_.data(); }

  std::array<Entry, kInlineCapacity> inline_;
  std::vector<Entry> heap_;
  size_t size_ = 0;
};

}  // namespace sentinel

#endif  // SENTINELPP_COMMON_INTERNER_H_
