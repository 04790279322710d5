#include "common/interner.h"

#include <algorithm>
#include <map>
#include <sstream>

namespace sentinel {

namespace {
const std::string kEmptyString;
const Value kNullValue;

/// High 32 bits of the name hash, stored alongside the id so a probing
/// reader only touches the string on a likely match.
constexpr uint64_t kTagMask = 0xffffffff00000000ull;
}  // namespace

SymbolTable::~SymbolTable() {
  for (std::atomic<std::string*>& block : blocks_) {
    delete[] block.load(std::memory_order_relaxed);
  }
}

uint64_t SymbolTable::HashName(std::string_view name) {
  // FNV-1a, 64-bit: deterministic across runs (symbol placement must not
  // depend on platform hash seeds) and cheap for the short names RBAC uses.
  uint64_t hash = 1469598103934665603ull;
  for (const char c : name) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

void SymbolTable::InsertSlot(IndexTable* table, uint64_t hash, uint32_t id) {
  const uint64_t value = (hash & kTagMask) | (static_cast<uint64_t>(id) + 1);
  size_t pos = static_cast<size_t>(hash) & table->mask;
  while (table->slots[pos].load(std::memory_order_relaxed) != 0) {
    pos = (pos + 1) & table->mask;
  }
  table->slots[pos].store(value, std::memory_order_release);
}

void SymbolTable::GrowIndex(size_t min_live) {
  size_t capacity = 256;
  while (capacity < min_live * 2) capacity <<= 1;
  auto grown = std::make_unique<IndexTable>(capacity);
  // Rehash from the outgoing table's slots: exactly the published ids (the
  // id being interned right now is inserted by the caller, after this).
  if (const IndexTable* old = index_.load(std::memory_order_relaxed)) {
    for (size_t i = 0; i <= old->mask; ++i) {
      const uint64_t slot = old->slots[i].load(std::memory_order_relaxed);
      if (slot == 0) continue;
      const uint32_t id = static_cast<uint32_t>(slot) - 1;
      InsertSlot(grown.get(), HashName(NameUnchecked(id)), id);
    }
  }
  index_.store(grown.get(), std::memory_order_release);
  tables_.push_back(std::move(grown));
}

Symbol SymbolTable::Intern(std::string_view name) {
  const Symbol existing = Find(name);
  if (existing.valid()) return existing;
  const uint32_t id = size_.load(std::memory_order_relaxed);
  const size_t block_index = id >> kBlockShift;
  if (block_index >= kMaxBlocks) return Symbol();  // ~16.7M names: cap out.
  std::string* block = blocks_[block_index].load(std::memory_order_relaxed);
  if (block == nullptr) {
    block = new std::string[kBlockSize];
    blocks_[block_index].store(block, std::memory_order_release);
  }
  // Publish order matters: the string must be fully written before either
  // size_ (covers NameOf) or the index slot (covers Find) can expose the id
  // to a concurrent reader.
  block[id & (kBlockSize - 1)].assign(name.data(), name.size());
  size_.store(id + 1, std::memory_order_release);

  IndexTable* table = index_.load(std::memory_order_relaxed);
  const size_t live = static_cast<size_t>(id) + 1;
  if (table == nullptr || live * 4 >= (table->mask + 1) * 3) {
    GrowIndex(live);
    table = index_.load(std::memory_order_relaxed);
  }
  InsertSlot(table, HashName(name), id);
  return Symbol(id);
}

Symbol SymbolTable::Find(std::string_view name) const {
  const IndexTable* table = index_.load(std::memory_order_acquire);
  if (table == nullptr) return Symbol();
  const uint64_t hash = HashName(name);
  const uint64_t tag = hash & kTagMask;
  size_t pos = static_cast<size_t>(hash) & table->mask;
  for (size_t i = 0; i <= table->mask; ++i, pos = (pos + 1) & table->mask) {
    const uint64_t slot = table->slots[pos].load(std::memory_order_acquire);
    // Slots fill in probe order and never empty, so an empty slot proves
    // the name is absent (from this reader's view of the table).
    if (slot == 0) return Symbol();
    if ((slot & kTagMask) != tag) continue;
    const uint32_t id = static_cast<uint32_t>(slot) - 1;
    if (NameUnchecked(id) == name) return Symbol(id);
  }
  return Symbol();
}

const std::string& SymbolTable::NameOf(Symbol s) const {
  if (!s.valid() || s.id() >= size_.load(std::memory_order_acquire)) {
    return kEmptyString;
  }
  return NameUnchecked(s.id());
}

std::vector<Symbol> SymbolTable::ByName(std::vector<Symbol> symbols) const {
  std::sort(symbols.begin(), symbols.end(), [this](Symbol a, Symbol b) {
    return NameOf(a) < NameOf(b);
  });
  return symbols;
}

void FlatParamMap::Set(Symbol key, Value value) {
  Entry* base = data();
  Entry* pos = std::lower_bound(
      base, base + size_, key,
      [](const Entry& e, Symbol k) { return e.key < k; });
  if (pos != base + size_ && pos->key == key) {
    pos->value = value;
    return;
  }
  size_t idx = static_cast<size_t>(pos - base);
  if (size_ < kInlineCapacity) {
    std::copy_backward(pos, base + size_, base + size_ + 1);
    *pos = Entry{key, value};
  } else {
    if (size_ == kInlineCapacity) {
      heap_.reserve(kInlineCapacity + 1);
      heap_.assign(inline_.begin(), inline_.end());
    }
    heap_.insert(heap_.begin() + static_cast<ptrdiff_t>(idx),
                 Entry{key, value});
  }
  ++size_;
}

const Value* FlatParamMap::Find(Symbol key) const {
  const Entry* base = data();
  const Entry* pos = std::lower_bound(
      base, base + size_, key,
      [](const Entry& e, Symbol k) { return e.key < k; });
  if (pos != base + size_ && pos->key == key) return &pos->value;
  return nullptr;
}

const Value& FlatParamMap::Get(Symbol key) const {
  const Value* v = Find(key);
  return v ? *v : kNullValue;
}

bool FlatParamMap::ContainsAll(const FlatParamMap& sub) const {
  // Both sides are sorted by key: a single merge pass suffices.
  const Entry* mine = begin();
  const Entry* mine_end = end();
  for (const Entry& want : sub) {
    while (mine != mine_end && mine->key < want.key) ++mine;
    if (mine == mine_end || !(mine->key == want.key) ||
        !(mine->value == want.value)) {
      return false;
    }
  }
  return true;
}

void FlatParamMap::MergeFrom(const FlatParamMap& overlay) {
  for (const Entry& e : overlay) Set(e.key, e.value);
}

std::string FlatParamMap::ToString(const SymbolTable& symbols) const {
  // Render sorted by key *name*, so equal content renders the same
  // whatever the intern order.
  std::map<std::string_view, const Value*> by_name;
  for (const Entry& e : *this) by_name[symbols.NameOf(e.key)] = &e.value;
  std::ostringstream os;
  os << '{';
  bool first = true;
  for (const auto& [name, value] : by_name) {
    if (!first) os << ", ";
    first = false;
    os << name << '=';
    if (value->is_symbol()) {
      os << '"' << symbols.NameOf(value->AsSymbol()) << '"';
    } else {
      os << value->ToString();
    }
  }
  os << '}';
  return os.str();
}

}  // namespace sentinel
