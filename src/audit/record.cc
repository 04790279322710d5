#include "audit/record.h"

#include <cctype>
#include <charconv>
#include <cstdlib>

namespace sentinel {
namespace audit {

namespace {

/// Copies every field of `r`, each text converted to `To`.
template <typename To, typename From>
BasicAuditRecord<To> Convert(const BasicAuditRecord<From>& r) {
  BasicAuditRecord<To> out;
  out.v = r.v;
  out.seq = r.seq;
  out.shard = r.shard;
  out.epoch = r.epoch;
  out.wall_us = r.wall_us;
  out.sim_us = r.sim_us;
  out.kind = To(r.kind);
  out.user = To(r.user);
  out.session = To(r.session);
  out.role = To(r.role);
  out.op = To(r.op);
  out.object = To(r.object);
  out.purpose = To(r.purpose);
  out.allowed = r.allowed;
  out.outcome = r.outcome;
  out.rule = To(r.rule);
  out.reason = To(r.reason);
  out.failed_condition = To(r.failed_condition);
  out.latency_us = r.latency_us;
  return out;
}

}  // namespace

std::string_view KindName(ServiceKind kind) {
  static constexpr std::string_view kNames[] = {
      "", "service.fastpath", "service.overload", "service.swap"};
  return kNames[static_cast<size_t>(kind)];
}

RecordView View(const AuditRecord& record) {
  return Convert<std::string_view>(record);
}

RecordView View(const QueuedRecord& record) {
  if (record.text != nullptr) return View(*record.text);
  const DecisionRecord& d = record.decision;
  const SymbolTable* symbols = record.symbols;
  const auto name = [symbols](Symbol s) -> std::string_view {
    return symbols == nullptr ? std::string_view() : symbols->NameOf(s);
  };
  RecordView view;
  view.seq = d.seq;
  view.shard = record.shard;
  view.epoch = record.epoch;
  view.wall_us = d.wall_us;
  view.sim_us = d.when;
  view.kind = record.kind == ServiceKind::kNone ? name(d.event)
                                                : KindName(record.kind);
  view.user = name(d.user);
  view.session = name(d.session);
  view.role = name(d.role);
  view.op = name(d.op);
  view.object = name(d.object);
  view.purpose = name(d.purpose);
  view.allowed = d.allowed;
  view.rule = name(d.rule);
  view.reason = name(d.reason);
  view.failed_condition = name(d.failed_condition);
  view.latency_us = d.latency_us;
  return view;
}

AuditRecord FromDecisionRecord(const DecisionRecord& record,
                               const SymbolTable& symbols, int shard,
                               uint64_t epoch) {
  return Convert<std::string>(
      View(QueuedRecord{record, &symbols, epoch, shard}));
}

namespace {

bool NeedsEscape(unsigned char c) { return c < 0x20 || c == '"' || c == '\\'; }

void AppendEscape(unsigned char c, std::string* out) {
  switch (c) {
    case '"':
      out->append("\\\"");
      break;
    case '\\':
      out->append("\\\\");
      break;
    case '\n':
      out->append("\\n");
      break;
    case '\r':
      out->append("\\r");
      break;
    case '\t':
      out->append("\\t");
      break;
    default: {
      static constexpr char kHex[] = "0123456789abcdef";
      out->append("\\u00");
      out->push_back(kHex[c >> 4]);
      out->push_back(kHex[c & 0xf]);
    }
  }
}

}  // namespace

void AppendJsonString(std::string_view s, std::string* out) {
  out->push_back('"');
  // Plain bytes go out in whole runs; only a byte that needs an escape
  // takes the per-byte path.
  size_t run = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (!NeedsEscape(c)) continue;
    out->append(s.data() + run, i - run);
    AppendEscape(c, out);
    run = i + 1;
  }
  out->append(s.data() + run, s.size() - run);
  out->push_back('"');
}

namespace {

// Each `key` below is the literal text before a value: separator, quoted
// name and colon, so a fixed key costs one append.

template <typename Int>
void AppendNumber(std::string_view key, Int value, std::string* out) {
  out->append(key);
  char digits[24];
  const char* end = std::to_chars(digits, digits + sizeof(digits), value).ptr;
  out->append(digits, static_cast<size_t>(end - digits));
}

void AppendStringIf(std::string_view key, std::string_view value,
                    std::string* out) {
  if (value.empty()) return;
  out->append(key);
  AppendJsonString(value, out);
}

}  // namespace

void AppendJsonLine(const RecordView& record, std::string* out) {
  AppendNumber("{\"v\":", record.v, out);
  AppendNumber(",\"seq\":", record.seq, out);
  AppendNumber(",\"shard\":", record.shard, out);
  AppendNumber(",\"epoch\":", record.epoch, out);
  AppendNumber(",\"wall_us\":", record.wall_us, out);
  AppendNumber(",\"sim_us\":", record.sim_us, out);
  out->append(",\"kind\":");
  AppendJsonString(record.kind, out);
  AppendStringIf(",\"user\":", record.user, out);
  AppendStringIf(",\"session\":", record.session, out);
  AppendStringIf(",\"role\":", record.role, out);
  AppendStringIf(",\"op\":", record.op, out);
  AppendStringIf(",\"obj\":", record.object, out);
  AppendStringIf(",\"purpose\":", record.purpose, out);
  out->append(record.allowed ? ",\"allowed\":true" : ",\"allowed\":false");
  if (record.outcome != 0) {
    AppendNumber(",\"outcome\":", record.outcome, out);
  }
  AppendStringIf(",\"rule\":", record.rule, out);
  AppendStringIf(",\"reason\":", record.reason, out);
  AppendStringIf(",\"failed_condition\":", record.failed_condition, out);
  if (record.latency_us != 0) {
    AppendNumber(",\"latency_us\":", record.latency_us, out);
  }
  out->append("}\n");
}

namespace {

// Hand-rolled flat-object scanner: the schema is one level deep with
// string / integer / boolean values only, so a full JSON library would be
// dead weight — but escapes (including \uXXXX) must decode exactly, since
// policy names are user-controlled.
class LineParser {
 public:
  LineParser(std::string_view line, std::string* error)
      : p_(line.data()), end_(line.data() + line.size()), error_(error) {}

  bool Parse(AuditRecord* out) {
    SkipSpace();
    if (!Consume('{')) return Fail("expected '{'");
    SkipSpace();
    if (Consume('}')) return AtEnd();
    while (true) {
      std::string key;
      SkipSpace();
      if (!ParseString(&key)) return false;
      SkipSpace();
      if (!Consume(':')) return Fail("expected ':'");
      SkipSpace();
      if (!ParseValue(key, out)) return false;
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume('}')) return AtEnd();
      return Fail("expected ',' or '}'");
    }
  }

 private:
  bool AtEnd() {
    SkipSpace();
    if (p_ != end_) return Fail("trailing content after object");
    return true;
  }

  bool Fail(const char* what) {
    if (error_ != nullptr) *error_ = what;
    return false;
  }

  void SkipSpace() {
    while (p_ != end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      ++p_;
    }
  }

  bool Consume(char c) {
    if (p_ == end_ || *p_ != c) return false;
    ++p_;
    return true;
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool ParseHex4(uint32_t* out) {
    if (end_ - p_ < 4) return Fail("truncated \\u escape");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = *p_++;
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Fail("bad hex digit in \\u escape");
      }
    }
    *out = value;
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return Fail("expected '\"'");
    out->clear();
    while (true) {
      if (p_ == end_) return Fail("unterminated string");
      const char c = *p_++;
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (p_ == end_) return Fail("truncated escape");
      const char e = *p_++;
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          uint32_t cp = 0;
          if (!ParseHex4(&cp)) return false;
          // Surrogate pair: a high surrogate must be chased by \uDC00..DFFF.
          if (cp >= 0xD800 && cp <= 0xDBFF && end_ - p_ >= 6 &&
              p_[0] == '\\' && p_[1] == 'u') {
            const char* mark = p_;
            p_ += 2;
            uint32_t low = 0;
            if (!ParseHex4(&low)) return false;
            if (low >= 0xDC00 && low <= 0xDFFF) {
              cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
            } else {
              p_ = mark;  // Not a pair; emit the lone surrogate as-is.
            }
          }
          AppendUtf8(cp, out);
          break;
        }
        default:
          return Fail("unknown escape");
      }
    }
  }

  bool ParseValue(const std::string& key, AuditRecord* out) {
    if (p_ == end_) return Fail("missing value");
    if (*p_ == '"') {
      std::string value;
      if (!ParseString(&value)) return false;
      if (key == "kind") out->kind = std::move(value);
      else if (key == "user") out->user = std::move(value);
      else if (key == "session") out->session = std::move(value);
      else if (key == "role") out->role = std::move(value);
      else if (key == "op") out->op = std::move(value);
      else if (key == "obj") out->object = std::move(value);
      else if (key == "purpose") out->purpose = std::move(value);
      else if (key == "rule") out->rule = std::move(value);
      else if (key == "reason") out->reason = std::move(value);
      else if (key == "failed_condition") out->failed_condition = std::move(value);
      // Unknown string key: ignored (add-only schema).
      return true;
    }
    if (*p_ == 't' || *p_ == 'f') {
      const bool value = *p_ == 't';
      const std::string_view want = value ? "true" : "false";
      if (static_cast<size_t>(end_ - p_) < want.size() ||
          std::string_view(p_, want.size()) != want) {
        return Fail("bad literal");
      }
      p_ += want.size();
      if (key == "allowed") out->allowed = value;
      return true;
    }
    // Number (integers only in this schema; tolerate a sign).
    const char* start = p_;
    if (p_ != end_ && (*p_ == '-' || *p_ == '+')) ++p_;
    while (p_ != end_ && std::isdigit(static_cast<unsigned char>(*p_))) ++p_;
    if (p_ == start || (p_ - start == 1 && !std::isdigit(
                            static_cast<unsigned char>(*start)))) {
      return Fail("bad value");
    }
    const int64_t value = std::strtoll(std::string(start, p_).c_str(),
                                       nullptr, 10);
    if (key == "v") out->v = static_cast<int>(value);
    else if (key == "seq") out->seq = static_cast<uint64_t>(value);
    else if (key == "shard") out->shard = static_cast<int>(value);
    else if (key == "epoch") out->epoch = static_cast<uint64_t>(value);
    else if (key == "wall_us") out->wall_us = value;
    else if (key == "sim_us") out->sim_us = value;
    else if (key == "outcome") out->outcome = static_cast<int>(value);
    else if (key == "latency_us") out->latency_us = value;
    // Unknown numeric key: ignored (add-only schema).
    return true;
  }

  const char* p_;
  const char* end_;
  std::string* error_;
};

}  // namespace

bool ParseJsonLine(std::string_view line, AuditRecord* out,
                   std::string* error) {
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.remove_suffix(1);
  }
  *out = AuditRecord();
  return LineParser(line, error).Parse(out);
}

}  // namespace audit
}  // namespace sentinel
