#include "rules/rule.h"

#include <sstream>

#include "event/event_detector.h"

namespace sentinel {

const char* RuleClassToString(RuleClass cls) {
  switch (cls) {
    case RuleClass::kAdministrative:
      return "administrative";
    case RuleClass::kActivityControl:
      return "activity-control";
    case RuleClass::kActiveSecurity:
      return "active-security";
  }
  return "unknown";
}

const char* RuleGranularityToString(RuleGranularity granularity) {
  switch (granularity) {
    case RuleGranularity::kSpecialized:
      return "specialized";
    case RuleGranularity::kLocalized:
      return "localized";
    case RuleGranularity::kGlobalized:
      return "globalized";
  }
  return "unknown";
}

namespace {
const std::string kEmptyParam;
}  // namespace

const std::string& RuleContext::ParamString(Symbol key) const {
  if (detector == nullptr) return kEmptyParam;
  return detector->symbols().NameOf(ParamSym(key));
}

Symbol RuleContext::ParamSym(Symbol key) const {
  if (occurrence == nullptr) return Symbol();
  const Value* v = occurrence->params.Find(key);
  return v == nullptr ? Symbol() : v->AsSymbol();
}

int64_t RuleContext::ParamInt(Symbol key) const {
  if (occurrence == nullptr) return 0;
  const Value* v = occurrence->params.Find(key);
  return v == nullptr ? 0 : v->AsInt();
}

bool RuleContext::ParamBool(Symbol key) const {
  if (occurrence == nullptr) return false;
  const Value* v = occurrence->params.Find(key);
  return v == nullptr ? false : v->AsBool();
}

bool RuleContext::HasParam(Symbol key) const {
  return occurrence != nullptr && occurrence->params.Contains(key);
}

Rule::Rule(std::string name, EventId event)
    : Rule(std::move(name), event, Options()) {}

Rule::Rule(std::string name, EventId event, Options options)
    : name_(std::move(name)), event_(event), options_(options) {}

Rule& Rule::When(std::string label, Condition condition) {
  conditions_.push_back({std::move(label), std::move(condition)});
  return *this;
}

Rule& Rule::Then(std::string label, Action action) {
  then_actions_.push_back({std::move(label), std::move(action)});
  return *this;
}

Rule& Rule::Else(std::string label, Action action) {
  else_actions_.push_back({std::move(label), std::move(action)});
  return *this;
}

bool Rule::Fire(RuleContext& ctx) {
  ++fired_count_;
  bool all_true = true;
  const std::string* failed = nullptr;
  for (const NamedCondition& cond : conditions_) {
    if (!cond.fn(ctx)) {
      all_true = false;
      failed = &cond.label;
      break;  // Short-circuit conjunction, left to right.
    }
  }
  if (all_true) {
    ++condition_true_count_;
    for (const NamedAction& action : then_actions_) action.fn(ctx);
  } else {
    ctx.failed_condition = failed;
    for (const NamedAction& action : else_actions_) action.fn(ctx);
    ctx.failed_condition = nullptr;
  }
  return all_true;
}

std::string Rule::Describe(const std::string& event_name) const {
  std::ostringstream os;
  os << "RULE [ " << name_ << "  (" << RuleClassToString(options_.cls) << ", "
     << RuleGranularityToString(options_.granularity)
     << ", priority=" << options_.priority
     << (options_.enabled ? "" : ", DISABLED") << ")\n";
  os << "  ON    " << event_name << '\n';
  if (conditions_.empty()) {
    os << "  WHEN  TRUE\n";
  } else {
    for (size_t i = 0; i < conditions_.size(); ++i) {
      os << (i == 0 ? "  WHEN  " : "     && ") << conditions_[i].label << '\n';
    }
  }
  for (size_t i = 0; i < then_actions_.size(); ++i) {
    os << (i == 0 ? "  THEN  " : "        ") << '<' << then_actions_[i].label
       << ">\n";
  }
  for (size_t i = 0; i < else_actions_.size(); ++i) {
    os << (i == 0 ? "  ELSE  " : "        ") << '<' << else_actions_[i].label
       << ">\n";
  }
  os << "]";
  return os.str();
}

}  // namespace sentinel
