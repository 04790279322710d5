#include "baseline/trbac_baseline.h"

namespace sentinel {

void TrbacBaseline::AddEnablingTrigger(const RoleName& role,
                                       const PeriodicExpression& period) {
  const size_t index = triggers_.size();
  triggers_.push_back(Trigger{role, period});
  const Time now = clock_->Now();
  if (period.Contains(now)) {
    state_.Enable(role);
  } else {
    state_.Disable(role);
  }
  if (auto start = period.NextWindowStart(now)) {
    queue_.push(Firing{*start, next_seq_++, index, true});
  }
  if (auto end = period.NextWindowEnd(now)) {
    queue_.push(Firing{*end, next_seq_++, index, false});
  }
}

void TrbacBaseline::AdvanceTo(Time t) {
  while (!queue_.empty() && queue_.top().when <= t) {
    const Firing firing = queue_.top();
    queue_.pop();
    clock_->SetTime(firing.when);
    const Trigger& trigger = triggers_[firing.trigger_index];
    if (firing.is_start) {
      state_.Enable(trigger.role);
    } else {
      state_.Disable(trigger.role);
    }
    ++firings_;
    const auto next = firing.is_start
                          ? trigger.period.NextWindowStart(firing.when)
                          : trigger.period.NextWindowEnd(firing.when);
    if (next.has_value()) {
      queue_.push(Firing{*next, next_seq_++, firing.trigger_index,
                         firing.is_start});
    }
  }
  clock_->SetTime(t);
}

}  // namespace sentinel
