#include "event/operator_node.h"

#include <algorithm>
#include <cassert>

namespace sentinel {

FlatParamMap OperatorNode::MergeParams(FlatParamMap base,
                                       const FlatParamMap& overlay) {
  base.MergeFrom(overlay);  // Overlay (later constituent) wins.
  return base;
}

void OperatorNode::Emit(Time start, Time end, FlatParamMap params,
                        EventId source) {
  Occurrence occ;
  occ.event = id_;
  occ.source = source;
  occ.start = start;
  occ.end = end;
  occ.seq = ctx_->NextSeq();
  occ.params = std::move(params);
  ctx_->EmitDetected(std::move(occ));
}

// ---------------------------------------------------------------- Filter

void FilterNode::OnChild(int slot, const Occurrence& occ) {
  (void)slot;
  if (!occ.params.ContainsAll(def_->filter)) return;
  Emit(occ.start, occ.end, occ.params, occ.source);
}

// -------------------------------------------------------------------- OR

void OrNode::OnChild(int slot, const Occurrence& occ) {
  (void)slot;
  Emit(occ.start, occ.end, occ.params, occ.source);
}

// ------------------------------------------------------------------- AND

void AndNode::Pair(const Occurrence& stored, const Occurrence& fresh) {
  // Parameters merge in arrival order: the stored (earlier) occurrence
  // first, the fresh (detecting) one winning conflicts.
  Emit(std::min(stored.start, fresh.start), fresh.end,
       MergeParams(stored.params, fresh.params), fresh.source);
}

void AndNode::OnChild(int slot, const Occurrence& occ) {
  assert(slot == 0 || slot == 1);
  std::deque<Occurrence>& mine = side_[slot];
  std::deque<Occurrence>& other = side_[1 - slot];

  switch (def_->mode) {
    case ConsumptionMode::kRecent:
      if (!other.empty()) Pair(other.back(), occ);
      mine.clear();
      mine.push_back(occ);
      break;
    case ConsumptionMode::kChronicle:
      if (!other.empty()) {
        Pair(other.front(), occ);
        other.pop_front();
      } else {
        mine.push_back(occ);
      }
      break;
    case ConsumptionMode::kContinuous:
      if (!other.empty()) {
        for (const Occurrence& partner : other) Pair(partner, occ);
        other.clear();
      } else {
        mine.push_back(occ);
      }
      break;
    case ConsumptionMode::kCumulative:
      if (!other.empty()) {
        FlatParamMap merged;
        Time start = occ.start;
        for (const Occurrence& partner : other) {
          merged = MergeParams(std::move(merged), partner.params);
          start = std::min(start, partner.start);
        }
        merged = MergeParams(std::move(merged), occ.params);
        other.clear();
        Emit(start, occ.end, std::move(merged), occ.source);
      } else {
        mine.push_back(occ);
      }
      break;
  }
}

// ------------------------------------------------------------------- SEQ

void SeqNode::Pair(const Occurrence& left, const Occurrence& right) {
  Emit(left.start, right.end, MergeParams(left.params, right.params),
       right.source);
}

void SeqNode::OnChild(int slot, const Occurrence& occ) {
  if (slot == 0) {
    if (def_->mode == ConsumptionMode::kRecent) lefts_.clear();
    lefts_.push_back(occ);
    return;
  }

  switch (def_->mode) {
    case ConsumptionMode::kRecent:
      if (!lefts_.empty() && StrictlyBefore(lefts_.back(), occ)) {
        Pair(lefts_.back(), occ);  // Initiator retained in recent mode.
      }
      break;
    case ConsumptionMode::kChronicle: {
      for (auto it = lefts_.begin(); it != lefts_.end(); ++it) {
        if (StrictlyBefore(*it, occ)) {
          Pair(*it, occ);
          lefts_.erase(it);
          break;
        }
      }
      break;
    }
    case ConsumptionMode::kContinuous: {
      std::deque<Occurrence> keep;
      for (const Occurrence& left : lefts_) {
        if (StrictlyBefore(left, occ)) {
          Pair(left, occ);
        } else {
          keep.push_back(left);
        }
      }
      lefts_.swap(keep);
      break;
    }
    case ConsumptionMode::kCumulative: {
      FlatParamMap merged;
      Time start = occ.start;
      bool any = false;
      std::deque<Occurrence> keep;
      for (const Occurrence& left : lefts_) {
        if (StrictlyBefore(left, occ)) {
          merged = MergeParams(std::move(merged), left.params);
          start = std::min(start, left.start);
          any = true;
        } else {
          keep.push_back(left);
        }
      }
      if (any) {
        lefts_.swap(keep);
        merged = MergeParams(std::move(merged), occ.params);
        Emit(start, occ.end, std::move(merged), occ.source);
      }
      break;
    }
  }
}

// ------------------------------------------------------------------- NOT

void NotNode::OnChild(int slot, const Occurrence& occ) {
  switch (slot) {
    case 0:  // Initiator.
      if (def_->mode == ConsumptionMode::kRecent) windows_.clear();
      windows_.push_back(occ);
      break;
    case 1:  // Middle: every open window now contains a B.
      windows_.clear();
      break;
    case 2: {  // Terminator.
      switch (def_->mode) {
        case ConsumptionMode::kRecent:
          if (!windows_.empty() && StrictlyBefore(windows_.back(), occ)) {
            const Occurrence& a = windows_.back();
            Emit(a.start, occ.end, MergeParams(a.params, occ.params),
                 occ.source);
          }
          break;
        case ConsumptionMode::kChronicle:
          if (!windows_.empty() && StrictlyBefore(windows_.front(), occ)) {
            const Occurrence a = windows_.front();
            windows_.pop_front();
            Emit(a.start, occ.end, MergeParams(a.params, occ.params),
                 occ.source);
          }
          break;
        case ConsumptionMode::kContinuous:
          for (const Occurrence& a : windows_) {
            if (StrictlyBefore(a, occ)) {
              Emit(a.start, occ.end, MergeParams(a.params, occ.params),
                   occ.source);
            }
          }
          windows_.clear();
          break;
        case ConsumptionMode::kCumulative: {
          FlatParamMap merged;
          Time start = occ.start;
          bool any = false;
          for (const Occurrence& a : windows_) {
            if (StrictlyBefore(a, occ)) {
              merged = MergeParams(std::move(merged), a.params);
              start = std::min(start, a.start);
              any = true;
            }
          }
          windows_.clear();
          if (any) {
            merged = MergeParams(std::move(merged), occ.params);
            Emit(start, occ.end, std::move(merged), occ.source);
          }
          break;
        }
      }
      break;
    }
    default:
      break;
  }
}

// ------------------------------------------------------------------ PLUS

void PlusNode::OnChild(int slot, const Occurrence& occ) {
  (void)slot;
  const Time when = occ.end + def_->duration;
  const TimerId id = ctx_->ScheduleTimer(
      when, [this](TimerId timer_id, Time fire_time) {
        auto it = pending_.find(timer_id);
        if (it == pending_.end()) return;
        const Occurrence init = std::move(it->second);
        pending_.erase(it);
        Unfile(timer_id, init.params);
        Emit(init.start, fire_time, init.params, id_);
      });
  pending_.emplace(id, occ);
  const uint32_t bucket = BucketOf(occ.params);
  if (bucket != Symbol::kInvalidId) buckets_[bucket].push_back(id);
}

uint32_t PlusNode::BucketOf(const FlatParamMap& params) const {
  if (!def_->cancel_key.valid()) return Symbol::kInvalidId;
  const Value* value = params.Find(def_->cancel_key);
  if (value == nullptr || !value->is_symbol()) return Symbol::kInvalidId;
  return value->AsSymbol().id();
}

void PlusNode::Unfile(TimerId id, const FlatParamMap& params) {
  const uint32_t bucket = BucketOf(params);
  if (bucket == Symbol::kInvalidId) return;
  auto it = buckets_.find(bucket);
  assert(it != buckets_.end());
  std::vector<TimerId>& ids = it->second;
  ids.erase(std::find(ids.begin(), ids.end(), id));
  if (ids.empty()) buckets_.erase(it);
}

int PlusNode::CancelMatching(const FlatParamMap& match) {
  int cancelled = 0;
  const uint32_t bucket = BucketOf(match);
  if (bucket != Symbol::kInvalidId) {
    auto it = buckets_.find(bucket);
    if (it == buckets_.end()) return 0;
    std::vector<TimerId>& ids = it->second;
    for (size_t i = 0; i < ids.size();) {
      auto entry = pending_.find(ids[i]);
      if (!entry->second.params.ContainsAll(match)) {
        ++i;
        continue;
      }
      ctx_->CancelTimer(ids[i]);
      pending_.erase(entry);
      ids[i] = ids.back();
      ids.pop_back();
      ++cancelled;
    }
    if (ids.empty()) buckets_.erase(it);
    return cancelled;
  }
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->second.params.ContainsAll(match)) {
      ctx_->CancelTimer(it->first);
      Unfile(it->first, it->second.params);
      it = pending_.erase(it);
      ++cancelled;
    } else {
      ++it;
    }
  }
  return cancelled;
}

// ------------------------------------------------------------- APERIODIC

void AperiodicNode::EmitMiddle(const Window& w, const Occurrence& middle) {
  Emit(w.init.start, middle.end, MergeParams(w.init.params, middle.params),
       middle.source);
}

void AperiodicNode::EmitStarClose(const Window& w, const Occurrence& term) {
  FlatParamMap params = MergeParams(w.init.params, w.accumulated);
  params = MergeParams(std::move(params), term.params);
  params.Set(ctx_->symbols().Intern("_count"), Value(w.count));
  Emit(w.init.start, term.end, std::move(params), term.source);
}

void AperiodicNode::OnChild(int slot, const Occurrence& occ) {
  switch (slot) {
    case 0:  // Initiator opens a window.
      if (def_->mode == ConsumptionMode::kRecent) windows_.clear();
      windows_.push_back(Window{occ, {}, 0});
      break;
    case 1:  // Middle.
      if (windows_.empty()) return;
      if (star_) {
        // Accumulate into every open window; emission happens at close.
        for (Window& w : windows_) {
          if (!StrictlyBefore(w.init, occ)) continue;
          w.accumulated = MergeParams(std::move(w.accumulated), occ.params);
          ++w.count;
        }
        return;
      }
      switch (def_->mode) {
        case ConsumptionMode::kRecent:
          if (StrictlyBefore(windows_.back().init, occ)) {
            EmitMiddle(windows_.back(), occ);
          }
          break;
        case ConsumptionMode::kChronicle:
          if (StrictlyBefore(windows_.front().init, occ)) {
            EmitMiddle(windows_.front(), occ);
          }
          break;
        case ConsumptionMode::kContinuous:
        case ConsumptionMode::kCumulative: {
          if (def_->mode == ConsumptionMode::kContinuous) {
            for (const Window& w : windows_) {
              if (StrictlyBefore(w.init, occ)) EmitMiddle(w, occ);
            }
          } else {
            FlatParamMap merged;
            Time start = occ.start;
            bool any = false;
            for (const Window& w : windows_) {
              if (!StrictlyBefore(w.init, occ)) continue;
              merged = MergeParams(std::move(merged), w.init.params);
              start = std::min(start, w.init.start);
              any = true;
            }
            if (any) {
              merged = MergeParams(std::move(merged), occ.params);
              Emit(start, occ.end, std::move(merged), occ.source);
            }
          }
          break;
        }
      }
      break;
    case 2: {  // Terminator closes window(s).
      if (windows_.empty()) return;
      switch (def_->mode) {
        case ConsumptionMode::kRecent:
          if (star_) EmitStarClose(windows_.back(), occ);
          windows_.clear();
          break;
        case ConsumptionMode::kChronicle:
          if (star_) EmitStarClose(windows_.front(), occ);
          windows_.pop_front();
          break;
        case ConsumptionMode::kContinuous:
        case ConsumptionMode::kCumulative:
          if (star_) {
            for (const Window& w : windows_) EmitStarClose(w, occ);
          }
          windows_.clear();
          break;
      }
      break;
    }
    default:
      break;
  }
}

// -------------------------------------------------------------- PERIODIC

PeriodicNode::~PeriodicNode() {
  if (ctx_ == nullptr) return;
  for (Window& w : windows_) {
    if (w.timer != 0) ctx_->CancelTimer(w.timer);
  }
}

void PeriodicNode::OpenWindow(const Occurrence& init) {
  Window w;
  w.init = init;
  w.key = next_key_++;
  const uint64_t key = w.key;
  w.timer = ctx_->ScheduleTimer(init.end + def_->duration,
                                [this, key](TimerId, Time fire_time) {
                                  OnTick(key, fire_time);
                                });
  windows_.push_back(std::move(w));
}

void PeriodicNode::CloseWindow(size_t index, const Occurrence& term) {
  Window& w = windows_[index];
  if (w.timer != 0) ctx_->CancelTimer(w.timer);
  if (star_) {
    FlatParamMap params = MergeParams(w.init.params, term.params);
    params.Set(ctx_->symbols().Intern("_ticks"), Value(w.ticks));
    Emit(w.init.start, term.end, std::move(params), term.source);
  }
  windows_.erase(windows_.begin() + static_cast<ptrdiff_t>(index));
}

void PeriodicNode::OnTick(uint64_t key, Time fire_time) {
  for (Window& w : windows_) {
    if (w.key != key) continue;
    ++w.ticks;
    if (!star_) {
      Emit(fire_time, fire_time, w.init.params, id_);
    }
    w.timer = ctx_->ScheduleTimer(fire_time + def_->duration,
                                  [this, key](TimerId, Time t) {
                                    OnTick(key, t);
                                  });
    return;
  }
}

void PeriodicNode::Deactivate() {
  if (ctx_ != nullptr) {
    for (Window& w : windows_) {
      if (w.timer != 0) ctx_->CancelTimer(w.timer);
    }
  }
  windows_.clear();
}

void PeriodicNode::OnChild(int slot, const Occurrence& occ) {
  if (slot == 0) {  // Initiator.
    if (def_->mode == ConsumptionMode::kRecent) {
      while (!windows_.empty()) {
        if (windows_.back().timer != 0) ctx_->CancelTimer(windows_.back().timer);
        windows_.pop_back();
      }
    }
    OpenWindow(occ);
    return;
  }
  // Terminator.
  if (windows_.empty()) return;
  switch (def_->mode) {
    case ConsumptionMode::kRecent:
      CloseWindow(windows_.size() - 1, occ);
      break;
    case ConsumptionMode::kChronicle:
      CloseWindow(0, occ);
      break;
    case ConsumptionMode::kContinuous:
    case ConsumptionMode::kCumulative:
      while (!windows_.empty()) CloseWindow(windows_.size() - 1, occ);
      break;
  }
}

// -------------------------------------------------------------- ABSOLUTE

void AbsoluteNode::Initialize(NodeContext* ctx) {
  OperatorNode::Initialize(ctx);
  ScheduleNext(ctx->Now());
}

void AbsoluteNode::ScheduleNext(Time after) {
  if (dead_) return;
  const std::optional<Time> next = def_->pattern.NextMatchAfter(after);
  if (!next.has_value()) return;  // Pattern exhausted (concrete past date).
  ctx_->ScheduleTimer(*next, [this](TimerId, Time fire_time) {
    if (dead_) return;
    Emit(fire_time, fire_time, {}, id_);
    ScheduleNext(fire_time);
  });
}

// --------------------------------------------------------------- Factory

std::unique_ptr<OperatorNode> MakeOperatorNode(EventId id,
                                               const EventDef* def) {
  switch (def->kind) {
    case EventKind::kPrimitive:
      return std::make_unique<PrimitiveNode>(id, def);
    case EventKind::kFilter:
      return std::make_unique<FilterNode>(id, def);
    case EventKind::kAnd:
      return std::make_unique<AndNode>(id, def);
    case EventKind::kOr:
      return std::make_unique<OrNode>(id, def);
    case EventKind::kSeq:
      return std::make_unique<SeqNode>(id, def);
    case EventKind::kNot:
      return std::make_unique<NotNode>(id, def);
    case EventKind::kPlus:
      return std::make_unique<PlusNode>(id, def);
    case EventKind::kAperiodic:
    case EventKind::kAperiodicStar:
      return std::make_unique<AperiodicNode>(id, def);
    case EventKind::kPeriodic:
    case EventKind::kPeriodicStar:
      return std::make_unique<PeriodicNode>(id, def);
    case EventKind::kAbsolute:
      return std::make_unique<AbsoluteNode>(id, def);
  }
  return nullptr;
}

}  // namespace sentinel
