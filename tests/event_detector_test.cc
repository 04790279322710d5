#include "event/event_detector.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/calendar.h"
#include "tests/test_util.h"

namespace sentinel {
namespace {

class EventDetectorTest : public ::testing::Test {
 protected:
  EventDetectorTest() : clock_(testutil::Noon()), detector_(&clock_) {}

  EventId Prim(const std::string& name) {
    return *detector_.DefinePrimitive(name);
  }

  /// Subscribes and appends every occurrence of `event` to `log_`.
  void Watch(EventId event) {
    detector_.Subscribe(event, [this](const Occurrence& occ) {
      log_.push_back(occ);
    });
  }

  void Raise(EventId event, FlatParamMap params = {}) {
    ASSERT_TRUE(detector_.Raise(event, std::move(params)).ok());
  }

  Symbol Sym(const std::string& name) {
    return detector_.symbols().Intern(name);
  }

  /// A name-valued parameter: the interned symbol, as the engine raises it.
  Value Name(const std::string& name) { return Value(Sym(name)); }

  SimulatedClock clock_;
  EventDetector detector_;
  std::vector<Occurrence> log_;
};

TEST_F(EventDetectorTest, PrimitiveRaiseNotifiesSubscribers) {
  const EventId e = Prim("e");
  Watch(e);
  Raise(e, {{Sym("k"), Name("v")}});
  ASSERT_EQ(log_.size(), 1u);
  EXPECT_EQ(log_[0].event, e);
  EXPECT_EQ(log_[0].source, e);
  EXPECT_EQ(log_[0].start, testutil::Noon());
  EXPECT_EQ(log_[0].end, testutil::Noon());
  EXPECT_EQ(log_[0].params.Get(Sym("k")), Name("v"));
}

TEST_F(EventDetectorTest, RaiseRejectsCompositeAndUnknown) {
  const EventId a = Prim("a");
  const EventId or_ev = *detector_.DefineOr("or", {a});
  EXPECT_FALSE(detector_.Raise(or_ev, {}).ok());
  EXPECT_FALSE(detector_.Raise(999, {}).ok());
  EXPECT_FALSE(detector_.Lookup("nope").ok());
}

TEST_F(EventDetectorTest, DuplicateNameRejected) {
  Prim("dup");
  EXPECT_FALSE(detector_.DefinePrimitive("dup").ok());
}

TEST_F(EventDetectorTest, UnsubscribeStopsDelivery) {
  const EventId e = Prim("e");
  int count = 0;
  const SubscriptionId sub =
      detector_.Subscribe(e, [&](const Occurrence&) { ++count; });
  Raise(e);
  detector_.Unsubscribe(e, sub);
  Raise(e);
  EXPECT_EQ(count, 1);
}

// ------------------------------------------------------------- FILTER

TEST_F(EventDetectorTest, FilterPassesOnlyMatchingParams) {
  const EventId e = Prim("e");
  const EventId f =
      *detector_.DefineFilter("f", e, {{Sym("role"), Name("R1")}});
  Watch(f);
  Raise(e, {{Sym("role"), Name("R1")}, {Sym("user"), Name("bob")}});
  Raise(e, {{Sym("role"), Name("R2")}});
  Raise(e, {});  // Missing key.
  ASSERT_EQ(log_.size(), 1u);
  EXPECT_EQ(log_[0].params.Get(Sym("user")), Name("bob"));
}

TEST_F(EventDetectorTest, FilterChainsCompose) {
  const EventId e = Prim("e");
  const EventId f1 = *detector_.DefineFilter("f1", e, {{Sym("a"), Value(1)}});
  const EventId f2 = *detector_.DefineFilter("f2", f1, {{Sym("b"), Value(2)}});
  Watch(f2);
  Raise(e, {{Sym("a"), Value(1)}, {Sym("b"), Value(2)}});
  Raise(e, {{Sym("a"), Value(1)}, {Sym("b"), Value(3)}});
  EXPECT_EQ(log_.size(), 1u);
}

// ----------------------------------------------------------------- OR

TEST_F(EventDetectorTest, OrDetectsAnyAlternativeAndTracksSource) {
  const EventId a = Prim("a");
  const EventId b = Prim("b");
  const EventId or_ev = *detector_.DefineOr("or", {a, b});
  Watch(or_ev);
  Raise(a);
  Raise(b);
  ASSERT_EQ(log_.size(), 2u);
  EXPECT_EQ(log_[0].source, a);
  EXPECT_EQ(log_[1].source, b);
}

// ---------------------------------------------------------------- AND

TEST_F(EventDetectorTest, AndRecentPairsWithMostRecent) {
  const EventId a = Prim("a");
  const EventId b = Prim("b");
  const EventId and_ev =
      *detector_.DefineAnd("and", a, b, ConsumptionMode::kRecent);
  Watch(and_ev);
  Raise(a, {{Sym("x"), Value(1)}});
  Raise(a, {{Sym("x"), Value(2)}});
  Raise(b, {{Sym("y"), Value(9)}});
  ASSERT_EQ(log_.size(), 1u);
  EXPECT_EQ(log_[0].params.Get(Sym("x")), Value(2));  // Most recent a.
  EXPECT_EQ(log_[0].params.Get(Sym("y")), Value(9));
  // Recent keeps the initiator: another b pairs again.
  Raise(b);
  EXPECT_EQ(log_.size(), 2u);
}

TEST_F(EventDetectorTest, AndChroniclePairsFifoAndConsumes) {
  const EventId a = Prim("a");
  const EventId b = Prim("b");
  const EventId and_ev =
      *detector_.DefineAnd("and", a, b, ConsumptionMode::kChronicle);
  Watch(and_ev);
  Raise(a, {{Sym("x"), Value(1)}});
  Raise(a, {{Sym("x"), Value(2)}});
  Raise(b);
  ASSERT_EQ(log_.size(), 1u);
  EXPECT_EQ(log_[0].params.Get(Sym("x")), Value(1));  // Oldest a.
  Raise(b);
  ASSERT_EQ(log_.size(), 2u);
  EXPECT_EQ(log_[1].params.Get(Sym("x")), Value(2));
  Raise(b);  // No a left: b queues on its own side.
  EXPECT_EQ(log_.size(), 2u);
}

TEST_F(EventDetectorTest, AndContinuousPairsWithAllAndConsumes) {
  const EventId a = Prim("a");
  const EventId b = Prim("b");
  const EventId and_ev =
      *detector_.DefineAnd("and", a, b, ConsumptionMode::kContinuous);
  Watch(and_ev);
  Raise(a, {{Sym("x"), Value(1)}});
  Raise(a, {{Sym("x"), Value(2)}});
  Raise(b);
  EXPECT_EQ(log_.size(), 2u);
  Raise(b);  // All consumed.
  EXPECT_EQ(log_.size(), 2u);
}

TEST_F(EventDetectorTest, AndCumulativeMergesAll) {
  const EventId a = Prim("a");
  const EventId b = Prim("b");
  const EventId and_ev =
      *detector_.DefineAnd("and", a, b, ConsumptionMode::kCumulative);
  Watch(and_ev);
  Raise(a, {{Sym("x"), Value(1)}});
  Raise(a, {{Sym("y"), Value(2)}});
  Raise(b, {{Sym("z"), Value(3)}});
  ASSERT_EQ(log_.size(), 1u);
  EXPECT_EQ(log_[0].params.Get(Sym("x")), Value(1));
  EXPECT_EQ(log_[0].params.Get(Sym("y")), Value(2));
  EXPECT_EQ(log_[0].params.Get(Sym("z")), Value(3));
}

TEST_F(EventDetectorTest, AndEitherOrderDetects) {
  const EventId a = Prim("a");
  const EventId b = Prim("b");
  const EventId and_ev = *detector_.DefineAnd("and", a, b);
  Watch(and_ev);
  Raise(b);
  Raise(a);
  EXPECT_EQ(log_.size(), 1u);
}

// ---------------------------------------------------------------- SEQ

TEST_F(EventDetectorTest, SeqRequiresOrder) {
  const EventId a = Prim("a");
  const EventId b = Prim("b");
  const EventId seq = *detector_.DefineSeq("seq", a, b);
  Watch(seq);
  Raise(b);  // b before any a: nothing.
  EXPECT_EQ(log_.size(), 0u);
  Raise(a);
  clock_.Advance(kSecond);
  Raise(b);
  ASSERT_EQ(log_.size(), 1u);
  EXPECT_EQ(log_[0].start, testutil::Noon());
  EXPECT_EQ(log_[0].end, testutil::Noon() + kSecond);
}

TEST_F(EventDetectorTest, SeqSameInstantUsesSequenceNumbers) {
  const EventId a = Prim("a");
  const EventId b = Prim("b");
  const EventId seq = *detector_.DefineSeq("seq", a, b);
  Watch(seq);
  Raise(a);
  Raise(b);  // Same simulated instant, later seq: still "after".
  EXPECT_EQ(log_.size(), 1u);
}

TEST_F(EventDetectorTest, SeqChronicleConsumesOldestEligible) {
  const EventId a = Prim("a");
  const EventId b = Prim("b");
  const EventId seq =
      *detector_.DefineSeq("seq", a, b, ConsumptionMode::kChronicle);
  Watch(seq);
  Raise(a, {{Sym("x"), Value(1)}});
  clock_.Advance(kSecond);
  Raise(a, {{Sym("x"), Value(2)}});
  clock_.Advance(kSecond);
  Raise(b);
  Raise(b);
  ASSERT_EQ(log_.size(), 2u);
  EXPECT_EQ(log_[0].params.Get(Sym("x")), Value(1));
  EXPECT_EQ(log_[1].params.Get(Sym("x")), Value(2));
}

TEST_F(EventDetectorTest, SeqContinuousDetectsPerInitiator) {
  const EventId a = Prim("a");
  const EventId b = Prim("b");
  const EventId seq =
      *detector_.DefineSeq("seq", a, b, ConsumptionMode::kContinuous);
  Watch(seq);
  Raise(a);
  Raise(a);
  clock_.Advance(kSecond);
  Raise(b);
  EXPECT_EQ(log_.size(), 2u);
}

// ---------------------------------------------------------------- NOT

TEST_F(EventDetectorTest, NotDetectsWhenMiddleAbsent) {
  const EventId a = Prim("a");
  const EventId b = Prim("b");
  const EventId c = Prim("c");
  const EventId not_ev = *detector_.DefineNot("not", a, b, c);
  Watch(not_ev);
  Raise(a);
  clock_.Advance(kSecond);
  Raise(c);
  EXPECT_EQ(log_.size(), 1u);
}

TEST_F(EventDetectorTest, NotSuppressedByMiddle) {
  const EventId a = Prim("a");
  const EventId b = Prim("b");
  const EventId c = Prim("c");
  const EventId not_ev = *detector_.DefineNot("not", a, b, c);
  Watch(not_ev);
  Raise(a);
  Raise(b);  // Middle occurred: window invalidated.
  Raise(c);
  EXPECT_EQ(log_.size(), 0u);
  // A fresh window works again.
  Raise(a);
  Raise(c);
  EXPECT_EQ(log_.size(), 1u);
}

TEST_F(EventDetectorTest, NotTerminatorWithoutInitiatorIgnored) {
  const EventId a = Prim("a");
  const EventId b = Prim("b");
  const EventId c = Prim("c");
  const EventId not_ev = *detector_.DefineNot("not", a, b, c);
  Watch(not_ev);
  Raise(c);
  EXPECT_EQ(log_.size(), 0u);
}

// --------------------------------------------------------------- PLUS

TEST_F(EventDetectorTest, PlusFiresAfterDelta) {
  const EventId a = Prim("a");
  const EventId plus = *detector_.DefinePlus("plus", a, 5 * kSecond);
  Watch(plus);
  Raise(a, {{Sym("user"), Name("bob")}});
  detector_.AdvanceTo(testutil::Noon() + 4 * kSecond, &clock_);
  EXPECT_EQ(log_.size(), 0u);
  detector_.AdvanceTo(testutil::Noon() + 5 * kSecond, &clock_);
  ASSERT_EQ(log_.size(), 1u);
  EXPECT_EQ(log_[0].start, testutil::Noon());
  EXPECT_EQ(log_[0].end, testutil::Noon() + 5 * kSecond);
  EXPECT_EQ(log_[0].params.Get(Sym("user")), Name("bob"));
}

TEST_F(EventDetectorTest, PlusEachOccurrenceSchedulesItsOwnExpiry) {
  const EventId a = Prim("a");
  const EventId plus = *detector_.DefinePlus("plus", a, 10 * kSecond);
  Watch(plus);
  Raise(a, {{Sym("n"), Value(1)}});
  clock_.Advance(3 * kSecond);
  Raise(a, {{Sym("n"), Value(2)}});
  detector_.AdvanceTo(testutil::Noon() + kMinute, &clock_);
  ASSERT_EQ(log_.size(), 2u);
  EXPECT_EQ(log_[0].params.Get(Sym("n")), Value(1));
  EXPECT_EQ(log_[1].params.Get(Sym("n")), Value(2));
}

TEST_F(EventDetectorTest, PlusCancelByParamMatch) {
  const EventId a = Prim("a");
  const EventId plus = *detector_.DefinePlus("plus", a, 5 * kSecond);
  Watch(plus);
  Raise(a, {{Sym("session"), Name("s1")}});
  Raise(a, {{Sym("session"), Name("s2")}});
  auto cancelled = detector_.CancelPendingPlus(
      plus, {{Sym("session"), Name("s1")}});
  ASSERT_TRUE(cancelled.ok());
  EXPECT_EQ(*cancelled, 1);
  detector_.AdvanceTo(testutil::Noon() + kMinute, &clock_);
  ASSERT_EQ(log_.size(), 1u);
  EXPECT_EQ(log_[0].params.Get(Sym("session")), Name("s2"));
}

TEST_F(EventDetectorTest, PlusCancelKeyCancelsOnlyMatchesInItsBucket) {
  const EventId a = Prim("a");
  const EventId plus =
      *detector_.DefinePlus("plus", a, 5 * kSecond, Sym("session"));
  Watch(plus);
  Raise(a, {{Sym("session"), Name("s1")}, {Sym("role"), Name("r1")}});
  Raise(a, {{Sym("session"), Name("s1")}, {Sym("role"), Name("r2")}});
  Raise(a, {{Sym("session"), Name("s2")}, {Sym("role"), Name("r1")}});
  auto cancelled = detector_.CancelPendingPlus(
      plus, {{Sym("session"), Name("s1")}, {Sym("role"), Name("r1")}});
  ASSERT_TRUE(cancelled.ok());
  EXPECT_EQ(*cancelled, 1);
  detector_.AdvanceTo(testutil::Noon() + kMinute, &clock_);
  ASSERT_EQ(log_.size(), 2u);
  EXPECT_EQ(log_[0].params.Get(Sym("role")), Name("r2"));
  EXPECT_EQ(log_[1].params.Get(Sym("session")), Name("s2"));
}

TEST_F(EventDetectorTest, PlusCancelWithoutTheKeyScansEveryBucket) {
  const EventId a = Prim("a");
  const EventId plus =
      *detector_.DefinePlus("plus", a, 5 * kSecond, Sym("session"));
  Watch(plus);
  Raise(a, {{Sym("session"), Name("s1")}, {Sym("role"), Name("r1")}});
  Raise(a, {{Sym("session"), Name("s2")}, {Sym("role"), Name("r1")}});
  Raise(a, {{Sym("session"), Name("s2")}, {Sym("role"), Name("r2")}});
  Raise(a, {{Sym("role"), Name("r1")}});  // Binds no key: in no bucket.
  auto cancelled = detector_.CancelPendingPlus(
      plus, {{Sym("role"), Name("r1")}});
  ASSERT_TRUE(cancelled.ok());
  EXPECT_EQ(*cancelled, 3);
  // The scan kept the buckets in step: s2's bucket still cancels its rest.
  cancelled = detector_.CancelPendingPlus(plus, {{Sym("session"), Name("s2")}});
  ASSERT_TRUE(cancelled.ok());
  EXPECT_EQ(*cancelled, 1);
  detector_.AdvanceTo(testutil::Noon() + kMinute, &clock_);
  EXPECT_EQ(log_.size(), 0u);
}

TEST_F(EventDetectorTest, FiredPlusLeavesItsBucket) {
  const EventId a = Prim("a");
  const EventId plus =
      *detector_.DefinePlus("plus", a, 5 * kSecond, Sym("session"));
  Watch(plus);
  Raise(a, {{Sym("session"), Name("s1")}});
  detector_.AdvanceTo(testutil::Noon() + kMinute, &clock_);
  ASSERT_EQ(log_.size(), 1u);
  auto cancelled = detector_.CancelPendingPlus(
      plus, {{Sym("session"), Name("s1")}});
  ASSERT_TRUE(cancelled.ok());
  EXPECT_EQ(*cancelled, 0);
  // A later expiry for the same session files and cancels afresh.
  Raise(a, {{Sym("session"), Name("s1")}});
  cancelled = detector_.CancelPendingPlus(plus, {{Sym("session"), Name("s1")}});
  ASSERT_TRUE(cancelled.ok());
  EXPECT_EQ(*cancelled, 1);
  EXPECT_EQ(detector_.pending_timer_count(), 0u);
}

TEST_F(EventDetectorTest, DeactivatedKeyedPlusCancelsEveryPendingExpiry) {
  const EventId a = Prim("a");
  const EventId plus =
      *detector_.DefinePlus("plus", a, 5 * kSecond, Sym("session"));
  Watch(plus);
  Raise(a, {{Sym("session"), Name("s1")}});
  Raise(a, {{Sym("session"), Name("s2")}});
  Raise(a, {{Sym("n"), Value(1)}});
  EXPECT_EQ(detector_.pending_timer_count(), 3u);
  ASSERT_TRUE(detector_.DeactivateEvent(plus).ok());
  EXPECT_EQ(detector_.pending_timer_count(), 0u);
  detector_.AdvanceTo(testutil::Noon() + kMinute, &clock_);
  EXPECT_EQ(log_.size(), 0u);
}

TEST_F(EventDetectorTest, CancelPendingPlusRejectsNonPlus) {
  const EventId a = Prim("a");
  EXPECT_FALSE(detector_.CancelPendingPlus(a, {}).ok());
}

TEST_F(EventDetectorTest, PlusRejectsNonPositiveDelta) {
  const EventId a = Prim("a");
  EXPECT_FALSE(detector_.DefinePlus("bad", a, 0).ok());
}

// ----------------------------------------------------------- APERIODIC

TEST_F(EventDetectorTest, AperiodicDetectsMiddleInsideWindow) {
  const EventId a = Prim("a");
  const EventId b = Prim("b");
  const EventId c = Prim("c");
  const EventId ap = *detector_.DefineAperiodic("ap", a, b, c);
  Watch(ap);
  Raise(b);  // Before window: nothing.
  Raise(a);
  Raise(b);
  Raise(b);
  Raise(c);
  Raise(b);  // After terminator: nothing.
  EXPECT_EQ(log_.size(), 2u);
}

TEST_F(EventDetectorTest, AperiodicMergesInitiatorAndMiddleParams) {
  const EventId a = Prim("a");
  const EventId b = Prim("b");
  const EventId c = Prim("c");
  const EventId ap = *detector_.DefineAperiodic("ap", a, b, c);
  Watch(ap);
  Raise(a, {{Sym("w"), Name("win")}});
  Raise(b, {{Sym("m"), Name("mid")}});
  ASSERT_EQ(log_.size(), 1u);
  EXPECT_EQ(log_[0].params.Get(Sym("w")), Name("win"));
  EXPECT_EQ(log_[0].params.Get(Sym("m")), Name("mid"));
}

TEST_F(EventDetectorTest, AperiodicRecentNewInitiatorReplacesWindow) {
  const EventId a = Prim("a");
  const EventId b = Prim("b");
  const EventId c = Prim("c");
  const EventId ap =
      *detector_.DefineAperiodic("ap", a, b, c, ConsumptionMode::kRecent);
  Watch(ap);
  Raise(a, {{Sym("w"), Value(1)}});
  Raise(a, {{Sym("w"), Value(2)}});
  Raise(b);
  ASSERT_EQ(log_.size(), 1u);
  EXPECT_EQ(log_[0].params.Get(Sym("w")), Value(2));
}

TEST_F(EventDetectorTest, AperiodicStarAccumulatesAndEmitsAtTerminator) {
  const EventId a = Prim("a");
  const EventId b = Prim("b");
  const EventId c = Prim("c");
  const EventId ap = *detector_.DefineAperiodicStar("ap*", a, b, c);
  Watch(ap);
  Raise(a);
  Raise(b);
  Raise(b);
  Raise(b);
  EXPECT_EQ(log_.size(), 0u);  // Nothing until the terminator.
  Raise(c);
  ASSERT_EQ(log_.size(), 1u);
  EXPECT_EQ(log_[0].params.Get(Sym("_count")), Value(int64_t{3}));
}

TEST_F(EventDetectorTest, AperiodicStarEmitsZeroCountWindow) {
  const EventId a = Prim("a");
  const EventId b = Prim("b");
  const EventId c = Prim("c");
  const EventId ap = *detector_.DefineAperiodicStar("ap*", a, b, c);
  Watch(ap);
  Raise(a);
  Raise(c);
  ASSERT_EQ(log_.size(), 1u);
  EXPECT_EQ(log_[0].params.Get(Sym("_count")), Value(int64_t{0}));
}

// ------------------------------------------------------------ PERIODIC

TEST_F(EventDetectorTest, PeriodicTicksUntilTerminator) {
  const EventId a = Prim("a");
  const EventId c = Prim("c");
  const EventId per =
      *detector_.DefinePeriodic("per", a, 10 * kSecond, c);
  Watch(per);
  Raise(a);
  detector_.AdvanceTo(testutil::Noon() + 35 * kSecond, &clock_);
  EXPECT_EQ(log_.size(), 3u);  // Ticks at +10, +20, +30.
  Raise(c);
  detector_.AdvanceTo(testutil::Noon() + 2 * kMinute, &clock_);
  EXPECT_EQ(log_.size(), 3u);  // Stopped.
}

TEST_F(EventDetectorTest, PeriodicStarCountsTicks) {
  const EventId a = Prim("a");
  const EventId c = Prim("c");
  const EventId per =
      *detector_.DefinePeriodicStar("per*", a, 10 * kSecond, c);
  Watch(per);
  Raise(a);
  detector_.AdvanceTo(testutil::Noon() + 25 * kSecond, &clock_);
  EXPECT_EQ(log_.size(), 0u);
  Raise(c);
  ASSERT_EQ(log_.size(), 1u);
  EXPECT_EQ(log_[0].params.Get(Sym("_ticks")), Value(int64_t{2}));
}

TEST_F(EventDetectorTest, PeriodicRejectsNonPositiveTau) {
  const EventId a = Prim("a");
  const EventId c = Prim("c");
  EXPECT_FALSE(detector_.DefinePeriodic("bad", a, 0, c).ok());
}

// ------------------------------------------------------------ ABSOLUTE

TEST_F(EventDetectorTest, AbsoluteFiresAtPatternInstants) {
  const EventId abs =
      *detector_.DefineAbsolute("abs", testutil::Daily(17));
  Watch(abs);
  detector_.AdvanceTo(MakeTime(2026, 7, 8, 0, 0, 0), &clock_);
  ASSERT_EQ(log_.size(), 2u);  // 17:00 on Jul 6 and Jul 7.
  EXPECT_EQ(log_[0].end, MakeTime(2026, 7, 6, 17, 0, 0));
  EXPECT_EQ(log_[1].end, MakeTime(2026, 7, 7, 17, 0, 0));
}

TEST_F(EventDetectorTest, AbsoluteStopsAfterDeactivation) {
  const EventId abs =
      *detector_.DefineAbsolute("abs", testutil::Daily(17));
  Watch(abs);
  detector_.AdvanceTo(MakeTime(2026, 7, 7, 0, 0, 0), &clock_);
  EXPECT_EQ(log_.size(), 1u);
  ASSERT_TRUE(detector_.DeactivateEvent(abs).ok());
  detector_.AdvanceTo(MakeTime(2026, 7, 10, 0, 0, 0), &clock_);
  EXPECT_EQ(log_.size(), 1u);
}

// ------------------------------------------------- Cascades & plumbing

TEST_F(EventDetectorTest, ReentrantRaiseFromSubscriberCompletesInline) {
  const EventId a = Prim("a");
  const EventId b = Prim("b");
  std::vector<EventId> order;
  detector_.Subscribe(a, [&](const Occurrence&) {
    order.push_back(a);
    (void)detector_.Raise(b, {});
  });
  detector_.Subscribe(b, [&](const Occurrence&) { order.push_back(b); });
  Raise(a);
  // The cascaded b completed before Raise(a) returned.
  EXPECT_EQ(order, (std::vector<EventId>{a, b}));
}

TEST_F(EventDetectorTest, CompositeOverCompositeDag) {
  const EventId a = Prim("a");
  const EventId b = Prim("b");
  const EventId c = Prim("c");
  const EventId seq = *detector_.DefineSeq("seq", a, b);
  const EventId or_ev = *detector_.DefineOr("or", {seq, c});
  Watch(or_ev);
  Raise(a);
  clock_.Advance(kSecond);
  Raise(b);
  Raise(c);
  EXPECT_EQ(log_.size(), 2u);
}

TEST_F(EventDetectorTest, DeactivatedPrimitiveRejectsRaise) {
  const EventId a = Prim("a");
  ASSERT_TRUE(detector_.DeactivateEvent(a).ok());
  EXPECT_FALSE(detector_.Raise(a, {}).ok());
}

TEST_F(EventDetectorTest, DeactivatedFilterStopsPropagating) {
  const EventId a = Prim("a");
  const EventId f = *detector_.DefineFilter("f", a, {});
  Watch(f);
  Raise(a);
  EXPECT_EQ(log_.size(), 1u);
  ASSERT_TRUE(detector_.DeactivateEvent(f).ok());
  Raise(a);
  EXPECT_EQ(log_.size(), 1u);
}

TEST_F(EventDetectorTest, DeactivatedPlusCancelsPendingTimers) {
  const EventId a = Prim("a");
  const EventId plus = *detector_.DefinePlus("plus", a, 5 * kSecond);
  Watch(plus);
  Raise(a);
  EXPECT_GE(detector_.pending_timer_count(), 1u);
  ASSERT_TRUE(detector_.DeactivateEvent(plus).ok());
  detector_.AdvanceTo(testutil::Noon() + kMinute, &clock_);
  EXPECT_EQ(log_.size(), 0u);
}

TEST_F(EventDetectorTest, OccurrenceCountsTracked) {
  const EventId a = Prim("a");
  const EventId f = *detector_.DefineFilter("f", a, {});
  Raise(a);
  Raise(a);
  EXPECT_EQ(detector_.occurrence_count(a), 2u);
  EXPECT_EQ(detector_.occurrence_count(f), 2u);
  EXPECT_EQ(detector_.total_occurrences(), 4u);
}

TEST_F(EventDetectorTest, AdvanceToFiresTimersAtExactInstants) {
  const EventId a = Prim("a");
  const EventId plus = *detector_.DefinePlus("plus", a, 5 * kSecond);
  Time seen_now = 0;
  detector_.Subscribe(plus, [&](const Occurrence&) {
    seen_now = detector_.Now();
  });
  Raise(a);
  detector_.AdvanceTo(testutil::Noon() + kMinute, &clock_);
  // The subscriber observed the clock at the expiry instant, not at the
  // advance target.
  EXPECT_EQ(seen_now, testutil::Noon() + 5 * kSecond);
  EXPECT_EQ(detector_.Now(), testutil::Noon() + kMinute);
}

TEST_F(EventDetectorTest, PollTimersFiresDueTimersAtCurrentTime) {
  const EventId a = Prim("a");
  const EventId plus = *detector_.DefinePlus("plus", a, 5 * kSecond);
  Watch(plus);
  Raise(a);
  // Move the clock without AdvanceTo (wall-clock style), then poll.
  clock_.Advance(10 * kSecond);
  EXPECT_EQ(log_.size(), 0u);
  detector_.PollTimers();
  ASSERT_EQ(log_.size(), 1u);
  // Fire time recorded is the scheduled instant, not the poll instant.
  EXPECT_EQ(log_[0].end, testutil::Noon() + 5 * kSecond);
}

TEST_F(EventDetectorTest, AbsoluteConcreteYearExhausts) {
  auto pattern = TimePattern::Parse("00:00:00/01/01/2020");  // In the past.
  ASSERT_TRUE(pattern.ok());
  const EventId abs = *detector_.DefineAbsolute("past", *pattern);
  Watch(abs);
  EXPECT_EQ(detector_.pending_timer_count(), 0u);  // Nothing scheduled.
  detector_.AdvanceTo(testutil::Noon() + 30 * kDay, &clock_);
  EXPECT_EQ(log_.size(), 0u);
}

TEST_F(EventDetectorTest, PeriodicChronicleKeepsConcurrentWindows) {
  const EventId a = Prim("a");
  const EventId c = Prim("c");
  const EventId per = *detector_.DefinePeriodic(
      "per", a, 10 * kSecond, c, ConsumptionMode::kChronicle);
  Watch(per);
  Raise(a);  // Window 1.
  clock_.Advance(5 * kSecond);
  Raise(a);  // Window 2 (offset by 5s).
  detector_.AdvanceTo(testutil::Noon() + 21 * kSecond, &clock_);
  // W1 ticks at +10,+20; W2 at +15 (and +25 later): 3 so far.
  EXPECT_EQ(log_.size(), 3u);
  Raise(c);  // Chronicle: closes the OLDEST window (W1).
  detector_.AdvanceTo(testutil::Noon() + 26 * kSecond, &clock_);
  EXPECT_EQ(log_.size(), 4u);  // Only W2's +25 tick arrived.
}

TEST_F(EventDetectorTest, NextTimerTimeExposed) {
  const EventId a = Prim("a");
  (void)*detector_.DefinePlus("plus", a, 7 * kSecond);
  EXPECT_FALSE(detector_.NextTimerTime().has_value());
  Raise(a);
  ASSERT_TRUE(detector_.NextTimerTime().has_value());
  EXPECT_EQ(*detector_.NextTimerTime(), testutil::Noon() + 7 * kSecond);
}

TEST_F(EventDetectorTest, SubscriberAddedDuringDispatchSeesNextOnly) {
  const EventId a = Prim("a");
  int late_count = 0;
  detector_.Subscribe(a, [&](const Occurrence&) {
    static bool subscribed = false;
    if (!subscribed) {
      subscribed = true;
      detector_.Subscribe(a, [&](const Occurrence&) { ++late_count; });
    }
  });
  Raise(a);
  EXPECT_EQ(late_count, 0);  // Not called for the occurrence that added it.
  Raise(a);
  EXPECT_EQ(late_count, 1);
}

TEST_F(EventDetectorTest, QuiescentCallbackFiresPerTopLevelCascade) {
  const EventId a = Prim("a");
  const EventId b = Prim("b");
  int quiescent = 0;
  detector_.SetQuiescentCallback([&] { ++quiescent; });
  detector_.Subscribe(a, [&](const Occurrence&) {
    (void)detector_.Raise(b, {});  // Cascades stay inside one drain.
  });
  Raise(a);
  EXPECT_EQ(quiescent, 1);
  Raise(b);
  EXPECT_EQ(quiescent, 2);
}

TEST_F(EventDetectorTest, RegistryDescribe) {
  const EventId a = Prim("a");
  const EventId b = Prim("b");
  const EventId seq =
      *detector_.DefineSeq("seq", a, b, ConsumptionMode::kChronicle);
  EXPECT_EQ(detector_.registry().Describe(seq), "seq = SEQ(a, b) [chronicle]");
}

}  // namespace
}  // namespace sentinel
