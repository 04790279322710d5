#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "event/event_detector.h"
#include "tests/test_util.h"

namespace sentinel {
namespace {

/// Parameterized sweep: structural invariants that must hold for binary
/// operators in EVERY consumption mode, plus per-mode expected counts for
/// canonical initiator/terminator scripts.
class ConsumptionModeTest : public ::testing::TestWithParam<ConsumptionMode> {
 protected:
  ConsumptionModeTest() : clock_(testutil::Noon()), detector_(&clock_) {
    a_ = *detector_.DefinePrimitive("a");
    b_ = *detector_.DefinePrimitive("b");
    c_ = *detector_.DefinePrimitive("c");
  }

  void Watch(EventId event) {
    detector_.Subscribe(event,
                        [this](const Occurrence& occ) { log_.push_back(occ); });
  }

  void Raise(EventId event, FlatParamMap params = {}) {
    clock_.Advance(kMillisecond);  // Distinct instants for clean ordering.
    ASSERT_TRUE(detector_.Raise(event, std::move(params)).ok());
  }

  Symbol Sym(const std::string& name) {
    return detector_.symbols().Intern(name);
  }

  ConsumptionMode mode() const { return GetParam(); }

  SimulatedClock clock_;
  EventDetector detector_;
  EventId a_ = kInvalidEventId, b_ = kInvalidEventId, c_ = kInvalidEventId;
  std::vector<Occurrence> log_;
};

TEST_P(ConsumptionModeTest, AndNeverFiresFromOneSide) {
  const EventId and_ev = *detector_.DefineAnd("and", a_, b_, mode());
  Watch(and_ev);
  for (int i = 0; i < 5; ++i) Raise(a_);
  EXPECT_EQ(log_.size(), 0u);
}

TEST_P(ConsumptionModeTest, AndSinglePairDetectsExactlyOnce) {
  const EventId and_ev = *detector_.DefineAnd("and", a_, b_, mode());
  Watch(and_ev);
  Raise(a_);
  Raise(b_);
  EXPECT_EQ(log_.size(), 1u);
}

TEST_P(ConsumptionModeTest, AndTwoInitiatorsOneTerminatorCounts) {
  const EventId and_ev = *detector_.DefineAnd("and", a_, b_, mode());
  Watch(and_ev);
  Raise(a_);
  Raise(a_);
  Raise(b_);
  const size_t expected =
      mode() == ConsumptionMode::kContinuous ? 2u : 1u;
  EXPECT_EQ(log_.size(), expected);
}

TEST_P(ConsumptionModeTest, SeqNeverFiresOnReversedOrder) {
  const EventId seq = *detector_.DefineSeq("seq", a_, b_, mode());
  Watch(seq);
  Raise(b_);
  Raise(b_);
  Raise(a_);
  EXPECT_EQ(log_.size(), 0u);
}

TEST_P(ConsumptionModeTest, SeqTwoLeftsOneRightCounts) {
  const EventId seq = *detector_.DefineSeq("seq", a_, b_, mode());
  Watch(seq);
  Raise(a_, {{Sym("x"), Value(1)}});
  Raise(a_, {{Sym("x"), Value(2)}});
  Raise(b_);
  size_t expected = 1u;
  if (mode() == ConsumptionMode::kContinuous) expected = 2u;
  ASSERT_EQ(log_.size(), expected);
  // Which initiator pairs depends on the mode.
  if (mode() == ConsumptionMode::kRecent) {
    EXPECT_EQ(log_[0].params.Get(Sym("x")), Value(2));
  } else if (mode() == ConsumptionMode::kChronicle) {
    EXPECT_EQ(log_[0].params.Get(Sym("x")), Value(1));
  }
}

TEST_P(ConsumptionModeTest, SeqIntervalSpansInitiatorToTerminator) {
  const EventId seq = *detector_.DefineSeq("seq", a_, b_, mode());
  Watch(seq);
  Raise(a_);
  const Time a_time = clock_.Now();
  Raise(b_);
  const Time b_time = clock_.Now();
  ASSERT_GE(log_.size(), 1u);
  for (const Occurrence& occ : log_) {
    EXPECT_EQ(occ.start, a_time);
    EXPECT_EQ(occ.end, b_time);
    EXPECT_LE(occ.start, occ.end);
  }
}

TEST_P(ConsumptionModeTest, SeqRepeatedTerminators) {
  const EventId seq = *detector_.DefineSeq("seq", a_, b_, mode());
  Watch(seq);
  Raise(a_);
  Raise(b_);
  Raise(b_);
  // Recent retains the initiator: both b's detect. All consuming modes
  // detect once.
  const size_t expected = mode() == ConsumptionMode::kRecent ? 2u : 1u;
  EXPECT_EQ(log_.size(), expected);
}

TEST_P(ConsumptionModeTest, NotMiddleAlwaysInvalidates) {
  const EventId not_ev = *detector_.DefineNot("not", a_, b_, c_, mode());
  Watch(not_ev);
  Raise(a_);
  Raise(a_);
  Raise(b_);
  Raise(c_);
  EXPECT_EQ(log_.size(), 0u);
}

TEST_P(ConsumptionModeTest, NotCleanWindowDetects) {
  const EventId not_ev = *detector_.DefineNot("not", a_, b_, c_, mode());
  Watch(not_ev);
  Raise(a_);
  Raise(c_);
  EXPECT_EQ(log_.size(), 1u);
}

TEST_P(ConsumptionModeTest, AperiodicMiddleCountMatchesMode) {
  const EventId ap = *detector_.DefineAperiodic("ap", a_, b_, c_, mode());
  Watch(ap);
  Raise(a_);
  Raise(a_);
  Raise(b_);
  size_t expected = 1u;
  if (mode() == ConsumptionMode::kContinuous) expected = 2u;
  EXPECT_EQ(log_.size(), expected);
}

TEST_P(ConsumptionModeTest, AperiodicNoDetectionOutsideWindow) {
  const EventId ap = *detector_.DefineAperiodic("ap", a_, b_, c_, mode());
  Watch(ap);
  Raise(b_);
  Raise(a_);
  Raise(c_);
  Raise(b_);
  EXPECT_EQ(log_.size(), 0u);
}

TEST_P(ConsumptionModeTest, PeriodicTickCountIndependentOfMode) {
  const EventId per =
      *detector_.DefinePeriodic("per", a_, 10 * kSecond, c_, mode());
  Watch(per);
  Raise(a_);
  detector_.AdvanceTo(clock_.Now() + 25 * kSecond, &clock_);
  EXPECT_EQ(log_.size(), 2u);
  Raise(c_);
  detector_.AdvanceTo(clock_.Now() + 25 * kSecond, &clock_);
  EXPECT_EQ(log_.size(), 2u);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, ConsumptionModeTest,
    ::testing::Values(ConsumptionMode::kRecent, ConsumptionMode::kChronicle,
                      ConsumptionMode::kContinuous,
                      ConsumptionMode::kCumulative),
    [](const ::testing::TestParamInfo<ConsumptionMode>& info) {
      return ConsumptionModeToString(info.param);
    });

// ======================================================================
// Table-driven initiator-pairing sweeps for SEQ and APERIODIC: for a
// fixed raise script, each mode selects different initiators (and the
// cumulative mode merges them), so every table row pins down the exact
// per-mode pairing — which occurrence participates, in which order,
// consumed or retained.
// ======================================================================

/// Expected initiator tags (the "x" param raised with each initiator)
/// carried by the emitted detections, in emission order, per mode.
struct ModeExpectations {
  std::vector<int> recent;
  std::vector<int> chronicle;
  std::vector<int> continuous;
  std::vector<int> cumulative;
};

/// One script: space-separated tokens, `a<digit>` raises the initiator
/// with param x=<digit>, `b`/`b<digit>` the second constituent (SEQ
/// terminator / APERIODIC middle, param y), `c` the APERIODIC terminator.
struct PairingCase {
  const char* label;
  const char* script;
  ModeExpectations expect;
};

const std::vector<int>& ExpectedFor(const ModeExpectations& e,
                                    ConsumptionMode mode) {
  switch (mode) {
    case ConsumptionMode::kRecent:
      return e.recent;
    case ConsumptionMode::kChronicle:
      return e.chronicle;
    case ConsumptionMode::kContinuous:
      return e.continuous;
    case ConsumptionMode::kCumulative:
      return e.cumulative;
  }
  return e.recent;
}

class PairingFixture
    : public ::testing::TestWithParam<std::tuple<ConsumptionMode, PairingCase>> {
 protected:
  PairingFixture() : clock_(testutil::Noon()), detector_(&clock_) {
    a_ = *detector_.DefinePrimitive("a");
    b_ = *detector_.DefinePrimitive("b");
    c_ = *detector_.DefinePrimitive("c");
  }

  ConsumptionMode mode() const { return std::get<0>(GetParam()); }
  const PairingCase& pairing_case() const { return std::get<1>(GetParam()); }

  Symbol Sym(const std::string& name) {
    return detector_.symbols().Intern(name);
  }

  void Watch(EventId event) {
    detector_.Subscribe(event,
                        [this](const Occurrence& occ) { log_.push_back(occ); });
  }

  /// Runs the script, one millisecond apart so ordering is strict.
  void RunScript() {
    std::istringstream tokens(pairing_case().script);
    std::string token;
    while (tokens >> token) {
      const EventId event = token[0] == 'a' ? a_ : token[0] == 'b' ? b_ : c_;
      FlatParamMap params;
      if (token.size() > 1) {
        const Value tag(token[1] - '0');
        params.Set(Sym(token[0] == 'a' ? "x" : "y"), tag);
      }
      clock_.Advance(kMillisecond);
      ASSERT_TRUE(detector_.Raise(event, std::move(params)).ok());
    }
  }

  /// Asserts the detections carry exactly the expected initiator tags.
  void CheckDetections() {
    const std::vector<int>& expected =
        ExpectedFor(pairing_case().expect, mode());
    ASSERT_EQ(log_.size(), expected.size())
        << pairing_case().label << " in "
        << ConsumptionModeToString(mode());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(log_[i].params.Get(Sym("x")), Value(expected[i]))
          << pairing_case().label << " detection #" << i << " in "
          << ConsumptionModeToString(mode());
    }
  }

  SimulatedClock clock_;
  EventDetector detector_;
  EventId a_ = kInvalidEventId, b_ = kInvalidEventId, c_ = kInvalidEventId;
  std::vector<Occurrence> log_;
};

std::string PairingName(
    const ::testing::TestParamInfo<std::tuple<ConsumptionMode, PairingCase>>&
        info) {
  return std::string(std::get<1>(info.param).label) + "_" +
         ConsumptionModeToString(std::get<0>(info.param));
}

// ------------------------------------------------------------------ SEQ

using SeqPairingTest = PairingFixture;

TEST_P(SeqPairingTest, InitiatorSelectionMatchesMode) {
  const EventId seq = *detector_.DefineSeq("seq", a_, b_, mode());
  Watch(seq);
  RunScript();
  CheckDetections();
}

INSTANTIATE_TEST_SUITE_P(
    Scripts, SeqPairingTest,
    ::testing::Combine(
        ::testing::Values(ConsumptionMode::kRecent,
                          ConsumptionMode::kChronicle,
                          ConsumptionMode::kContinuous,
                          ConsumptionMode::kCumulative),
        ::testing::Values(
            // Recent keeps only the newest initiator; chronicle consumes
            // FIFO; continuous pairs each; cumulative merges (the newest
            // tag wins the merged "x").
            PairingCase{"TwoInitsOneTerm", "a1 a2 b9",
                        {{2}, {1}, {1, 2}, {2}}},
            // Recent retains its initiator across terminators; every
            // consuming mode used it up on the first.
            PairingCase{"TermReplay", "a1 b8 b9",
                        {{1, 1}, {1}, {1}, {1}}},
            // Disjoint pairs behave identically everywhere.
            PairingCase{"Interleaved", "a1 b8 a2 b9",
                        {{1, 2}, {1, 2}, {1, 2}, {1, 2}}},
            // A terminator with nothing open never detects; the stale
            // terminator must not pair with a later initiator.
            PairingCase{"TermFirst", "b9 a1 b8",
                        {{1}, {1}, {1}, {1}}})),
    PairingName);

TEST_P(ConsumptionModeTest, SeqCumulativeIntervalSpansOldestInitiator) {
  if (mode() != ConsumptionMode::kCumulative) GTEST_SKIP();
  const EventId seq = *detector_.DefineSeq("seq", a_, b_, mode());
  Watch(seq);
  Raise(a_);
  const Time oldest = clock_.Now();
  Raise(a_);
  Raise(b_);
  const Time term = clock_.Now();
  ASSERT_EQ(log_.size(), 1u);
  EXPECT_EQ(log_[0].start, oldest);  // Merged window opens at the oldest.
  EXPECT_EQ(log_[0].end, term);
}

// ------------------------------------------------------------ APERIODIC

using AperiodicPairingTest = PairingFixture;

TEST_P(AperiodicPairingTest, WindowSelectionMatchesMode) {
  const EventId ap = *detector_.DefineAperiodic("ap", a_, b_, c_, mode());
  Watch(ap);
  RunScript();
  CheckDetections();
}

INSTANTIATE_TEST_SUITE_P(
    Scripts, AperiodicPairingTest,
    ::testing::Combine(
        ::testing::Values(ConsumptionMode::kRecent,
                          ConsumptionMode::kChronicle,
                          ConsumptionMode::kContinuous,
                          ConsumptionMode::kCumulative),
        ::testing::Values(
            // Middles do not consume windows: recent re-pairs the newest
            // window each time, chronicle re-pairs the oldest, continuous
            // emits once per open window per middle, cumulative merges
            // all open windows per middle (newest tag wins).
            PairingCase{"TwoWindowsTwoMiddles", "a1 a2 b8 b9",
                        {{2, 2}, {1, 1}, {1, 2, 1, 2}, {2, 2}}},
            // The terminator closes windows: a middle after it finds
            // nothing, in every mode.
            PairingCase{"TermClosesWindow", "a1 b8 c b9",
                        {{1}, {1}, {1}, {1}}},
            // Terminator consumption differs by mode: chronicle pops one
            // window (the oldest) and keeps the rest; recent, continuous
            // and cumulative close everything.
            PairingCase{"ChronicleTermPopsOne", "a1 a2 c b9",
                        {{}, {2}, {}, {}}},
            // A middle with no window yet is dropped; the window opened
            // afterwards still detects on the next middle.
            PairingCase{"MiddleBeforeWindow", "b8 a1 b9",
                        {{1}, {1}, {1}, {1}}})),
    PairingName);

}  // namespace
}  // namespace sentinel
