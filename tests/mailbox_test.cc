// Direct unit tests for the shard Mailbox: FIFO totality under concurrent
// producers, the consumer's wake-ups, the drain-not-drop shutdown contract,
// and the overload behaviors of the bounded decision lane (capacity,
// blocking admission, deadlines, exemption of the admin lane).

#include "service/mailbox.h"

#include <atomic>
#include <chrono>
#include <deque>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "telemetry/metrics.h"

namespace sentinel {
namespace {

using IntBox = Mailbox<int>;
using PushResult = IntBox::PushResult;

int64_t NanosFromNow(int64_t ns) { return telemetry::NowNanos() + ns; }

/// The consumer's blocking pop, composed as the shard loop composes it:
/// park until something is queued, then take the whole backlog. False once
/// the mailbox is closed and drained.
bool PopAll(IntBox& mailbox, std::deque<int>* batch) {
  while (!mailbox.TryPopAll(batch)) {
    if (!mailbox.Park()) return false;
  }
  return true;
}

// ------------------------------------------------------------ FIFO & drain

TEST(MailboxTest, PopAllReturnsWholeBacklogInOrder) {
  IntBox mailbox;
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(mailbox.Push(i));
  std::deque<int> batch;
  ASSERT_TRUE(PopAll(mailbox, &batch));
  ASSERT_EQ(batch.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(batch[static_cast<size_t>(i)], i);
  EXPECT_EQ(mailbox.depth(), 0u);
}

TEST(MailboxTest, TryPopAllNeverBlocks) {
  IntBox mailbox;
  std::deque<int> batch{7};
  EXPECT_FALSE(mailbox.TryPopAll(&batch));  // Empty: returns at once...
  EXPECT_TRUE(batch.empty());               // ...with the batch cleared.
  ASSERT_EQ(mailbox.PushBounded(1, /*block=*/false, 0), PushResult::kOk);
  EXPECT_TRUE(mailbox.Push(2));
  EXPECT_TRUE(mailbox.Park());  // Something is queued: no wait.
  ASSERT_TRUE(mailbox.TryPopAll(&batch));
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0], 2);  // Exempt lane first.
  EXPECT_EQ(batch[1], 1);
  EXPECT_FALSE(mailbox.TryPopAll(&batch));
  mailbox.Close();
  EXPECT_FALSE(mailbox.Park());  // Closed and drained: the exit signal.
}

TEST(MailboxTest, FifoOrderHoldsUnderConcurrentProducers) {
  // Each producer pushes an ascending sequence tagged with its id; total
  // FIFO order implies every producer's subsequence arrives ascending.
  IntBox mailbox;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&mailbox, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(mailbox.Push(p * kPerProducer + i));
      }
    });
  }
  std::vector<int> consumed;
  std::thread consumer([&mailbox, &consumed] {
    std::deque<int> batch;
    while (PopAll(mailbox, &batch)) {
      consumed.insert(consumed.end(), batch.begin(), batch.end());
    }
  });
  for (std::thread& thread : producers) thread.join();
  mailbox.Close();
  consumer.join();

  ASSERT_EQ(consumed.size(),
            static_cast<size_t>(kProducers * kPerProducer));
  std::vector<int> last_seen(kProducers, -1);
  for (const int value : consumed) {
    const int producer = value / kPerProducer;
    const int seq = value % kPerProducer;
    EXPECT_GT(seq, last_seen[static_cast<size_t>(producer)]);
    last_seen[static_cast<size_t>(producer)] = seq;
  }
}

TEST(MailboxTest, ParkWakesOnEveryPushToEitherLane) {
  // One item in flight at a time, alternating lanes: the consumer takes
  // each item and parks again before nearly every push, so every push has
  // to wake it. A lost wake-up fails its round's deadline instead of
  // hanging the test.
  IntBox mailbox;
  mailbox.set_capacity(1);
  constexpr int kRounds = 10000;
  std::atomic<int> consumed{0};
  std::thread consumer([&mailbox, &consumed] {
    std::deque<int> batch;
    while (PopAll(mailbox, &batch)) {
      consumed.fetch_add(static_cast<int>(batch.size()));
    }
  });
  int lost_round = -1;
  for (int round = 0; round < kRounds && lost_round < 0; ++round) {
    if (round % 2 == 0) {
      EXPECT_TRUE(mailbox.Push(round));
    } else {
      EXPECT_EQ(mailbox.PushBounded(round, /*block=*/false, 0),
                PushResult::kOk);
    }
    const int64_t deadline = NanosFromNow(5'000'000'000);  // 5s.
    while (consumed.load() <= round) {
      if (telemetry::NowNanos() > deadline) {
        lost_round = round;
        break;
      }
      std::this_thread::yield();
    }
  }
  mailbox.Close();  // Also wakes a consumer a lost wake-up left parked.
  consumer.join();
  EXPECT_EQ(lost_round, -1) << "the consumer missed the push of round "
                            << lost_round;
  EXPECT_EQ(consumed.load(), kRounds);
}

TEST(MailboxTest, CloseDrainsBacklogThenRefuses) {
  IntBox mailbox;
  EXPECT_TRUE(mailbox.Push(1));
  EXPECT_TRUE(mailbox.Push(2));
  mailbox.Close();
  // Both lanes refuse after Close...
  EXPECT_FALSE(mailbox.Push(3));
  EXPECT_EQ(mailbox.PushBounded(4, /*block=*/true, /*deadline_ns=*/0),
            PushResult::kClosed);
  // ...but the backlog is still handed over — drain, don't drop.
  std::deque<int> batch;
  ASSERT_TRUE(PopAll(mailbox, &batch));
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0], 1);
  EXPECT_EQ(batch[1], 2);
  // Closed and drained: the consumer's exit signal, without blocking.
  EXPECT_FALSE(PopAll(mailbox, &batch));
}

// ------------------------------------------------------------ Bounded lane

TEST(MailboxTest, ShedModeFailsFastAtCapacity) {
  // Any capacity is exact, a power of two or not.
  for (const int capacity : {2, 3}) {
    SCOPED_TRACE(capacity);
    IntBox mailbox;
    mailbox.set_capacity(static_cast<size_t>(capacity));
    for (int i = 1; i <= capacity; ++i) {
      size_t depth = 0;
      EXPECT_EQ(mailbox.PushBounded(i, /*block=*/false, 0, &depth),
                PushResult::kOk);
      EXPECT_EQ(depth, static_cast<size_t>(i));
    }
    EXPECT_EQ(mailbox.PushBounded(capacity + 1, /*block=*/false, 0),
              PushResult::kFull);
    EXPECT_EQ(mailbox.depth(), static_cast<size_t>(capacity));
    EXPECT_EQ(mailbox.peak_depth(), static_cast<size_t>(capacity));
    // The shed item is gone; the queue holds exactly the admitted ones.
    std::deque<int> batch;
    ASSERT_TRUE(PopAll(mailbox, &batch));
    ASSERT_EQ(batch.size(), static_cast<size_t>(capacity));
    EXPECT_EQ(batch.back(), capacity);
  }
}

TEST(MailboxTest, ExemptLaneIgnoresCapacity) {
  IntBox mailbox;
  mailbox.set_capacity(1);
  EXPECT_EQ(mailbox.PushBounded(1, /*block=*/false, 0), PushResult::kOk);
  EXPECT_EQ(mailbox.PushBounded(2, /*block=*/false, 0), PushResult::kFull);
  // Admin traffic must always land — the epoch barrier depends on it.
  EXPECT_TRUE(mailbox.Push(100));
  EXPECT_TRUE(mailbox.Push(101));
  EXPECT_EQ(mailbox.depth(), 3u);
  EXPECT_EQ(mailbox.peak_depth(), 3u);
}

TEST(MailboxTest, BlockedProducerAdmittedWhenConsumerDrains) {
  IntBox mailbox;
  mailbox.set_capacity(1);
  ASSERT_EQ(mailbox.PushBounded(1, /*block=*/false, 0), PushResult::kOk);
  std::atomic<bool> admitted{false};
  std::thread producer([&] {
    EXPECT_EQ(mailbox.PushBounded(2, /*block=*/true, /*deadline_ns=*/0),
              PushResult::kOk);
    admitted.store(true);
  });
  // The producer must be parked, not spinning past the cap.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(admitted.load());
  EXPECT_EQ(mailbox.depth(), 1u);

  std::deque<int> batch;
  ASSERT_TRUE(PopAll(mailbox, &batch));
  producer.join();
  EXPECT_TRUE(admitted.load());
  ASSERT_TRUE(PopAll(mailbox, &batch));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0], 2);
  EXPECT_EQ(mailbox.peak_depth(), 1u);  // Never above capacity.
}

TEST(MailboxTest, BlockedProducerExpiresAtDeadline) {
  IntBox mailbox;
  mailbox.set_capacity(1);
  ASSERT_EQ(mailbox.PushBounded(1, /*block=*/false, 0), PushResult::kOk);
  const int64_t deadline = NanosFromNow(5'000'000);  // 5ms.
  EXPECT_EQ(mailbox.PushBounded(2, /*block=*/true, deadline),
            PushResult::kExpired);
  EXPECT_GE(telemetry::NowNanos(), deadline);
  EXPECT_EQ(mailbox.depth(), 1u);  // The expired item never entered.
}

TEST(MailboxTest, CloseWakesBlockedProducer) {
  IntBox mailbox;
  mailbox.set_capacity(1);
  ASSERT_EQ(mailbox.PushBounded(1, /*block=*/false, 0), PushResult::kOk);
  std::atomic<bool> refused{false};
  std::thread producer([&] {
    EXPECT_EQ(mailbox.PushBounded(2, /*block=*/true, /*deadline_ns=*/0),
              PushResult::kClosed);
    refused.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  mailbox.Close();
  producer.join();
  EXPECT_TRUE(refused.load());
  // The pre-close item still drains.
  std::deque<int> batch;
  ASSERT_TRUE(PopAll(mailbox, &batch));
  ASSERT_EQ(batch.size(), 1u);
}

TEST(MailboxTest, CapacityZeroIsUnbounded) {
  IntBox mailbox;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(mailbox.PushBounded(i, /*block=*/false, 0), PushResult::kOk);
  }
  EXPECT_EQ(mailbox.depth(), 1000u);
  EXPECT_EQ(mailbox.peak_depth(), 1000u);
}

TEST(MailboxTest, DepthStaysBoundedUnderShedPressure) {
  // Many producers shedding against a tiny capacity while a consumer
  // drains: the peak depth must never exceed the cap, and every push must
  // be accounted for (admitted xor shed).
  IntBox mailbox;
  constexpr size_t kCapacity = 4;
  mailbox.set_capacity(kCapacity);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5000;
  std::atomic<uint64_t> admitted{0};
  std::atomic<uint64_t> shed{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        switch (mailbox.PushBounded(i, /*block=*/false, 0)) {
          case PushResult::kOk:
            admitted.fetch_add(1);
            break;
          case PushResult::kFull:
            shed.fetch_add(1);
            break;
          default:
            FAIL() << "unexpected push result";
        }
      }
    });
  }
  std::atomic<uint64_t> consumed{0};
  std::thread consumer([&] {
    std::deque<int> batch;
    while (PopAll(mailbox, &batch)) {
      consumed.fetch_add(batch.size());
    }
  });
  for (std::thread& thread : producers) thread.join();
  mailbox.Close();
  consumer.join();

  EXPECT_LE(mailbox.peak_depth(), kCapacity);
  EXPECT_EQ(admitted.load() + shed.load(),
            static_cast<uint64_t>(kProducers * kPerProducer));
  EXPECT_EQ(consumed.load(), admitted.load());  // Drained, not dropped.
}

TEST(MailboxTest, MailboxPeakDepthIsExactAcrossBothLanes) {
  // With no consumer, the high-water mark must land EXACTLY on the total
  // enqueued count even under concurrent mixed-lane producers — peak depth
  // is measured from one linearizable counter, not approximated from the
  // two per-lane sizes (which could each read below their joint sum).
  IntBox mailbox;
  mailbox.set_capacity(4096);
  constexpr int kRingProducers = 3;
  constexpr int kExemptProducers = 2;
  constexpr int kPerProducer = 500;
  std::vector<std::thread> producers;
  for (int p = 0; p < kRingProducers; ++p) {
    producers.emplace_back([&mailbox] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_EQ(mailbox.PushBounded(i, /*block=*/false, 0),
                  PushResult::kOk);
      }
    });
  }
  for (int p = 0; p < kExemptProducers; ++p) {
    producers.emplace_back([&mailbox] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(mailbox.Push(i));
      }
    });
  }
  for (std::thread& thread : producers) thread.join();

  constexpr size_t kTotal =
      static_cast<size_t>(kRingProducers + kExemptProducers) * kPerProducer;
  EXPECT_EQ(mailbox.depth(), kTotal);
  EXPECT_EQ(mailbox.peak_depth(), kTotal);

  // Draining moves the depth down without disturbing the recorded peak.
  std::deque<int> batch;
  ASSERT_TRUE(PopAll(mailbox, &batch));
  EXPECT_EQ(batch.size(), kTotal);
  EXPECT_EQ(mailbox.depth(), 0u);
  EXPECT_EQ(mailbox.peak_depth(), kTotal);
}

}  // namespace
}  // namespace sentinel
