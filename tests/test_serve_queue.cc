#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ipin/serve/frontend.h"

// The frontend's admission gate: the bound on concurrent evaluations, the
// bounded FIFO of readers waiting for one, and the deadlines that expire
// waiters (their own, and the drain deadline).

namespace ipin::serve {
namespace {

using Clock = AdmissionGate::Clock;
using Entry = AdmissionGate::Entry;

Clock::time_point In(int64_t ms) {
  return Clock::now() + std::chrono::milliseconds(ms);
}

// Spins until `gate` has `n` waiters (bounded, so a broken gate fails
// instead of hanging).
bool WaitForWaiters(const AdmissionGate& gate, size_t n) {
  for (int spin = 0; spin < 5000; ++spin) {
    if (gate.waiting() == n) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

TEST(AdmissionGateTest, AdmitsImmediatelyWhileAPermitIsFree) {
  AdmissionGate gate(/*permits=*/2, /*max_waiters=*/0);
  EXPECT_EQ(gate.Enter(In(1000)), Entry::kAdmitted);
  EXPECT_EQ(gate.Enter(In(1000)), Entry::kAdmitted);
  EXPECT_EQ(gate.holders(), 2u);
  gate.Leave();
  gate.Leave();
  EXPECT_EQ(gate.holders(), 0u);
}

TEST(AdmissionGateTest, WaitersAreAdmittedInArrivalOrder) {
  AdmissionGate gate(/*permits=*/1, /*max_waiters=*/8);
  ASSERT_EQ(gate.Enter(In(5000)), Entry::kAdmitted);

  constexpr int kWaiters = 5;
  std::mutex mu;
  std::vector<int> order;
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&, i] {
      ASSERT_EQ(gate.Enter(In(5000)), Entry::kAdmitted);
      {
        std::lock_guard<std::mutex> lock(mu);
        order.push_back(i);
      }
      gate.Leave();
    });
    // Each waiter joins the line before the next one starts.
    ASSERT_TRUE(WaitForWaiters(gate, static_cast<size_t>(i + 1)));
  }
  gate.Leave();
  for (auto& t : waiters) t.join();
  ASSERT_EQ(order.size(), static_cast<size_t>(kWaiters));
  for (int i = 0; i < kWaiters; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(gate.holders(), 0u);
  EXPECT_EQ(gate.waiting(), 0u);
}

TEST(AdmissionGateTest, NeverMoreHoldersThanPermits) {
  constexpr size_t kPermits = 2;
  AdmissionGate gate(kPermits, /*max_waiters=*/64);
  std::atomic<int> inside{0};
  std::atomic<int> most{0};
  std::atomic<int> admitted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        if (gate.Enter(In(10000)) != Entry::kAdmitted) continue;
        const int now = ++inside;
        int seen = most.load();
        while (now > seen && !most.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::yield();
        --inside;
        ++admitted;
        gate.Leave();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(admitted.load(), 8 * 200);
  EXPECT_LE(most.load(), static_cast<int>(kPermits));
  EXPECT_EQ(gate.holders(), 0u);
}

TEST(AdmissionGateTest, RefusesWaitersBeyondCapacity) {
  AdmissionGate gate(/*permits=*/1, /*max_waiters=*/1);
  ASSERT_EQ(gate.Enter(In(5000)), Entry::kAdmitted);
  std::thread waiter([&] {
    EXPECT_EQ(gate.Enter(In(5000)), Entry::kAdmitted);
    gate.Leave();
  });
  ASSERT_TRUE(WaitForWaiters(gate, 1));
  // The line is full: refused at once, never blocking.
  const auto start = Clock::now();
  EXPECT_EQ(gate.Enter(In(5000)), Entry::kRefused);
  EXPECT_LT(Clock::now() - start, std::chrono::seconds(1));
  EXPECT_EQ(gate.waiting(), 1u);
  gate.Leave();
  waiter.join();
  // Capacity freed: the next caller gets in.
  EXPECT_EQ(gate.Enter(In(5000)), Entry::kAdmitted);
  gate.Leave();
}

TEST(AdmissionGateTest, ZeroCapacityRefusesEveryWaiter) {
  AdmissionGate gate(/*permits=*/1, /*max_waiters=*/0);
  ASSERT_EQ(gate.Enter(In(5000)), Entry::kAdmitted);
  EXPECT_EQ(gate.Enter(In(5000)), Entry::kRefused);
  gate.Leave();
}

TEST(AdmissionGateTest, DrainStillAdmitsTheWaiters) {
  AdmissionGate gate(/*permits=*/1, /*max_waiters=*/4);
  ASSERT_EQ(gate.Enter(In(5000)), Entry::kAdmitted);
  std::atomic<int> admitted{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < 3; ++i) {
    waiters.emplace_back([&] {
      if (gate.Enter(In(5000)) == Entry::kAdmitted) {
        ++admitted;
        gate.Leave();
      }
    });
  }
  ASSERT_TRUE(WaitForWaiters(gate, 3));
  gate.Drain(In(5000));
  gate.Leave();
  for (auto& t : waiters) t.join();
  EXPECT_EQ(admitted.load(), 3);
}

TEST(AdmissionGateTest, WaiterPastTheDrainDeadlineExpires) {
  AdmissionGate gate(/*permits=*/1, /*max_waiters=*/4);
  ASSERT_EQ(gate.Enter(In(5000)), Entry::kAdmitted);
  std::thread waiter(
      [&] { EXPECT_EQ(gate.Enter(In(5000)), Entry::kExpired); });
  ASSERT_TRUE(WaitForWaiters(gate, 1));
  // The drain deadline, not the waiter's own 5 s, ends the wait.
  const auto start = Clock::now();
  gate.Drain(In(20));
  waiter.join();
  EXPECT_LT(Clock::now() - start, std::chrono::seconds(2));
  EXPECT_EQ(gate.waiting(), 0u);
  // Past the drain deadline even a free permit is not taken.
  gate.Leave();
  EXPECT_EQ(gate.Enter(In(5000)), Entry::kExpired);
  EXPECT_EQ(gate.holders(), 0u);
}

TEST(AdmissionGateTest, WaiterWhoseDeadlinePassesIsReportedExpired) {
  AdmissionGate gate(/*permits=*/1, /*max_waiters=*/4);
  ASSERT_EQ(gate.Enter(In(5000)), Entry::kAdmitted);
  const auto start = Clock::now();
  EXPECT_EQ(gate.Enter(In(30)), Entry::kExpired);
  EXPECT_GE(Clock::now() - start, std::chrono::milliseconds(30));
  EXPECT_EQ(gate.waiting(), 0u);  // it left the line
  EXPECT_EQ(gate.holders(), 1u);  // and took no permit
  gate.Leave();

  // A deadline already past on entry expires even with a permit free, and
  // the permit is not kept.
  EXPECT_EQ(gate.Enter(Clock::now() - std::chrono::milliseconds(1)),
            Entry::kExpired);
  EXPECT_EQ(gate.holders(), 0u);
}

TEST(AdmissionGateTest, ExpiredWaiterDoesNotBlockTheOnesBehindIt) {
  AdmissionGate gate(/*permits=*/1, /*max_waiters=*/4);
  ASSERT_EQ(gate.Enter(In(5000)), Entry::kAdmitted);
  std::thread early(
      [&] { EXPECT_EQ(gate.Enter(In(200)), Entry::kExpired); });
  ASSERT_TRUE(WaitForWaiters(gate, 1));
  std::thread late([&] {
    EXPECT_EQ(gate.Enter(In(5000)), Entry::kAdmitted);
    gate.Leave();
  });
  ASSERT_TRUE(WaitForWaiters(gate, 2));
  early.join();  // gave up at its deadline
  gate.Leave();
  late.join();
  EXPECT_EQ(gate.holders(), 0u);
}

}  // namespace
}  // namespace ipin::serve
