// Host worker pool (common/parallel.hpp): every item runs exactly once,
// nested and concurrent callers complete, the exception contract holds, and
// every helper's CPU is charged back to the caller — down to a kMeasured
// scheduler handler's virtual clock.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "net/message.hpp"
#include "sim/scheduler.hpp"

namespace dauct {
namespace {

/// Spin until this thread has used `ns` of CPU; returns the CPU it measured.
std::uint64_t burn_cpu(std::uint64_t ns) {
  const std::uint64_t start = host::thread_cpu_ns();
  volatile std::uint64_t sink = 0;
  std::uint64_t used = 0;
  while ((used = host::thread_cpu_ns() - start) < ns) {
    for (int i = 0; i < 1000; ++i) sink = sink + static_cast<std::uint64_t>(i);
  }
  return used;
}

/// CPU spent on the calling thread's behalf so far.
std::uint64_t charged_cpu() { return host::thread_cpu_ns() + host::helper_cpu_ns(); }

void expect_each_index_once(std::size_t n) {
  std::vector<std::atomic<int>> runs(n);
  host::parallel_for(n, [&](std::size_t i) { runs[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(runs[i].load(), 1) << "n=" << n << " i=" << i;
}

TEST(HostPool, UsableCpusIsPositive) { EXPECT_GE(host::usable_cpus(), 1u); }

TEST(HostPool, EveryIndexRunsExactlyOnce) {
  for (std::size_t n : {0u, 1u, 2u, 37u, 1000u}) expect_each_index_once(n);
}

TEST(HostPool, NestedCallsComplete) {
  // Three levels: items of an outer call fan out again, twice. The caller
  // participates at every level, so nothing waits on an unclaimed item.
  std::atomic<int> leaves{0};
  host::parallel_for(6, [&](std::size_t) {
    host::parallel_for(5, [&](std::size_t) {
      host::parallel_for(4, [&](std::size_t) { leaves.fetch_add(1); });
    });
  });
  EXPECT_EQ(leaves.load(), 6 * 5 * 4);
}

TEST(HostPool, ConcurrentCallersComplete) {
  constexpr int kCallers = 8;
  std::vector<std::atomic<int>> sums(kCallers);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&sums, c] {
      for (int round = 0; round < 20; ++round) {
        host::parallel_for(16, [&](std::size_t) {
          host::parallel_for(3, [&](std::size_t) { sums[c].fetch_add(1); });
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) EXPECT_EQ(sums[c].load(), 20 * 16 * 3);
}

TEST(HostPool, ThrowingItemPropagatesAfterEveryStartedItemFinished) {
  std::vector<std::atomic<int>> runs(200);
  std::atomic<int> running{0};
  try {
    host::parallel_for(runs.size(), [&](std::size_t i) {
      running.fetch_add(1);
      runs[i].fetch_add(1);
      if (i == 5) {
        running.fetch_sub(1);
        throw std::runtime_error("item 5");
      }
      burn_cpu(20'000);
      running.fetch_sub(1);
    });
    ADD_FAILURE() << "parallel_for swallowed the exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "item 5");
  }
  EXPECT_EQ(running.load(), 0);  // no item of the call outlives it
  EXPECT_EQ(runs[5].load(), 1);
  for (auto& r : runs) EXPECT_LE(r.load(), 1);  // skipped or run once, never twice

  // The pool is still usable afterwards.
  expect_each_index_once(37);
}

TEST(HostPool, OneOfSeveralExceptionsIsRethrown) {
  EXPECT_THROW(host::parallel_for(64, [](std::size_t i) { throw static_cast<int>(i); }),
               int);
  expect_each_index_once(37);
}

TEST(HostPool, HelperCpuIsChargedToTheCaller) {
  constexpr std::size_t kItems = 8;
  std::vector<std::uint64_t> item_cpu(kItems);
  const std::uint64_t before = charged_cpu();
  host::parallel_for(kItems, [&](std::size_t i) { item_cpu[i] = burn_cpu(3'000'000); });
  const std::uint64_t charged = charged_cpu() - before;
  std::uint64_t sum = 0;
  for (auto c : item_cpu) sum += c;
  EXPECT_GE(static_cast<double>(charged), 0.9 * static_cast<double>(sum));
}

TEST(HostPool, NestedHelperCpuIsChargedToTheOutermostCaller) {
  // Fewer outer items than threads, so idle workers help the inner calls
  // that other workers make: their CPU must flow back through two levels.
  constexpr std::size_t kOuter = 2, kInner = 8;
  std::vector<std::uint64_t> item_cpu(kOuter * kInner);
  const std::uint64_t before = charged_cpu();
  host::parallel_for(kOuter, [&](std::size_t o) {
    host::parallel_for(kInner, [&](std::size_t i) {
      item_cpu[o * kInner + i] = burn_cpu(2'000'000);
    });
  });
  const std::uint64_t charged = charged_cpu() - before;
  std::uint64_t sum = 0;
  for (auto c : item_cpu) sum += c;
  EXPECT_GE(static_cast<double>(charged), 0.9 * static_cast<double>(sum));
}

TEST(HostPool, MeasuredHandlerIsChargedForItsFanOut) {
  // A kMeasured handler that fans out advances its node's virtual clock by
  // at least the CPU its items burned, wherever they ran.
  constexpr std::size_t kItems = 8;
  std::vector<std::uint64_t> item_cpu(kItems);
  sim::Scheduler sched(2, sim::LatencyModel::zero(), 1, sim::CostMode::kMeasured);
  sched.set_deliver(1, [&](const net::Message&) {
    host::parallel_for(kItems, [&](std::size_t i) { item_cpu[i] = burn_cpu(3'000'000); });
  });
  sched.inject(0, net::Message{0, 1, "work", {}});
  sched.run();
  std::uint64_t sum = 0;
  for (auto c : item_cpu) sum += c;
  EXPECT_GE(static_cast<double>(sched.clock(1)), 0.9 * static_cast<double>(sum));
}

}  // namespace
}  // namespace dauct
