#include <gtest/gtest.h>

#include <functional>
#include <tuple>

#include "common/parallel.hpp"
#include "sim/event_queue.hpp"
#include "sim/fault.hpp"
#include "sim/latency.hpp"
#include "sim/scheduler.hpp"

namespace dauct::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.executed(), 3u);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(7, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, EventsMayScheduleEvents) {
  EventQueue q;
  int fired = 0;
  q.schedule(1, [&] {
    ++fired;
    q.schedule(2, [&] { ++fired; });
  });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(fired, 2);
}

TEST(Latency, ZeroModelIsZero) {
  crypto::Rng rng(1);
  EXPECT_EQ(LatencyModel::zero().sample(1000, rng), 0);
}

TEST(Latency, ScalesWithBytes) {
  crypto::Rng rng(1);
  LatencyModel model;
  model.jitter = 0.0;
  const SimTime small = model.sample(10, rng);
  const SimTime big = model.sample(10'000, rng);
  EXPECT_GT(big, small);
  EXPECT_EQ(big - small, model.per_byte * 9'990);
}

TEST(Latency, JitterBounded) {
  crypto::Rng rng(3);
  LatencyModel model;
  model.jitter = 0.2;
  const SimTime nominal = model.base + model.per_byte * 100;
  for (int i = 0; i < 200; ++i) {
    const SimTime s = model.sample(100, rng);
    EXPECT_GE(s, static_cast<SimTime>(nominal * 0.79));
    EXPECT_LE(s, static_cast<SimTime>(nominal * 1.21));
  }
}

TEST(Latency, CommunityModelMilliseconds) {
  // The calibration regime: a small message takes single-digit milliseconds.
  crypto::Rng rng(5);
  const SimTime s = LatencyModel::community().sample(100, rng);
  EXPECT_GT(s, from_micros(1'000));
  EXPECT_LT(s, from_millis(10));
}

TEST(Scheduler, DeliversBetweenNodes) {
  Scheduler sched(2, LatencyModel::zero(), 1);
  std::vector<std::string> log;
  sched.set_deliver(0, [&](const net::Message& m) {
    log.push_back("n0:" + m.topic.str());
    sched.send(net::Message{0, 1, "pong", {}});
  });
  sched.set_deliver(1, [&](const net::Message& m) { log.push_back("n1:" + m.topic.str()); });
  sched.inject(0, net::Message{1, 0, "ping", {}});
  sched.run();
  EXPECT_EQ(log, (std::vector<std::string>{"n0:ping", "n1:pong"}));
  EXPECT_EQ(sched.traffic().messages, 2u);
}

TEST(Scheduler, ChargeAdvancesVirtualClock) {
  Scheduler sched(2, LatencyModel::zero(), 1);
  sched.set_deliver(0, [&](const net::Message&) {
    sched.charge(from_millis(5));
    sched.send(net::Message{0, 1, "done", {}});
  });
  SimTime received_at = -1;
  sched.set_deliver(1, [&](const net::Message&) { received_at = sched.now(); });
  sched.inject(0, net::Message{1, 0, "work", {}});
  sched.run();
  EXPECT_EQ(sched.clock(0), from_millis(5));
  EXPECT_EQ(received_at, from_millis(5));  // sent at handler end time
}

TEST(Scheduler, SequentialProcessingPerNode) {
  // Two messages delivered at t=0 to the same node with 1 ms of charged work
  // each: the second handler starts after the first finishes.
  Scheduler sched(1, LatencyModel::zero(), 1);
  std::vector<SimTime> clocks;
  sched.set_deliver(0, [&](const net::Message&) {
    sched.charge(from_millis(1));
    clocks.push_back(sched.clock(0));
  });
  sched.inject(0, net::Message{kNoNode, 0, "a", {}});
  sched.inject(0, net::Message{kNoNode, 0, "b", {}});
  sched.run();
  ASSERT_EQ(clocks.size(), 2u);
  // clock reads *before* the charge is applied (charge applies at end).
  EXPECT_EQ(sched.clock(0), from_millis(2));
}

TEST(Scheduler, NodeDelayInjection) {
  Scheduler base(2, LatencyModel::zero(), 1);
  Scheduler slow(2, LatencyModel::zero(), 1);
  slow.set_node_delay(1, from_millis(10));

  SimTime base_arrival = -1, slow_arrival = -1;
  base.set_deliver(1, [&](const net::Message&) { base_arrival = base.now(); });
  slow.set_deliver(1, [&](const net::Message&) { slow_arrival = slow.now(); });
  base.inject(0, net::Message{kNoNode, 1, "x", {}});
  slow.inject(0, net::Message{kNoNode, 1, "x", {}});
  base.run();
  slow.run();
  EXPECT_EQ(slow_arrival - base_arrival, from_millis(10));
}

TEST(Scheduler, RunSomeBudget) {
  Scheduler sched(1, LatencyModel::zero(), 1);
  int count = 0;
  sched.set_deliver(0, [&](const net::Message&) {
    if (++count < 100) sched.send(net::Message{0, 0, "loop", {}});
  });
  sched.inject(0, net::Message{kNoNode, 0, "start", {}});
  const bool more = sched.run_some(10);
  EXPECT_TRUE(more);
  EXPECT_EQ(count, 10);
}

TEST(Scheduler, DeterministicWithSeed) {
  auto run_once = [](std::uint64_t seed) {
    Scheduler sched(3, LatencyModel::community(), seed);
    std::vector<SimTime> arrivals;
    for (NodeId j = 0; j < 3; ++j) {
      sched.set_deliver(j, [&](const net::Message&) { arrivals.push_back(sched.now()); });
    }
    for (int i = 0; i < 10; ++i) {
      sched.inject(0, net::Message{kNoNode, static_cast<NodeId>(i % 3), "m",
                                   Bytes(i * 10)});
    }
    sched.run();
    return arrivals;
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));  // jitter differs
}

// ---------------------------------------------------------------------------
// Lookahead windows. Each pin runs the same script twice: with every node
// kShared (one event at a time, the serial reference) and with every node
// kIsolated (windows of concurrent per-node batches). Handlers write only
// their own node's log, as isolated handlers must.
// ---------------------------------------------------------------------------

/// What a run leaves behind that the serial order determines.
struct Observed {
  std::vector<std::vector<std::string>> logs;  ///< per node: "time topic"
  std::vector<SimTime> clocks;
  std::uint64_t events = 0, messages = 0, bytes = 0;
  std::vector<std::tuple<SimTime, NodeId, NodeId, std::string>> trace;

  bool operator==(const Observed&) const = default;
};

/// A script installs handlers (with the given isolation) and seeds events.
using Script = std::function<void(Scheduler&, Isolation,
                                  std::vector<std::vector<std::string>>&)>;

Observed observe(std::size_t nodes, LatencyModel latency, Isolation isolation,
                 const Script& script,
                 std::uint64_t budget = std::numeric_limits<std::uint64_t>::max()) {
  Scheduler sched(nodes, latency, 11);
  sched.enable_trace(true);
  Observed o;
  o.logs.resize(nodes);
  script(sched, isolation, o.logs);
  sched.run_some(budget);
  for (NodeId j = 0; j < nodes; ++j) o.clocks.push_back(sched.clock(j));
  o.events = sched.events_dispatched();
  o.messages = sched.traffic().messages;
  o.bytes = sched.traffic().bytes;
  for (const auto& e : sched.trace()) {
    o.trace.emplace_back(e.at, e.from, e.to, e.topic.str());
  }
  return o;
}

std::string entry(const Scheduler& s, const net::Message& m) {
  return std::to_string(s.now()) + " " + m.topic.str();
}

// Four nodes relay hop-counted tokens to each other with zero latency and a
// charged cost, so a whole cascade lands on one timestamp after another:
// every batch of equal timestamps is one window.
void zero_latency_cascade(Scheduler& s, Isolation iso,
                          std::vector<std::vector<std::string>>& logs) {
  for (NodeId j = 0; j < 4; ++j) {
    s.set_deliver(j, [&s, &logs, j](const net::Message& m) {
      logs[j].push_back(entry(s, m));
      const int hops = m.payload.empty() ? 0 : m.payload[0];
      if (hops >= 6) return;
      s.charge(j % 2);  // odd nodes drift, so clocks and departures differ
      for (NodeId to : {NodeId((j + 1) % 4), NodeId((j + 3) % 4)}) {
        s.send(net::Message{j, to, "hop/" + std::to_string(hops),
                            Bytes{static_cast<std::uint8_t>(hops + 1)}});
      }
    }, iso);
  }
  for (NodeId j = 0; j < 4; ++j) {
    s.inject(0, net::Message{kNoNode, j, "start", Bytes{0}});
  }
}

TEST(SchedulerWindow, ZeroLatencyCascadeRunsInSerialOrder) {
  const Observed serial =
      observe(4, LatencyModel::zero(), Isolation::kShared, zero_latency_cascade);
  const Observed windowed =
      observe(4, LatencyModel::zero(), Isolation::kIsolated, zero_latency_cascade);
  EXPECT_GT(serial.events, 100u);
  EXPECT_EQ(windowed, serial);
}

/// 1 ms per hop, no jitter: the lookahead window is 1 ms long.
LatencyModel one_ms_links() { return LatencyModel{from_millis(1), 0, 0.0, 0}; }

// Node 0 gets messages at 1.0 and 1.6 ms; the first arms a timer for 1.3 ms,
// inside the window [1.0, 2.0). Node 1 has events in the same window.
void timer_inside_window(Scheduler& s, Isolation iso,
                         std::vector<std::vector<std::string>>& logs) {
  s.set_deliver(0, [&s, &logs](const net::Message& m) {
    logs[0].push_back(entry(s, m));
    if (m.topic.str() != "a") return;
    s.schedule_timer(s.now() + from_micros(300), 0, [&s, &logs] {
      logs[0].push_back(std::to_string(s.now()) + " timer");
      s.send(net::Message{0, 1, "from-timer", {}});
    });
  }, iso);
  s.set_deliver(1, [&s, &logs](const net::Message& m) {
    logs[1].push_back(entry(s, m));
  }, iso);
  s.inject(0, net::Message{kNoNode, 0, "a", {}});
  s.inject(from_micros(600), net::Message{kNoNode, 0, "b", {}});
  s.inject(from_micros(200), net::Message{kNoNode, 1, "c", {}});
}

TEST(SchedulerWindow, OwnTimerDueInsideTheWindowFiresInItsSerialPlace) {
  const Observed serial =
      observe(2, one_ms_links(), Isolation::kShared, timer_inside_window);
  const Observed windowed =
      observe(2, one_ms_links(), Isolation::kIsolated, timer_inside_window);
  const std::vector<std::string> node0 = {"1000000 a", "1300000 timer",
                                          "1600000 b"};
  EXPECT_EQ(serial.logs[0], node0);
  EXPECT_EQ(windowed, serial);
}

// Five nodes with staggered events inside one 1 ms window, each charging a
// different cost and replying once.
void one_wide_window(Scheduler& s, Isolation iso,
                     std::vector<std::vector<std::string>>& logs) {
  for (NodeId j = 0; j < 5; ++j) {
    s.set_deliver(j, [&s, &logs, j](const net::Message& m) {
      logs[j].push_back(entry(s, m));
      s.charge(from_micros(10 * (j + 1)));
      if (m.from != kNoNode) return;
      s.send(net::Message{j, NodeId((j + 1) % 5), "reply", Bytes(j + 1)});
    }, iso);
  }
  for (int i = 0; i < 15; ++i) {
    s.inject(from_micros(40 * i),
             net::Message{kNoNode, NodeId(i % 5), "e" + std::to_string(i), {}});
  }
}

TEST(SchedulerWindow, RunSomeStoppingMidWindowLeavesTheSerialPrefix) {
  const Observed full =
      observe(5, one_ms_links(), Isolation::kShared, one_wide_window);
  ASSERT_EQ(full.events, 30u);
  for (std::uint64_t k = 1; k <= full.events; ++k) {
    const Observed serial =
        observe(5, one_ms_links(), Isolation::kShared, one_wide_window, k);
    const Observed windowed =
        observe(5, one_ms_links(), Isolation::kIsolated, one_wide_window, k);
    EXPECT_EQ(serial.events, k);
    EXPECT_EQ(windowed, serial) << "budget " << k;
  }
}

std::uint64_t burn_cpu(std::uint64_t ns) {
  const std::uint64_t start = host::thread_cpu_ns();
  volatile std::uint64_t sink = 0;
  std::uint64_t used = 0;
  while ((used = host::thread_cpu_ns() - start) < ns) {
    for (int i = 0; i < 1000; ++i) sink = sink + static_cast<std::uint64_t>(i);
  }
  return used;
}

TEST(SchedulerWindow, MeasuredHandlerIsChargedItsOwnHelpersOnly) {
  // Both handlers run in one window (same timestamp): node 0 burns alone,
  // node 1 fans out. Each node's clock holds its own work and not the other's.
  constexpr std::size_t kItems = 4;
  std::uint64_t alone = 0;
  std::vector<std::uint64_t> item_cpu(kItems);
  Scheduler sched(2, LatencyModel::zero(), 1, CostMode::kMeasured);
  sched.set_deliver(0, [&](const net::Message&) { alone = burn_cpu(40'000'000); },
                    Isolation::kIsolated);
  sched.set_deliver(1, [&](const net::Message&) {
    host::parallel_for(kItems, [&](std::size_t i) { item_cpu[i] = burn_cpu(3'000'000); });
  }, Isolation::kIsolated);
  sched.inject(0, net::Message{kNoNode, 0, "alone", {}});
  sched.inject(0, net::Message{kNoNode, 1, "fan-out", {}});
  sched.run();
  std::uint64_t fanned = 0;
  for (auto c : item_cpu) fanned += c;
  const auto clock0 = static_cast<double>(sched.clock(0));
  const auto clock1 = static_cast<double>(sched.clock(1));
  EXPECT_GE(clock0, 0.9 * static_cast<double>(alone));
  EXPECT_LT(clock0, static_cast<double>(alone) + 0.5 * static_cast<double>(fanned));
  EXPECT_GE(clock1, 0.9 * static_cast<double>(fanned));
  EXPECT_LT(clock1, static_cast<double>(fanned) + 0.5 * static_cast<double>(alone));
}

// ---------------------------------------------------------------------------
// Fault injection at the scheduler level. Scenario-level coverage (plans via
// SimRunConfig, .scn files, determinism pins) lives in scenario_test.cpp.
// ---------------------------------------------------------------------------

TEST(SchedulerFaults, DeterministicDropMatchesRule) {
  // drop = 1 on the 0→1 direction only (symmetric = false).
  FaultPlan plan;
  LinkFault rule;
  rule.from = 0;
  rule.to = 1;
  rule.symmetric = false;
  rule.drop = 1.0;
  plan.links.push_back(rule);

  Scheduler sched(2, LatencyModel::zero(), 1);
  sched.install_fault_plan(plan);
  std::vector<std::string> log;
  sched.set_deliver(0, [&](const net::Message& m) { log.push_back("n0:" + m.topic.str()); });
  sched.set_deliver(1, [&](const net::Message& m) { log.push_back("n1:" + m.topic.str()); });
  sched.inject(0, net::Message{0, 1, "lost", {}});
  sched.inject(0, net::Message{1, 0, "kept", {}});  // reverse direction passes
  sched.run();
  EXPECT_EQ(log, (std::vector<std::string>{"n0:kept"}));
  ASSERT_NE(sched.fault_stats(), nullptr);
  EXPECT_EQ(sched.fault_stats()->link_dropped, 1u);
  // Traffic counts what was *sent*; the drop happened on the wire.
  EXPECT_EQ(sched.traffic().messages, 2u);
}

TEST(SchedulerFaults, DuplicateDeliversTwice) {
  FaultPlan plan;
  LinkFault rule;
  rule.duplicate = 1.0;
  plan.links.push_back(rule);

  Scheduler sched(2, LatencyModel::zero(), 1);
  sched.install_fault_plan(plan);
  int deliveries = 0;
  sched.set_deliver(1, [&](const net::Message&) { ++deliveries; });
  sched.inject(0, net::Message{0, 1, "echoed", {}});
  sched.run();
  EXPECT_EQ(deliveries, 2);
  EXPECT_EQ(sched.fault_stats()->duplicated, 1u);
}

TEST(SchedulerFaults, ExtraDelayShiftsDelivery) {
  FaultPlan plan;
  LinkFault rule;
  rule.extra_delay = from_millis(7);
  plan.links.push_back(rule);

  Scheduler sched(2, LatencyModel::zero(), 1);
  sched.install_fault_plan(plan);
  SimTime at = -1;
  sched.set_deliver(1, [&](const net::Message&) { at = sched.now(); });
  sched.inject(from_millis(1), net::Message{0, 1, "late", {}});
  sched.run();
  EXPECT_EQ(at, from_millis(8));
  EXPECT_EQ(sched.fault_stats()->delayed, 1u);
}

TEST(SchedulerFaults, LinkCutIsSymmetricAndWindowed) {
  FaultPlan plan;
  plan.cuts.push_back(LinkCut{0, 1, from_millis(10), from_millis(20)});

  Scheduler sched(2, LatencyModel::zero(), 1);
  sched.install_fault_plan(plan);
  int delivered = 0;
  sched.set_deliver(0, [&](const net::Message&) { ++delivered; });
  sched.set_deliver(1, [&](const net::Message&) { ++delivered; });
  sched.inject(from_millis(5), net::Message{0, 1, "before", {}});   // passes
  sched.inject(from_millis(15), net::Message{0, 1, "during", {}});  // cut
  sched.inject(from_millis(15), net::Message{1, 0, "reverse", {}});  // cut too
  sched.inject(from_millis(25), net::Message{0, 1, "after", {}});   // healed
  sched.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(sched.fault_stats()->cut_dropped, 2u);
}

TEST(SchedulerFaults, PartitionDropsCrossTrafficOnly) {
  FaultPlan plan;
  plan.partitions.push_back(Partition{{0, 1}, 0, kSimForever});

  Scheduler sched(3, LatencyModel::zero(), 1);
  sched.install_fault_plan(plan);
  std::vector<std::string> log;
  for (NodeId j = 0; j < 3; ++j) {
    sched.set_deliver(j, [&log, j](const net::Message& m) {
      std::string entry = "n";
      entry += std::to_string(j);
      entry += ":";
      entry += m.topic.str();
      log.push_back(std::move(entry));
    });
  }
  sched.inject(0, net::Message{0, 1, "inside", {}});   // both in group
  sched.inject(0, net::Message{0, 2, "cross", {}});    // dropped
  sched.inject(0, net::Message{2, 1, "cross2", {}});   // dropped
  sched.run();
  EXPECT_EQ(log, (std::vector<std::string>{"n1:inside"}));
  EXPECT_EQ(sched.fault_stats()->partition_dropped, 2u);
}

TEST(SchedulerFaults, CrashedNodeNeitherReceivesNorSends) {
  FaultPlan plan;
  plan.crashes.push_back(CrashEvent{1, from_millis(10)});

  Scheduler sched(2, LatencyModel::zero(), 1);
  sched.install_fault_plan(plan);
  std::vector<std::string> log;
  sched.set_deliver(0, [&](const net::Message& m) { log.push_back("n0:" + m.topic.str()); });
  sched.set_deliver(1, [&](const net::Message& m) {
    log.push_back("n1:" + m.topic.str());
    sched.send(net::Message{1, 0, "reply/" + m.topic.str(), {}});
  });
  sched.inject(from_millis(5), net::Message{0, 1, "alive", {}});
  // Arrives at 12 ms — after the crash: dropped at delivery, no reply.
  sched.inject(from_millis(12), net::Message{0, 1, "dead", {}});
  sched.run();
  EXPECT_EQ(log, (std::vector<std::string>{"n1:alive", "n0:reply/alive"}));
  EXPECT_EQ(sched.fault_stats()->crash_dropped, 1u);
}

TEST(SchedulerFaults, CrashRecoverRestoresDelivery) {
  FaultPlan plan;
  plan.crashes.push_back(CrashEvent{1, from_millis(10), from_millis(20)});

  Scheduler sched(2, LatencyModel::zero(), 1);
  sched.install_fault_plan(plan);
  std::vector<SimTime> seen;
  sched.set_deliver(1, [&](const net::Message&) { seen.push_back(sched.now()); });
  sched.inject(from_millis(15), net::Message{0, 1, "lost", {}});
  sched.inject(from_millis(21), net::Message{0, 1, "kept", {}});
  sched.run();
  EXPECT_EQ(seen, (std::vector<SimTime>{from_millis(21)}));
  EXPECT_EQ(sched.fault_stats()->crash_dropped, 1u);
}

TEST(SchedulerFaults, NoPlanMeansNoStats) {
  Scheduler sched(2, LatencyModel::zero(), 1);
  EXPECT_EQ(sched.fault_stats(), nullptr);
}

TEST(FormatTime, Millis) { EXPECT_EQ(format_time(from_millis(12) + 345'000), "12.345ms"); }

}  // namespace
}  // namespace dauct::sim
