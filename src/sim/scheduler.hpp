// Virtual-time network scheduler.
//
// Simulates an asynchronous message-passing system with reliable channels and
// fair schedules (the paper's game-theoretic model, §3.3): every message sent
// is eventually delivered, and every node is scheduled to move whenever it
// has pending messages. Time is virtual:
//
//  * each node has a virtual clock;
//  * delivering a message to node j starts a handler at
//    max(delivery_time, clock[j]) — nodes process sequentially;
//  * the CPU time spent on the handler's behalf is measured and charged to
//    clock[j] (CostMode::kMeasured), or charged zero (CostMode::kZero, fully
//    deterministic for logic tests). "On its behalf" is the handler thread's
//    own CPU (CLOCK_THREAD_CPUTIME_ID) plus the CPU that host-pool helpers
//    spent on its parallel_for items (common/parallel.hpp): a handler that
//    fans out finishes sooner in wall time, never in virtual time;
//  * messages sent during the handler depart at the handler's end time and
//    arrive after a sampled link latency.
//
// Determinism: with CostMode::kZero, a run is a pure function of the seed
// (events tie-break by sequence number). With kMeasured, timing varies with
// host load but protocol correctness never depends on it — blocks wait for
// complete rounds, not on timing.
//
// Fault injection: install_fault_plan() routes every message through a
// compiled sim::FaultInjector (drop / duplicate / delay / cut / partition /
// crash, all in virtual time, drawing from its own seeded RNG stream). With
// no plan installed the dispatch path pays one null-pointer test per message.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "crypto/rng.hpp"
#include "net/message.hpp"
#include "sim/event_queue.hpp"
#include "sim/fault.hpp"
#include "sim/latency.hpp"

namespace dauct::sim {

enum class CostMode {
  kMeasured,  ///< charge the CPU spent on the handler's behalf (benchmarks)
  kZero,      ///< charge nothing (deterministic logic tests)
};

/// Per-run traffic statistics.
struct TrafficStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

/// One delivered message, for trace recording. The topic is the interned id
/// (net/topic.hpp): recording a trace entry copies no strings.
struct TraceEntry {
  SimTime at = 0;          ///< delivery time
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  net::Topic topic;
  std::size_t bytes = 0;
};

class Scheduler {
 public:
  using DeliverFn = std::function<void(const net::Message&)>;

  /// `num_nodes` includes any client nodes beyond the providers.
  Scheduler(std::size_t num_nodes, LatencyModel latency, std::uint64_t seed,
            CostMode cost_mode = CostMode::kZero);

  // Pinned: the event queue's message sink captures `this` at construction.
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Install the message handler of `node`.
  void set_deliver(NodeId node, DeliverFn fn);

  /// Send from within a handler: departs at the current handler's end time.
  /// Also valid outside a handler (departs at the sender's current clock).
  void send(net::Message msg);

  /// Inject a message from the outside world at absolute virtual time `at`
  /// (e.g. bidders submitting bids at t=0).
  void inject(SimTime at, net::Message msg);

  /// Run `fn` at absolute virtual time `at` in `node`'s execution context:
  /// sends made from the callback depart like handler sends (at the node's
  /// clock after the callback), and the node's clock advances past `at`.
  /// Timers belong to the node and share its crash fate: a timer coming due
  /// while the node is down is discarded forever on a crash-stop, but
  /// *deferred to the recovery instant* on a crash-recover — engine state
  /// survives the window, so the node's timer wheel does too (in-flight
  /// messages of the window stay lost). Used by the reliability layer
  /// (net/reliable.hpp) for retransmit backoff and round watchdogs; nothing
  /// schedules timers unless reliability is enabled, so the timer-free
  /// event stream is untouched.
  void schedule_timer(SimTime at, NodeId node, std::function<void()> fn);

  /// Invalidate every timer `node` scheduled before this call: a timer fires
  /// only if the node's incarnation still matches the one captured when it
  /// was scheduled. This is what makes an *amnesia* recovery safe — the
  /// rebuilt node must never run a timer armed by the state it lost (the
  /// engine object behind such a timer no longer exists), whether the timer
  /// was deferred through the down window or simply due after recovery.
  /// Deliveries are unaffected: in-flight messages survive a process, not
  /// its memory.
  void bump_incarnation(NodeId node);

  /// Charge extra virtual compute time to the node whose handler is running
  /// (explicit cost-model hook; combinable with measured costs).
  void charge(SimTime cost);

  /// Run until no events remain.
  void run();

  /// Run at most `max_events` events; returns true if events remain.
  /// Overflow is the hard budget guard fuzzed plans run under: the caller
  /// (runtime/sim_runtime.cpp) turns a true return into an explicit
  /// ⊥ event-budget-exceeded instead of letting a pathological plan spin.
  bool run_some(std::uint64_t max_events);

  /// Events dispatched over the scheduler's lifetime (deliveries + timers),
  /// across run()/run_some() calls. Budget accounting for the fuzz oracle.
  std::uint64_t events_dispatched() const { return events_dispatched_; }

  SimTime clock(NodeId node) const { return clocks_.at(node); }
  SimTime now() const { return now_; }
  const TrafficStats& traffic() const { return traffic_; }

  /// Scale factor applied to measured CPU time (calibration; default 1.0).
  void set_cpu_scale(double scale) { cpu_scale_ = scale; }

  /// Extra delay injection for adversarial-schedule tests: messages to/from
  /// `node` get an extra fixed delay.
  void set_node_delay(NodeId node, SimTime extra);

  /// Install a fault plan (sim/fault.hpp): every subsequent send/inject and
  /// delivery is routed through the compiled injector. Install before the
  /// first event runs; installing a plan whose rates are all zero is
  /// bit-identical to installing nothing. With no plan installed the
  /// dispatch path pays a single null-pointer test per message.
  void install_fault_plan(FaultPlan plan);

  /// Injector bookkeeping; null when no plan is installed.
  const FaultStats* fault_stats() const {
    return faults_ ? &faults_->stats() : nullptr;
  }

  /// Record every delivery (off by default; costs memory ∝ messages).
  void enable_trace(bool on) { trace_enabled_ = on; }
  const std::vector<TraceEntry>& trace() const { return trace_; }

  /// Render the trace as "time from->to topic (bytes)" lines.
  std::string format_trace(std::size_t max_entries = 100) const;

 private:
  void deliver(SimTime at, net::Message msg);
  void run_timer(SimTime at, NodeId node, std::uint32_t incarnation,
                 const std::function<void()>& fn);
  /// Shared handler/timer execution protocol: run `fn` on `node` starting no
  /// earlier than `at`, charge `initial_charge` plus (in kMeasured mode) the
  /// callback's real CPU time to the node's clock, then flush its outbox.
  template <typename Fn>
  void run_in_node_context(SimTime at, NodeId node, SimTime initial_charge, Fn&& fn);
  void flush_outbox(SimTime depart);
  void route(SimTime depart, SimTime lat, net::Message msg);

  std::size_t num_nodes_;
  LatencyModel latency_;
  crypto::Rng rng_;
  CostMode cost_mode_;
  double cpu_scale_ = 1.0;

  EventQueue queue_;
  std::vector<SimTime> clocks_;
  /// Per-node timer-validity epoch (bump_incarnation): timers carry the
  /// value current at scheduling time and are dropped on mismatch.
  std::vector<std::uint32_t> incarnations_;
  std::vector<DeliverFn> handlers_;
  std::vector<SimTime> node_delay_;
  SimTime now_ = kSimStart;
  std::uint64_t events_dispatched_ = 0;

  // Handler-execution context.
  bool in_handler_ = false;
  NodeId current_node_ = kNoNode;
  SimTime extra_charge_ = 0;
  std::vector<net::Message> outbox_;

  TrafficStats traffic_;
  std::unique_ptr<FaultInjector> faults_;  ///< null = fault-free (the fast path)
  bool trace_enabled_ = false;
  std::vector<TraceEntry> trace_;
};

}  // namespace dauct::sim
