// Virtual-time network scheduler.
//
// Simulates an asynchronous message-passing system with reliable channels and
// fair schedules (the paper's game-theoretic model, §3.3): every message sent
// is eventually delivered, and every node is scheduled to move whenever it
// has pending messages. Time is virtual:
//
//  * each node has a virtual clock;
//  * delivering a message to node j starts a handler at
//    max(delivery_time, clock[j]) — one node processes its events one at a
//    time, in (time, sequence) order;
//  * the CPU time spent on the handler's behalf is measured and charged to
//    clock[j] (CostMode::kMeasured), or charged zero (CostMode::kZero, fully
//    deterministic for logic tests). "On its behalf" is the CPU of the thread
//    that ran the handler (CLOCK_THREAD_CPUTIME_ID) plus the CPU that
//    host-pool helpers spent on its parallel_for items (common/parallel.hpp):
//    a handler that fans out finishes sooner in wall time, never in virtual
//    time, and is never charged for another handler running beside it;
//  * messages sent during the handler depart at the handler's end time and
//    arrive after a sampled link latency.
//
// Lookahead windows (conservative parallel discrete-event simulation with
// lookahead: Chandy & Misra 1979; Fujimoto, CACM 1990). No message arrives
// sooner than L = LatencyModel::min_delay() after it departs, and a handler
// departs no earlier than its own event time; fault and node delays only add
// to that. So once the earliest queued event is at T, nothing a handler emits
// can land before T + L, and every queued event with at < T + L (at = T when
// L = 0) is already known. The scheduler runs each such window as one batch:
//
//  * each node's events of the window, in (time, sequence) order, form one
//    host::parallel_for item; a timer a node arms for itself that comes due
//    inside the window runs there too, in its serial place;
//  * everything a callback emits is buffered: sends, timers, trace entries,
//    crash-window drops. A serial merge then replays the window's events in
//    the exact serial (time, sequence) order and applies their effects in
//    emission order (timers before the outbox, as a serial run schedules
//    them), drawing latency and fault randomness, counting traffic and
//    numbering queue events exactly as one-at-a-time dispatch would.
//
// Which nodes may share a window is the owner's declaration (Isolation):
// kIsolated nodes touch only their own state, so their items run
// concurrently; a kShared node (the default) runs alone, at its exact serial
// position, between windows. Either way a CostMode::kZero run is
// bit-identical to dispatching every event one at a time: inside a window,
// now() is the running event's own time and each node sees only its own
// history, exactly as it would serially.
//
// Determinism: with CostMode::kZero, a run is a pure function of the seed
// (events tie-break by sequence number) on any number of cores. With
// kMeasured, timing varies with host load but protocol correctness never
// depends on it — blocks wait for complete rounds, not on timing.
//
// Fault injection: install_fault_plan() routes every message through a
// compiled sim::FaultInjector (drop / duplicate / delay / cut / partition /
// crash, all in virtual time, drawing from its own seeded RNG stream). With
// no plan installed the dispatch path pays one null-pointer test per message.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
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

/// Which other callbacks a node's handler and timers may run beside.
enum class Isolation {
  /// May touch state other nodes' callbacks touch (a shared log, a counter
  /// captured by several handlers): runs alone, at its serial position.
  kShared,
  /// Touches only its own state, and arms timers only for itself: runs
  /// concurrently with other isolated nodes' events in the same window.
  kIsolated,
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
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Install the message handler of `node`, and declare what it (and the
  /// node's timers) may run beside.
  void set_deliver(NodeId node, DeliverFn fn,
                   Isolation isolation = Isolation::kShared);

  /// Send from within a handler: departs at the current handler's end time.
  /// Also valid outside a handler (departs at the sender's current clock).
  void send(net::Message msg);

  /// Inject a message from the outside world at absolute virtual time `at`
  /// (e.g. bidders submitting bids at t=0). Not from inside a handler.
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
  /// event stream is untouched. An isolated node's callbacks may arm timers
  /// only for that node.
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
  void run() { run_some(std::numeric_limits<std::uint64_t>::max()); }

  /// Run at most `max_events` events; returns true if events remain.
  /// Overflow is the hard budget guard fuzzed plans run under: the caller
  /// (runtime/sim_runtime.cpp) turns a true return into an explicit
  /// ⊥ event-budget-exceeded instead of letting a pathological plan spin.
  /// A window the budget would cut runs one event at a time, so the run
  /// stops on the exact serial prefix. The one exception: timers armed and
  /// run inside a window whose queued events fit the budget can carry that
  /// window past it (each node still stops once it alone has used it up);
  /// which events ran is then still a function of the inputs alone, on any
  /// number of cores.
  bool run_some(std::uint64_t max_events);

  /// Events dispatched over the scheduler's lifetime (deliveries + timers),
  /// across run()/run_some() calls. Budget accounting for the fuzz oracle.
  std::uint64_t events_dispatched() const { return events_dispatched_; }

  /// A node's virtual clock. From inside an isolated handler, read only the
  /// handler's own node.
  SimTime clock(NodeId node) const { return clocks_.at(node); }
  /// Inside a handler or timer: its event's time. Outside: the time of the
  /// last event dispatched.
  SimTime now() const;
  const TrafficStats& traffic() const { return traffic_; }

  /// Scale factor applied to measured CPU time (calibration; default 1.0).
  void set_cpu_scale(double scale) { cpu_scale_ = scale; }

  /// Extra delay injection for adversarial-schedule tests: messages to/from
  /// `node` get an extra fixed delay (≥ 0).
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
  struct Lane;
  struct Context;

  /// Pop the next window into lanes_ and window_; returns the time before
  /// which a node's own new timer still runs inside it.
  SimTime take_window(std::uint64_t budget);
  /// Run one lane's events (and its in-window timers) in serial order.
  void run_lane(Lane& lane, SimTime timer_limit, std::uint64_t cap);
  void run_event(Context& ctx, EventQueue::Event& ev);
  void deliver(Context& ctx, net::Message& msg);
  /// Queue a timer valid for `incarnation`; from inside a callback, buffer
  /// it (and run it in the window when it is the node's own and due there).
  void arm_timer(SimTime at, NodeId node, std::uint32_t incarnation,
                 std::function<void()> fn);
  void run_timer(NodeId node, std::uint32_t incarnation,
                 const std::function<void()>& fn);
  /// Shared handler/timer execution protocol: run `fn` on the context's node
  /// starting no earlier than the event time, charge `initial_charge` plus
  /// (in kMeasured mode) the callback's real CPU time to the node's clock,
  /// and record the departure time of its outbox.
  template <typename Fn>
  void run_in_node_context(Context& ctx, SimTime initial_charge, Fn&& fn);
  /// Replay the window's buffered effects in serial order.
  void merge_window();
  void route(SimTime depart, SimTime lat, net::Message msg);
  /// The context of the callback this thread is running for this scheduler.
  Context* context() const;

  std::size_t num_nodes_;
  LatencyModel latency_;
  SimTime lookahead_;  ///< latency_.min_delay()
  crypto::Rng rng_;
  CostMode cost_mode_;
  double cpu_scale_ = 1.0;

  EventQueue queue_;
  std::vector<SimTime> clocks_;
  /// Per-node timer-validity epoch (bump_incarnation): timers carry the
  /// value current at scheduling time and are dropped on mismatch.
  std::vector<std::uint32_t> incarnations_;
  std::vector<DeliverFn> handlers_;
  std::vector<Isolation> isolation_;
  std::vector<SimTime> node_delay_;
  SimTime now_ = kSimStart;
  std::uint64_t events_dispatched_ = 0;

  // The current window: one lane per node with events in it (reused across
  // windows, so their buffers keep their capacity), and the window's queued
  // events in serial order as (lane, record) pairs.
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::size_t lanes_used_ = 0;
  std::vector<std::uint32_t> lane_of_node_;  ///< kNoLane when not in the window
  struct Slot {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t lane;
    std::uint32_t record;
  };
  std::vector<Slot> window_;

  TrafficStats traffic_;
  std::unique_ptr<FaultInjector> faults_;  ///< null = fault-free (the fast path)
  bool trace_enabled_ = false;
  std::vector<TraceEntry> trace_;
};

}  // namespace dauct::sim
