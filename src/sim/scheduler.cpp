#include "sim/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/log.hpp"
#include "common/parallel.hpp"

namespace dauct::sim {

namespace {

constexpr std::uint32_t kNoLane = ~0u;
constexpr std::uint32_t kNotRun = ~0u;
/// Timer limit of a window in which no new timer may run.
constexpr SimTime kNoTimers = std::numeric_limits<SimTime>::min();

// CPU spent on this thread's behalf: its own thread CPU plus what host-pool
// helpers spent on its parallel_for items (common/parallel.hpp), so a
// handler that fans out is charged everything it made the host do.
SimTime thread_cpu_now() {
  return static_cast<SimTime>(host::thread_cpu_ns() + host::helper_cpu_ns());
}

/// A timer armed by a callback. The merge queues it, unless its node already
/// ran it inside the window; then `ran` names the record of that run.
struct Timer {
  SimTime at;
  NodeId node;
  EventQueue::Callback fn;
  std::uint32_t ran = kNotRun;
};

/// What one event did, buffered until the merge replays it.
struct Record {
  SimTime at = 0;
  bool crash_dropped = false;  ///< delivery lost at a down receiver
  bool traced = false;
  TraceEntry trace;
  SimTime depart = 0;  ///< the outbox's departure time
  std::vector<Timer> timers;
  std::vector<net::Message> outbox;
};

}  // namespace

/// One node's share of a window. Lanes are reused across windows, so their
/// buffers keep their capacity.
struct Scheduler::Lane {
  NodeId node = kNoNode;
  std::vector<EventQueue::Event> events;  ///< queued events, serial order
  std::size_t ran_events = 0;  ///< a prefix of `events`; the rest are requeued
  /// records[i] belongs to events[i]; in-window timer runs follow.
  std::vector<Record> records;
  std::size_t used = 0;
  /// Own timers due inside the window, a min-heap on (at, arming order).
  struct Due {
    SimTime at;
    std::uint64_t order;
    std::uint32_t record;  ///< arming record
    std::uint32_t timer;   ///< index into its timers
    bool operator>(const Due& o) const {
      return at != o.at ? at > o.at : order > o.order;
    }
  };
  std::vector<Due> due;
  std::uint64_t due_order = 0;

  std::uint32_t add_record(SimTime at) {
    if (used == records.size()) records.emplace_back();
    Record& r = records[used];
    r.at = at;
    r.crash_dropped = false;
    r.traced = false;
    r.timers.clear();
    r.outbox.clear();
    return static_cast<std::uint32_t>(used++);
  }
};

/// The callback a thread is running for a scheduler.
struct Scheduler::Context {
  Scheduler* owner;
  Lane* lane;
  SimTime timer_limit;  ///< own timers due before this run in the window
  std::uint32_t record = 0;
  SimTime now = 0;  ///< the running event's time
  SimTime extra_charge = 0;

  Record& rec() const { return lane->records[record]; }
};

namespace {
thread_local void* t_context = nullptr;  // a Scheduler::Context
}  // namespace

Scheduler::Scheduler(std::size_t num_nodes, LatencyModel latency, std::uint64_t seed,
                     CostMode cost_mode)
    : num_nodes_(num_nodes),
      latency_(latency),
      lookahead_(latency.min_delay()),
      rng_(seed),
      cost_mode_(cost_mode),
      clocks_(num_nodes, kSimStart),
      incarnations_(num_nodes, 0),
      handlers_(num_nodes),
      isolation_(num_nodes, Isolation::kShared),
      node_delay_(num_nodes, 0),
      lane_of_node_(num_nodes, kNoLane) {}

Scheduler::~Scheduler() = default;

Scheduler::Context* Scheduler::context() const {
  auto* ctx = static_cast<Context*>(t_context);
  return ctx && ctx->owner == this ? ctx : nullptr;
}

SimTime Scheduler::now() const {
  const Context* ctx = context();
  return ctx ? ctx->now : now_;
}

void Scheduler::set_deliver(NodeId node, DeliverFn fn, Isolation isolation) {
  handlers_.at(node) = std::move(fn);
  isolation_.at(node) = isolation;
}

void Scheduler::set_node_delay(NodeId node, SimTime extra) {
  assert(extra >= 0 && "node delays may only add to the lookahead");
  node_delay_.at(node) = extra;
}

void Scheduler::install_fault_plan(FaultPlan plan) {
  faults_ = std::make_unique<FaultInjector>(std::move(plan));
}

// Single exit onto the wire: let the fault injector decide the message's
// fate, charge traffic for everything that actually departed (wire drops
// count — the sender did send; a down sender's output does not), and
// schedule the surviving copies. The injector draws from its own RNG
// stream, so the no-plan path (one null test) and a zero-rate plan are both
// bit-identical to the pre-fault-hook scheduler.
void Scheduler::route(SimTime depart, SimTime lat, net::Message msg) {
  if (faults_) {
    const auto verdict =
        faults_->on_send(msg.from, msg.to, msg.topic.str(), depart);
    if (!verdict.emitted) return;  // down sender: never reached the wire
    traffic_.messages += 1;
    traffic_.bytes += msg.wire_size();
    if (!verdict.deliver) return;  // lost on the (faulty) wire
    lat += verdict.extra_delay;
    if (verdict.duplicate) {
      queue_.schedule_message(depart + lat + verdict.duplicate_delay, msg);
    }
    queue_.schedule_message(depart + lat, std::move(msg));
    return;
  }
  traffic_.messages += 1;
  traffic_.bytes += msg.wire_size();
  queue_.schedule_message(depart + lat, std::move(msg));
}

void Scheduler::send(net::Message msg) {
  assert(msg.to < num_nodes_);
  if (Context* ctx = context()) {
    ctx->rec().outbox.push_back(std::move(msg));  // departs at handler end
    return;
  }
  const SimTime depart = msg.from < num_nodes_ ? clocks_[msg.from] : now_;
  SimTime lat = latency_.sample(msg.wire_size(), rng_);
  lat += node_delay_[msg.to];
  if (msg.from < num_nodes_) lat += node_delay_[msg.from];
  route(depart, lat, std::move(msg));
}

void Scheduler::inject(SimTime at, net::Message msg) {
  assert(msg.to < num_nodes_);
  assert(!context() && "inject() is for the outside world, not handlers");
  const SimTime lat = latency_.sample(msg.wire_size(), rng_) + node_delay_[msg.to];
  route(at, lat, std::move(msg));
}

void Scheduler::schedule_timer(SimTime at, NodeId node, std::function<void()> fn) {
  assert(node < num_nodes_);
  // The timer is valid for the node incarnation that armed it: an amnesia
  // rebuild bumps the incarnation and every older timer degrades to a no-op.
  arm_timer(at, node, incarnations_[node], std::move(fn));
}

void Scheduler::arm_timer(SimTime at, NodeId node, std::uint32_t incarnation,
                          std::function<void()> fn) {
  EventQueue::Callback timer = [this, node, incarnation, fn = std::move(fn)] {
    run_timer(node, incarnation, fn);
  };
  Context* ctx = context();
  if (!ctx) {
    queue_.schedule(at, std::move(timer), node);
    return;
  }
  Lane& lane = *ctx->lane;
  assert((node == lane.node || isolation_[lane.node] == Isolation::kShared) &&
         "an isolated node may arm timers only for itself");
  auto& timers = ctx->rec().timers;
  timers.push_back(Timer{at, node, std::move(timer)});
  // Due before anything outside the window: the node runs it in its serial
  // place here. Otherwise the merge queues it.
  if (node == lane.node && at < ctx->timer_limit) {
    lane.due.push_back(Lane::Due{at, lane.due_order++, ctx->record,
                                 static_cast<std::uint32_t>(timers.size() - 1)});
    std::push_heap(lane.due.begin(), lane.due.end(), std::greater<>{});
  }
}

void Scheduler::bump_incarnation(NodeId node) {
  assert(node < num_nodes_);
  ++incarnations_[node];
}

void Scheduler::charge(SimTime cost) {
  Context* ctx = context();
  assert(ctx && "charge() must be called from inside a handler");
  if (ctx) ctx->extra_charge += cost;
}

// One execution protocol for handlers and timers: what runs on a node
// occupies its virtual clock and sends its outbox when done. Kept in one
// place so timer-context and message-context time accounting can never
// drift apart (the golden fingerprints pin the result).
template <typename Fn>
void Scheduler::run_in_node_context(Context& ctx, SimTime initial_charge, Fn&& fn) {
  const NodeId node = ctx.lane->node;
  const SimTime start = std::max(ctx.now, clocks_[node]);
  ctx.extra_charge = initial_charge;
  const SimTime cpu_before = thread_cpu_now();
  fn();
  SimTime cost = ctx.extra_charge;
  if (cost_mode_ == CostMode::kMeasured) {
    const SimTime measured = thread_cpu_now() - cpu_before;
    cost += static_cast<SimTime>(std::llround(measured * cpu_scale_));
  }
  clocks_[node] = start + cost;
  ctx.rec().depart = clocks_[node];
}

// A timer is a handler without a message. A timer coming due while its node
// is down is *deferred to the recovery instant*, not dropped — the simulator
// keeps engine state across a crash-recover window, so the node's timer
// wheel survives with it (in-flight *messages* of the window stay lost). A
// crash-stop node never recovers: its due timers are discarded with it and
// the queue drains.
void Scheduler::run_timer(NodeId node, std::uint32_t incarnation,
                          const std::function<void()>& fn) {
  Context& ctx = *context();
  // Stale incarnation: the node was rebuilt from durable state after this
  // timer was armed (amnesia recovery). The state that scheduled it is gone.
  if (incarnation != incarnations_[node]) return;
  if (faults_ && faults_->down_at(node, ctx.now, /*count=*/false)) {
    const SimTime recover = faults_->recovery_time(node, ctx.now);
    if (recover != kSimForever) {
      // Deferral keeps the arming incarnation: if the recovery is an amnesia
      // rebuild, the bump at the recovery instant invalidates this too.
      arm_timer(recover, node, incarnation, fn);
    }
    return;
  }
  run_in_node_context(ctx, /*initial_charge=*/0, fn);
}

void Scheduler::deliver(Context& ctx, net::Message& msg) {
  const NodeId node = msg.to;
  // A crashed receiver loses the delivery outright (no trace entry: the node
  // never saw the message). Recovering a lost delivery is the reliability
  // layer's job (net/reliable.hpp), when one is installed above this.
  if (faults_ && faults_->down_at(node, ctx.now, /*count=*/false)) {
    ctx.rec().crash_dropped = true;
    return;
  }
  if (trace_enabled_) {
    ctx.rec().traced = true;
    ctx.rec().trace = TraceEntry{ctx.now, msg.from, node, msg.topic, msg.wire_size()};
  }
  if (!handlers_[node]) {
    DAUCT_DEBUG("scheduler: dropping message to handlerless node " << node);
    return;
  }
  // Receive occupancy: the node spends virtual time ingesting the message.
  run_in_node_context(ctx, latency_.recv_occupancy(msg.wire_size()),
                      [&] { handlers_[node](msg); });
}

void Scheduler::run_event(Context& ctx, EventQueue::Event& ev) {
  if (ev.fn) {
    ev.fn();  // a timer: run_timer() in this context
  } else {
    deliver(ctx, ev.msg);
  }
}

// The node's events of the window, merged with the timers it arms for itself
// that come due inside it, in serial order: a timer's sequence number is
// higher than every queued event's, so it runs after a queued event of the
// same time, and two timers run in arming order.
void Scheduler::run_lane(Lane& lane, SimTime timer_limit, std::uint64_t cap) {
  Context ctx{this, &lane, timer_limit};
  void* const outer = t_context;
  t_context = &ctx;
  struct Restore {
    void* outer;
    ~Restore() { t_context = outer; }
  } restore{outer};

  lane.used = 0;
  for (const auto& ev : lane.events) lane.add_record(ev.at);
  lane.due.clear();
  lane.due_order = 0;

  std::size_t next = 0;
  for (std::uint64_t ran = 0; ran < cap; ++ran) {
    const bool timer_first =
        !lane.due.empty() &&
        (next == lane.events.size() || lane.due.front().at < lane.events[next].at);
    if (timer_first) {
      std::pop_heap(lane.due.begin(), lane.due.end(), std::greater<>{});
      const Lane::Due d = lane.due.back();
      lane.due.pop_back();
      ctx.record = lane.add_record(d.at);
      Timer& t = lane.records[d.record].timers[d.timer];
      t.ran = ctx.record;
      const EventQueue::Callback fn = std::move(t.fn);
      ctx.now = d.at;
      fn();
    } else if (next < lane.events.size()) {
      ctx.record = static_cast<std::uint32_t>(next);
      ctx.now = lane.events[next].at;
      run_event(ctx, lane.events[next]);
      ++next;
    } else {
      break;
    }
  }
  lane.ran_events = next;
}

// Pop the next window. It starts at the earliest event, at T. A shared node's
// event is a window of its own. Otherwise the window takes every queued event
// of an isolated node with at < T + L (at = T when L = 0), up to the first
// shared node's event. Nothing a window's callbacks send can arrive inside
// it, and a node's own new timer runs inside it iff it is due before the
// window ends and before the first event left in the queue.
SimTime Scheduler::take_window(std::uint64_t budget) {
  for (std::size_t i = 0; i < lanes_used_; ++i) {
    Lane& lane = *lanes_[i];
    lane_of_node_[lane.node] = kNoLane;
    lane.events.clear();
  }
  lanes_used_ = 0;
  window_.clear();

  const auto add = [&](EventQueue::Event ev) {
    std::uint32_t& l = lane_of_node_[ev.node];
    if (l == kNoLane) {
      if (lanes_used_ == lanes_.size()) lanes_.push_back(std::make_unique<Lane>());
      l = static_cast<std::uint32_t>(lanes_used_++);
      lanes_[l]->node = ev.node;
    }
    Lane& lane = *lanes_[l];
    window_.push_back(Slot{ev.at, ev.seq, l,
                           static_cast<std::uint32_t>(lane.events.size())});
    lane.events.push_back(std::move(ev));
  };

  EventQueue::Event first = queue_.pop();
  assert(first.node < num_nodes_);
  const SimTime start = first.at;
  const bool isolated = isolation_[first.node] == Isolation::kIsolated;
  add(std::move(first));
  if (!isolated || budget == 1) return kNoTimers;

  const SimTime end = start > kSimForever - lookahead_ ? kSimForever : start + lookahead_;
  while (!queue_.empty()) {
    const EventQueue::Event& top = queue_.top();
    if (!(top.at < end || top.at == start)) break;
    if (isolation_[top.node] != Isolation::kIsolated) break;
    if (window_.size() == budget) {
      // The budget ends inside the window: step one event at a time, so the
      // run stops on the exact serial prefix.
      for (std::size_t i = 1; i < window_.size(); ++i) {
        const Slot& s = window_[i];
        queue_.push(std::move(lanes_[s.lane]->events[s.record]));
      }
      Lane& lane = *lanes_[window_.front().lane];
      lane.events.resize(1);
      for (std::size_t i = 1; i < lanes_used_; ++i) {
        lane_of_node_[lanes_[i]->node] = kNoLane;
        lanes_[i]->events.clear();
      }
      lanes_used_ = 1;
      window_.resize(1);
      return kNoTimers;
    }
    add(queue_.pop());
  }
  return queue_.empty() ? end : std::min(end, queue_.next_time());
}

// Replay the window in serial order: the queued events by (at, seq), and
// each in-window timer run at the place the sequence number it is given here
// puts it — exactly where one-at-a-time dispatch would have run it.
void Scheduler::merge_window() {
  struct Run {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t lane;
    std::uint32_t record;
    bool operator>(const Run& o) const {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };
  std::vector<Run> timer_runs;

  const auto apply = [&](std::uint32_t l, std::uint32_t r) {
    Record& rec = lanes_[l]->records[r];
    now_ = rec.at;
    ++events_dispatched_;
    if (rec.crash_dropped) faults_->note_crash_drop();
    if (rec.traced) trace_.push_back(rec.trace);
    for (Timer& t : rec.timers) {
      if (t.ran != kNotRun) {
        timer_runs.push_back(Run{t.at, queue_.reserve_seq(), l, t.ran});
        std::push_heap(timer_runs.begin(), timer_runs.end(), std::greater<>{});
      } else {
        queue_.schedule(t.at, std::move(t.fn), t.node);
      }
    }
    for (net::Message& msg : rec.outbox) {
      SimTime lat = latency_.sample(msg.wire_size(), rng_);
      lat += node_delay_[msg.to];
      if (msg.from < num_nodes_) lat += node_delay_[msg.from];
      route(rec.depart, lat, std::move(msg));
    }
  };

  std::size_t i = 0;
  for (;;) {
    const bool timer_next =
        !timer_runs.empty() &&
        (i == window_.size() ||
         timer_runs.front().at < window_[i].at ||
         (timer_runs.front().at == window_[i].at &&
          timer_runs.front().seq < window_[i].seq));
    if (timer_next) {
      std::pop_heap(timer_runs.begin(), timer_runs.end(), std::greater<>{});
      const Run run = timer_runs.back();
      timer_runs.pop_back();
      apply(run.lane, run.record);
    } else if (i < window_.size()) {
      const Slot& s = window_[i++];
      if (s.record < lanes_[s.lane]->ran_events) apply(s.lane, s.record);
    } else {
      break;
    }
  }
}

bool Scheduler::run_some(std::uint64_t max_events) {
  // Pre-size the trace for at least the already-queued deliveries so the hot
  // loop does not start with a cascade of small reallocations.
  if (trace_enabled_) trace_.reserve(trace_.size() + queue_.size());
  std::uint64_t left = max_events;
  while (left > 0 && !queue_.empty()) {
    const SimTime timer_limit = take_window(left);
    if (lanes_used_ == 1) {
      run_lane(*lanes_[0], timer_limit, left);
    } else {
      host::parallel_for(lanes_used_, [&](std::size_t i) {
        run_lane(*lanes_[i], timer_limit, left);
      });
    }
    // A node that used up the whole budget alone leaves the rest of its
    // events to the next call.
    for (std::size_t l = 0; l < lanes_used_; ++l) {
      Lane& lane = *lanes_[l];
      for (std::size_t e = lane.ran_events; e < lane.events.size(); ++e) {
        queue_.push(std::move(lane.events[e]));
      }
    }
    const std::uint64_t before = events_dispatched_;
    merge_window();
    const std::uint64_t ran = events_dispatched_ - before;
    left = ran >= left ? 0 : left - ran;
  }
  return !queue_.empty();
}

std::string Scheduler::format_trace(std::size_t max_entries) const {
  std::string out;
  std::size_t count = 0;
  for (const auto& e : trace_) {
    if (count++ >= max_entries) {
      out += "... (" + std::to_string(trace_.size() - max_entries) + " more)\n";
      break;
    }
    out += format_time(e.at) + " " + std::to_string(e.from) + "->" +
           std::to_string(e.to) + " " + e.topic.str() + " (" +
           std::to_string(e.bytes) + "B)\n";
  }
  return out;
}

}  // namespace dauct::sim
