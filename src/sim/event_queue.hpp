// Deterministic event queue for the virtual-time simulator.
//
// Events are ordered by (time, sequence-number): ties are broken by insertion
// order, so a run is a pure function of the seed and the charged costs.
//
// Two event kinds share one ordered heap:
//  * callback events — an opaque std::function (timers, bookkeeping);
//  * message events  — a plain net::Message plus its delivery time. Messages
//    are the overwhelming majority of simulated events; carrying them as a
//    struct member instead of boxing each one in a std::function closure
//    saves one heap allocation and a closure move per simulated message.
//
// Every event names the node it belongs to (a message's receiver, a timer's
// node), so the owner (sim::Scheduler) can pop a batch of events and hand
// each node's share to a different thread.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/ids.hpp"
#include "net/message.hpp"
#include "sim/clock.hpp"

namespace dauct::sim {

class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// A scheduled event: a callback or a message firing at a virtual time.
  struct Event {
    SimTime at = 0;
    std::uint64_t seq = 0;
    NodeId node = kNoNode;  ///< owner: a message's receiver, a timer's node
    Callback fn;            ///< null for message events
    net::Message msg;       ///< meaningful iff fn is null
  };

  /// Schedule `fn` at virtual time `at`, owned by `node`.
  void schedule(SimTime at, Callback fn, NodeId node = kNoNode);

  /// Schedule delivery of `msg` at virtual time `at` (no closure, no extra
  /// allocation: the message rides in the event struct). Owned by msg.to.
  void schedule_message(SimTime at, net::Message msg);

  /// Consume one sequence number without queueing anything: an event that
  /// runs outside the queue still takes its place in the tie-break order.
  std::uint64_t reserve_seq() { return next_seq_++; }

  /// Re-queue an event popped earlier, keeping its sequence number.
  void push(Event ev);

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// The earliest pending event.
  const Event& top() const;

  /// Virtual time of the earliest pending event.
  SimTime next_time() const { return top().at; }

  /// Remove and return the earliest event.
  Event pop();

  /// Pop and run the earliest event, which must be a callback event;
  /// returns its time.
  SimTime run_next();

  /// Total events executed by run_next() so far.
  std::uint64_t executed() const { return executed_; }

 private:
  /// The heap orders small keys; event bodies (a callback or a message) stay
  /// put in `slots_` until popped, so a sift moves 24 bytes, not an event.
  struct Key {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  std::vector<Key> heap_;
  std::vector<Event> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace dauct::sim
