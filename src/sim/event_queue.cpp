#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace dauct::sim {

std::string format_time(SimTime t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3fms", to_millis(t));
  return buf;
}

void EventQueue::schedule(SimTime at, Callback fn, NodeId node) {
  assert(fn && "callback events must carry a callable");
  push(Event{at, next_seq_++, node, std::move(fn), net::Message{}});
}

void EventQueue::schedule_message(SimTime at, net::Message msg) {
  const NodeId node = msg.to;
  push(Event{at, next_seq_++, node, nullptr, std::move(msg)});
}

void EventQueue::push(Event ev) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(ev));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(ev);
  }
  const Event& e = slots_[slot];
  heap_.push_back(Key{e.at, e.seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

const EventQueue::Event& EventQueue::top() const {
  assert(!heap_.empty());
  return slots_[heap_.front().slot];
}

EventQueue::Event EventQueue::pop() {
  assert(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const std::uint32_t slot = heap_.back().slot;
  heap_.pop_back();
  // Move the event out (neither the callback nor the message payload is
  // copied) and free its slot, so the caller may freely schedule new events
  // while it runs.
  Event ev = std::move(slots_[slot]);
  free_slots_.push_back(slot);
  return ev;
}

SimTime EventQueue::run_next() {
  Event ev = pop();
  assert(ev.fn && "run_next() runs callback events only");
  ++executed_;
  ev.fn();
  return ev.at;
}

}  // namespace dauct::sim
