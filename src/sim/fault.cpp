#include "sim/fault.hpp"

#include <algorithm>

namespace dauct::sim {

namespace {

bool in_window(SimTime t, SimTime from, SimTime until) {
  return t >= from && t < until;
}

// Compiled instance confinement: an empty scope matches everything, a
// non-empty scope matches only its own topic namespace.
bool in_scope(const std::string& topic_scope, std::string_view topic) {
  return topic_scope.empty() ||
         topic.substr(0, topic_scope.size()) == topic_scope;
}

// The node part of LinkFault::matches.
bool admits(const LinkFault& r, NodeId f, NodeId t) {
  const bool forward =
      (r.from == kNoNode || r.from == f) && (r.to == kNoNode || r.to == t);
  if (forward) return true;
  if (!r.symmetric || r.from == kNoNode || r.to == kNoNode) return false;
  return r.from == t && r.to == f;
}

}  // namespace

bool LinkFault::matches(NodeId f, NodeId t, std::string_view topic,
                        SimTime depart) const {
  if (!in_window(depart, active_from, active_until)) return false;
  if (!in_scope(topic_scope, topic)) {
    return false;  // instance-confined rule, foreign instance's traffic
  }
  return admits(*this, f, t);
}

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)), rng_(plan_.seed) {}

bool FaultInjector::severed(NodeId from, NodeId to, std::string_view topic,
                            SimTime depart) {
  for (const LinkCut& c : plan_.cuts) {
    if (!in_window(depart, c.from, c.until)) continue;
    if (!in_scope(c.topic_scope, topic)) continue;
    if ((c.a == from && c.b == to) || (c.a == to && c.b == from)) {
      ++stats_.cut_dropped;
      return true;
    }
  }
  for (const Partition& p : plan_.partitions) {
    if (!in_window(depart, p.from, p.until)) continue;
    if (!in_scope(p.topic_scope, topic)) continue;
    const bool from_in = std::find(p.group.begin(), p.group.end(), from) != p.group.end();
    const bool to_in = std::find(p.group.begin(), p.group.end(), to) != p.group.end();
    if (from_in != to_in) {
      ++stats_.partition_dropped;
      return true;
    }
  }
  return false;
}

FaultInjector::SendVerdict FaultInjector::on_send(NodeId from, NodeId to,
                                                  std::string_view topic,
                                                  SimTime depart) {
  SendVerdict v;
  // A down node emits nothing (its handler would not have run on a real
  // crashed machine; the outbox of a handler that straddles the crash time
  // is discarded as of the crash). Unlike wire drops below, the message
  // never departed, so the caller charges no traffic for it.
  if (down_at(from, depart, /*count=*/true)) {
    v.emitted = false;
    v.deliver = false;
    return v;
  }
  if (severed(from, to, topic, depart)) {
    v.deliver = false;
    return v;
  }
  // Stochastic rules: every matching rule applies, in plan order. Rules with
  // zero rates draw nothing, keeping a zero-rate plan bit-identical to no
  // plan (the RNG stream position only matters to *other* fault draws).
  for (const std::uint32_t i : link_rules(from, to)) {
    const LinkFault& r = plan_.links[i];
    if (!r.matches(from, to, topic, depart)) continue;
    if (r.drop > 0 && rng_.next_double() < r.drop) {
      ++stats_.link_dropped;
      v.deliver = false;
      return v;
    }
    SimTime extra = r.extra_delay;
    if (r.jitter > 0) extra += static_cast<SimTime>(rng_.next_below(
        static_cast<std::uint64_t>(r.jitter) + 1));
    v.extra_delay += extra;
    if (r.duplicate > 0 && rng_.next_double() < r.duplicate) {
      v.duplicate = true;
      // The copy trails the original by up to one base-latency-ish window;
      // sampled from the fault stream so it is plan-deterministic.
      v.duplicate_delay = 1 + static_cast<SimTime>(rng_.next_below(from_millis(1)));
    }
  }
  // Stats count *observable* perturbations, once per message, after the
  // whole rule stack has spoken — a later rule dropping the message exits
  // above, so a never-scheduled duplicate or delay is never reported.
  if (v.extra_delay > 0) ++stats_.delayed;
  if (v.duplicate) ++stats_.duplicated;
  return v;
}

const std::vector<std::uint32_t>& FaultInjector::link_rules(NodeId from, NodeId to) {
  const std::uint64_t pair = (std::uint64_t{from} << 32) | to;
  auto [it, fresh] = rules_by_pair_.try_emplace(pair);
  if (fresh) {
    for (std::uint32_t i = 0; i < plan_.links.size(); ++i) {
      if (admits(plan_.links[i], from, to)) it->second.push_back(i);
    }
  }
  return it->second;
}

bool FaultInjector::down_at(NodeId node, SimTime at, bool count) {
  for (const CrashEvent& c : plan_.crashes) {
    if (c.node == node && in_window(at, c.at, c.recover_at)) {
      if (count) ++stats_.crash_dropped;
      return true;
    }
  }
  return false;
}

SimTime FaultInjector::recovery_time(NodeId node, SimTime at) {
  // Latest recovery among the windows covering `at`: overlapping windows are
  // honoured (the node is up only once *every* covering window has closed);
  // the scheduler re-checks down_at at the returned time anyway.
  SimTime recover = kSimStart;
  for (const CrashEvent& c : plan_.crashes) {
    if (c.node == node && in_window(at, c.at, c.recover_at)) {
      recover = std::max(recover, c.recover_at);
    }
  }
  return recover;
}

}  // namespace dauct::sim
