// Deterministic fault injection for the virtual-time simulator.
//
// A FaultPlan is pure data: stochastic per-link models (drop / duplicate /
// extra delay), timed link cuts, timed partitions, and provider crash events,
// all expressed in virtual time. The scheduler compiles an installed plan
// into a FaultInjector and consults it on its dispatch path, so any existing
// run can be replayed under faults — bit-reproducibly at a fixed seed.
//
// Determinism contract:
//  * All stochastic fault decisions draw from the injector's own RNG stream
//    (FaultPlan::seed), never from the scheduler's latency RNG, and a rule
//    with probability 0 (or jitter 0) draws nothing. An installed plan whose
//    every rate is zero is therefore bit-identical to no plan at all — same
//    outcome, same virtual makespan, same traffic counters (pinned by
//    tests/scenario_test.cpp against the fanout_test golden fingerprints).
//  * Fault decisions are made in event-dispatch order, which is itself
//    deterministic, so same seed + same plan → byte-identical run.
//
// Evaluation points (documented in docs/SCENARIOS.md):
//  * link rules, cuts, and partitions are evaluated at the message's DEPART
//    time (a cut link fails traffic entering it);
//  * crash windows are evaluated at both ends: a down sender emits nothing
//    (its depart time falls in the window) and a down receiver loses every
//    delivery whose arrival falls in the window. There is no retransmission
//    layer — what a node misses while down is gone.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "crypto/rng.hpp"
#include "sim/clock.hpp"

namespace dauct::sim {

/// LinkFault::instance value meaning "every auction instance" (the default;
/// also the only valid value outside service-plane runs).
inline constexpr std::uint64_t kAnyInstance = ~0ull;

/// Stochastic per-message model on matching links. `from`/`to` default to
/// kNoNode = "any node"; `symmetric` also matches the reverse direction when
/// both endpoints are concrete.
struct LinkFault {
  NodeId from = kNoNode;       ///< sender filter (kNoNode = any)
  NodeId to = kNoNode;         ///< receiver filter (kNoNode = any)
  bool symmetric = true;       ///< also match to→from when both are concrete
  double drop = 0.0;           ///< P(message is lost)
  double duplicate = 0.0;      ///< P(one extra copy is delivered)
  SimTime extra_delay = 0;     ///< fixed extra latency
  SimTime jitter = 0;          ///< extra uniform latency in [0, jitter]
  SimTime active_from = kSimStart;
  SimTime active_until = kSimForever;  ///< window is [active_from, active_until)

  /// Declarative instance filter (service-plane runs): confine the rule to
  /// one auction instance's traffic. kAnyInstance (the default) matches all.
  /// The service runtime compiles this into `topic_scope` below — outside
  /// service runs it must stay kAnyInstance (scenario validation enforces).
  std::uint64_t instance = kAnyInstance;
  /// Compiled topic-prefix filter: when non-empty, the rule matches only
  /// messages whose topic starts with this prefix (the owning instance's
  /// namespace, e.g. "i0g0/"). Runtime-internal — never parsed from .scn;
  /// note that instance-confined rules cannot touch unscoped traffic (the
  /// link's rl/* control frames, cross-instance launch batches).
  std::string topic_scope = {};

  bool matches(NodeId f, NodeId t, std::string_view topic, SimTime depart) const;
};

/// Total symmetric cut of the a↔b link during [from, until).
struct LinkCut {
  NodeId a = kNoNode;
  NodeId b = kNoNode;
  SimTime from = kSimStart;
  SimTime until = kSimForever;
  /// Instance filter + compiled topic prefix, same contract as LinkFault:
  /// an instance-confined cut severs only that instance's topic namespace
  /// while co-tenant instances keep flowing over the shared link.
  std::uint64_t instance = kAnyInstance;
  std::string topic_scope = {};
};

/// Network partition during [from, until): messages crossing the boundary
/// between `group` and the rest of the nodes are dropped (both directions).
struct Partition {
  std::vector<NodeId> group;
  SimTime from = kSimStart;
  SimTime until = kSimForever;
  /// Instance filter + compiled topic prefix, same contract as LinkFault.
  std::uint64_t instance = kAnyInstance;
  std::string topic_scope = {};
};

/// What a crashed node keeps across its down window.
enum class CrashMode : std::uint8_t {
  /// The historical in-memory mode: the simulator keeps engine state alive
  /// across the window, so the node resumes exactly where it stopped (only
  /// the window's traffic is lost). Models a pause, not a kill.
  kRecover,
  /// The node's memory is *dropped* at the crash; at recover_at the runtime
  /// rebuilds the whole per-node chain from durable state (store/wal.hpp):
  /// replay the logged messages through a fresh engine, then re-request the
  /// gap from peers. Models a real kill-and-restart; requires the WAL and
  /// the reliability layer (validated by runtime/scenario.cpp).
  kAmnesia,
};

/// Crash of `node` at virtual time `at`. Crash-stop if `recover_at` is
/// kSimForever, crash-recover otherwise: the node is down in [at, recover_at)
/// and resumes afterwards — with its in-memory state (CrashMode::kRecover)
/// or from its write-ahead log (CrashMode::kAmnesia).
struct CrashEvent {
  NodeId node = kNoNode;
  SimTime at = kSimStart;
  SimTime recover_at = kSimForever;
  CrashMode mode = CrashMode::kRecover;
};

/// The declarative fault plan: data, not code. Parsed from .scn scenario
/// files (runtime/scenario.hpp) or built directly in tests.
struct FaultPlan {
  std::uint64_t seed = 1;  ///< fault-decision RNG stream (independent of the sim seed)
  std::vector<LinkFault> links;
  std::vector<LinkCut> cuts;
  std::vector<Partition> partitions;
  std::vector<CrashEvent> crashes;

  bool empty() const {
    return links.empty() && cuts.empty() && partitions.empty() && crashes.empty();
  }
};

/// What the injector did, for reports and assertions.
struct FaultStats {
  std::uint64_t link_dropped = 0;       ///< stochastic link-rule drops
  std::uint64_t cut_dropped = 0;        ///< dropped by a timed link cut
  std::uint64_t partition_dropped = 0;  ///< dropped crossing a partition
  std::uint64_t crash_dropped = 0;      ///< lost at/into a down node
  std::uint64_t duplicated = 0;         ///< fabricated extra deliveries
  std::uint64_t delayed = 0;            ///< messages given extra delay

  std::uint64_t total_dropped() const {
    return link_dropped + cut_dropped + partition_dropped + crash_dropped;
  }
};

/// Compiled plan + decision RNG, owned by the scheduler while a plan is
/// installed. All sampling happens here, on its own RNG stream.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// Fate of a message departing `from`→`to` at `depart` on `topic`.
  struct SendVerdict {
    bool emitted = true;          ///< false: the sender was down — the message
                                  ///  never reached the wire (no traffic)
    bool deliver = true;          ///< false: lost on the wire (counted as sent)
    SimTime extra_delay = 0;      ///< added to the sampled link latency
    bool duplicate = false;       ///< deliver one extra copy...
    SimTime duplicate_delay = 0;  ///< ...this much after the original
  };
  SendVerdict on_send(NodeId from, NodeId to, std::string_view topic,
                      SimTime depart);

  /// True iff `node` is inside a crash window at time `at`. `count` adds the
  /// query to crash_dropped (deliver-side bookkeeping). With count = false
  /// this only reads the plan, so concurrent queries are safe.
  bool down_at(NodeId node, SimTime at, bool count);

  /// Count one delivery lost at a down receiver, decided earlier by an
  /// uncounted down_at() query.
  void note_crash_drop() { ++stats_.crash_dropped; }

  /// Given that `node` is down at `at`: when it comes back up (kSimForever
  /// for a crash-stop). The scheduler uses this to carry a crash-recover
  /// node's timer wheel across the window — engine state survives recovery,
  /// so pending timers do too; they fire (late) at the recovery instant.
  SimTime recovery_time(NodeId node, SimTime at);

  const FaultStats& stats() const { return stats_; }

 private:
  bool severed(NodeId from, NodeId to, std::string_view topic, SimTime depart);
  /// Indices of the link rules whose node filters admit from→to, in plan
  /// order (memoized per directed pair: a plan with a rule per link would
  /// otherwise scan every rule for every message).
  const std::vector<std::uint32_t>& link_rules(NodeId from, NodeId to);

  FaultPlan plan_;
  crypto::Rng rng_;
  FaultStats stats_;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> rules_by_pair_;
};

}  // namespace dauct::sim
