// Adversarial fault-plan fuzzer: seeded random sampling of FaultPlans (and
// the optional reliability/auth/deviation knobs around them) within declared
// bounds.
//
// The paper's resilience claim — the distributed auction matches the
// fault-free outcome or aborts with an explicit ⊥ under up to k crashes and
// byzantine deviations — is sampled by the hand-written scenarios; the
// fuzzer *searches* for violations. PlanFuzzer only generates: it emits
// plain-data FuzzCases (this layer sits below net/ and runtime/, so knobs
// are plain fields, not net:: configs). The runtime-side harness
// (runtime/fuzz_harness.hpp) turns a case into a runnable Scenario, applies
// the safety oracle against the fault-free twin, and minimizes violations.
//
// Determinism contract:
//  * The case stream is a pure function of the fuzzer seed: same seed ⇒
//    byte-identical cases (pinned by tests/fuzz_test.cpp via to_scn text).
//  * Each case draws from its own Rng(case_seed), with case_seed taken from
//    the stream generator — so any single case is replayable standalone
//    from (seed, index) without generating its predecessors' contents.
//  * Generation honors k: crashed + deviant + wire-tampered providers are
//    distinct and total at most k — beyond k the paper promises nothing,
//    and an over-budget coalition could force a "wrong" result that is not
//    a counterexample to anything.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "crypto/rng.hpp"
#include "sim/fault.hpp"
#include "serde/ini_schema.hpp"

namespace dauct::sim {

/// Declared sampling bounds. The defaults are the "default bounds" the CI
/// smoke shard and the acceptance fuzz run use: small fast runs (a run plus
/// its twin in a few milliseconds), rates high enough to exercise every
/// recovery path, an event budget a healthy run stays far under.
struct FuzzBounds {
  // --- run shape ---
  std::size_t min_users = 6, max_users = 20;
  std::size_t min_providers = 3, max_providers = 7;
  std::vector<std::string> latencies = {"zero", "lan", "community"};
  /// Hard scheduler event budget per run (⊥ event-budget-exceeded beyond).
  std::uint64_t max_events = 4'000'000;

  // --- fault plan ---
  std::size_t max_link_rules = 3;
  double max_drop = 0.35;
  double max_duplicate = 0.35;
  SimTime max_delay = from_millis(20);
  SimTime max_jitter = from_millis(10);
  std::size_t max_cuts = 2;
  std::size_t max_partitions = 1;
  std::size_t max_crashes = 2;       ///< additionally capped by the sampled k
  bool allow_crash_recover = true;
  /// Recovering crashes may come up as mode=amnesia (state dropped at the
  /// crash instant, real WAL replay on recovery). Only sampled when both the
  /// WAL and the reliability layer came up enabled — amnesia recovery needs
  /// a log to replay and the rejoin sweep to close the gap.
  bool allow_amnesia = true;
  /// Fault windows (cuts, partitions, crash/recover instants, link
  /// activity) are sampled within [0, horizon).
  SimTime horizon = from_millis(150);
  /// Service-plane sampling caps ([service] runs draw instances in
  /// [2, max_instances] and pipeline_depth in [1, min(max_pipeline_depth,
  /// instances)]); kept small by default — every instance multiplies the
  /// twin-oracle cost.
  std::size_t max_instances = 3;
  std::size_t max_pipeline_depth = 2;

  // --- optional layers ---
  double p_reliability = 0.5;
  /// Durable provider state (store/wal.hpp). Orthogonal to the fault plan:
  /// WAL-on runs must behave identically except that amnesia crashes become
  /// recoverable, so the coin is sampled independently of the crash draws.
  double p_wal = 0.5;
  double p_auth = 0.25;
  double p_auth_batch = 0.5;         ///< given auth
  double p_auth_adversary = 0.4;     ///< given auth and k budget left
  double p_deviation = 0.35;         ///< at least one deviant, given k budget
  /// Route the case through the multi-auction service plane
  /// (runtime/service_runtime.hpp). Amnesia crashes stay amnesia: recovery
  /// replays every co-tenant instance from the node's one WAL.
  double p_service = 0.35;
  /// Given a service case: per fault rule (link / cut / partition /
  /// deviation), P(the rule gets an instance= filter confining it to one
  /// auction's topic namespace while co-tenants share the wire).
  double p_instance_scope = 0.5;
  /// At least one adversarial bidder (adversary/bidder_adversary.hpp),
  /// possibly with replayed/reordered bid frames. Bidders are not providers:
  /// no k budget is spent — Definition 1 promises the outcome excludes their
  /// bids no matter how many misbehave.
  double p_bidder_adversary = 0.3;
  /// Given wal + an amnesia crash: P(the recovering node's storage
  /// is wrapped in store::FaultyStorage so recovery replays a damaged live
  /// tail — dropped fsyncs plus torn-write/bit-flip crash damage).
  double p_wal_corrupt = 0.3;
  /// Adversarial bidder behaviour pool (names resolved by
  /// adversary::bidder_behaviour_by_name via the scenario parser). "honest"
  /// would be a no-op draw and is deliberately absent.
  std::vector<std::string> bidder_behaviours = {
      "silent", "malformed", "out-of-range", "equivocate",
  };
  /// Deviation strategy pool. Protocol-level deviations only: misreport-ask
  /// is deliberately absent — lying about one's own cost is input
  /// manipulation the mechanism prices in, so the run completes ok with a
  /// legitimately different result and would false-positive the
  /// matches-clean oracle. For the same reason a case that draws misvote
  /// draws no equivocating bidder (see generate()).
  std::vector<std::string> strategies = {
      "corrupt-coin-reveal", "equivocate-votes",   "forge-task-results",
      "forge-output-digest", "selective-silence",  "misvote",
  };
};

/// Strict INI bounds-file parse (sections [shape] [faults] [knobs]; key
/// reference in docs/FUZZING.md). Unknown keys, malformed values, and
/// inconsistent ranges are errors.
struct FuzzBoundsParse {
  std::optional<FuzzBounds> bounds;
  std::string error;
  bool ok() const { return bounds.has_value(); }
};
FuzzBoundsParse parse_fuzz_bounds(std::string_view text);

/// The bounds-file key tables: [shape], [faults] and [knobs].
const serde::IniSchema<FuzzBounds>& fuzz_bounds_schema();

/// One generated case: everything the harness needs to build a Scenario.
/// Plain data by design (see file comment).
struct FuzzCase {
  std::uint64_t index = 0;      ///< position in the stream
  std::uint64_t case_seed = 0;  ///< the case is a pure function of this

  std::size_t users = 0;
  std::size_t providers = 0;
  std::size_t k = 0;
  std::uint64_t run_seed = 0;   ///< workload + protocol seed
  std::string latency;
  std::uint64_t max_events = 0;

  FaultPlan faults;

  bool reliability = false;
  SimTime retransmit_delay = 0;
  std::size_t max_retries = 0;
  SimTime round_timeout = 0;

  bool wal = false;
  std::size_t wal_snapshot_every = 0;  ///< sampled when wal; 0 = no snapshots

  bool auth = false;
  bool auth_batch = false;
  NodeId auth_adversary_node = kNoNode;
  std::string auth_adversary_mode;  ///< "" | "forge" | "replay"

  struct Deviation {
    NodeId node = kNoNode;
    std::string strategy;
    /// Instance filter (service cases only): kAnyInstance = deviate in every
    /// instance, otherwise the node deviates only in this one.
    std::uint64_t instance = kAnyInstance;
  };
  std::vector<Deviation> deviations;

  /// Service plane: > 1 routes the case through ServiceRuntime with this
  /// many instances; depth is the concurrent-instance bound (see
  /// FuzzBounds::p_service).
  std::size_t instances = 1;
  std::size_t pipeline_depth = 1;

  /// Bidder-side adversaries (FuzzBounds::p_bidder_adversary).
  struct BidderAdversary {
    BidderId bidder = 0;
    std::string behaviour;  ///< name in FuzzBounds::bidder_behaviours
  };
  std::vector<BidderAdversary> bidder_adversaries;
  bool bid_replay = false;   ///< client injects every bid frame twice
  bool bid_reorder = false;  ///< client walks providers in reverse order

  /// In-flight WAL corruption (FuzzBounds::p_wal_corrupt): wrap amnesia
  /// nodes' storage in store::FaultyStorage with these knobs.
  bool wal_corrupt = false;
  std::uint64_t wal_fault_seed = 0;
  double wal_sync_drop = 0.0;
  double wal_torn = 0.0;
  double wal_flip = 0.0;
};

class PlanFuzzer {
 public:
  PlanFuzzer(FuzzBounds bounds, std::uint64_t seed);

  /// The next case in the stream.
  FuzzCase next();

  /// The case at `index` of this fuzzer's stream, independent of the
  /// current position (replays a reported case without regenerating its
  /// predecessors' contents — only their seeds are drawn, one u64 each).
  FuzzCase nth(std::uint64_t index) const;

  const FuzzBounds& bounds() const { return bounds_; }

 private:
  FuzzCase generate(std::uint64_t index, std::uint64_t case_seed) const;

  FuzzBounds bounds_;
  std::uint64_t seed_;
  crypto::Rng stream_;
  std::uint64_t next_index_ = 0;
};

}  // namespace dauct::sim
