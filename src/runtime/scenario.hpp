// Declarative fault-injection scenarios: data, not code.
//
// A scenario file (.scn, INI-style — serde/ini.hpp) bundles everything needed
// to replay one auction run under faults, bit-reproducibly:
//
//   [scenario] name/description   [run] auction/users/providers/k/seed/...
//   [fault]    fault RNG seed     [link] [cut] [partition] [crash]  (repeat)
//   [reliability] ack/retransmit layer knobs (net/reliable.hpp)
//   [wal]      durable provider state (store/wal.hpp; amnesia recovery)
//   [deviation] byzantine provider strategies (adversary/provider_deviation)
//   [expect]   self-checking assertions (outcome, stall, matches_clean, ...)
//
// Every key lives in one row of scenario_schema()'s per-section tables
// (scenario.cpp, on the serde/ini_schema.hpp engine): the row drives parsing,
// to_scn() emission and the section's own strictness rules. Adding a key is
// one row plus its line in docs/SCENARIOS.md (a test checks the two agree).
// Rules that relate several sections are hand-written beside the tables.
//
// run_scenario() executes the scenario on the deterministic virtual-time
// runtime (CostMode::kZero: the run is a pure function of the file), runs the
// fault-free twin when an expectation compares against it, and evaluates the
// [expect] section — which is what makes checked-in scenarios CI-enforceable
// (`dauct_cli --scenario FILE` exits non-zero on a violated expectation).
//
// Full key reference and a cookbook for every shipped scenarios/*.scn:
// docs/SCENARIOS.md.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/service_runtime.hpp"
#include "runtime/sim_runtime.hpp"
#include "serde/ini_schema.hpp"

namespace dauct::runtime {

/// One coalition member and the deviation strategy it follows. The coalition
/// passed to coalition-aware strategies is the set of all deviant nodes in
/// the scenario.
struct DeviationSpec {
  NodeId node = kNoNode;
  std::string strategy;            ///< registry name (deviation_strategy_names())
  Money fake_cost = kZeroMoney;    ///< misreport-ask only
  /// Confine the deviation to one auction instance of a [service] run
  /// (kAnyInstance = every instance; the only valid value without [service]).
  std::uint64_t instance = sim::kAnyInstance;
};

/// One adversarial bidder ([bidder] section): which user deviates and how.
/// Behaviour names resolve through adversary::bidder_behaviour_by_name.
struct BidderSpec {
  BidderId bidder = 0;
  std::string behaviour;
};

/// Assertions evaluated after the run; unset fields are not checked.
struct ScenarioExpect {
  enum class Outcome { kUnspecified, kOk, kBottom };
  Outcome outcome = Outcome::kUnspecified;    ///< (x, p⃗) reached vs ⊥
  std::optional<bool> stalled;                ///< some provider never finished
  std::optional<bool> matches_clean;          ///< result ≡ the fault-free twin
  std::optional<std::string> abort_reason;    ///< abort_reason_name() of the ⊥
  std::optional<std::uint64_t> min_faults;    ///< injected-event lower bound
  /// Lower bound on frames the signing layer rejected or swallowed
  /// (bad signature + malformed + replays).
  std::optional<std::uint64_t> min_auth_rejects;
  /// The run must (true) / must not (false) yield a transferable
  /// equivocation proof — and a yielded proof must pass independent
  /// verification against the accused signer's public key.
  std::optional<bool> equivocation_proof;
  /// [service] runs only: at least this many instances must clear (x, p⃗) —
  /// the isolation assertion "a fault confined to instance t leaves the
  /// pipeline live for the rest".
  std::optional<std::uint64_t> min_instances_ok;
  /// [service] runs only: every instance that cleared must reach the exact
  /// result digest of its single-run twin (a standalone run at the
  /// instance's derived seed, same transport layers, no faults).
  std::optional<bool> instances_match_twins;
};

struct Scenario {
  std::string name;
  std::string description;

  // [run]
  std::string auction = "double";    ///< double | standard
  std::size_t users = 16;
  std::size_t providers = 5;
  std::size_t k = 1;
  double epsilon = 0.1;              ///< standard auction approximation
  std::uint64_t seed = 1;            ///< workload + protocol seed
  std::string latency = "community"; ///< zero | lan | community
  /// Hard scheduler event budget: the run is cut off with an explicit
  /// ⊥ event-budget-exceeded when it dispatches this many events with the
  /// queue still non-empty. Fuzzed plans run under a tight budget so a
  /// pathological plan can hang neither the fuzzer nor CI.
  std::uint64_t max_events = 50'000'000;

  // [service] — multi-auction service plane (runtime/service_runtime.hpp).
  // instances > 1 routes the run through ServiceRuntime: instance i's
  // workload is generated from derive_instance_seed(seed, i), and up to
  // pipeline_depth instances run concurrently over the shared transport.
  std::size_t instances = 1;
  std::size_t pipeline_depth = 1;

  sim::FaultPlan faults;
  net::ReliabilityConfig reliability;  ///< [reliability]; disabled by default
  net::AuthConfig auth;                ///< [auth]; disabled by default
  /// [wal]: durable provider state (store/wal.hpp); disabled by default.
  /// Required (with [reliability]) by any [crash] with mode=amnesia.
  store::WalConfig wal;
  /// [auth_adversary]: wire-level forge/replay injection (needs [auth]).
  adversary::AuthAdversaryConfig auth_adversary;
  std::vector<DeviationSpec> deviations;
  /// [bidder] (repeatable): adversarial bidders. Definition 1 promises the
  /// honest providers' agreement excludes their bids; the clean twin KEEPS
  /// the bidder script (the exclusion is the auction's defined outcome, not
  /// a fault to strip), so matches_clean stays exact.
  std::vector<BidderSpec> bidders;
  /// [bid_frames]: wire-level bid-frame tricks at the client's injection
  /// point. The clean twin drops these (they are faults, not inputs).
  adversary::BidFrameAdversary bid_frames;
  /// [wal] corrupt knobs (store::FaultyStorage): in-flight fsync drops plus
  /// crash damage on amnesia nodes. Requires enable=true and an amnesia
  /// crash; the clean twin drops it.
  store::StorageFaultConfig wal_fault;
  ScenarioExpect expect;

  /// Serialize back to .scn text that re-parses to an equivalent scenario
  /// (property-tested over every shipped scenario: to_scn is a fixpoint of
  /// parse ∘ to_scn). Default-valued keys are omitted; this is the emitter
  /// the fuzzer and the minimizer use to write committable repros.
  std::string to_scn() const;
};

struct ScenarioParse {
  std::optional<Scenario> scenario;
  std::string error;
  bool ok() const { return scenario.has_value(); }
};

/// Strict parse: unknown sections/keys, malformed numbers, repeated keys or
/// singleton sections, inconsistent run parameters (m ≤ 2k, no users) and
/// unknown strategy names are errors.
ScenarioParse parse_scenario(std::string_view text);

/// The .scn key tables: every section and key, in emission order.
const serde::IniSchema<Scenario>& scenario_schema();

/// Outcome of executing a scenario, plus the expectation verdicts.
///
/// A [service] scenario (instances > 1) fills `service` with the per-instance
/// results and synthesizes `run` as an aggregate view so every single-run
/// expectation keeps its meaning: global outcome ok iff ALL instances
/// cleared (else the first ⊥), stalled/stats/proof carried over, and
/// result_digest = sha256 over the concatenated per-instance result
/// encodings ("" if any instance is ⊥).
struct ScenarioRun {
  SimRunResult run;                     ///< the faulty/deviant run (aggregate)
  std::optional<SimRunResult> clean;    ///< fault-free twin, when compared
  std::optional<ServiceRunResult> service;  ///< per-instance view, [service] runs
  /// Fault-free twin's per-instance view ([service] runs, when the twin ran):
  /// what the fuzz oracle's per-instance verdicts compare against.
  std::optional<ServiceRunResult> clean_service;
  std::string result_digest;            ///< sha256 hex of the result; "" if ⊥
  std::string clean_digest;             ///< same, for the twin
  std::vector<std::string> failures;    ///< violated expectations

  bool ok() const { return failures.empty(); }
};

/// Execute the scenario. The fault-free twin runs when an expectation
/// compares against it or `force_clean_twin` is set (the fuzz oracle always
/// needs the twin's digest, whatever the generated [expect] block says).
ScenarioRun run_scenario(const Scenario& scenario, bool force_clean_twin = false);

/// Names accepted by [deviation] strategy= (for --help and error messages).
const std::vector<std::string>& deviation_strategy_names();

/// Per-instance result digest (sha256 hex; "" if the instance is ⊥) — the
/// value the per-instance oracle verdicts and instances_match_twins compare
/// against an instance's standalone twin.
std::string instance_result_digest(const InstanceRunResult& inst);

}  // namespace dauct::runtime
