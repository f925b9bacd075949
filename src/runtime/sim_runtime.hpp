// Deterministic virtual-time runtime.
//
// Reproduces the paper's deployment shape on a simulated community network:
// a client node generates the users' bids and submits them to every provider
// at t = 0; the providers run the distributed-auctioneer protocol; each
// provider returns its output to the client. The reported makespan is, as in
// the paper (§6.1), "the time from when the inputs are generated at this
// client node, till the time it receives the results from all the
// experiment instances."
//
// Two execution shapes:
//  * run_distributed — the m-provider simulation of the auctioneer. It is
//    the one-instance, depth-1 run of the service plane
//    (runtime/service_runtime.hpp), which owns the only per-node stack:
//    reliability, signing, the write-ahead log and amnesia recovery;
//  * run_centralized — the trusted-auctioneer baseline (client → auctioneer
//    node → client).
//
// Adversarial knobs: per-bidder behaviours (equivocation, silence, garbage)
// and per-provider deviation strategies (coalitions).
#pragma once

#include <map>
#include <memory>
#include <optional>

#include "adversary/auth_adversary.hpp"
#include "adversary/bidder_adversary.hpp"
#include "adversary/bidder_behaviour.hpp"
#include "adversary/provider_deviation.hpp"
#include "core/centralized_auctioneer.hpp"
#include "core/distributed_auctioneer.hpp"
#include "net/auth.hpp"
#include "net/reliable.hpp"
#include "runtime/submission_codec.hpp"
#include "sim/fault.hpp"
#include "sim/scheduler.hpp"
#include "store/wal.hpp"

namespace dauct::runtime {

struct SimRunConfig {
  sim::LatencyModel latency = sim::LatencyModel::community();
  sim::CostMode cost_mode = sim::CostMode::kZero;
  double cpu_scale = 1.0;      ///< calibration multiplier on measured CPU
  std::uint64_t seed = 1;      ///< drives jitter, node RNGs, bidder RNG

  /// Per-bidder behaviour overrides (default honest).
  adversary::BidderScript bidder_script;
  /// Wire-level bid-frame tricks at the client's injection point
  /// (adversary/bidder_adversary.hpp). Behaviour-draw order is canonical
  /// (forward, per bidder then provider) regardless of tricks, so a run with
  /// tricks submits byte-identical bids to its trick-free twin.
  adversary::BidFrameAdversary bid_frames;
  /// Coalition members and their deviation strategies.
  std::map<NodeId, std::shared_ptr<adversary::DeviationStrategy>> deviations;

  /// Deterministic fault plan installed into the scheduler (sim/fault.hpp).
  /// Unset = fault-free; an installed plan with all-zero rates is
  /// bit-identical to unset.
  std::optional<sim::FaultPlan> faults;

  /// Reliable-delivery layer (net/reliable.hpp): ack/retransmit + round
  /// timeouts between each provider's protocol chain and the scheduler.
  /// Disabled (the default) constructs no links at all — byte-identical to
  /// the pre-reliability runtime, golden-pinned.
  net::ReliabilityConfig reliability;

  /// Message authentication (net/auth.hpp): ed25519 sign-on-send /
  /// verify-on-deliver under the blocks, with transferable equivocation
  /// proofs. Disabled (the default) constructs no signing layer at all —
  /// byte-identical to the unauthenticated runtime, golden-pinned.
  net::AuthConfig auth;

  /// Wire-level adversary against the signing layer (adversary/
  /// auth_adversary.hpp): inject forged or replayed frames on one
  /// provider's outgoing edge.
  adversary::AuthAdversaryConfig auth_adversary;

  /// Durable provider state (store/wal.hpp): every engine-consumed delivery
  /// is appended to a per-provider write-ahead log *before* dispatch, and an
  /// amnesia crash (sim::CrashMode::kAmnesia) recovers by rebuilding the
  /// node's stack and every instance's engine on it, then replaying the log.
  /// Disabled (the default)
  /// constructs nothing — byte-identical to the pre-WAL runtime,
  /// golden-pinned. In the simulator the log lives in MemStorage: the
  /// "disk" survives the crashed "process" deterministically.
  store::WalConfig wal;

  /// In-flight WAL corruption (store::FaultyStorage): amnesia-crashing
  /// nodes' storage is wrapped in the seeded lying-disk decorator, so
  /// recovery replays from a damaged live tail. Only armed on nodes with an
  /// amnesia crash in the fault plan; requires wal.enable.
  store::StorageFaultConfig wal_fault;

  /// Safety valve against runaway simulations.
  std::uint64_t max_events = 50'000'000;
};

/// What every simulated run reports, single-auction or service: timing,
/// traffic, each layer's counters, and liveness. SimRunResult and
/// ServiceRunResult both extend it.
struct RunStats {
  sim::SimTime makespan = 0;       ///< client-observed end-to-end time
  sim::TrafficStats traffic;
  sim::FaultStats fault_stats;     ///< zeros unless a fault plan was installed
  net::ReliabilityStats reliability_stats;  ///< summed over links; zeros when off
  net::AuthStats auth_stats;  ///< signing-layer counters; zeros when off
  store::WalStats wal_stats;  ///< write-ahead-log counters; zeros when off
  /// Lying-disk counters (store::FaultyStorage); zeros unless wal_fault armed.
  store::FaultyStorage::Stats storage_fault_stats;

  /// Transferable evidence of equivocation (net/auth.hpp), when the signing
  /// layer saw one: either assembled by a receiver that observed both
  /// conflicting frames, or by the post-run auditor sweep that
  /// cross-references all receivers' records (split equivocation).
  std::optional<net::EquivocationProof> equivocation_proof;
  bool stalled = false;  ///< some provider never finished (counts as ⊥)
  /// The scheduler hit config.max_events with events still queued: the run
  /// was cut off, not out of moves. Unfinished providers then carry
  /// ⊥ event-budget-exceeded instead of ⊥ timeout; the fuzz oracle
  /// (runtime/fuzz_harness.hpp) treats this flag as a liveness violation.
  bool event_budget_exhausted = false;
  /// Scheduler events dispatched by this run — what max_events bounds. Lets
  /// callers (tests, the fuzzer) position a budget between a clean run's
  /// appetite and a pathological one's.
  std::uint64_t events_dispatched = 0;
};

struct SimRunResult : RunStats {
  std::vector<auction::AuctionOutcome> provider_outcomes;
  auction::AuctionOutcome global_outcome{Bottom{}};
  /// Common-coin value the run used: the trusted auctioneer's draw
  /// (run_centralized), or the coin an agreeing provider reports
  /// (run_distributed; 0 when the run ended in ⊥). Replaying
  /// AuctionAdapter::run_centralized with it must give the same result.
  std::uint64_t shared_seed = 0;
  /// Distributed runs: the client's check of the result frames
  /// (InstanceRunResult::client_verdict / client_digest).
  ReportVerdict client_verdict = ReportVerdict::kIncomplete;
  std::string client_digest;

  /// Phase breakdown (distributed runs): virtual time at which each provider
  /// finished bid agreement / produced its final output. Zero if never.
  std::vector<sim::SimTime> bid_agreement_done_at;
  std::vector<sim::SimTime> provider_done_at;

  /// Max over providers (0 if none finished the phase).
  sim::SimTime bid_agreement_makespan() const;
  sim::SimTime provider_makespan() const;
};

class SimRuntime {
 public:
  explicit SimRuntime(SimRunConfig config) : config_(std::move(config)) {}

  const SimRunConfig& config() const { return config_; }

  /// Run the full distributed protocol on `instance` (true valuations; what
  /// bidders actually send is shaped by the bidder script).
  SimRunResult run_distributed(const core::DistributedAuctioneer& auctioneer,
                               const auction::AuctionInstance& instance);

  /// Run the trusted-auctioneer baseline.
  SimRunResult run_centralized(const core::CentralizedAuctioneer& auctioneer,
                               const auction::AuctionInstance& instance);

 private:
  SimRunConfig config_;
};

}  // namespace dauct::runtime
