// Multi-auction service plane over the deterministic virtual-time simulator.
//
// The paper clears one double auction per experiment; a deployed marketplace
// clears a *stream* of them on the same provider set. ServiceRuntime runs N
// auction instances over ONE scheduler, ONE reliable link / signer / WAL per
// node (shared transport), and one protocol-engine bundle per (instance,
// node). Instances are multiplexed by topic namespace (core/service_plane.hpp)
// and pipelined: up to `pipeline_depth` instances run concurrently, and
// settling instance t launches instance t + depth in the same virtual instant
// — consensus rounds of the next epoch overlap settlement of the previous.
//
// This is the only simulated distributed runtime: SimRuntime::run_distributed
// is the instances == 1, depth-1 run of it (bare topics, the classic client
// batch, no straggler drop), so the single-auction golden fingerprints pin
// that path directly. Each node's stack (link, signer, validator, WAL) is
// shared by every instance; an amnesia crash rebuilds the stack and every
// instance's engine on that node and replays them all from the one log.
//
// Equivalence contract (pinned by tests/service_test.cpp):
//  * instance i of an N-instance run reaches the same result digest as a
//    standalone run at seed derive_instance_seed(base_seed, i) (its "twin").
//    Virtual timings differ (instances contend for node clocks); results do
//    not.
//
// Full lifecycle and shared-link semantics: docs/SERVICE.md.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/service_plane.hpp"
#include "runtime/sim_runtime.hpp"

namespace dauct::runtime {

/// A provider deviation confined to one auction instance (or all of them).
/// ServiceRunConfig::base.deviations entries apply to every instance; these
/// let a fault scenario corrupt instance t while t±1 must stay clean.
struct ServiceDeviation {
  core::InstanceId instance = sim::kAnyInstance;  ///< kAnyInstance = all
  NodeId node = kNoNode;
  std::shared_ptr<adversary::DeviationStrategy> strategy;
};

struct ServiceRunConfig {
  /// Transport/fault/crypto configuration shared by every instance. The base
  /// seed drives the scheduler and derives each instance's twin seed;
  /// base.deviations (if any) apply to all instances.
  SimRunConfig base;
  std::size_t instances = 1;
  /// Concurrent-instance bound: instances 0..depth-1 launch together at
  /// t = 0; afterwards each settlement launches the next instance into the
  /// freed pipeline slot. 1 = strictly sequential.
  std::size_t pipeline_depth = 1;
  std::vector<ServiceDeviation> deviations;
};

/// Per-instance slice of a service run — the fields service_test compares
/// against the instance's single-run twin.
struct InstanceRunResult {
  core::InstanceId id = 0;
  std::uint64_t derived_seed = 0;  ///< the twin's SimRunConfig::seed
  std::string topic_prefix;        ///< "" on the single-instance identity path
  std::vector<auction::AuctionOutcome> provider_outcomes;
  auction::AuctionOutcome outcome{Bottom{}};  ///< combine_outcomes of the above
  bool launched = false;   ///< false: its pipeline slot never freed up
  bool settled = false;    ///< all m result reports reached the client
  sim::SimTime launched_at = 0;
  sim::SimTime settled_at = 0;
  /// Phase breakdown: virtual time at which each provider finished this
  /// instance's bid agreement / produced its final output. Zero if never
  /// (and empty if the instance never launched).
  std::vector<sim::SimTime> bid_agreement_done_at;
  std::vector<sim::SimTime> provider_done_at;
};

/// RunStats::makespan is the last settlement instant when every instance
/// settled, else the virtual time the event queue drained; stalled means
/// some instance never finished (counts as ⊥).
struct ServiceRunResult : RunStats {
  std::vector<InstanceRunResult> instances;
  std::size_t settled_ok = 0;  ///< instances whose combined outcome is ok

  /// Service throughput in auctions per virtual second (0 if nothing
  /// cleared) — what BM_service_throughput sweeps and the ≥1.5× pipelining
  /// acceptance bound is stated in.
  double auctions_per_vsec() const;
};

class ServiceRuntime {
 public:
  explicit ServiceRuntime(ServiceRunConfig config) : config_(std::move(config)) {}

  const ServiceRunConfig& config() const { return config_; }

  /// Run `config().instances` auctions over one shared transport stack.
  /// `workloads[i]` is instance i's true valuations — callers generate it
  /// from derive_instance_seed(base.seed, i) when twin equivalence matters
  /// (the scenario runner and service_test do). Fewer workloads than
  /// configured instances clamps the run.
  ServiceRunResult run(const core::DistributedAuctioneer& auctioneer,
                       std::span<const auction::AuctionInstance> workloads);

 private:
  ServiceRunConfig config_;
};

}  // namespace dauct::runtime
