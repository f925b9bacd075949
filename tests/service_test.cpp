// Equivalence-pinned harness for the multi-auction service plane
// (runtime/service_runtime.hpp).
//
// The contract under test, in order of strictness:
//  * identity — one instance routed through the service plane is
//    byte-identical to SimRuntime::run_distributed: same result digest, same
//    virtual makespan, same traffic, against the five golden fingerprints;
//  * twin equality — instance i of an N-instance run reaches the exact
//    result digest of a standalone run at derive_instance_seed(seed, i),
//    with and without the reliability / auth / WAL layers;
//  * isolation — a fault confined to instance t (deviation, crash window,
//    lossy link) must not perturb t±1's digest, and a ⊥ in one instance
//    leaves the pipeline live;
//  * pipelining — depth 2 clears the same workload at least 1.5× faster
//    than strictly sequential;
//  * boundedness — the global topic registry grows with pipeline slots and
//    generations, not with the number of instances served.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "adversary/provider_deviation.hpp"
#include "core/adapters.hpp"
#include "core/service_plane.hpp"
#include "crypto/sha256.hpp"
#include "net/topic.hpp"
#include "runtime/scenario.hpp"
#include "runtime/service_runtime.hpp"
#include "runtime/sim_runtime.hpp"
#include "serde/auction_codec.hpp"
#include "test_util.hpp"

namespace dauct {
namespace {

std::string digest_of(const auction::AuctionOutcome& outcome) {
  return testutil::outcome_digest(outcome);  // shared golden helper
}

std::unique_ptr<core::DistributedAuctioneer> make_auctioneer(
    std::size_t n, std::size_t m, std::size_t k, bool standard = false) {
  core::AuctioneerSpec spec;
  spec.m = m;
  spec.k = k;
  spec.num_bidders = n;
  std::shared_ptr<core::AuctionAdapter> adapter;
  if (standard) {
    auction::StandardAuctionParams p;
    p.epsilon = 0.25;
    adapter = std::make_shared<core::StandardAuctionAdapter>(p);
  } else {
    adapter = std::make_shared<core::DoubleAuctionAdapter>();
  }
  return std::make_unique<core::DistributedAuctioneer>(spec, adapter);
}

/// Instance i's true valuations — the same generator the scenario runner and
/// the CLI use: a fresh workload at the instance's derived seed.
std::vector<auction::AuctionInstance> derived_workloads(
    std::size_t n, std::size_t m, std::uint64_t base_seed, std::size_t count,
    bool standard = false) {
  std::vector<auction::AuctionInstance> out;
  out.reserve(count);
  for (std::size_t t = 0; t < count; ++t) {
    out.push_back(testutil::make_instance(
        n, m, core::derive_instance_seed(base_seed, t), standard));
  }
  return out;
}

/// The standalone run instance t of a service run must be equivalent to.
runtime::SimRunResult run_twin(const runtime::SimRunConfig& base,
                               std::uint64_t derived_seed,
                               const core::DistributedAuctioneer& auctioneer,
                               const auction::AuctionInstance& workload) {
  runtime::SimRunConfig cfg = base;
  cfg.seed = derived_seed;
  cfg.faults.reset();
  cfg.deviations.clear();
  cfg.auth_adversary = {};
  return runtime::SimRuntime(cfg).run_distributed(auctioneer, workload);
}

// ---------------------------------------------------------------------------
// Identity: one instance through the service plane == SimRuntime, bytes.
// ---------------------------------------------------------------------------

TEST(ServiceEquivalence, SingleInstanceThroughServicePlanePinsEveryGoldenFingerprint) {
  for (const testutil::GoldenRun& g : testutil::kGoldenRuns) {
    SCOPED_TRACE("n=" + std::to_string(g.n) + " m=" + std::to_string(g.m) +
                 " k=" + std::to_string(g.k) + " seed=" + std::to_string(g.seed));
    const auto auctioneer = make_auctioneer(g.n, g.m, g.k, g.standard);
    const auto workload = testutil::make_instance(g.n, g.m, g.seed, g.standard);

    runtime::ServiceRunConfig svc;
    svc.base.seed = g.seed;
    svc.instances = 1;
    svc.pipeline_depth = 1;
    const auto run = runtime::ServiceRuntime(svc).run(
        *auctioneer, std::span<const auction::AuctionInstance>(&workload, 1));

    ASSERT_EQ(run.instances.size(), 1u);
    const runtime::InstanceRunResult& inst = run.instances[0];
    EXPECT_TRUE(inst.topic_prefix.empty());  // the identity path: bare topics
    EXPECT_EQ(inst.derived_seed, g.seed);    // derive_instance_seed(S, 0) == S
    EXPECT_TRUE(testutil::matches_golden_fingerprint(g, inst.outcome,
                                                     run.makespan, run.traffic));
  }
}

TEST(ServiceEquivalence, SingleInstanceIdentityHoldsWithEveryLayerEnabled) {
  // Reliability + batch auth + WAL all on: the service plane must still be
  // byte-identical to SimRuntime under the same configuration.
  const auto auctioneer = make_auctioneer(12, 3, 1);
  const auto workload = testutil::make_instance(12, 3, 99);

  runtime::SimRunConfig cfg;
  cfg.seed = 99;
  cfg.reliability.enable = true;
  cfg.auth.enable = true;
  cfg.auth.batch_verify = true;
  cfg.wal.enable = true;

  runtime::ServiceRunConfig svc;
  svc.base = cfg;
  svc.instances = 1;
  svc.pipeline_depth = 1;
  const auto service = runtime::ServiceRuntime(svc).run(
      *auctioneer, std::span<const auction::AuctionInstance>(&workload, 1));
  const auto direct = runtime::SimRuntime(cfg).run_distributed(*auctioneer, workload);

  ASSERT_EQ(service.instances.size(), 1u);
  ASSERT_TRUE(service.instances[0].outcome.ok());
  ASSERT_TRUE(direct.global_outcome.ok());
  EXPECT_EQ(digest_of(service.instances[0].outcome),
            digest_of(direct.global_outcome));
  EXPECT_EQ(service.makespan, direct.makespan);
  EXPECT_EQ(service.traffic.messages, direct.traffic.messages);
  EXPECT_EQ(service.traffic.bytes, direct.traffic.bytes);
}

// ---------------------------------------------------------------------------
// Twin equality: instance i of a multi-run == a standalone run at its
// derived seed.
// ---------------------------------------------------------------------------

TEST(ServiceEquivalence, EveryInstanceOfAMultiRunMatchesItsSingleRunTwin) {
  const auto auctioneer = make_auctioneer(12, 3, 1);
  const auto workloads = derived_workloads(12, 3, 99, 5);

  runtime::ServiceRunConfig svc;
  svc.base.seed = 99;
  svc.instances = 5;
  svc.pipeline_depth = 2;
  const auto run = runtime::ServiceRuntime(svc).run(*auctioneer, workloads);

  ASSERT_EQ(run.instances.size(), 5u);
  EXPECT_EQ(run.settled_ok, 5u);
  EXPECT_FALSE(run.stalled);
  for (const runtime::InstanceRunResult& inst : run.instances) {
    SCOPED_TRACE("instance " + std::to_string(inst.id));
    EXPECT_EQ(inst.derived_seed, core::derive_instance_seed(99, inst.id));
    ASSERT_TRUE(inst.settled);
    ASSERT_TRUE(inst.outcome.ok());
    const auto twin = run_twin(svc.base, inst.derived_seed, *auctioneer,
                               workloads[inst.id]);
    ASSERT_TRUE(twin.global_outcome.ok());
    EXPECT_EQ(digest_of(inst.outcome), digest_of(twin.global_outcome));
  }
}

TEST(ServiceEquivalence, TwinEqualityHoldsUnderEveryTransportLayerVariant) {
  struct Variant {
    const char* name;
    bool reliability, auth, auth_batch, wal;
  };
  const Variant variants[] = {
      {"reliability", true, false, false, false},
      {"auth-eager", false, true, false, false},
      {"auth-batch", false, true, true, false},
      {"wal", true, false, false, true},
  };
  const auto auctioneer = make_auctioneer(12, 3, 1);
  const auto workloads = derived_workloads(12, 3, 7, 4);
  for (const Variant& v : variants) {
    SCOPED_TRACE(v.name);
    runtime::ServiceRunConfig svc;
    svc.base.seed = 7;
    svc.base.reliability.enable = v.reliability;
    svc.base.auth.enable = v.auth;
    svc.base.auth.batch_verify = v.auth_batch;
    svc.base.wal.enable = v.wal;
    svc.instances = 4;
    svc.pipeline_depth = 2;
    const auto run = runtime::ServiceRuntime(svc).run(*auctioneer, workloads);
    ASSERT_EQ(run.settled_ok, 4u);
    for (const runtime::InstanceRunResult& inst : run.instances) {
      SCOPED_TRACE("instance " + std::to_string(inst.id));
      ASSERT_TRUE(inst.outcome.ok());
      const auto twin = run_twin(svc.base, inst.derived_seed, *auctioneer,
                                 workloads[inst.id]);
      ASSERT_TRUE(twin.global_outcome.ok());
      EXPECT_EQ(digest_of(inst.outcome), digest_of(twin.global_outcome));
    }
    if (v.wal) {
      EXPECT_GT(run.wal_stats.records_appended, 0u);
    }
    if (v.auth) {
      EXPECT_GT(run.auth_stats.signed_sends, 0u);
    }
    if (v.reliability) {
      EXPECT_GT(run.reliability_stats.tracked, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Isolation: faults confined to instance t leave t±1 byte-clean.
// ---------------------------------------------------------------------------

TEST(ServiceIsolation, EquivocatorConfinedToOneInstanceLeavesNeighborsClean) {
  const auto auctioneer = make_auctioneer(12, 3, 1);
  const auto workloads = derived_workloads(12, 3, 99, 4);

  runtime::ServiceRunConfig svc;
  svc.base.seed = 99;
  svc.instances = 4;
  svc.pipeline_depth = 2;
  runtime::ServiceDeviation dev;
  dev.instance = 1;
  dev.node = 1;
  dev.strategy = adversary::equivocate_votes();
  svc.deviations.push_back(dev);
  const auto run = runtime::ServiceRuntime(svc).run(*auctioneer, workloads);

  ASSERT_EQ(run.instances.size(), 4u);
  EXPECT_FALSE(run.instances[1].outcome.ok());  // the digest-echo check fires
  EXPECT_EQ(run.settled_ok, 3u);
  // ⊥ in instance 1 keeps the pipeline live: its settlement still launches
  // instance 3 into the freed slot.
  EXPECT_TRUE(run.instances[3].launched);
  EXPECT_TRUE(run.instances[3].settled);
  for (const core::InstanceId t : {0u, 2u, 3u}) {
    SCOPED_TRACE("instance " + std::to_string(t));
    const runtime::InstanceRunResult& inst = run.instances[t];
    ASSERT_TRUE(inst.outcome.ok());
    const auto twin = run_twin(svc.base, inst.derived_seed, *auctioneer,
                               workloads[t]);
    EXPECT_EQ(digest_of(inst.outcome), digest_of(twin.global_outcome));
  }
}

TEST(ServiceIsolation, LossyLinkConfinedToOneInstanceRetransmitsWithoutPerturbingOthers) {
  const auto auctioneer = make_auctioneer(12, 3, 1);
  const auto workloads = derived_workloads(12, 3, 99, 4);

  runtime::ServiceRunConfig svc;
  svc.base.seed = 99;
  svc.base.reliability.enable = true;
  svc.instances = 4;
  svc.pipeline_depth = 2;
  sim::FaultPlan plan;
  plan.seed = 77;
  sim::LinkFault lossy;
  lossy.drop = 0.2;
  lossy.instance = 2;  // compiled to instance 2's topic prefix by the runtime
  plan.links.push_back(lossy);
  svc.base.faults = plan;
  const auto run = runtime::ServiceRuntime(svc).run(*auctioneer, workloads);

  EXPECT_GE(run.fault_stats.link_dropped, 1u);   // the rule actually fired
  EXPECT_GE(run.reliability_stats.retransmits, 1u);  // and was repaired
  ASSERT_EQ(run.settled_ok, 4u);  // retransmits recover every loss
  for (const runtime::InstanceRunResult& inst : run.instances) {
    SCOPED_TRACE("instance " + std::to_string(inst.id));
    ASSERT_TRUE(inst.outcome.ok());
    const auto twin = run_twin(svc.base, inst.derived_seed, *auctioneer,
                               workloads[inst.id]);
    ASSERT_TRUE(twin.global_outcome.ok());
    EXPECT_EQ(digest_of(inst.outcome), digest_of(twin.global_outcome));
  }
}

TEST(ServiceIsolation, CrashWindowInsideOneEpochRecoversWithoutTouchingNeighbors) {
  // Strictly sequential pipeline: instance epochs tile the timeline, so a
  // crash-recover window placed inside instance 1's epoch is a *time*-scoped
  // fault that only instance 1's traffic can hit. The reliability layer
  // retransmits across the outage, so even instance 1 clears and matches its
  // twin.
  const auto auctioneer = make_auctioneer(12, 3, 1);
  const auto workloads = derived_workloads(12, 3, 99, 3);

  runtime::ServiceRunConfig svc;
  svc.base.seed = 99;
  svc.base.reliability.enable = true;
  svc.instances = 3;
  svc.pipeline_depth = 1;
  sim::FaultPlan plan;
  plan.seed = 5;
  sim::CrashEvent crash;
  crash.node = 1;
  crash.at = sim::from_millis(30);
  crash.recover_at = sim::from_millis(40);
  plan.crashes.push_back(crash);
  svc.base.faults = plan;
  const auto run = runtime::ServiceRuntime(svc).run(*auctioneer, workloads);

  // The window must actually bite: it sits inside instance 1's epoch (the
  // first epoch ends ~25 ms virtual at this size under the community model).
  ASSERT_EQ(run.instances.size(), 3u);
  EXPECT_GT(run.instances[1].launched_at, run.instances[0].launched_at);
  EXPECT_GE(run.fault_stats.crash_dropped, 1u);
  ASSERT_EQ(run.settled_ok, 3u);
  for (const runtime::InstanceRunResult& inst : run.instances) {
    SCOPED_TRACE("instance " + std::to_string(inst.id));
    ASSERT_TRUE(inst.outcome.ok());
    const auto twin = run_twin(svc.base, inst.derived_seed, *auctioneer,
                               workloads[inst.id]);
    EXPECT_EQ(digest_of(inst.outcome), digest_of(twin.global_outcome));
  }
}

TEST(ServiceIsolation, ShippedIsolationScenarioHoldsItsExpectations) {
  // The committed CI scenario is the same contract in declarative form:
  // equivocator in instance 1, lossy links in instance 2, three instances
  // clear and match twins, pipeline stays live.
  const auto text = testutil::slurp_file(
      std::filesystem::path(DAUCT_SCENARIO_DIR) / "multi_instance_faulty.scn");
  ASSERT_TRUE(text.has_value());
  const auto parsed = runtime::parse_scenario(*text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const auto run = runtime::run_scenario(*parsed.scenario);
  EXPECT_TRUE(run.ok()) << (run.failures.empty() ? "" : run.failures.front());
  ASSERT_TRUE(run.service.has_value());
  EXPECT_FALSE(run.service->instances[1].outcome.ok());
  EXPECT_TRUE(run.service->instances[3].settled);
  EXPECT_EQ(run.service->settled_ok, 3u);
}

// ---------------------------------------------------------------------------
// Pipelining: overlap must actually buy throughput.
// ---------------------------------------------------------------------------

TEST(ServicePipeline, DepthTwoClearsAtLeastOneAndAHalfTimesFasterThanSequential) {
  const auto auctioneer = make_auctioneer(48, 4, 1);
  const auto workloads = derived_workloads(48, 4, 5, 6);

  runtime::ServiceRunConfig svc;
  svc.base.seed = 5;
  svc.instances = 6;
  svc.pipeline_depth = 1;
  const auto sequential = runtime::ServiceRuntime(svc).run(*auctioneer, workloads);
  svc.pipeline_depth = 2;
  const auto pipelined = runtime::ServiceRuntime(svc).run(*auctioneer, workloads);

  ASSERT_EQ(sequential.settled_ok, 6u);
  ASSERT_EQ(pipelined.settled_ok, 6u);
  // Same results either way — pipelining reshuffles time, not outcomes.
  for (std::size_t t = 0; t < 6; ++t) {
    EXPECT_EQ(digest_of(sequential.instances[t].outcome),
              digest_of(pipelined.instances[t].outcome));
  }
  EXPECT_GE(pipelined.auctions_per_vsec(),
            1.5 * sequential.auctions_per_vsec());
}

// ---------------------------------------------------------------------------
// Boundedness: the global topic registry is O(slots · generations · topics),
// independent of how many instances the service clears.
// ---------------------------------------------------------------------------

TEST(ServiceTopics, RegistryGrowthIsBoundedByPipelineSlotsNotInstanceCount) {
  // Auth off: without signing, generation tags cycle (mod 4), so instance 6
  // and instance 600 intern the *same* prefixed strings. Run 6 instances,
  // snapshot the process-wide registry, then run 12 more: the second run
  // must intern nothing new.
  const auto auctioneer = make_auctioneer(8, 3, 1);

  runtime::ServiceRunConfig svc;
  svc.base.seed = 1;
  svc.pipeline_depth = 1;
  svc.instances = 6;
  (void)runtime::ServiceRuntime(svc).run(*auctioneer,
                                         derived_workloads(8, 3, 1, 6));
  const std::size_t after_six = net::topic_registry_size();

  svc.instances = 12;
  const auto run = runtime::ServiceRuntime(svc).run(
      *auctioneer, derived_workloads(8, 3, 1, 12));
  ASSERT_EQ(run.settled_ok, 12u);
  EXPECT_EQ(net::topic_registry_size(), after_six)
      << "doubling the instance count must not grow the interned-topic "
         "registry: scoped names are keyed by (pipeline slot, generation "
         "cycle), both bounded";
}

// ---------------------------------------------------------------------------
// Seed derivation.
// ---------------------------------------------------------------------------

TEST(ServiceSeeds, DerivationIsStableInstanceZeroIsTheBaseSeed) {
  EXPECT_EQ(core::derive_instance_seed(99, 0), 99u);
  // Pinned: twin reproducibility depends on this function never changing.
  EXPECT_EQ(core::derive_instance_seed(99, 1), 13671838974969002241ull);
  std::vector<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 8; ++i) {
    const std::uint64_t s = core::derive_instance_seed(99, i);
    for (const std::uint64_t prev : seen) EXPECT_NE(s, prev);
    seen.push_back(s);
  }
}

TEST(ServiceSeeds, DerivationIsInjectiveAcrossBaseSeedsWithinBounds) {
  // Property sweep well past the fuzzer's max_instances cap: every
  // (base_seed, instance) pair must get a distinct derived seed — a
  // collision would hand two instances identical workloads AND coin
  // streams, silently correlating runs the oracle treats as independent.
  // Instance 0 stays the identity for every base seed (the property the
  // single-instance golden byte-identity rests on).
  std::set<std::uint64_t> seen;
  std::size_t pairs = 0;
  for (const std::uint64_t base :
       {std::uint64_t{1}, std::uint64_t{7}, std::uint64_t{99},
        std::uint64_t{123456789}, ~std::uint64_t{0}}) {
    EXPECT_EQ(core::derive_instance_seed(base, 0), base);
    for (std::uint64_t i = 0; i < 64; ++i) {
      EXPECT_TRUE(seen.insert(core::derive_instance_seed(base, i)).second)
          << "collision at base " << base << ", instance " << i;
      ++pairs;
    }
  }
  EXPECT_EQ(seen.size(), pairs);
}

TEST(ServiceTopics, PrefixIsInjectiveOverSlotAndGeneration) {
  // (slot, generation) → "i<slot>g<gen>/" must be injective across every
  // pair the runtime can mint (slots < pipeline depth, generations < the
  // cycle — swept far past both caps): a collision would demultiplex a
  // straggler frame from a settled instance into its slot's next tenant.
  // The trailing '/' keeps prefix-scoping exact: no minted prefix may be a
  // prefix of a different one ("i1g2/" vs "i1g22/").
  std::set<std::string> seen;
  std::vector<std::string> all;
  for (std::size_t slot = 0; slot < 24; ++slot) {
    for (std::uint64_t gen = 0; gen < 24; ++gen) {
      const std::string p = core::instance_topic_prefix(slot, gen);
      EXPECT_TRUE(seen.insert(p).second) << "collision: " << p;
      all.push_back(p);
    }
  }
  EXPECT_EQ(seen.size(), 24u * 24u);
  for (const std::string& a : all) {
    for (const std::string& b : all) {
      if (a == b) continue;
      EXPECT_NE(b.substr(0, a.size()), a)
          << "'" << a << "' is a prefix of '" << b
          << "' — instance-scoped rules would leak across tenants";
    }
  }
}

}  // namespace
}  // namespace dauct
