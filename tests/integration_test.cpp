// End-to-end tests of the distributed auctioneer: Definition 1 (correct
// simulation — the distributed outcome equals the trusted auctioneer's
// output), abort semantics, adversarial bidders, and the three runtimes'
// shared engine logic on the virtual-time runtime.
#include <gtest/gtest.h>

#include <set>

#include "adversary/resilience_harness.hpp"
#include "auction/double_auction.hpp"
#include "core/adapters.hpp"
#include "runtime/sim_runtime.hpp"
#include "test_util.hpp"

namespace dauct {
namespace {

using core::AuctioneerSpec;
using core::DistributedAuctioneer;
using runtime::SimRunConfig;
using runtime::SimRuntime;

DistributedAuctioneer make_double(std::size_t m, std::size_t k, std::size_t n,
                                  blocks::AgreementMode mode =
                                      blocks::AgreementMode::kValueBatched) {
  AuctioneerSpec spec;
  spec.m = m;
  spec.k = k;
  spec.num_bidders = n;
  spec.agreement_mode = mode;
  return DistributedAuctioneer(spec, std::make_shared<core::DoubleAuctionAdapter>());
}

DistributedAuctioneer make_standard(std::size_t m, std::size_t k, std::size_t n,
                                    bool exact = true, double epsilon = 0.25) {
  AuctioneerSpec spec;
  spec.m = m;
  spec.k = k;
  spec.num_bidders = n;
  auction::StandardAuctionParams params;
  params.use_exact = exact;
  params.epsilon = epsilon;
  return DistributedAuctioneer(
      spec, std::make_shared<core::StandardAuctionAdapter>(params));
}

TEST(Spec, RejectsInvalidConfigurations) {
  AuctioneerSpec spec;
  spec.m = 4;
  spec.k = 2;  // m ≤ 2k
  spec.num_bidders = 5;
  EXPECT_THROW(
      DistributedAuctioneer(spec, std::make_shared<core::DoubleAuctionAdapter>()),
      std::invalid_argument);
  spec.k = 1;
  spec.num_bidders = 0;
  EXPECT_THROW(
      DistributedAuctioneer(spec, std::make_shared<core::DoubleAuctionAdapter>()),
      std::invalid_argument);
  EXPECT_THROW(DistributedAuctioneer(spec, nullptr), std::invalid_argument);
}

TEST(DistributedDouble, MatchesCentralizedBitForBit) {
  const auto instance = testutil::make_instance(12, 4, 1);
  const auto auctioneer = make_double(4, 1, 12);
  SimRuntime rt(SimRunConfig{});
  const auto run = rt.run_distributed(auctioneer, instance);

  ASSERT_FALSE(run.stalled);
  ASSERT_TRUE(run.global_outcome.ok())
      << abort_reason_name(run.global_outcome.bottom().reason) << ": "
      << run.global_outcome.bottom().detail;

  // Definition 1: the distributed outcome is exactly A(b⃗) — the double
  // auction is deterministic, so bit-for-bit equality with the trusted run.
  const auto reference = auction::run_double_auction(instance);
  EXPECT_EQ(run.global_outcome.value(), reference);
  EXPECT_GT(run.makespan, 0);
  EXPECT_GT(run.traffic.messages, 0u);
}

TEST(DistributedDouble, AllProvidersEmitIdenticalPairs) {
  const auto instance = testutil::make_instance(20, 5, 2);
  const auto auctioneer = make_double(5, 2, 20);
  SimRuntime rt(SimRunConfig{});
  const auto run = rt.run_distributed(auctioneer, instance);
  ASSERT_TRUE(run.global_outcome.ok());
  for (const auto& o : run.provider_outcomes) {
    ASSERT_TRUE(o.ok());
    EXPECT_EQ(o.value(), run.global_outcome.value());
  }
}

TEST(DistributedStandard, MatchesCentralizedGivenSameSeed) {
  const auto instance = testutil::make_instance(8, 3, 4, /*standard=*/true);
  const auto auctioneer = make_standard(3, 1, 8);
  SimRuntime rt(SimRunConfig{});
  const auto run = rt.run_distributed(auctioneer, instance);
  ASSERT_FALSE(run.stalled);
  ASSERT_TRUE(run.global_outcome.ok())
      << abort_reason_name(run.global_outcome.bottom().reason);

  // The exact solver ignores the seed, so the distributed result must equal
  // the trusted execution regardless of the coin value.
  const auto reference = auctioneer.adapter().run_centralized(instance, 0);
  EXPECT_EQ(run.global_outcome.value(), reference);
}

TEST(DistributedStandard, ApproximateSolverStillAgrees) {
  // With the randomized (1−ε) solver, all replicas must still produce the
  // same bytes (shared coin seed): the run succeeds and all outputs match.
  const auto instance = testutil::make_instance(16, 5, 7, /*standard=*/true);
  const auto auctioneer = make_standard(5, 2, 16, /*exact=*/false, 0.5);
  SimRuntime rt(SimRunConfig{});
  const auto run = rt.run_distributed(auctioneer, instance);
  ASSERT_FALSE(run.stalled);
  ASSERT_TRUE(run.global_outcome.ok());
  EXPECT_TRUE(auction::is_feasible(instance, run.global_outcome.value().allocation));
}

TEST(DistributedStandard, ParallelGroupsProduceSameResultAsSequential) {
  // p = 1 (k = 2 → one group of ≥3 of 5... max_parallelism(5,2)=1) versus
  // p = 2 (k = 1, groups of 2+3): identical results, different schedules.
  const auto instance = testutil::make_instance(10, 5, 11, /*standard=*/true);
  SimRuntime rt(SimRunConfig{});
  const auto run_p1 = rt.run_distributed(make_standard(5, 2, 10), instance);
  const auto run_p2 = rt.run_distributed(make_standard(5, 1, 10), instance);
  ASSERT_TRUE(run_p1.global_outcome.ok());
  ASSERT_TRUE(run_p2.global_outcome.ok());
  EXPECT_EQ(run_p1.global_outcome.value(), run_p2.global_outcome.value());
}

TEST(DistributedStandard, Fig5ShapeMatchesTrustedAuctioneerUnderTheAgreedCoin) {
  // Definition 1 on the fig5_vcg shape (n=50, m=8, k=1, ε=0.06) with
  // measured costs, so every solve fans out over the host worker pool: the
  // distributed (x, p⃗) must equal the trusted auctioneer's output under the
  // coin the providers agreed on.
  const auto auctioneer = make_standard(8, 1, 50, /*exact=*/false, 0.06);
  std::set<std::uint64_t> coins;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto instance = testutil::make_instance(50, 8, seed, /*standard=*/true);
    SimRunConfig config;
    config.seed = seed;
    config.cost_mode = sim::CostMode::kMeasured;
    const auto run = SimRuntime(config).run_distributed(auctioneer, instance);
    ASSERT_TRUE(run.global_outcome.ok()) << "seed " << seed;
    EXPECT_EQ(run.global_outcome.value(),
              auctioneer.adapter().run_centralized(instance, run.shared_seed))
        << "seed " << seed;
    coins.insert(run.shared_seed);
  }
  EXPECT_EQ(coins.size(), 5u);  // a real coin per run, not a constant
}

TEST(DistributedDouble, AgreementModesAllWork) {
  const auto instance = testutil::make_instance(4, 3, 13);
  for (auto mode : {blocks::AgreementMode::kValueBatched,
                    blocks::AgreementMode::kBitStream}) {
    SimRuntime rt(SimRunConfig{});
    const auto run = rt.run_distributed(make_double(3, 1, 4, mode), instance);
    ASSERT_TRUE(run.global_outcome.ok()) << blocks::agreement_mode_name(mode);
    EXPECT_EQ(run.global_outcome.value(), auction::run_double_auction(instance))
        << blocks::agreement_mode_name(mode);
  }
}

TEST(DistributedDouble, DeterministicGivenSeed) {
  const auto instance = testutil::make_instance(15, 4, 17);
  const auto auctioneer = make_double(4, 1, 15);
  SimRunConfig cfg;
  cfg.seed = 99;
  const auto a = SimRuntime(cfg).run_distributed(auctioneer, instance);
  const auto b = SimRuntime(cfg).run_distributed(auctioneer, instance);
  ASSERT_TRUE(a.global_outcome.ok());
  ASSERT_TRUE(b.global_outcome.ok());
  EXPECT_EQ(a.global_outcome.value(), b.global_outcome.value());
  EXPECT_EQ(a.makespan, b.makespan);  // virtual time is deterministic too
  EXPECT_EQ(a.traffic.messages, b.traffic.messages);
}

TEST(Centralized, ProducesReferenceResult) {
  const auto instance = testutil::make_instance(25, 6, 19);
  core::CentralizedAuctioneer trusted(std::make_shared<core::DoubleAuctionAdapter>());
  SimRuntime rt(SimRunConfig{});
  const auto run = rt.run_centralized(trusted, instance);
  ASSERT_TRUE(run.global_outcome.ok());
  EXPECT_EQ(run.global_outcome.value(), auction::run_double_auction(instance));
  EXPECT_GT(run.makespan, 0);
}

TEST(Centralized, CheaperThanDistributedOnCommunicationBoundWorkload) {
  // Fig. 4's qualitative claim: the double auction is communication-bound,
  // so the distributed version pays visible coordination overhead.
  const auto instance = testutil::make_instance(100, 8, 23);
  SimRuntime rt(SimRunConfig{});
  const auto central =
      rt.run_centralized(core::CentralizedAuctioneer(
                             std::make_shared<core::DoubleAuctionAdapter>()),
                         instance);
  const auto distributed = rt.run_distributed(make_double(8, 1, 100), instance);
  ASSERT_TRUE(central.global_outcome.ok());
  ASSERT_TRUE(distributed.global_outcome.ok());
  EXPECT_LT(central.makespan, distributed.makespan);
}

// ---------------------------------------------------------------------------
// Adversarial bidders (§3.2 arbitrary bidder behaviour)
// ---------------------------------------------------------------------------

TEST(AdversarialBidders, EquivocatingBidderResolvedByMajority) {
  const auto instance = testutil::make_instance(10, 5, 29);
  auto auctioneer = make_double(5, 1, 10);
  SimRunConfig cfg;
  cfg.bidder_script[3] = adversary::equivocating_bidder(/*split=*/2);
  const auto run = SimRuntime(cfg).run_distributed(auctioneer, instance);
  // The protocol still terminates with a valid outcome (agreement), and
  // consistent bidders' bids are untouched: result equals A on a vector
  // where bidder 3 has the majority view (providers 2..4 → true bid... the
  // equivocator sent the true bid to providers < 2 and a doubled bid to the
  // rest, so the majority view is the doubled bid).
  ASSERT_TRUE(run.global_outcome.ok());
  auction::AuctionInstance majority_view = instance;
  majority_view.bids[3].unit_value =
      instance.bids[3].unit_value + instance.bids[3].unit_value;
  EXPECT_EQ(run.global_outcome.value(), auction::run_double_auction(majority_view));
}

TEST(AdversarialBidders, SilentBidderBecomesNeutral) {
  const auto instance = testutil::make_instance(8, 3, 31);
  auto auctioneer = make_double(3, 1, 8);
  SimRunConfig cfg;
  cfg.bidder_script[0] = adversary::silent_bidder();
  const auto run = SimRuntime(cfg).run_distributed(auctioneer, instance);
  ASSERT_TRUE(run.global_outcome.ok());
  auction::AuctionInstance view = instance;
  view.bids[0] = auction::neutral_bid(0);
  EXPECT_EQ(run.global_outcome.value(), auction::run_double_auction(view));
  EXPECT_EQ(run.global_outcome.value().allocation.allocated_to(0), kZeroMoney);
}

TEST(AdversarialBidders, InvalidBidderBecomesNeutral) {
  const auto instance = testutil::make_instance(8, 3, 37);
  auto auctioneer = make_double(3, 1, 8);
  SimRunConfig cfg;
  cfg.bidder_script[2] = adversary::invalid_bidder();
  const auto run = SimRuntime(cfg).run_distributed(auctioneer, instance);
  ASSERT_TRUE(run.global_outcome.ok());
  auction::AuctionInstance view = instance;
  view.bids[2] = auction::neutral_bid(2);
  EXPECT_EQ(run.global_outcome.value(), auction::run_double_auction(view));
}

TEST(AdversarialBidders, RandomBidderStillTerminates) {
  const auto instance = testutil::make_instance(12, 5, 41);
  auto auctioneer = make_double(5, 2, 12);
  SimRunConfig cfg;
  cfg.bidder_script[1] = adversary::random_bidder();
  cfg.bidder_script[4] = adversary::random_bidder();
  const auto run = SimRuntime(cfg).run_distributed(auctioneer, instance);
  // Arbitrary per-provider random bids: agreement still holds (outcome valid
  // or — never, here — ⊥); all providers agree.
  ASSERT_TRUE(run.global_outcome.ok());
  EXPECT_TRUE(auction::is_feasible(instance, run.global_outcome.value().allocation));
}

// ---------------------------------------------------------------------------
// Deviating providers: detection → ⊥ everywhere
// ---------------------------------------------------------------------------

TEST(DeviatingProviders, ForgedTaskResultAbortsEverywhere) {
  const auto instance = testutil::make_instance(8, 5, 43, /*standard=*/true);
  const auto auctioneer = make_standard(5, 1, 8);
  SimRunConfig cfg;
  cfg.deviations[1] = adversary::forge_task_results({1});
  const auto run = SimRuntime(cfg).run_distributed(auctioneer, instance);
  EXPECT_TRUE(run.global_outcome.is_bottom());
}

TEST(DeviatingProviders, CorruptCoinRevealAborts) {
  const auto instance = testutil::make_instance(8, 3, 47);
  const auto auctioneer = make_double(3, 1, 8);
  SimRunConfig cfg;
  cfg.deviations[2] = adversary::corrupt_coin_reveal();
  const auto run = SimRuntime(cfg).run_distributed(auctioneer, instance);
  EXPECT_TRUE(run.global_outcome.is_bottom());
}

TEST(DeviatingProviders, VoteEquivocationAborts) {
  const auto instance = testutil::make_instance(6, 5, 53);
  const auto auctioneer = make_double(5, 2, 6);
  SimRunConfig cfg;
  cfg.deviations[0] = adversary::equivocate_votes();
  const auto run = SimRuntime(cfg).run_distributed(auctioneer, instance);
  EXPECT_TRUE(run.global_outcome.is_bottom());
}

TEST(DeviatingProviders, ForgedOutputDigestAborts) {
  const auto instance = testutil::make_instance(6, 3, 59);
  const auto auctioneer = make_double(3, 1, 6);
  SimRunConfig cfg;
  cfg.deviations[1] = adversary::forge_output_digest({1});
  const auto run = SimRuntime(cfg).run_distributed(auctioneer, instance);
  EXPECT_TRUE(run.global_outcome.is_bottom());
}

TEST(DeviatingProviders, HonestStrategyIsTransparent) {
  const auto instance = testutil::make_instance(10, 4, 61);
  const auto auctioneer = make_double(4, 1, 10);
  SimRunConfig cfg;
  cfg.deviations[0] = adversary::honest_provider();
  const auto run = SimRuntime(cfg).run_distributed(auctioneer, instance);
  ASSERT_TRUE(run.global_outcome.ok());
  EXPECT_EQ(run.global_outcome.value(), auction::run_double_auction(instance));
}

// ---------------------------------------------------------------------------
// Asynchrony: delayed nodes change nothing but timing
// ---------------------------------------------------------------------------

TEST(Asynchrony, SlowProviderDoesNotChangeOutcome) {
  const auto instance = testutil::make_instance(10, 4, 67);
  const auto auctioneer = make_double(4, 1, 10);

  SimRunConfig fast_cfg;
  const auto fast = SimRuntime(fast_cfg).run_distributed(auctioneer, instance);

  // Same protocol over links 20× slower: identical outcome, larger makespan.
  SimRunConfig cfg2;
  cfg2.latency.base = sim::from_millis(50);
  const auto slow = SimRuntime(cfg2).run_distributed(auctioneer, instance);

  ASSERT_TRUE(fast.global_outcome.ok());
  ASSERT_TRUE(slow.global_outcome.ok());
  EXPECT_EQ(fast.global_outcome.value(), slow.global_outcome.value());
  EXPECT_GT(slow.makespan, fast.makespan);
}

}  // namespace
}  // namespace dauct
