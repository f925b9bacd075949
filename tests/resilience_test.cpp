// Empirical k-resilience (Definition 2): for every strategy in the deviation
// library, a coalition of size ≤ k gains nothing — its utility under
// deviation never exceeds the honest baseline (detection collapses the run
// to ⊥, whose utility is 0; solution preference makes that a loss whenever
// the honest outcome pays anything).
#include <gtest/gtest.h>

#include <filesystem>

#include "adversary/resilience_harness.hpp"
#include "core/adapters.hpp"
#include "runtime/scenario.hpp"
#include "test_util.hpp"

namespace dauct::adversary {
namespace {

core::DistributedAuctioneer double_auctioneer(std::size_t m, std::size_t k,
                                              std::size_t n) {
  core::AuctioneerSpec spec;
  spec.m = m;
  spec.k = k;
  spec.num_bidders = n;
  return core::DistributedAuctioneer(spec,
                                     std::make_shared<core::DoubleAuctionAdapter>());
}

struct StrategyCase {
  std::string label;
  std::function<std::shared_ptr<DeviationStrategy>(std::vector<NodeId>)> make;
  bool expect_abort;  ///< detection collapses the run to ⊥
  /// Gain allowed from fixed-point rounding, in micro-units (see the matrix).
  std::int64_t rounding_micros = 0;
};

std::vector<StrategyCase> strategy_library() {
  // Note: forge-task-results is exercised against the *standard* auction in
  // its own test below — the double auction's task graph has no data
  // transfers, so that strategy is a no-op here.
  return {
      {"corrupt-coin-reveal",
       [](std::vector<NodeId>) { return corrupt_coin_reveal(); }, true},
      {"equivocate-votes", [](std::vector<NodeId>) { return equivocate_votes(); },
       true},
      {"forge-output-digest",
       [](std::vector<NodeId> c) { return forge_output_digest(std::move(c)); }, true},
  };
}

class Resilience : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Resilience, NoStrategyGainsForSingletonCoalition) {
  const auto instance = testutil::make_instance(16, 5, GetParam());
  const auto auctioneer = double_auctioneer(5, 1, 16);
  runtime::SimRunConfig cfg;
  cfg.seed = GetParam() * 31 + 1;

  for (const auto& sc : strategy_library()) {
    const std::vector<NodeId> coalition = {1};
    const auto report = measure_deviation(auctioneer, instance, cfg, coalition,
                                          sc.make(coalition));
    EXPECT_TRUE(report.honest_ok) << sc.label;
    EXPECT_FALSE(report.gained())
        << sc.label << ": honest=" << report.honest_utility.str()
        << " deviant=" << report.deviant_utility.str();
    if (sc.expect_abort) {
      EXPECT_FALSE(report.deviant_ok) << sc.label << " went undetected";
      EXPECT_EQ(report.deviant_utility, kZeroMoney) << sc.label;
    }
  }
}

TEST_P(Resilience, NoStrategyGainsForCoalitionOfK) {
  // m = 8, k = 3: the largest coalition the paper's deployment tolerates.
  const auto instance = testutil::make_instance(20, 8, GetParam() ^ 0xc0ffeeu);
  const auto auctioneer = double_auctioneer(8, 3, 20);
  runtime::SimRunConfig cfg;
  cfg.seed = GetParam() * 17 + 3;

  const std::vector<NodeId> coalition = {2, 4, 7};
  for (const auto& sc : strategy_library()) {
    const auto report = measure_deviation(auctioneer, instance, cfg, coalition,
                                          sc.make(coalition));
    EXPECT_FALSE(report.gained()) << sc.label;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Resilience, ::testing::Range<std::uint64_t>(1, 9));

// The full deviation × coalition-size matrix at m = 8, n = 24, over ten
// seeded instances per cell: no strategy gains anything for any coalition
// of size ≤ k, and every strategy that breaks the protocol is detected in
// every run. Misreported asks follow the protocol, so they are never
// detected; McAfee pricing makes them unprofitable instead, up to rounding:
// the double auction's proportional rationing and per-segment revenues are
// rounded to micro-units, and where the residue lands depends on the fill
// order, so an understated ask that moves a provider earlier can gain
// 1–3 micro-units (misreport-ask-low, 6 of its 30 runs over the three
// coalition sizes). They get the same 10-micro slack as
// MisreportedAskDoesNotPay; every other arm must gain exactly nothing.
class ResilienceMatrix : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ResilienceMatrix, NoStrategyGainsAndEveryViolationIsDetected) {
  const std::size_t m = 8, n = 24, k = GetParam();
  const auto auctioneer = double_auctioneer(m, k, n);
  std::vector<NodeId> coalition;
  for (NodeId j = 0; j < k; ++j) coalition.push_back(j * 2 + 1);

  std::vector<StrategyCase> strategies = strategy_library();
  strategies.push_back({"misreport-ask-low",
                        [](std::vector<NodeId>) { return misreport_ask(Money::from_micros(1)); },
                        false, 10});
  strategies.push_back({"misreport-ask-high",
                        [](std::vector<NodeId>) { return misreport_ask(Money::from_units(10)); },
                        false, 10});
  strategies.push_back(
      {"honest-control", [](std::vector<NodeId>) { return honest_provider(); }, false});

  for (std::uint64_t r = 0; r < 10; ++r) {
    const auto instance = testutil::make_instance(n, m, 100 * k + r);
    runtime::SimRunConfig cfg;
    cfg.seed = 1000 + r;
    for (const auto& sc : strategies) {
      const auto report =
          measure_deviation(auctioneer, instance, cfg, coalition, sc.make(coalition));
      ASSERT_TRUE(report.honest_ok) << sc.label << " run " << r;
      EXPECT_LE(report.deviant_utility.micros(),
                report.honest_utility.micros() + sc.rounding_micros)
          << sc.label << " run " << r << ": honest=" << report.honest_utility.str()
          << " deviant=" << report.deviant_utility.str();
      EXPECT_EQ(report.deviant_ok, !sc.expect_abort) << sc.label << " run " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CoalitionSizes, ResilienceMatrix,
                         ::testing::Values<std::size_t>(1, 2, 3));

TEST(Resilience, ForgedTaskResultGainsNothingInStandardAuction) {
  // The standard auction ships payment chunks between provider groups; a
  // coalition member forging its copy is detected by the receivers.
  core::AuctioneerSpec spec;
  spec.m = 5;
  spec.k = 1;
  spec.num_bidders = 8;
  auction::StandardAuctionParams params;
  params.use_exact = true;
  const core::DistributedAuctioneer auctioneer(
      spec, std::make_shared<core::StandardAuctionAdapter>(params));
  const auto instance = testutil::make_instance(8, 5, 55, /*standard=*/true);
  runtime::SimRunConfig cfg;
  cfg.seed = 23;
  const std::vector<NodeId> coalition = {1};
  const auto report = measure_deviation(auctioneer, instance, cfg, coalition,
                                        forge_task_results(coalition));
  EXPECT_TRUE(report.honest_ok);
  EXPECT_FALSE(report.deviant_ok);
  EXPECT_FALSE(report.gained());
}

TEST(Resilience, SelectiveSilenceOnlyStallsToBottom) {
  const auto instance = testutil::make_instance(12, 5, 77);
  const auto auctioneer = double_auctioneer(5, 1, 12);
  runtime::SimRunConfig cfg;
  cfg.seed = 5;
  const std::vector<NodeId> coalition = {3};
  const auto report = measure_deviation(auctioneer, instance, cfg, coalition,
                                        selective_silence(coalition));
  EXPECT_TRUE(report.honest_ok);
  EXPECT_FALSE(report.deviant_ok);   // the run cannot complete
  EXPECT_FALSE(report.gained());     // silence earns nothing
}

TEST(Resilience, MisreportedAskDoesNotPay) {
  // Provider-input truthfulness: a provider understating its cost to win
  // more trade volume does not increase its *true* utility (McAfee pricing).
  const auto instance = testutil::make_instance(24, 5, 91);
  const auto auctioneer = double_auctioneer(5, 1, 24);
  runtime::SimRunConfig cfg;
  cfg.seed = 11;
  for (NodeId j = 0; j < 5; ++j) {
    const std::vector<NodeId> coalition = {j};
    const auto report = measure_deviation(auctioneer, instance, cfg, coalition,
                                          misreport_ask(Money::from_micros(1)));
    // Micro-unit tolerance for fixed-point rounding.
    EXPECT_LE(report.deviant_utility.micros(),
              report.honest_utility.micros() + 10)
        << "provider " << j;
  }
}

// ---------------------------------------------------------------------------
// Scenario-driven resilience (the .scn library as the experiment script):
// the paper's claim — outcome durable under ≤ k faults, ⊥ but never a wrong
// (x, p⃗) beyond — asserted through the declarative fault subsystem.
// ---------------------------------------------------------------------------

/// Load + parse a shipped scenario; empty on any failure (tests ASSERT).
std::optional<runtime::Scenario> load_scenario(const char* filename) {
  const auto path = std::filesystem::path(DAUCT_SCENARIO_DIR) / filename;
  const auto text = testutil::slurp_file(path);
  if (!text) {
    ADD_FAILURE() << "cannot read " << path;
    return std::nullopt;
  }
  auto parsed = runtime::parse_scenario(*text);
  if (!parsed.ok()) {
    ADD_FAILURE() << path << ": " << parsed.error;
    return std::nullopt;
  }
  return std::move(parsed.scenario);
}

TEST(ResilienceScenarios, KCrashAfterDecisionMatchesFaultFreeOutcome) {
  // k = 2 of m = 5 providers crash-stop post-decision: every provider output
  // (x, p⃗) before the crashes, so the global outcome must equal the
  // fault-free twin — the crash edition of the paper's resilience bound.
  const auto scenario = load_scenario("k_crash.scn");
  ASSERT_TRUE(scenario.has_value());
  const auto run = runtime::run_scenario(*scenario);
  for (const auto& failure : run.failures) ADD_FAILURE() << failure;
  ASSERT_TRUE(run.run.global_outcome.ok());
  ASSERT_TRUE(run.clean.has_value());
  EXPECT_EQ(run.result_digest, run.clean_digest);
  EXPECT_EQ(run.run.makespan, run.clean->makespan);
}

TEST(ResilienceScenarios, BeyondKCrashLosesLivenessNeverSafety) {
  // k+1 crash-stops mid-round: the run stalls to ⊥ (timeout) — liveness is
  // gone, but no provider that did answer emitted a result, so safety holds
  // (⊥ is the paper's legitimate failure outcome, not a wrong allocation).
  const auto scenario = load_scenario("beyond_k.scn");
  ASSERT_TRUE(scenario.has_value());
  const auto run = runtime::run_scenario(*scenario);
  for (const auto& failure : run.failures) ADD_FAILURE() << failure;
  EXPECT_TRUE(run.run.stalled);
  ASSERT_FALSE(run.run.global_outcome.ok());
  EXPECT_EQ(run.run.global_outcome.bottom().reason, AbortReason::kTimeout);
  for (const auto& outcome : run.run.provider_outcomes) {
    EXPECT_FALSE(outcome.ok()) << "a provider emitted a result mid-stall";
  }
}

TEST(ResilienceScenarios, ByzantineEchoCoalitionIsDetectedAndGainsNothing) {
  const auto loaded = load_scenario("byzantine_echo.scn");
  ASSERT_TRUE(loaded.has_value());
  const runtime::Scenario& scenario = *loaded;
  const auto run = runtime::run_scenario(scenario);
  for (const auto& failure : run.failures) ADD_FAILURE() << failure;
  ASSERT_FALSE(run.run.global_outcome.ok());
  EXPECT_FALSE(run.run.stalled);  // detection is explicit, not a hang

  // Definition 2, through the harness: the same coalition + strategy shows
  // no utility gain over honest play (⊥ pays nobody).
  const auto instance = testutil::make_instance(scenario.users, scenario.providers,
                                                scenario.seed);
  const auto auctioneer = double_auctioneer(scenario.providers, scenario.k,
                                            scenario.users);
  runtime::SimRunConfig cfg;
  cfg.seed = scenario.seed;
  std::vector<NodeId> coalition;
  for (const auto& dev : scenario.deviations) coalition.push_back(dev.node);
  const auto report = measure_deviation(auctioneer, instance, cfg, coalition,
                                        equivocate_votes());
  EXPECT_TRUE(report.honest_ok);
  EXPECT_FALSE(report.deviant_ok);
  EXPECT_FALSE(report.gained());
}

TEST(Resilience, HonestControlArmIsNeutral) {
  const auto instance = testutil::make_instance(10, 4, 99);
  const auto auctioneer = double_auctioneer(4, 1, 10);
  runtime::SimRunConfig cfg;
  cfg.seed = 13;
  const std::vector<NodeId> coalition = {0};
  const auto report =
      measure_deviation(auctioneer, instance, cfg, coalition, honest_provider());
  EXPECT_TRUE(report.honest_ok);
  EXPECT_TRUE(report.deviant_ok);
  EXPECT_EQ(report.honest_utility, report.deviant_utility);
}

}  // namespace
}  // namespace dauct::adversary
