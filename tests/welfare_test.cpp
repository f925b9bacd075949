#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "auction/welfare.hpp"
#include "auction/workload.hpp"
#include "crypto/rng.hpp"

namespace dauct::auction {
namespace {

AuctionInstance knapsack_instance() {
  // 2 providers (cap 1.0 each), 4 users. Optimal: u0+u2 in p0/p1 split.
  AuctionInstance inst;
  inst.bids = {
      {0, Money::from_double(1.0), Money::from_double(0.9)},   // value .9
      {1, Money::from_double(0.8), Money::from_double(0.5)},   // value .4
      {2, Money::from_double(1.2), Money::from_double(0.6)},   // value .72
      {3, Money::from_double(0.5), Money::from_double(0.4)},   // value .2
  };
  inst.asks = {
      {0, kZeroMoney, Money::from_double(1.0)},
      {1, kZeroMoney, Money::from_double(1.0)},
  };
  return inst;
}

TEST(ExactSolver, SmallOptimum) {
  const AuctionInstance inst = knapsack_instance();
  const Assignment a = ExactSolver().solve_all(inst, 0);
  // Capacity 2.0 total, single-provider constraint per user.
  // Best: u0 (.9) + u2 (.72) + u1 (.4) = demands .9 + .6 + .5: u0 alone in
  // one provider (.9), u2+u1 = 1.1 > 1.0 → u2 with u3 (.6+.4=1.0, value .92)
  // and u0+?: u0 (.9) leaves .1. Options: {u0},{u2,u3} = .9+.92 = 1.82;
  // {u0},{u2,u1}=infeasible; {u1,u2}=1.1 no; {u0,u3}? .9+.4=1.3 no.
  // {u1},{u2,u3}: .4+.92=1.32. So optimum = 1.82.
  EXPECT_EQ(a.welfare, Money::from_double(1.82));
  EXPECT_GE(a.provider_of[0], 0);
  EXPECT_GE(a.provider_of[2], 0);
  EXPECT_GE(a.provider_of[3], 0);
  EXPECT_EQ(a.provider_of[1], -1);
}

TEST(ExactSolver, RespectsActiveMask) {
  const AuctionInstance inst = knapsack_instance();
  std::vector<bool> active(4, true);
  active[0] = false;
  const Assignment a = ExactSolver().solve(inst, active, 0);
  EXPECT_EQ(a.provider_of[0], -1);
  // Without u0: {u2,u3} (.92) + {u1} (.4) = 1.32.
  EXPECT_EQ(a.welfare, Money::from_double(1.32));
}

TEST(ExactSolver, EmptyInstance) {
  AuctionInstance inst;
  inst.asks = {{0, kZeroMoney, Money::from_units(1)}};
  const Assignment a = ExactSolver().solve_all(inst, 0);
  EXPECT_EQ(a.welfare, kZeroMoney);
}

TEST(ExactSolver, NeutralBidsIgnored) {
  AuctionInstance inst = knapsack_instance();
  inst.bids[2] = neutral_bid(2);
  const Assignment a = ExactSolver().solve_all(inst, 0);
  EXPECT_EQ(a.provider_of[2], -1);
}

TEST(ExactSolver, OversizedDemandUnplaced) {
  AuctionInstance inst;
  inst.bids = {{0, Money::from_units(1), Money::from_units(5)}};
  inst.asks = {{0, kZeroMoney, Money::from_units(1)}};
  const Assignment a = ExactSolver().solve_all(inst, 0);
  EXPECT_EQ(a.provider_of[0], -1);
  EXPECT_EQ(a.welfare, kZeroMoney);
}

TEST(ScaledDpSolver, MatchesExactOnEasyInstance) {
  const AuctionInstance inst = knapsack_instance();
  const Assignment exact = ExactSolver().solve_all(inst, 0);
  const Assignment dp = ScaledDpSolver(0.05).solve_all(inst, 7);
  // On this tiny instance the fine grid should find the optimum.
  EXPECT_EQ(dp.welfare, exact.welfare);
}

TEST(ScaledDpSolver, RejectsEpsilonOutsideUnitInterval) {
  // ⌈1/ε⌉ trials and ⌈n/ε⌉ grid cells are only defined for ε in (0, 1].
  for (const double eps : {0.0, -0.1, 1.5, std::nan("")}) {
    EXPECT_THROW(ScaledDpSolver{eps}, std::invalid_argument) << eps;
  }
  EXPECT_EQ(ScaledDpSolver(1.0).trials(), 1u);
}

TEST(ScaledDpSolver, DeterministicGivenSeed) {
  crypto::Rng rng(3);
  const AuctionInstance inst = generate(standard_auction_workload(24, 4), rng);
  const ScaledDpSolver solver(0.2);
  const Assignment a = solver.solve_all(inst, 42);
  const Assignment b = solver.solve_all(inst, 42);
  EXPECT_EQ(a, b);
  const Assignment c = solver.solve_all(inst, 43);
  // Different seed may legitimately give a different (equal-or-close) packing;
  // what matters is that equal seeds are bit-identical (checked above). Touch
  // c to document the intent.
  EXPECT_GE(c.welfare, kZeroMoney);
}

TEST(ScaledDpSolver, FeasibleAssignments) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    crypto::Rng rng(seed);
    const AuctionInstance inst = generate(standard_auction_workload(30, 5), rng);
    const Assignment a = ScaledDpSolver(0.1).solve_all(inst, seed);
    // Rebuild the allocation and check capacities.
    Allocation x;
    for (std::size_t i = 0; i < a.provider_of.size(); ++i) {
      if (a.provider_of[i] >= 0) {
        x.add(static_cast<BidderId>(i), static_cast<NodeId>(a.provider_of[i]),
              inst.bids[i].demand);
      }
    }
    EXPECT_TRUE(is_feasible(inst, x)) << "seed " << seed;
    EXPECT_EQ(standard_auction_welfare(inst, x), a.welfare) << "seed " << seed;
  }
}

// (1−ε) quality: on small instances the DP keeps at least 1 − ε of the
// exact optimum at every ε of the sweep.
class WelfareApproximation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WelfareApproximation, RatioWithinBound) {
  crypto::Rng rng(GetParam());
  const AuctionInstance inst = generate(standard_auction_workload(14, 3), rng);
  const Money exact = ExactSolver().solve_all(inst, 0).welfare;
  if (exact.is_zero()) return;

  for (const double eps : {0.5, 0.2, 0.1, 0.05}) {
    const Money dp = ScaledDpSolver(eps).solve_all(inst, GetParam()).welfare;
    const double ratio = dp.to_double() / exact.to_double();
    EXPECT_GE(ratio, 1.0 - eps) << "eps " << eps << ": DP lost too much welfare";
    EXPECT_LE(ratio, 1.0 + 1e-9) << "eps " << eps;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WelfareApproximation,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace dauct::auction
