#include <gtest/gtest.h>

#include "auction/double_auction.hpp"
#include "auction/workload.hpp"
#include "crypto/rng.hpp"

namespace dauct::auction {
namespace {

AuctionInstance tiny_market() {
  // 4 buyers, 3 sellers with clean crossing.
  AuctionInstance inst;
  inst.bids = {
      {0, Money::from_double(1.0), Money::from_double(1.0)},
      {1, Money::from_double(0.9), Money::from_double(1.0)},
      {2, Money::from_double(0.5), Money::from_double(1.0)},
      {3, Money::from_double(0.2), Money::from_double(1.0)},
  };
  inst.asks = {
      {0, Money::from_double(0.1), Money::from_double(1.0)},
      {1, Money::from_double(0.3), Money::from_double(1.0)},
      {2, Money::from_double(0.8), Money::from_double(1.0)},
  };
  return inst;
}

TEST(DoubleAuction, TinyMarketTradeReduction) {
  DoubleAuctionInfo info;
  const AuctionResult res = run_double_auction(tiny_market(), &info);

  // Crossing: buyers 0 (1.0) and 1 (0.9) trade with sellers 0 (0.1) and 1
  // (0.3); buyer 2 (0.5) would trade with seller... walk: b0 fills s0, b1
  // fills s1, b2 vs s2: 0.5 < 0.8 stop. Marginal steps: buyer 1, seller 1 —
  // both excluded by trade reduction. Surviving trade: buyer 0 with seller 0.
  EXPECT_TRUE(info.traded);
  EXPECT_EQ(info.buyer_price, Money::from_double(0.9));   // excluded buyer's bid
  EXPECT_EQ(info.seller_price, Money::from_double(0.3));  // excluded seller's ask
  EXPECT_EQ(info.traded_quantity, Money::from_double(1.0));
  EXPECT_EQ(res.allocation.amount(0, 0), Money::from_double(1.0));
  EXPECT_EQ(res.allocation.allocated_to(1), kZeroMoney);  // reduced away
  EXPECT_EQ(res.payments.user_payments[0], Money::from_double(0.9));
  EXPECT_EQ(res.payments.provider_revenues[0], Money::from_double(0.3));
}

TEST(DoubleAuction, NoCrossingNoTrade) {
  AuctionInstance inst;
  inst.bids = {{0, Money::from_double(0.1), Money::from_units(1)}};
  inst.asks = {{0, Money::from_double(0.9), Money::from_units(1)}};
  const AuctionResult res = run_double_auction(inst);
  EXPECT_TRUE(res.allocation.empty());
  EXPECT_EQ(res.payments.total_paid(), kZeroMoney);
}

TEST(DoubleAuction, SingleBuyerOrSellerCannotTrade) {
  // Trade reduction always removes the marginal step: with one participating
  // step on a side there is nothing left.
  AuctionInstance inst;
  inst.bids = {{0, Money::from_double(1.0), Money::from_units(1)}};
  inst.asks = {{0, Money::from_double(0.1), Money::from_units(1)},
               {1, Money::from_double(0.2), Money::from_units(1)}};
  const AuctionResult res = run_double_auction(inst);
  EXPECT_TRUE(res.allocation.empty());
}

TEST(DoubleAuction, NeutralBidsExcluded) {
  AuctionInstance inst = tiny_market();
  inst.bids[0] = neutral_bid(0);
  const AuctionResult res = run_double_auction(inst);
  EXPECT_EQ(res.allocation.allocated_to(0), kZeroMoney);
  EXPECT_EQ(res.payments.user_payments[0], kZeroMoney);
}

TEST(DoubleAuction, DeterministicAcrossCalls) {
  crypto::Rng rng(5);
  const AuctionInstance inst = generate(double_auction_workload(50, 8), rng);
  const AuctionResult a = run_double_auction(inst);
  const AuctionResult b = run_double_auction(inst);
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// Property sweeps over random markets (the paper's workload distributions).
// ---------------------------------------------------------------------------

class DoubleAuctionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DoubleAuctionProperty, FeasibleAllocation) {
  crypto::Rng rng(GetParam());
  const AuctionInstance inst = generate(double_auction_workload(40, 6), rng);
  const AuctionResult res = run_double_auction(inst);
  EXPECT_TRUE(is_feasible(inst, res.allocation));
}

TEST_P(DoubleAuctionProperty, BudgetBalanced) {
  crypto::Rng rng(GetParam() ^ 0x5eedu);
  const AuctionInstance inst = generate(double_auction_workload(60, 8), rng);
  const AuctionResult res = run_double_auction(inst);
  // McAfee trade reduction: Σ user payments ≥ Σ provider revenues.
  EXPECT_TRUE(res.payments.budget_balanced())
      << "paid=" << res.payments.total_paid().str()
      << " received=" << res.payments.total_received().str();
}

TEST_P(DoubleAuctionProperty, IndividualRationality) {
  crypto::Rng rng(GetParam() ^ 0x1234u);
  const AuctionInstance inst = generate(double_auction_workload(30, 5), rng);
  const AuctionResult res = run_double_auction(inst);
  const AuctionOutcome outcome(res);
  // Truthful participants never end up with negative utility.
  for (const auto& bid : inst.bids) {
    EXPECT_GE(user_utility(inst, outcome, bid.bidder), kZeroMoney) << bid.bidder;
  }
  for (const auto& ask : inst.asks) {
    EXPECT_GE(provider_utility(inst, outcome, ask.provider), kZeroMoney)
        << ask.provider;
  }
}

TEST_P(DoubleAuctionProperty, UniformPrices) {
  crypto::Rng rng(GetParam() ^ 0x777u);
  const AuctionInstance inst = generate(double_auction_workload(30, 5), rng);
  DoubleAuctionInfo info;
  const AuctionResult res = run_double_auction(inst, &info);
  if (!info.traded) return;
  EXPECT_GE(info.buyer_price, info.seller_price);  // budget balance per unit
  // Payments accumulate per (bidder, provider) chunk, each truncated to a
  // micro-unit, so totals may differ from alloc·price by a few micros.
  const auto near = [](Money a, Money b) {
    const std::int64_t d = a.micros() - b.micros();
    return d >= -32 && d <= 32;
  };
  for (const auto& bid : inst.bids) {
    const Money alloc = res.allocation.allocated_to(bid.bidder);
    EXPECT_TRUE(near(res.payments.user_payments[bid.bidder],
                     alloc.mul(info.buyer_price)));
    if (alloc > kZeroMoney) {
      // Winners value the resource at least at the clearing price.
      EXPECT_GE(bid.unit_value, info.buyer_price);
    }
  }
  for (const auto& ask : inst.asks) {
    const Money sold = res.allocation.allocated_at(ask.provider);
    EXPECT_TRUE(near(res.payments.provider_revenues[ask.provider],
                     sold.mul(info.seller_price)));
    if (sold > kZeroMoney) {
      EXPECT_LE(ask.unit_cost, info.seller_price);
    }
  }
}

TEST_P(DoubleAuctionProperty, BuyerTruthfulness) {
  // No single buyer improves its utility by misreporting its unit value.
  crypto::Rng rng(GetParam() ^ 0xabcdu);
  const AuctionInstance inst = generate(double_auction_workload(20, 4), rng);
  const AuctionOutcome truthful_outcome(run_double_auction(inst));

  for (BidderId i = 0; i < 5; ++i) {  // probe a few bidders
    const Money honest = user_utility(inst, truthful_outcome, i);
    for (double factor : {0.0, 0.3, 0.7, 1.3, 2.0, 10.0}) {
      AuctionInstance lied = inst;
      lied.bids[i].unit_value = Money::from_double(
          inst.bids[i].unit_value.to_double() * factor);
      const AuctionResult lied_res = run_double_auction(lied);
      // Utility still measured against the TRUE valuation.
      const AuctionOutcome lied_outcome(lied_res);
      const Money lied_utility = user_utility(inst, lied_outcome, i);
      // Tolerance: proportional-rationing scale factors truncate at micro-
      // unit granularity; a "gain" of a few micro-units is rounding, not a
      // strategic improvement.
      EXPECT_LE(lied_utility, honest + Money::from_micros(10))
          << "bidder " << i << " gains by reporting " << factor << "x";
    }
  }
}

TEST_P(DoubleAuctionProperty, SellerTruthfulness) {
  crypto::Rng rng(GetParam() ^ 0xef01u);
  const AuctionInstance inst = generate(double_auction_workload(20, 4), rng);
  const AuctionOutcome truthful_outcome(run_double_auction(inst));

  for (NodeId j = 0; j < 4; ++j) {
    const Money honest = provider_utility(inst, truthful_outcome, j);
    for (double factor : {0.1, 0.5, 1.5, 3.0}) {
      AuctionInstance lied = inst;
      lied.asks[j].unit_cost =
          Money::from_double(inst.asks[j].unit_cost.to_double() * factor);
      const AuctionOutcome lied_outcome(run_double_auction(lied));
      // Same micro-unit rounding tolerance as the buyer-side test.
      EXPECT_LE(provider_utility(inst, lied_outcome, j),
                honest + Money::from_micros(10))
          << "provider " << j << " gains by reporting " << factor << "x cost";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DoubleAuctionProperty,
                         ::testing::Range<std::uint64_t>(1, 26));

}  // namespace
}  // namespace dauct::auction

namespace dauct::auction {
namespace {

TEST(OptimalWaterfill, WelfareDominatesTradeReduction) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    crypto::Rng rng(seed);
    const AuctionInstance inst = generate(double_auction_workload(40, 6), rng);
    const Money opt =
        double_auction_welfare(inst, run_optimal_waterfill(inst).allocation);
    const Money mcafee =
        double_auction_welfare(inst, run_double_auction(inst).allocation);
    EXPECT_GE(opt, mcafee) << seed;  // trade reduction only loses welfare
    EXPECT_GE(opt, kZeroMoney);
  }
}

TEST(OptimalWaterfill, TruthfulnessCostsLittleWelfareAndPayAsBidIsManipulable) {
  // The price of truthfulness on the paper's workload: McAfee's trade
  // reduction keeps at least 93% of the optimal (pay-as-bid) welfare,
  // averaged over 20 instances per market size.
  for (const std::size_t n : {20u, 50u, 100u, 200u, 500u}) {
    double opt_total = 0, mcafee_total = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      crypto::Rng rng(seed * 7 + n);
      const AuctionInstance inst = generate(double_auction_workload(n, 8), rng);
      opt_total +=
          double_auction_welfare(inst, run_optimal_waterfill(inst).allocation).to_double();
      mcafee_total +=
          double_auction_welfare(inst, run_double_auction(inst).allocation).to_double();
    }
    ASSERT_GT(opt_total, 0.0) << "n=" << n;
    EXPECT_GE(mcafee_total / opt_total, 0.93) << "n=" << n;
  }

  // What that price buys: under the optimal mechanism a bidder's own bid
  // sets its price, so shading it pays (27 of these 30 bidders gain;
  // DoubleAuctionProperty.BuyerTruthfulness shows none do under McAfee).
  crypto::Rng rng(99);
  const AuctionInstance inst = generate(double_auction_workload(30, 5), rng);
  const AuctionOutcome honest(run_optimal_waterfill(inst));
  int gainers = 0;
  for (BidderId i = 0; i < 30; ++i) {
    const Money honest_u = user_utility(inst, honest, i);
    Money best = honest_u;
    for (const double f : {0.99, 0.9, 0.8, 0.7}) {
      AuctionInstance lied = inst;
      lied.bids[i].unit_value = Money::from_double(inst.bids[i].unit_value.to_double() * f);
      best = max(best, user_utility(inst, AuctionOutcome(run_optimal_waterfill(lied)), i));
    }
    if (best > honest_u + Money::from_micros(10)) ++gainers;
  }
  EXPECT_GE(gainers, 1);
}

TEST(OptimalWaterfill, FeasibleAndBudgetBalanced) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    crypto::Rng rng(seed ^ 0x0f0fu);
    const AuctionInstance inst = generate(double_auction_workload(30, 5), rng);
    const AuctionResult res = run_optimal_waterfill(inst);
    EXPECT_TRUE(is_feasible(inst, res.allocation));
    // Pay-as-bid ≥ receive-as-ask on every traded unit (v ≥ c at trade time).
    EXPECT_TRUE(res.payments.budget_balanced());
  }
}

TEST(OptimalWaterfill, TradesEveryClearingPair) {
  // Unlike McAfee, a single buyer/seller pair that clears does trade.
  AuctionInstance inst;
  inst.bids = {{0, Money::from_double(1.0), Money::from_units(1)}};
  inst.asks = {{0, Money::from_double(0.2), Money::from_units(1)}};
  const AuctionResult res = run_optimal_waterfill(inst);
  EXPECT_EQ(res.allocation.allocated_to(0), Money::from_units(1));
  EXPECT_EQ(res.payments.user_payments[0], Money::from_double(1.0));   // pays bid
  EXPECT_EQ(res.payments.provider_revenues[0], Money::from_double(0.2));
}

}  // namespace
}  // namespace dauct::auction
