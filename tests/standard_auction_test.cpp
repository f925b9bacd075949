#include <gtest/gtest.h>

#include "auction/standard_auction.hpp"
#include "auction/workload.hpp"
#include "crypto/rng.hpp"

namespace dauct::auction {
namespace {

StandardAuctionParams exact_params() {
  StandardAuctionParams p;
  p.use_exact = true;
  return p;
}

AuctionInstance small_cloud(std::uint64_t seed, std::size_t n = 10,
                            std::size_t m = 3) {
  crypto::Rng rng(seed);
  return generate(standard_auction_workload(n, m), rng);
}

TEST(StandardAuction, WinnersPayAtMostTheirValue) {
  const AuctionInstance inst = small_cloud(1);
  const AuctionResult res = run_standard_auction(inst, exact_params());
  for (const auto& bid : inst.bids) {
    const Money value = res.allocation.allocated_to(bid.bidder).mul(bid.unit_value);
    EXPECT_LE(res.payments.user_payments[bid.bidder], value);
  }
}

TEST(StandardAuction, LosersPayNothing) {
  const AuctionInstance inst = small_cloud(2);
  const AuctionResult res = run_standard_auction(inst, exact_params());
  for (const auto& bid : inst.bids) {
    if (res.allocation.allocated_to(bid.bidder).is_zero()) {
      EXPECT_EQ(res.payments.user_payments[bid.bidder], kZeroMoney);
    }
  }
}

TEST(StandardAuction, ExactlyBudgetBalanced) {
  const AuctionInstance inst = small_cloud(3);
  const AuctionResult res = run_standard_auction(inst, exact_params());
  // User payments flow 1:1 to the hosting providers.
  EXPECT_EQ(res.payments.total_paid(), res.payments.total_received());
}

TEST(StandardAuction, SingleProviderAllocationOnly) {
  const AuctionInstance inst = small_cloud(4);
  const AuctionResult res = run_standard_auction(inst, exact_params());
  for (const auto& bid : inst.bids) {
    // Each winner's demand sits at exactly one provider, in full.
    int providers_used = 0;
    for (const auto& e : res.allocation.entries()) {
      if (e.bidder == bid.bidder) {
        ++providers_used;
        EXPECT_EQ(e.amount, bid.demand);
      }
    }
    EXPECT_LE(providers_used, 1);
  }
}

TEST(StandardAuction, FeasibleAllocation) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const AuctionInstance inst = small_cloud(seed, 12, 4);
    const AuctionResult res = run_standard_auction(inst, exact_params());
    EXPECT_TRUE(is_feasible(inst, res.allocation)) << seed;
  }
}

TEST(StandardAuction, ClarkePaymentNonNegative) {
  const AuctionInstance inst = small_cloud(5);
  const AuctionResult res = run_standard_auction(inst, exact_params());
  for (Money p : res.payments.user_payments) EXPECT_GE(p, kZeroMoney);
}

TEST(StandardAuction, PaymentEqualsExternality) {
  // Hand-built: two users compete for one slot.
  AuctionInstance inst;
  inst.bids = {{0, Money::from_double(1.0), Money::from_double(1.0)},
               {1, Money::from_double(0.6), Money::from_double(1.0)}};
  inst.asks = {{0, kZeroMoney, Money::from_double(1.0)}};
  const AuctionResult res = run_standard_auction(inst, exact_params());
  // u0 wins and pays exactly u1's displaced value (second price).
  EXPECT_EQ(res.allocation.allocated_to(0), Money::from_double(1.0));
  EXPECT_EQ(res.allocation.allocated_to(1), kZeroMoney);
  EXPECT_EQ(res.payments.user_payments[0], Money::from_double(0.6));
}

TEST(StandardAuction, NoCompetitionMeansFreeAllocation) {
  AuctionInstance inst;
  inst.bids = {{0, Money::from_double(1.0), Money::from_double(0.5)}};
  inst.asks = {{0, kZeroMoney, Money::from_double(1.0)}};
  const AuctionResult res = run_standard_auction(inst, exact_params());
  EXPECT_EQ(res.allocation.allocated_to(0), Money::from_double(0.5));
  EXPECT_EQ(res.payments.user_payments[0], kZeroMoney);  // zero externality
}

TEST(StandardAuction, TaskDecompositionMatchesMonolith) {
  // Running Task 1 / Task 2 / Task 3 by hand equals run_standard_auction.
  const AuctionInstance inst = small_cloud(6);
  const auto params = exact_params();
  const Assignment assignment = standard_allocate(inst, params);
  std::vector<Money> payments(inst.bids.size(), kZeroMoney);
  for (std::size_t i = 0; i < inst.bids.size(); ++i) {
    payments[i] = standard_payment(inst, params, assignment, static_cast<BidderId>(i));
  }
  const AuctionResult manual = standard_assemble(inst, assignment, payments);
  const AuctionResult monolith = run_standard_auction(inst, params);
  EXPECT_EQ(manual, monolith);
}

TEST(StandardAuction, PaymentChunkEqualsPerBidderPayments) {
  // standard_payments spreads a chunk's re-solves over the host pool and
  // writes each payment by index: the vector equals the sequential loop's,
  // for any bidder order (strided chunks, duplicates, out-of-range ids).
  const AuctionInstance inst = small_cloud(3, 30, 5);
  StandardAuctionParams params;
  params.epsilon = 0.1;
  params.seed = 77;
  const Assignment assignment = standard_allocate(inst, params);
  const std::vector<BidderId> chunk = {29, 1, 4, 7, 4, 0, 13, 1000};
  const std::vector<Money> payments =
      standard_payments(inst, params, assignment, chunk);
  ASSERT_EQ(payments.size(), chunk.size());
  for (std::size_t j = 0; j < chunk.size(); ++j) {
    EXPECT_EQ(payments[j], standard_payment(inst, params, assignment, chunk[j]))
        << "bidder " << chunk[j];
  }
  EXPECT_TRUE(standard_payments(inst, params, assignment, {}).empty());
}

// VCG truthfulness with the exact solver: dominant-strategy, so no value
// misreport may increase utility on any instance.
class VcgTruthfulness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VcgTruthfulness, NoGainFromValueMisreport) {
  const AuctionInstance inst = small_cloud(GetParam(), 8, 2);
  const auto params = exact_params();
  const AuctionOutcome truthful(run_standard_auction(inst, params));

  for (BidderId i = 0; i < 4; ++i) {
    const Money honest = user_utility(inst, truthful, i);
    for (double factor : {0.0, 0.4, 0.8, 1.25, 2.0, 5.0}) {
      AuctionInstance lied = inst;
      lied.bids[i].unit_value =
          Money::from_double(inst.bids[i].unit_value.to_double() * factor);
      const AuctionOutcome lied_outcome(run_standard_auction(lied, params));
      // Tiny tolerance for fixed-point truncation in welfare differences.
      EXPECT_LE(user_utility(inst, lied_outcome, i), honest + Money::from_micros(5))
          << "bidder " << i << " gains from factor " << factor;
    }
  }
}

TEST_P(VcgTruthfulness, IndividualRationality) {
  const AuctionInstance inst = small_cloud(GetParam() ^ 0x99u, 10, 3);
  const AuctionOutcome outcome(run_standard_auction(inst, exact_params()));
  for (const auto& bid : inst.bids) {
    EXPECT_GE(user_utility(inst, outcome, bid.bidder), kZeroMoney);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VcgTruthfulness,
                         ::testing::Range<std::uint64_t>(1, 13));

// The approximate mechanism: properties that must survive approximation.
class ApproxMechanism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ApproxMechanism, IndividualRationalityAndBudget) {
  const AuctionInstance inst = small_cloud(GetParam(), 20, 4);
  StandardAuctionParams params;
  params.epsilon = 0.2;
  params.seed = GetParam();
  const AuctionResult res = run_standard_auction(inst, params);
  EXPECT_TRUE(is_feasible(inst, res.allocation));
  EXPECT_EQ(res.payments.total_paid(), res.payments.total_received());
  const AuctionOutcome outcome(res);
  for (const auto& bid : inst.bids) {
    // The payment clamp guarantees IR even under approximation.
    EXPECT_GE(user_utility(inst, outcome, bid.bidder), kZeroMoney);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApproxMechanism,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace dauct::auction
