// Double auction for divisible bandwidth (Zheng et al. STAR flavour, §5.2.1).
//
// Mechanism:
//  1. Sort users by descending unit value, providers by ascending unit cost
//     (ties broken by id — deterministic, since replicas must agree).
//  2. Walk the aggregate demand and supply curves to find the crossing: the
//     largest traded quantity at which the marginal buyer's value is at least
//     the marginal seller's cost. The marginal buyer step K and marginal
//     seller step L are identified.
//  3. McAfee-style *trade reduction*: buyer K and seller L (and everyone after
//     them in the order) are excluded from trading. Their bid/ask become the
//     uniform clearing prices: every trading buyer pays b_K per unit, every
//     trading seller receives s_L per unit. Because prices are set by
//     excluded bids, no trading participant can improve its price by lying,
//     and b_K ≥ s_L at the crossing gives (weak) budget balance.
//  4. The surviving demand is *water-filled* into the surviving capacity in
//     order: each buyer's demand goes to the first provider(s) with remaining
//     capacity (§5.2.1's water-filling method).
//
// Properties (verified by tests): feasibility, truthfulness (no single bidder
// or provider gains by misreporting), budget balance, and the welfare
// trade-off inherent to trade reduction.
//
// Computationally the mechanism is sort-dominated — the paper uses it as the
// non-parallelisable worst case for framework overhead (Fig. 4).
#pragma once

#include "auction/types.hpp"

namespace dauct::auction {

/// Run the double-auction mechanism on `instance`. Deterministic.
AuctionResult run_double_auction(const AuctionInstance& instance);

/// Diagnostic info from a run (marginal prices etc.), for tests and reports.
struct DoubleAuctionInfo {
  bool traded = false;
  Money buyer_price;   ///< uniform unit price paid by trading buyers (= b_K)
  Money seller_price;  ///< uniform unit price received by sellers (= s_L)
  Money traded_quantity;
};

AuctionResult run_double_auction(const AuctionInstance& instance, DoubleAuctionInfo* info);

/// Welfare-*optimal* water-filling WITHOUT trade reduction: every buyer whose
/// value clears a seller's cost trades, buyers pay their own bid and sellers
/// receive their own ask (pay-as-bid). This is the efficiency upper bound the
/// McAfee mechanism sacrifices for truthfulness — it is NOT truthful (your
/// own bid sets your price). tests/double_auction_test.cpp measures the
/// welfare cost of truthfulness against it and shows it manipulable.
AuctionResult run_optimal_waterfill(const AuctionInstance& instance);

}  // namespace dauct::auction
