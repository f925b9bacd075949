// Standard (one-sided) auction with VCG payments (§5.2.2).
//
// Following Zhang et al. (INFOCOM'15): only users bid; each user's demand
// must be satisfied by a single provider; the mechanism targets maximal
// social welfare + truthfulness via VCG, with a (1−ε) approximate welfare
// maximizer to keep the computation polynomial.
//
// The computation decomposes exactly as the paper's Algorithm 1:
//   Task 1   — compute the allocation (one welfare solve);
//   Task 2.S — compute the Clarke-pivot payment of each user in subset S
//              (one welfare *re-solve without that user* per payment: the
//              computationally dominant, embarrassingly parallel part; the
//              chunk's re-solves run as one solver batch, which shares the
//              provider stages they have in common);
//   Task 3   — gather payments and emit (x, p).
// The functions below are those tasks; run_standard_auction() chains them
// in one process (the trusted-auctioneer/centralized execution).
//
// Truthfulness: with ExactSolver the mechanism is exactly VCG (dominant-
// strategy truthful; verified by property tests). With ScaledDpSolver it is
// the paper's "(1−ε)-optimal, truthful in expectation" trade-off: payments
// are clamped to [0, v_i·d_i] so individual rationality always holds, and
// deviation gains are bounded by the approximation error.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "auction/types.hpp"
#include "auction/welfare.hpp"

namespace dauct::auction {

/// Mechanism parameters.
struct StandardAuctionParams {
  double epsilon = 0.1;     ///< approximation knob for ScaledDpSolver
  bool use_exact = false;   ///< use ExactSolver (small instances / tests)
  std::uint64_t seed = 0;   ///< shared randomness (supplied by the common coin)
};

/// Make the solver selected by `params`.
std::unique_ptr<WelfareSolver> make_solver(const StandardAuctionParams& params);

/// Task 1: compute the (approximately) welfare-maximizing assignment.
Assignment standard_allocate(const AuctionInstance& instance,
                             const StandardAuctionParams& params);

/// Task 2 unit: the Clarke-pivot payment of bidder `i` given the Task-1
/// assignment: p_i = W(−i) − (W − v_i·d_i), clamped to [0, v_i·d_i].
/// This is the expensive call (a full welfare re-solve without bidder i): a
/// chunk of one.
Money standard_payment(const AuctionInstance& instance,
                       const StandardAuctionParams& params,
                       const Assignment& assignment, BidderId i);

/// Task 2 chunk: the Clarke payments of `bidders`, in order — what
/// standard_payment() returns for each. The chunk's re-solves run as one
/// WelfareSolver::solve_batch() call: ScaledDpSolver solves each distinct
/// provider stage among them once and spreads the stages over the host
/// worker pool (common/parallel.hpp); ExactSolver runs one re-solve per pool
/// item. Each payment is written by index, so the vector equals the
/// per-bidder loop's. `stats`, if given, is added to by the batch.
std::vector<Money> standard_payments(const AuctionInstance& instance,
                                     const StandardAuctionParams& params,
                                     const Assignment& assignment,
                                     std::span<const BidderId> bidders,
                                     BatchStats* stats = nullptr);

/// Task 3: assemble the final result from the assignment and payments.
/// `user_payments` must have one entry per bidder (zero for losers).
AuctionResult standard_assemble(const AuctionInstance& instance,
                                const Assignment& assignment,
                                const std::vector<Money>& user_payments);

/// The full centralized execution (Tasks 1, 2.0..2.n-1, 3 in sequence).
AuctionResult run_standard_auction(const AuctionInstance& instance,
                                   const StandardAuctionParams& params);

}  // namespace dauct::auction
