#include "auction/standard_auction.hpp"

#include <numeric>

#include "common/parallel.hpp"

namespace dauct::auction {

std::unique_ptr<WelfareSolver> make_solver(const StandardAuctionParams& params) {
  if (params.use_exact) return std::make_unique<ExactSolver>();
  return std::make_unique<ScaledDpSolver>(params.epsilon);
}

Assignment standard_allocate(const AuctionInstance& instance,
                             const StandardAuctionParams& params) {
  return make_solver(params)->solve_all(instance, params.seed);
}

Money standard_payment(const AuctionInstance& instance,
                       const StandardAuctionParams& params,
                       const Assignment& assignment, BidderId i) {
  if (i >= assignment.provider_of.size()) return kZeroMoney;
  const bool winner = assignment.provider_of[i] >= 0;
  if (!winner && params.skip_loser_resolve) {
    return kZeroMoney;  // losers pay nothing; re-solve skipped (optimization)
  }
  const Bid& bid = instance.bids[i];
  const Money own_value = winner ? bid.demand.mul(bid.unit_value) : kZeroMoney;

  // Welfare of the others under the chosen assignment.
  const Money others_with_i = assignment.welfare - own_value;

  // Welfare of the others if i did not exist (the Clarke re-solve). The seed
  // is offset per bidder so the perturbed trials differ between re-solves but
  // stay identical across replicas.
  std::vector<bool> active(instance.bids.size(), true);
  active[i] = false;
  const Assignment without =
      make_solver(params)->solve(instance, active, params.seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));

  Money payment = without.welfare - others_with_i;
  // Clamp for individual rationality / no-subsidy under approximate solvers
  // (with the exact solver the clamp is a no-op: 0 ≤ p_i ≤ v_i·d_i always,
  // and a loser's formula value is ≤ 0 → 0).
  payment = max(payment, kZeroMoney);
  payment = min(payment, own_value);
  return payment;
}

std::vector<Money> standard_payments(const AuctionInstance& instance,
                                     const StandardAuctionParams& params,
                                     const Assignment& assignment,
                                     std::span<const BidderId> bidders) {
  std::vector<Money> payments(bidders.size(), kZeroMoney);
  host::parallel_for(bidders.size(), [&](std::size_t j) {
    payments[j] = standard_payment(instance, params, assignment, bidders[j]);
  });
  return payments;
}

AuctionResult standard_assemble(const AuctionInstance& instance,
                                const Assignment& assignment,
                                const std::vector<Money>& user_payments) {
  AuctionResult result;
  result.payments.user_payments = user_payments;
  result.payments.user_payments.resize(instance.bids.size(), kZeroMoney);
  result.payments.provider_revenues.assign(instance.asks.size(), kZeroMoney);
  for (std::size_t i = 0; i < instance.bids.size(); ++i) {
    const std::int32_t j = i < assignment.provider_of.size() ? assignment.provider_of[i] : -1;
    if (j < 0) continue;
    result.allocation.add(static_cast<BidderId>(i), static_cast<NodeId>(j),
                          instance.bids[i].demand);
    // The hosting provider receives the user's payment (exactly budget
    // balanced: Σ revenues == Σ payments).
    result.payments.provider_revenues[static_cast<std::size_t>(j)] +=
        result.payments.user_payments[i];
  }
  return result;
}

AuctionResult run_standard_auction(const AuctionInstance& instance,
                                   const StandardAuctionParams& params) {
  const Assignment assignment = standard_allocate(instance, params);
  std::vector<BidderId> everyone(instance.bids.size());
  std::iota(everyone.begin(), everyone.end(), BidderId{0});
  return standard_assemble(instance, assignment,
                           standard_payments(instance, params, assignment, everyone));
}

}  // namespace dauct::auction
