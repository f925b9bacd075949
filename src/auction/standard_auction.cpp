#include "auction/standard_auction.hpp"

#include <numeric>
#include <span>

namespace dauct::auction {

std::unique_ptr<WelfareSolver> make_solver(const StandardAuctionParams& params) {
  if (params.use_exact) return std::make_unique<ExactSolver>();
  return std::make_unique<ScaledDpSolver>(params.epsilon);
}

Assignment standard_allocate(const AuctionInstance& instance,
                             const StandardAuctionParams& params) {
  return make_solver(params)->solve_all(instance, params.seed);
}

namespace {

/// The Clarke re-solve of bidder i: every bidder but i, and a seed offset
/// per bidder so the perturbed trials differ between re-solves but stay
/// identical across replicas.
std::uint64_t clarke_seed(std::uint64_t seed, BidderId i) {
  return seed ^ (0x9e3779b97f4a7c15ULL * (i + 1));
}

}  // namespace

Money standard_payment(const AuctionInstance& instance,
                       const StandardAuctionParams& params,
                       const Assignment& assignment, BidderId i) {
  return standard_payments(instance, params, assignment, std::span(&i, 1))[0];
}

std::vector<Money> standard_payments(const AuctionInstance& instance,
                                     const StandardAuctionParams& params,
                                     const Assignment& assignment,
                                     std::span<const BidderId> bidders, BatchStats* stats) {
  // The chunk's re-solves, one batch: bidder j's is masks[resolve[j]].
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> resolve(bidders.size(), kNone);
  std::vector<std::vector<bool>> masks;
  std::vector<std::uint64_t> seeds;
  for (std::size_t j = 0; j < bidders.size(); ++j) {
    const BidderId i = bidders[j];
    if (i >= assignment.provider_of.size()) continue;
    resolve[j] = masks.size();
    masks.emplace_back(instance.bids.size(), true);
    masks.back()[i] = false;
    seeds.push_back(clarke_seed(params.seed, i));
  }
  const std::vector<Assignment> without =
      make_solver(params)->solve_batch(instance, masks, seeds, stats);

  std::vector<Money> payments(bidders.size(), kZeroMoney);
  for (std::size_t j = 0; j < bidders.size(); ++j) {
    if (resolve[j] == kNone) continue;
    const Bid& bid = instance.bids[bidders[j]];
    const bool winner = assignment.provider_of[bidders[j]] >= 0;
    const Money own_value = winner ? bid.demand.mul(bid.unit_value) : kZeroMoney;
    // p_i = W(−i) − (welfare of the others under the chosen assignment),
    // clamped for individual rationality / no-subsidy under approximate
    // solvers (with the exact solver the clamp is a no-op: 0 ≤ p_i ≤ v_i·d_i
    // always, and a loser's formula value is ≤ 0 → 0).
    const Money others_with_i = assignment.welfare - own_value;
    payments[j] = min(max(without[resolve[j]].welfare - others_with_i, kZeroMoney), own_value);
  }
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
