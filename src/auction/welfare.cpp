#include "auction/welfare.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "auction/knapsack_row.hpp"
#include "common/parallel.hpp"

namespace dauct::auction {

namespace {

struct Item {
  BidderId bidder;
  std::int64_t value;   // v_i * d_i, in micro-money
  std::int64_t demand;  // micros of resource
  std::int64_t unit_value;
};

void active_items(const AuctionInstance& instance, const std::vector<bool>& active,
                  std::vector<Item>& items) {
  items.clear();
  for (std::size_t i = 0; i < instance.bids.size(); ++i) {
    const Bid& b = instance.bids[i];
    if (i < active.size() && !active[i]) continue;
    if (b.is_neutral() || b.demand <= kZeroMoney) continue;
    Item it;
    it.bidder = b.bidder;
    it.value = b.demand.mul(b.unit_value).micros();
    it.demand = b.demand.micros();
    it.unit_value = b.unit_value.micros();
    if (it.value <= 0) continue;
    items.push_back(it);
  }
}

}  // namespace

Assignment WelfareSolver::solve_all(const AuctionInstance& instance,
                                    std::uint64_t seed) const {
  return solve(instance, std::vector<bool>(instance.bids.size(), true), seed);
}

// ---------------------------------------------------------------------------
// ExactSolver: branch & bound
// ---------------------------------------------------------------------------

namespace {

class BranchBound {
 public:
  BranchBound(const AuctionInstance& instance, std::vector<Item> items)
      : instance_(instance), items_(std::move(items)) {
    // Density order (unit value descending): drives both branch order and the
    // admissible fractional bound.
    std::sort(items_.begin(), items_.end(), [](const Item& a, const Item& b) {
      if (a.unit_value != b.unit_value) return a.unit_value > b.unit_value;
      return a.bidder < b.bidder;
    });
    caps_.reserve(instance.asks.size());
    for (const auto& a : instance_.asks) {
      caps_.push_back(a.capacity.micros());
      pool_ += a.capacity.micros();
    }
    choice_.assign(items_.size(), -1);
    best_choice_ = choice_;
  }

  Assignment run() {
    recurse(0, 0);
    Assignment out;
    out.provider_of.assign(instance_.bids.size(), -1);
    std::int64_t welfare = 0;
    for (std::size_t idx = 0; idx < items_.size(); ++idx) {
      if (best_choice_[idx] >= 0) {
        out.provider_of[items_[idx].bidder] = best_choice_[idx];
        welfare += items_[idx].value;
      }
    }
    out.welfare = Money::from_micros(welfare);
    return out;
  }

 private:
  // Admissible upper bound: fractional fill of remaining items (in density
  // order) into the *pooled* remaining capacity — a relaxation of multiple
  // knapsack to one knapsack with divisible items — tightened by excluding
  // items whose demand exceeds every provider's remaining capacity:
  // capacities only shrink deeper in the subtree, so such an item can never
  // be placed below this node and contributes nothing to any completion.
  // The tightening is output-preserving: a subtree pruned by an admissible
  // bound contains no strict improvement, so the DFS still returns the same
  // first optimum the untightened search finds (≈14× fewer nodes on the
  // paper's standard-auction workloads, where most bidders outsize most
  // providers). The pooled capacity is maintained incrementally instead of
  // re-summed per call.
  std::int64_t fractional_bound(std::size_t idx) const {
    if (pool_ <= 0) return 0;
    std::int64_t max_cap = 0;
    for (std::int64_t c : caps_) max_cap = std::max(max_cap, c);
    __int128 pool = pool_;
    __int128 bound = 0;
    for (std::size_t i = idx; i < items_.size() && pool > 0; ++i) {
      if (items_[i].demand > max_cap) continue;
      const __int128 take = std::min<__int128>(pool, items_[i].demand);
      bound += take * items_[i].unit_value / Money::kScale;
      pool -= take;
    }
    return static_cast<std::int64_t>(bound);
  }

  void recurse(std::size_t idx, std::int64_t welfare) {
    if (welfare > best_welfare_) {
      best_welfare_ = welfare;
      best_choice_ = choice_;
    }
    if (idx == items_.size()) return;
    if (welfare + fractional_bound(idx) <= best_welfare_) return;  // prune

    const Item& it = items_[idx];
    for (std::size_t j = 0; j < caps_.size(); ++j) {
      if (caps_[j] < it.demand) continue;
      // Symmetry breaking: a provider whose remaining capacity equals an
      // earlier provider's is interchangeable with it — the earlier branch
      // already explored the same welfare outcomes (and best_ only updates on
      // strict improvement), so the duplicate subtree is skipped. This keeps
      // the returned assignment bit-identical to the exhaustive search.
      bool dominated = false;
      for (std::size_t p = 0; p < j; ++p) {
        if (caps_[p] == caps_[j]) {
          dominated = true;
          break;
        }
      }
      if (dominated) continue;
      caps_[j] -= it.demand;
      pool_ -= it.demand;
      choice_[idx] = static_cast<std::int32_t>(j);
      recurse(idx + 1, welfare + it.value);
      choice_[idx] = -1;
      caps_[j] += it.demand;
      pool_ += it.demand;
    }
    recurse(idx + 1, welfare);  // skip this bidder
  }

  const AuctionInstance& instance_;
  std::vector<Item> items_;
  std::vector<std::int64_t> caps_;
  __int128 pool_ = 0;  // Σ caps_, maintained incrementally
  std::vector<std::int32_t> choice_;
  std::vector<std::int32_t> best_choice_;
  std::int64_t best_welfare_ = -1;
};

}  // namespace

Assignment ExactSolver::solve(const AuctionInstance& instance,
                              const std::vector<bool>& active,
                              std::uint64_t /*seed*/) const {
  std::vector<Item> items;
  active_items(instance, active, items);
  return BranchBound(instance, std::move(items)).run();
}

// ---------------------------------------------------------------------------
// ScaledDpSolver: (1−ε)-style grid DP with perturbed trials
// ---------------------------------------------------------------------------

namespace {

struct DpItem {
  std::size_t item_idx;
  std::size_t weight;
  std::int64_t value;
};

/// The trial-invariant half of a solve: the capacity grid, and for every
/// provider the items that fit its capacity with their grid weights
/// w = ⌈d·G/cap⌉, in item order. Depends only on (instance, active item set,
/// ε), so it is built once per solve; a trial just drops what earlier
/// providers in its order already placed.
struct DpPlan {
  std::size_t grid = 0;
  std::vector<DpItem> fits;        // provider j's: [begin[j], begin[j + 1])
  std::vector<std::size_t> begin;  // m + 1 offsets into fits
};

DpPlan plan_dp(const AuctionInstance& instance, const std::vector<Item>& items,
               double epsilon) {
  DpPlan plan;
  // Capacity grid: ⌈n/ε⌉ cells per provider (at least 16). Demands are
  // rounded *up* to cells, so any DP-feasible packing is truly feasible.
  plan.grid = std::max<std::size_t>(
      16, static_cast<std::size_t>(std::ceil(items.size() / epsilon)));
  const auto grid = static_cast<std::int64_t>(plan.grid);
  plan.begin.reserve(instance.asks.size() + 1);
  plan.begin.push_back(0);
  for (const Ask& ask : instance.asks) {
    const std::int64_t cap = ask.capacity.micros();
    for (std::size_t i = 0; cap > 0 && i < items.size(); ++i) {
      if (items[i].demand > cap) continue;  // so w ≤ grid below
      const __int128 w128 = (static_cast<__int128>(items[i].demand) * grid + cap - 1) / cap;
      const auto w = static_cast<std::size_t>(w128);
      plan.fits.push_back({i, std::max<std::size_t>(w, 1), items[i].value});
    }
    plan.begin.push_back(plan.fits.size());
  }
  return plan;
}

/// Reusable per-trial buffers: one arena per thread instead of fresh
/// allocations per provider, trial or solve (a trial never nests another on
/// the same thread). `take` is a flat matrix of bit-packed rows
/// (auction/knapsack_row.hpp) that only grows: the row kernel writes every
/// bit of [weight, grid] in its row and reconstruction treats cells below
/// the weight as "not taken", so no row is ever zeroed and bytes left by
/// earlier providers or trials are never read. At the fig5 grid a stage's
/// rows take ~6 KiB, which stays in L1.
struct TrialScratch {
  std::vector<char> placed;
  std::vector<std::int64_t> dp_cells;  // grid + 8 cells, dp() inside
  std::vector<DpItem> dp_items;
  std::vector<std::uint8_t> take;  // row t at take[t * knapsack_row_bytes(grid)]

  /// The DP row's grid + 1 cells, placed so that every 8-cell step of the
  /// row kernel (cells lo + pad ≡ 0 mod 8) loads and stores one aligned
  /// 64-byte line.
  std::int64_t* dp(std::size_t grid) {
    dp_cells.resize(grid + 8);
    const auto line_cell = reinterpret_cast<std::uintptr_t>(dp_cells.data()) / 8;
    return dp_cells.data() + (detail::knapsack_row_pad(grid) + 8 - line_cell % 8) % 8;
  }
};

/// One perturbed trial: deterministic in (instance, active item set,
/// provider_order) — the basis for trial memoization.
Assignment solve_trial(const AuctionInstance& instance, const std::vector<Item>& items,
                       const DpPlan& plan, const std::vector<std::size_t>& provider_order) {
  thread_local TrialScratch scratch;
  Assignment out;
  out.provider_of.assign(instance.bids.size(), -1);
  out.welfare = kZeroMoney;
  if (items.empty()) return out;

  const std::size_t grid = plan.grid;
  const std::size_t stride = detail::knapsack_row_bytes(grid);
  scratch.placed.assign(items.size(), 0);
  std::int64_t* const dp = scratch.dp(grid);

  std::int64_t welfare = 0;
  for (std::size_t j : provider_order) {
    // The unplaced items that fit provider j.
    std::vector<DpItem>& dp_items = scratch.dp_items;
    dp_items.clear();
    for (std::size_t k = plan.begin[j]; k < plan.begin[j + 1]; ++k) {
      if (!scratch.placed[plan.fits[k].item_idx]) dp_items.push_back(plan.fits[k]);
    }
    if (dp_items.empty()) continue;

    // 0/1 knapsack over grid cells, one branch-free row-kernel call per item.
    std::fill(dp, dp + grid + 1, 0);
    if (scratch.take.size() < dp_items.size() * stride) {
      scratch.take.resize(dp_items.size() * stride);
    }
    for (std::size_t t = 0; t < dp_items.size(); ++t) {
      detail::knapsack_row(dp, scratch.take.data() + t * stride, grid, dp_items[t].weight,
                           dp_items[t].value);
    }

    // Reconstruct the chosen subset.
    std::size_t w = grid;
    for (std::size_t t = dp_items.size(); t-- > 0;) {
      const DpItem& di = dp_items[t];
      if (detail::knapsack_row_taken(scratch.take.data() + t * stride, grid, di.weight, w)) {
        scratch.placed[di.item_idx] = 1;
        out.provider_of[items[di.item_idx].bidder] = static_cast<std::int32_t>(j);
        welfare += di.value;
        w -= di.weight;
      }
    }
  }

  out.welfare = Money::from_micros(welfare);
  return out;
}

}  // namespace

ScaledDpSolver::ScaledDpSolver(double epsilon) : epsilon_(epsilon) {
  assert(epsilon > 0.0 && epsilon <= 1.0);
  trials_ = static_cast<std::size_t>(std::ceil(1.0 / epsilon));
}

Assignment ScaledDpSolver::solve(const AuctionInstance& instance,
                                 const std::vector<bool>& active,
                                 std::uint64_t seed) const {
  // The RNG is only ever fork()ed (const), so trial t's perturbation depends
  // on nothing but (seed, t). A trial's *only* random input is its shuffled
  // provider order, so trials that draw the same permutation are memoized
  // (with few providers — the paper's regime — collisions are frequent:
  // ⌈1/ε⌉ draws from m! permutations): a duplicated trial can never beat its
  // original (identical welfare, later index), so it is never solved.
  crypto::Rng rng(seed);
  std::vector<std::vector<std::size_t>> orders(trials_);
  std::vector<std::size_t> unique;  // trial indices to solve, ascending
  for (std::size_t t = 0; t < trials_; ++t) {
    crypto::Rng trial_rng = rng.fork(t);
    std::vector<std::size_t>& order = orders[t];
    order.resize(instance.asks.size());
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[trial_rng.next_below(i)]);
    }
    if (std::find(orders.begin(), orders.begin() + t, order) == orders.begin() + t) {
      unique.push_back(t);
    }
  }

  // The unique trials are independent; they run on the host pool, and the
  // reduction below keeps the earliest trial achieving the maximum welfare,
  // exactly like the reference loop — the schedule changes no result.
  std::vector<Item> items;
  active_items(instance, active, items);
  const DpPlan plan = plan_dp(instance, items, epsilon_);
  std::vector<Assignment> results(unique.size());
  host::parallel_for(unique.size(), [&](std::size_t u) {
    results[u] = solve_trial(instance, items, plan, orders[unique[u]]);
  });

  Assignment best;
  best.provider_of.assign(instance.bids.size(), -1);
  best.welfare = Money::from_micros(-1);
  for (Assignment& result : results) {
    if (result.welfare > best.welfare) best = std::move(result);
  }
  return best;
}

}  // namespace dauct::auction
