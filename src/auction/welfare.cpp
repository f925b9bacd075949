#include "auction/welfare.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <numeric>

#include "auction/knapsack_row.hpp"

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

}  // namespace

/// Reusable per-trial buffers: one arena instead of fresh allocations per
/// provider, with `items` filled once per solve and shared read-only across
/// trials (the active set is seed-independent). `take` is a flat *byte*
/// matrix that only grows: the row kernel writes every cell in [weight, grid]
/// of its row, so a provider only zeroes each row's [0, weight) prefix and
/// bytes left by earlier providers or trials are never read. (A one-bit-per-
/// cell variant was tried on the scalar loop and measured ~45% slower.)
struct ScaledDpSolver::Scratch {
  std::vector<Item> items;  // filled once per solve, read-only per trial
  std::vector<char> placed;
  std::vector<std::int64_t> dp;
  std::vector<DpItem> dp_items;
  std::vector<char> take;  // take[t * (grid+1) + w], grow-only
};

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
  // ⌈1/ε⌉ draws from m! permutations). That changes no result: the reduction
  // below keeps the earliest trial achieving the maximum welfare, exactly
  // like the reference loop.
  crypto::Rng rng(seed);
  std::vector<std::vector<std::size_t>> orders(trials_);
  std::vector<std::size_t> dup_of(trials_);
  for (std::size_t t = 0; t < trials_; ++t) {
    crypto::Rng trial_rng = rng.fork(t);
    std::vector<std::size_t>& order = orders[t];
    order.resize(instance.asks.size());
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[trial_rng.next_below(i)]);
    }
    dup_of[t] = t;
    for (std::size_t u = 0; u < t; ++u) {
      if (orders[u] == order) {
        dup_of[t] = u;
        break;
      }
    }
  }

  Scratch scratch;
  active_items(instance, active, scratch.items);
  Assignment best;
  best.provider_of.assign(instance.bids.size(), -1);
  best.welfare = Money::from_micros(-1);
  for (std::size_t t = 0; t < trials_; ++t) {
    // A duplicated trial can never beat its original (identical welfare,
    // later index), so it never has to be solved at all.
    if (dup_of[t] != t) continue;
    Assignment result = solve_one_trial(instance, scratch, orders[t]);
    if (result.welfare > best.welfare) best = std::move(result);
  }
  return best;
}

Assignment ScaledDpSolver::solve_one_trial(
    const AuctionInstance& instance, Scratch& scratch,
    const std::vector<std::size_t>& provider_order) const {
  const std::vector<Item>& items = scratch.items;
  Assignment out;
  out.provider_of.assign(instance.bids.size(), -1);
  out.welfare = kZeroMoney;
  if (items.empty()) return out;

  const std::size_t n = items.size();
  // Capacity grid: ⌈n/ε⌉ cells per provider (at least 16). Demands are
  // rounded *up* to cells, so any DP-feasible packing is truly feasible.
  const std::size_t grid =
      std::max<std::size_t>(16, static_cast<std::size_t>(std::ceil(n / epsilon_)));

  scratch.placed.assign(n, 0);
  scratch.dp.resize(grid + 1);

  std::int64_t welfare = 0;
  for (std::size_t j : provider_order) {
    const std::int64_t cap = instance.asks[j].capacity.micros();
    if (cap <= 0) continue;

    // Gather unplaced items that fit, with grid weights w = ⌈d·G/cap⌉.
    std::vector<DpItem>& dp_items = scratch.dp_items;
    dp_items.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (scratch.placed[i] || items[i].demand > cap) continue;
      const __int128 w128 =
          (static_cast<__int128>(items[i].demand) * static_cast<std::int64_t>(grid) +
           cap - 1) /
          cap;
      const auto w = static_cast<std::size_t>(w128);
      if (w > grid) continue;
      dp_items.push_back({i, std::max<std::size_t>(w, 1), items[i].value});
    }
    if (dp_items.empty()) continue;

    // 0/1 knapsack over grid cells, one branch-free row-kernel call per
    // item. The kernel fills each take row's [weight, grid] cells; only the
    // prefix below the item's weight needs zeroing here.
    const std::size_t stride = grid + 1;
    std::fill(scratch.dp.begin(), scratch.dp.end(), 0);
    if (scratch.take.size() < dp_items.size() * stride) {
      scratch.take.resize(dp_items.size() * stride);
    }
    std::int64_t* const dp = scratch.dp.data();
    for (std::size_t t = 0; t < dp_items.size(); ++t) {
      const DpItem di = dp_items[t];
      char* const row = scratch.take.data() + t * stride;
      std::memset(row, 0, di.weight);
      detail::knapsack_row(dp, row, grid, di.weight, di.value);
    }

    // Reconstruct the chosen subset.
    std::size_t w = grid;
    for (std::size_t t = dp_items.size(); t-- > 0;) {
      if (scratch.take[t * stride + w]) {
        const auto& di = dp_items[t];
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

}  // namespace dauct::auction
