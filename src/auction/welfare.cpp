#include "auction/welfare.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>

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

std::vector<Assignment> WelfareSolver::solve_batch(const AuctionInstance& instance,
                                                   std::span<const std::vector<bool>> masks,
                                                   std::span<const std::uint64_t> seeds,
                                                   BatchStats* /*stats*/) const {
  assert(masks.size() == seeds.size());
  std::vector<Assignment> out(masks.size());
  host::parallel_for(masks.size(),
                     [&](std::size_t b) { out[b] = solve(instance, masks[b], seeds[b]); });
  return out;
}

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
  std::size_t bid;  // index into instance.bids
  std::size_t weight;
  std::int64_t value;
};

/// Bid bitsets: bit i of word i / 64 stands for instance.bids[i].
using Word = std::uint64_t;

bool test_bit(const Word* bits, std::size_t i) { return (bits[i / 64] >> (i % 64)) & 1u; }
void set_bit(Word* bits, std::size_t i) { bits[i / 64] |= Word{1} << (i % 64); }

/// The mask-independent half of a batch at one capacity grid: for every
/// provider, the bids that can be items (non-neutral, positive demand and
/// value) and fit its capacity, with their grid weights w = ⌈d·G/cap⌉, in
/// bid order, plus the same set as a bitset. A stage's items are its key's
/// bits of this list.
struct GridPlan {
  std::size_t grid = 0;
  std::vector<DpItem> fits;        // provider j's: [begin[j], begin[j + 1])
  std::vector<std::size_t> begin;  // m + 1 offsets into fits
  std::vector<Word> fit_bits;      // provider j's: words [j·W, (j + 1)·W)
};

GridPlan plan_grid(const AuctionInstance& instance, const std::vector<std::int64_t>& values,
                   std::size_t grid, std::size_t words) {
  GridPlan plan;
  plan.grid = grid;
  const auto g = static_cast<std::int64_t>(grid);
  const std::size_t m = instance.asks.size();
  plan.begin.reserve(m + 1);
  plan.begin.push_back(0);
  plan.fit_bits.assign(m * words, 0);
  for (std::size_t j = 0; j < m; ++j) {
    const std::int64_t cap = instance.asks[j].capacity.micros();
    for (std::size_t i = 0; cap > 0 && i < instance.bids.size(); ++i) {
      const std::int64_t demand = instance.bids[i].demand.micros();
      if (values[i] <= 0 || demand > cap) continue;  // so w ≤ grid below
      const __int128 w128 = (static_cast<__int128>(demand) * g + cap - 1) / cap;
      const auto w = static_cast<std::size_t>(w128);
      plan.fits.push_back({i, std::max<std::size_t>(w, 1), values[i]});
      set_bit(plan.fit_bits.data() + j * words, i);
    }
    plan.begin.push_back(plan.fits.size());
  }
  return plan;
}

/// Reusable per-stage buffers: one arena per thread instead of fresh
/// allocations per stage (a stage never nests another on the same thread).
/// `take` is a flat matrix of bit-packed rows (auction/knapsack_row.hpp)
/// that only grows: the row kernel writes every bit of [weight, grid] in its
/// row and reconstruction treats cells below the weight as "not taken", so
/// no row is ever zeroed and bytes left by earlier stages are never read.
/// At the fig5 grid a stage's rows take ~6 KiB, which stays in L1.
struct StageScratch {
  std::vector<std::int64_t> dp_cells;  // grid + 8 cells, dp() inside
  std::vector<DpItem> dp_items;    // the stage's first `rows` entries
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

/// The last rows of a stage that are evaluated only where the
/// reconstruction reads them (see solve_stage).
constexpr std::size_t kSparseRows = 4;

/// Cell c of DP row t, for a row t at or after `dense` − 1: row dense − 1 is
/// in `dp`, and each later cell is the reference loop's comparison of the
/// two cells of the row before it that it reads.
std::int64_t dp_cell(const std::int64_t* dp, const std::vector<DpItem>& items,
                     std::size_t dense, std::size_t t, std::size_t c, std::uint64_t& cells) {
  if (t + 1 == dense) return dp[c];
  const std::int64_t keep = dp_cell(dp, items, dense, t - 1, c, cells);
  if (c < items[t].weight) return keep;
  ++cells;
  const std::int64_t cand =
      dp_cell(dp, items, dense, t - 1, c - items[t].weight, cells) + items[t].value;
  return cand > keep ? cand : keep;
}

/// Solve one stage: a 0/1 knapsack over the plan's grid for the key's bids
/// on `provider`, then the reconstruction from cell `grid` down. Sets the
/// taken bids in `taken` (zeroed words); returns the welfare gain and counts
/// the cells computed.
///
/// Only what the reconstruction reads is computed, each cell by the
/// reference loop's comparison, so every decision it makes is the full
/// DP's and the result is bit-identical:
///  * Row 0 is the DP row's initial fill: 0 below w_0 and v_0 from w_0 up,
///    taken exactly there (values are positive).
///  * The rows up to the last kSparseRows go through the branch-free row
///    kernel (auction/knapsack_row.hpp) over [w_t, G].
///  * The reconstruction reads each of the last kSparseRows rows at one
///    cell, and decides it from two cells of the row before, so those rows
///    are evaluated on demand from the last kernel row: under
///    2^(kSparseRows + 1) reads in all, against a kernel row's G − w_t + 1
///    cells each.
std::int64_t solve_stage(const GridPlan& plan, std::size_t provider, const Word* key,
                         Word* taken, std::uint64_t& cells) {
  thread_local StageScratch scratch;
  const std::size_t grid = plan.grid;
  const std::size_t stride = detail::knapsack_row_bytes(grid);
  // The key's bids among the provider's fits, compacted without a branch.
  std::vector<DpItem>& dp_items = scratch.dp_items;
  dp_items.resize(std::max(dp_items.size(), plan.begin[provider + 1] - plan.begin[provider]));
  std::size_t rows = 0;
  for (std::size_t k = plan.begin[provider]; k < plan.begin[provider + 1]; ++k) {
    dp_items[rows] = plan.fits[k];
    rows += test_bit(key, plan.fits[k].bid) ? 1 : 0;
  }
  const std::size_t dense = std::max<std::size_t>(1, rows - std::min(rows, kSparseRows));

  std::int64_t* const dp = scratch.dp(grid);
  if (scratch.take.size() < rows * stride) scratch.take.resize(rows * stride);
  if (rows > 0) {
    detail::knapsack_fill(dp, dp_items[0].weight, 0);
    detail::knapsack_fill(dp + dp_items[0].weight, grid + 1 - dp_items[0].weight,
                          dp_items[0].value);
  }
  for (std::size_t t = 1; t < dense; ++t) {
    detail::knapsack_row(dp, scratch.take.data() + t * stride, grid, dp_items[t].weight,
                         dp_items[t].value);
    cells += grid - dp_items[t].weight + 1;
  }

  std::int64_t gain = 0;
  std::size_t w = grid;
  for (std::size_t t = rows; t-- > 0;) {
    const DpItem& di = dp_items[t];
    bool take = false;
    if (t >= dense) {
      ++cells;
      take = w >= di.weight &&
             dp_cell(dp, dp_items, dense, t - 1, w - di.weight, cells) + di.value >
                 dp_cell(dp, dp_items, dense, t - 1, w, cells);
    } else if (t == 0) {
      take = w >= di.weight;
    } else {
      take = detail::knapsack_row_taken(scratch.take.data() + t * stride, grid, di.weight, w);
    }
    if (take) {
      set_bit(taken, di.bid);
      gain += di.value;
      w -= di.weight;
    }
  }
  return gain;
}

/// A batch's stage table: maps a stage key (plan, provider, bid bitset) to
/// its result, and has each distinct key solved exactly once, by the first
/// trial to ask for it, whatever the schedule — so the work it counts is
/// deterministic. Open addressing over a power-of-two number of slots, at
/// least twice the stages the batch can ask for, so it never fills. A slot
/// moves kEmpty → kWriting (its claimant copies the key in) → kSolving (key
/// readable) → kDone (result readable); a trial that finds its key being
/// solved by another thread waits the one stage out. If the solve throws,
/// the slot ends kFailed and its waiters throw too, so the batch's
/// parallel_for can finish and rethrow.
class StageTable {
 public:
  StageTable(std::size_t max_stages, std::size_t words)
      : words_(words), mask_(std::bit_ceil(std::max<std::size_t>(2 * max_stages, 16)) - 1),
        slots_(mask_ + 1), keys_((mask_ + 1) * words), taken_((mask_ + 1) * words) {}

  /// The slot holding stage (plan, provider, key)'s result, solved here if no
  /// trial has asked for it before.
  std::size_t find_or_solve(const std::vector<GridPlan>& plans, std::size_t plan,
                            std::size_t provider, const Word* key) {
    std::uint64_t h = (plan * 0x9e3779b97f4a7c15ULL) ^ (provider + 1);
    for (std::size_t w = 0; w < words_; ++w) {
      h = (h ^ key[w]) * 0xff51afd7ed558ccdULL;
      h ^= h >> 32;
    }
    for (std::size_t i = h & mask_;; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      std::uint8_t state = slot.state.load(std::memory_order_acquire);
      if (state == kEmpty &&
          slot.state.compare_exchange_strong(state, kWriting, std::memory_order_acq_rel)) {
        slot.plan = static_cast<std::uint32_t>(plan);
        slot.provider = static_cast<std::uint32_t>(provider);
        std::copy(key, key + words_, key_of(i));
        slot.state.store(kSolving, std::memory_order_release);
        Word* taken = taken_.data() + i * words_;
        std::fill(taken, taken + words_, 0);
        try {
          slot.gain = solve_stage(plans[plan], provider, key, taken, slot.cells);
        } catch (...) {
          slot.state.store(kFailed, std::memory_order_release);
          throw;
        }
        slot.state.store(kDone, std::memory_order_release);
        return i;
      }
      // A failed compare_exchange_strong leaves the slot's state in `state`.
      if (state == kWriting) state = wait_past(slot, kWriting);
      if (slot.plan != plan || slot.provider != provider ||
          !std::equal(key, key + words_, key_of(i))) {
        continue;
      }
      if (state == kSolving) state = wait_past(slot, kSolving);
      if (state == kFailed) throw std::runtime_error("ScaledDpSolver: a stage solve failed");
      return i;
    }
  }

  std::int64_t gain(std::size_t i) const { return slots_[i].gain; }
  const Word* taken(std::size_t i) const { return taken_.data() + i * words_; }
  std::size_t provider(std::size_t i) const { return slots_[i].provider; }

  /// Distinct stages solved and their DP cells (after the batch's fan-out).
  std::pair<std::uint64_t, std::uint64_t> solved() const {
    std::pair<std::uint64_t, std::uint64_t> out{0, 0};
    for (const Slot& slot : slots_) {
      if (slot.state.load(std::memory_order_relaxed) != kDone) continue;
      ++out.first;
      out.second += slot.cells;
    }
    return out;
  }

 private:
  static constexpr std::uint8_t kEmpty = 0, kWriting = 1, kSolving = 2, kDone = 3,
                                kFailed = 4;

  struct Slot {
    std::atomic<std::uint8_t> state{kEmpty};
    std::uint32_t plan = 0;
    std::uint32_t provider = 0;
    std::int64_t gain = 0;
    std::uint64_t cells = 0;
  };

  static std::uint8_t wait_past(const Slot& slot, std::uint8_t state) {
    std::uint8_t now;
    while ((now = slot.state.load(std::memory_order_acquire)) == state) {
      std::this_thread::yield();
    }
    return now;
  }

  Word* key_of(std::size_t i) { return keys_.data() + i * words_; }
  const Word* key_of(std::size_t i) const { return keys_.data() + i * words_; }

  std::size_t words_;
  std::size_t mask_;
  std::vector<Slot> slots_;
  std::vector<Word> keys_;
  std::vector<Word> taken_;
};

/// One unique trial of one solve of the batch.
struct Trial {
  std::size_t solve;
  const std::vector<std::size_t>* order;  // provider order
  std::vector<Word> placed;               // masked-out and placed bids
  std::int64_t welfare = 0;
  std::vector<std::size_t> stages;  // table slots of the stages it ran, in order
};

}  // namespace

ScaledDpSolver::ScaledDpSolver(double epsilon) : epsilon_(epsilon) {
  if (!(epsilon > 0.0 && epsilon <= 1.0)) {
    throw std::invalid_argument("ScaledDpSolver: epsilon must be in (0, 1]");
  }
  trials_ = static_cast<std::size_t>(std::ceil(1.0 / epsilon));
}

Assignment ScaledDpSolver::solve(const AuctionInstance& instance,
                                 const std::vector<bool>& active,
                                 std::uint64_t seed) const {
  return std::move(solve_batch(instance, std::span(&active, 1), std::span(&seed, 1))[0]);
}

std::vector<Assignment> ScaledDpSolver::solve_batch(const AuctionInstance& instance,
                                                    std::span<const std::vector<bool>> masks,
                                                    std::span<const std::uint64_t> seeds,
                                                    BatchStats* stats) const {
  assert(masks.size() == seeds.size());
  const std::size_t n = instance.bids.size();
  const std::size_t m = instance.asks.size();
  const std::size_t words = (n + 63) / 64;

  // Item values v·d (0 for a bid that can never be an item).
  std::vector<std::int64_t> values(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Bid& b = instance.bids[i];
    if (b.is_neutral() || b.demand <= kZeroMoney) continue;
    values[i] = std::max<std::int64_t>(b.demand.mul(b.unit_value).micros(), 0);
  }

  // Per solve: its grid's plan, and its unique trials with their starting
  // "unavailable" words (masked-out bids). The RNG is only ever fork()ed
  // (const), so trial t's perturbation depends on nothing but (seed, t). A
  // trial's *only* random input is its shuffled provider order, so trials
  // that draw the same permutation run once (with few providers — the
  // paper's regime — collisions are frequent: ⌈1/ε⌉ draws from m!
  // permutations): a duplicate can never beat its original (identical
  // welfare, later index).
  std::vector<GridPlan> plans;
  std::vector<std::size_t> plan_of(masks.size());
  std::vector<std::vector<std::size_t>> orders(masks.size() * trials_);
  std::vector<Trial> trials;
  for (std::size_t s = 0; s < masks.size(); ++s) {
    const std::vector<bool>& active = masks[s];
    std::vector<Word> unavailable(words, 0);
    std::size_t items = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (i < active.size() && !active[i]) {
        set_bit(unavailable.data(), i);
      } else if (values[i] > 0) {
        ++items;
      }
    }
    // Capacity grid: ⌈n/ε⌉ cells per provider (at least 16). Demands are
    // rounded *up* to cells, so any DP-feasible packing is truly feasible.
    const std::size_t grid =
        std::max<std::size_t>(16, static_cast<std::size_t>(std::ceil(items / epsilon_)));
    const auto plan = std::find_if(plans.begin(), plans.end(),
                                   [grid](const GridPlan& p) { return p.grid == grid; });
    plan_of[s] = static_cast<std::size_t>(plan - plans.begin());
    if (plan == plans.end()) plans.push_back(plan_grid(instance, values, grid, words));
    if (items == 0 || m == 0) continue;  // no stage at all: every trial places nothing

    crypto::Rng rng(seeds[s]);
    const auto first = orders.begin() + static_cast<std::ptrdiff_t>(s * trials_);
    for (std::size_t t = 0; t < trials_; ++t) {
      crypto::Rng trial_rng = rng.fork(t);
      std::vector<std::size_t>& order = first[static_cast<std::ptrdiff_t>(t)];
      order.resize(m);
      std::iota(order.begin(), order.end(), 0);
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[trial_rng.next_below(i)]);
      }
      if (std::find(first, first + static_cast<std::ptrdiff_t>(t), order) !=
          first + static_cast<std::ptrdiff_t>(t)) {
        continue;
      }
      trials.push_back({s, &order, unavailable, 0, {}});
    }
  }

  // The trials are independent but for the stage table, so each runs as
  // one pool item: its stage at provider position p is keyed on the bids
  // still unplaced after positions < p, and the table answers it.
  // Trials that start at the same provider (on the same grid) ask for the
  // same first stage; running them at once would leave all but one waiting
  // on it. So the pool takes one trial per first stage before any trial's
  // second with that stage (stable, so the schedule stays deterministic).
  std::size_t max_stages = 0;
  std::vector<std::size_t> wave(trials.size());
  std::vector<std::size_t> starts(plans.size() * m, 0);
  for (std::size_t k = 0; k < trials.size(); ++k) {
    max_stages += trials[k].order->size();
    wave[k] = starts[plan_of[trials[k].solve] * m + trials[k].order->front()]++;
  }
  std::vector<std::size_t> schedule(trials.size());
  std::iota(schedule.begin(), schedule.end(), 0);
  std::stable_sort(schedule.begin(), schedule.end(),
                   [&](std::size_t a, std::size_t b) { return wave[a] < wave[b]; });
  StageTable table(max_stages, words);
  host::parallel_for(trials.size(), [&](std::size_t k) {
    Trial& trial = trials[schedule[k]];
    const GridPlan& plan = plans[plan_of[trial.solve]];
    std::vector<Word> key(words);
    for (const std::size_t j : *trial.order) {
      const Word* fit = plan.fit_bits.data() + j * words;
      Word any = 0;
      for (std::size_t w = 0; w < words; ++w) {
        key[w] = fit[w] & ~trial.placed[w];
        any |= key[w];
      }
      if (any == 0) continue;  // nothing left that fits provider j: no stage
      const std::size_t slot = table.find_or_solve(plans, plan_of[trial.solve], j, key.data());
      const Word* taken = table.taken(slot);
      for (std::size_t w = 0; w < words; ++w) trial.placed[w] |= taken[w];
      trial.welfare += table.gain(slot);
      trial.stages.push_back(slot);
    }
  });

  // Each solve keeps its earliest trial achieving the maximum welfare,
  // exactly like the reference loop — the schedule changes no result.
  std::vector<Assignment> out(masks.size());
  std::vector<const Trial*> best(masks.size(), nullptr);
  for (const Trial& trial : trials) {
    const Trial*& b = best[trial.solve];
    if (b == nullptr || trial.welfare > b->welfare) b = &trial;
  }
  for (std::size_t s = 0; s < masks.size(); ++s) {
    Assignment& a = out[s];
    a.provider_of.assign(n, -1);
    a.welfare = kZeroMoney;
    if (best[s] == nullptr) continue;
    a.welfare = Money::from_micros(best[s]->welfare);
    for (const std::size_t slot : best[s]->stages) {
      const auto provider = static_cast<std::int32_t>(table.provider(slot));
      for (std::size_t i = 0; i < n; ++i) {
        if (test_bit(table.taken(slot), i)) a.provider_of[instance.bids[i].bidder] = provider;
      }
    }
  }

  if (stats != nullptr) {
    const auto [distinct, cells] = table.solved();
    std::uint64_t requested = 0;
    for (const Trial& trial : trials) requested += trial.stages.size();
    stats->stages += requested;
    stats->table_hits += requested - distinct;
    stats->cells += cells;
  }
  return out;
}

}  // namespace dauct::auction
