// Welfare maximization for the standard auction (§5.2.2).
//
// Each bidder's whole demand must be placed in a *single* provider (or not at
// all); welfare is the total value Σ v_i·d_i over placed bidders. This is the
// multiple-knapsack problem (NP-hard), the computational core of the
// VCG-based mechanism of Zhang et al. (INFOCOM'15) that the paper
// parallelises.
//
// Two solvers:
//  * ExactSolver — branch & bound with a fractional single-knapsack bound.
//    Exponential worst case; used as ground truth in tests.
//  * ScaledDpSolver — (1−ε)-style approximation: providers are processed in
//    sequence; for each, a 0/1 knapsack DP over a capacity grid of
//    ⌈n/ε⌉ cells (demands rounded *up* to grid cells, so the result is always
//    feasible). Runtime Θ(m · n · ⌈n/ε⌉) per solve — the polynomial,
//    ε-controlled cost profile the paper's evaluation depends on (Fig. 5).
//    A randomized perturbation of the bidder order (seeded by the common
//    coin) mirrors the randomized mechanism of [18]; the mechanism runs
//    ⌈1/ε⌉ perturbed trials and keeps the best. A batch of solves (a payment
//    chunk's Clarke re-solves) runs every distinct provider stage once.
//
// Determinism: given the same seed and inputs, both solvers return
// bit-identical assignments on every platform (fixed-point arithmetic, id
// tie-breaks) — required for replicated cross-validation.
//
// Both solvers are the optimized hot-path implementations; the original
// (seed-tree) versions live on in welfare_reference.hpp and the equivalence
// tests assert byte-identical Assignments between the two.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "auction/types.hpp"
#include "crypto/rng.hpp"

namespace dauct::auction {

/// Result of a welfare solve: provider index per bidder (-1 = unallocated)
/// and the achieved welfare.
struct Assignment {
  std::vector<std::int32_t> provider_of;  ///< [n], -1 if not allocated
  Money welfare;

  bool operator==(const Assignment&) const = default;
};

/// Work counters of one solve_batch() call, added to by each call. Only
/// ScaledDpSolver counts; the counts are deterministic in the inputs.
struct BatchStats {
  std::uint64_t stages = 0;      ///< provider stages the batch's trials ran
  std::uint64_t table_hits = 0;  ///< of those, answered by an earlier identical stage
  std::uint64_t cells = 0;       ///< knapsack DP cells computed

  bool operator==(const BatchStats&) const = default;
};

/// Interface for welfare maximizers. `active[i] == false` excludes bidder i
/// (used for the Clarke-pivot payment re-solves).
class WelfareSolver {
 public:
  virtual ~WelfareSolver() = default;

  /// Solve restricted to active bidders. `seed` drives tie-breaking /
  /// perturbation; identical seeds give identical results.
  virtual Assignment solve(const AuctionInstance& instance,
                           const std::vector<bool>& active,
                           std::uint64_t seed) const = 0;

  /// Solve masks[b] with seeds[b] for every b (equal sizes): result b equals
  /// solve(instance, masks[b], seeds[b]). This default runs the solves as
  /// independent items on the host worker pool (common/parallel.hpp).
  virtual std::vector<Assignment> solve_batch(const AuctionInstance& instance,
                                              std::span<const std::vector<bool>> masks,
                                              std::span<const std::uint64_t> seeds,
                                              BatchStats* stats = nullptr) const;

  Assignment solve_all(const AuctionInstance& instance, std::uint64_t seed) const;
};

/// Exact branch & bound (ground truth; exponential worst case). The
/// fractional bound excludes bidders that outsize every provider's remaining
/// capacity and tracks the pooled capacity incrementally — an admissible
/// tightening, so the returned assignment is bit-identical to the reference
/// search at a fraction of the node count.
class ExactSolver final : public WelfareSolver {
 public:
  Assignment solve(const AuctionInstance& instance, const std::vector<bool>& active,
                   std::uint64_t seed) const override;
};

/// (1−ε)-style scaled dynamic program with randomized perturbed trials.
///
/// Every solve is a batch: solve() is a batch of one, and a payment chunk's
/// Clarke re-solves are one batch. A trial is a walk over the providers in
/// its shuffled order, and the DP of each step — a *stage* — depends only on
/// its key: (grid, provider, set of still-unplaced bids that fit the
/// provider). Weights come from grid, capacity and demand, values from the
/// bids, and items run in bid order. So every unique trial of every solve
/// in the batch (trials of one solve that draw the same provider permutation
/// run once) is one host::parallel_for item, and a stage table kept for the
/// whole batch solves each distinct key exactly once, for the first trial
/// that asks; later trials read its result (taken bids, welfare gain). A
/// stage runs in its thread's scratch arena (a line-aligned DP row and a
/// grow-only matrix of bit-packed take rows, never zeroed) and computes only
/// what its reconstruction reads: the first row is the DP row's initial
/// fill, the middle rows go through a branch-free kernel
/// (auction/knapsack_row.hpp) dispatched once at startup to AVX-512F, AVX2
/// or portable scalar code, and the last few rows are evaluated at the cells
/// the reconstruction stands on. Each solve keeps its earliest
/// maximum-welfare trial, so every path returns bit-identical Assignments
/// (enforced against ReferenceScaledDpSolver by the equivalence tests).
class ScaledDpSolver final : public WelfareSolver {
 public:
  /// `epsilon` controls the capacity grid (⌈n/ε⌉ cells) and the number of
  /// perturbed trials (⌈1/ε⌉). Throws std::invalid_argument unless it is in
  /// (0, 1].
  explicit ScaledDpSolver(double epsilon);

  Assignment solve(const AuctionInstance& instance, const std::vector<bool>& active,
                   std::uint64_t seed) const override;

  std::vector<Assignment> solve_batch(const AuctionInstance& instance,
                                      std::span<const std::vector<bool>> masks,
                                      std::span<const std::uint64_t> seeds,
                                      BatchStats* stats = nullptr) const override;

  double epsilon() const { return epsilon_; }
  std::size_t trials() const { return trials_; }

 private:
  double epsilon_;
  std::size_t trials_;
};

}  // namespace dauct::auction
