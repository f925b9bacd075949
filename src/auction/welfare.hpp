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
//    Exponential worst case; used as ground truth in tests and ablations.
//  * ScaledDpSolver — (1−ε)-style approximation: providers are processed in
//    sequence; for each, a 0/1 knapsack DP over a capacity grid of
//    ⌈n/ε⌉ cells (demands rounded *up* to grid cells, so the result is always
//    feasible). Runtime Θ(m · n · ⌈n/ε⌉) per solve — the polynomial,
//    ε-controlled cost profile the paper's evaluation depends on (Fig. 5).
//    A randomized perturbation of the bidder order (seeded by the common
//    coin) mirrors the randomized mechanism of [18]; the mechanism runs
//    ⌈1/ε⌉ perturbed trials and keeps the best.
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
/// Hot-path layout: the active item set is materialized once per solve (it is
/// seed-independent), every trial reuses a single scratch arena (DP row, flat
/// grow-only take-matrix, perturbation buffers) instead of allocating per
/// provider, trials that draw the same provider permutation are solved once,
/// and each item's DP row goes through a branch-free kernel
/// (auction/knapsack_row.hpp) dispatched once at startup to AVX2 or portable
/// scalar code. Every path returns bit-identical Assignments (enforced against
/// ReferenceScaledDpSolver by the equivalence tests).
class ScaledDpSolver final : public WelfareSolver {
 public:
  /// `epsilon` controls the capacity grid (⌈n/ε⌉ cells) and the number of
  /// perturbed trials (⌈1/ε⌉). Must be in (0, 1].
  explicit ScaledDpSolver(double epsilon);

  Assignment solve(const AuctionInstance& instance, const std::vector<bool>& active,
                   std::uint64_t seed) const override;

  double epsilon() const { return epsilon_; }
  std::size_t trials() const { return trials_; }

 private:
  struct Scratch;  // per-trial reusable buffers; defined in welfare.cpp

  /// One perturbed trial: deterministic in (instance, active item set,
  /// provider_order) — the basis for trial memoization.
  Assignment solve_one_trial(const AuctionInstance& instance, Scratch& scratch,
                             const std::vector<std::size_t>& provider_order) const;

  double epsilon_;
  std::size_t trials_;
};

}  // namespace dauct::auction
