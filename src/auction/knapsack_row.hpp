// One row of the 0/1-knapsack DP behind ScaledDpSolver, as a branch-free
// kernel. Internal to the auction layer: welfare.cpp calls knapsack_row(),
// and the equivalence test drives each body directly against the reference
// loop.
//
// Every body computes, for w = grid down to weight (in place, so dp[w-weight]
// is always the value from before this item):
//
//   take   = dp[w - weight] + value > dp[w]
//   dp[w]  = take ? dp[w - weight] + value : dp[w]
//   row[w] = take                                  (0 or 1)
//
// — the reference solver's comparison, cell for cell, so the DP table and
// hence every Assignment stay bit-identical. Unlike the reference it writes
// every row cell in [weight, grid], which is what lets callers skip zeroing
// all but the row's [0, weight) prefix. Cells below `weight` are untouched.
// Preconditions: 1 ≤ weight ≤ grid; `dp` and `row` have grid + 1 cells.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dauct::auction::detail {

using KnapsackRowFn = void (*)(std::int64_t* dp, char* row, std::size_t grid,
                               std::size_t weight, std::int64_t value);

/// Portable body: one cell per step, no data-dependent branch.
void knapsack_row_scalar(std::int64_t* dp, char* row, std::size_t grid,
                         std::size_t weight, std::int64_t value);

/// The AVX2 body (four cells per step), or nullptr when this build or this
/// CPU lacks AVX2.
KnapsackRowFn knapsack_row_avx2();

/// The body picked once at startup: AVX2 when the CPU has it, else scalar.
void knapsack_row(std::int64_t* dp, char* row, std::size_t grid, std::size_t weight,
                  std::int64_t value);

}  // namespace dauct::auction::detail
