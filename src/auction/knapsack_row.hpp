// One row of the 0/1-knapsack DP behind ScaledDpSolver, as a branch-free
// kernel, and the fill that starts a DP row. Internal to the auction layer:
// welfare.cpp calls knapsack_row() and knapsack_fill(),
// and the equivalence test drives each body directly against the reference
// loop.
//
// Every body computes, for w = grid down to weight (in place, so dp[w-weight]
// is always the value from before this item):
//
//   take  = dp[w - weight] + value > dp[w]
//   dp[w] = take ? dp[w - weight] + value : dp[w]
//
// — the reference solver's comparison, cell for cell, so the DP table and
// hence every Assignment stay bit-identical. `take` is stored as one bit per
// cell: cell w is bit (w + pad) % 8 of row[(w + pad) / 8], where
// pad = knapsack_row_pad(grid) puts cell `grid` at the top bit of the last
// byte, so each run of 8 cells from the top fills exactly one byte. Every
// bit of [weight, grid] is written. Bits of cells below `weight` that share
// the lowest written byte are cleared; bytes holding only cells below
// `weight` are untouched. Readers treat w < weight as "not taken" and never
// need a zeroed row. Preconditions: 1 ≤ weight ≤ grid; `dp` has grid + 1
// cells and `row` knapsack_row_bytes(grid) bytes.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dauct::auction::detail {

using KnapsackRowFn = void (*)(std::int64_t* dp, std::uint8_t* row, std::size_t grid,
                               std::size_t weight, std::int64_t value);

/// Padding bits below cell 0: (8 − (grid + 1) % 8) % 8.
constexpr std::size_t knapsack_row_pad(std::size_t grid) { return 7 - grid % 8; }

/// Bytes in one take row: ⌈(grid + 1) / 8⌉.
constexpr std::size_t knapsack_row_bytes(std::size_t grid) { return grid / 8 + 1; }

/// Whether cell w of a row written for `weight` took the item.
inline bool knapsack_row_taken(const std::uint8_t* row, std::size_t grid,
                               std::size_t weight, std::size_t w) {
  const std::size_t bit = w + knapsack_row_pad(grid);
  return w >= weight && ((row[bit / 8] >> (bit % 8)) & 1u) != 0;
}

/// Portable body: eight cells per byte store, no data-dependent branch.
void knapsack_row_scalar(std::int64_t* dp, std::uint8_t* row, std::size_t grid,
                         std::size_t weight, std::int64_t value);

/// The AVX2 body (two 4-lane halves per byte), or nullptr when this build or
/// this CPU lacks AVX2.
KnapsackRowFn knapsack_row_avx2();

/// The AVX-512F body (eight lanes per byte), or nullptr when this build or
/// this CPU lacks AVX-512F.
KnapsackRowFn knapsack_row_avx512();

/// The body picked once at startup: AVX-512F, else AVX2, else scalar.
void knapsack_row(std::int64_t* dp, std::uint8_t* row, std::size_t grid,
                  std::size_t weight, std::int64_t value);

/// dp[0, n) = value: how a stage starts its DP row. Eight cells per step,
/// one store each with AVX-512F (picked once at startup), so filling the
/// row costs a few percent of a stage rather than ~15%.
void knapsack_fill(std::int64_t* dp, std::size_t n, std::int64_t value);

}  // namespace dauct::auction::detail
