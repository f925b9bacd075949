#include "auction/knapsack_row.hpp"

#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define DAUCT_KNAPSACK_X86_DISPATCH 1
#endif

namespace dauct::auction::detail {

// Both bodies are pinned to a 64-byte boundary so the row loop's position
// relative to 32-byte fetch boundaries does not move with code-size changes
// elsewhere in the link (an unpinned branchy predecessor of this loop swung
// fig5_vcg latency by ~8% that way).
[[gnu::aligned(64)]] void knapsack_row_scalar(std::int64_t* dp, char* row,
                                              std::size_t grid, std::size_t weight,
                                              std::int64_t value) {
  for (std::size_t w = grid + 1; w-- > weight;) {
    const std::int64_t cand = dp[w - weight] + value;
    const bool take = cand > dp[w];
    dp[w] = take ? cand : dp[w];
    row[w] = take;
  }
}

namespace {

#ifdef DAUCT_KNAPSACK_X86_DISPATCH

// Four cells [lo, lo+4) per step, from the top down. Each step loads
// dp[lo-weight, lo-weight+4) before it stores dp[lo, lo+4), and every index
// it reads is below every cell an earlier (higher) step stored, so all reads
// see pre-item values exactly as in the scalar loop — for any weight ≥ 1,
// including weights below the lane count where a step's reads overlap its
// own stores. The compare mask becomes the step's four take bytes: one bit
// per lane from movemask, spread to bit 0 of bytes 0..3 by a carry-free
// multiply (bit i lands at bit 8i).
[[gnu::aligned(64), gnu::target("avx2")]] void knapsack_row_avx2_body(
    std::int64_t* dp, char* row, std::size_t grid, std::size_t weight,
    std::int64_t value) {
  const __m256i v = _mm256_set1_epi64x(value);
  std::size_t hi = grid + 1;  // cells [hi, grid] are done
  while (hi >= weight + 4) {
    const std::size_t lo = hi - 4;
    const __m256i cur = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dp + lo));
    const __m256i cand = _mm256_add_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dp + lo - weight)), v);
    const __m256i gt = _mm256_cmpgt_epi64(cand, cur);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dp + lo),
                        _mm256_blendv_epi8(cur, cand, gt));
    const auto lanes =
        static_cast<std::uint32_t>(_mm256_movemask_pd(_mm256_castsi256_pd(gt)));
    const std::uint32_t take = (lanes * 0x00204081u) & 0x01010101u;
    std::memcpy(row + lo, &take, sizeof take);  // little-endian: byte i = lane i
    hi = lo;
  }
  knapsack_row_scalar(dp, row, hi - 1, weight, value);  // the < 4 cells left
}

#endif  // DAUCT_KNAPSACK_X86_DISPATCH

KnapsackRowFn pick_knapsack_row() {
  if (KnapsackRowFn avx2 = knapsack_row_avx2()) return avx2;
  return &knapsack_row_scalar;
}

// Resolved once at startup; every body computes the same row, so the choice
// is invisible to callers.
const KnapsackRowFn g_knapsack_row = pick_knapsack_row();

}  // namespace

KnapsackRowFn knapsack_row_avx2() {
#ifdef DAUCT_KNAPSACK_X86_DISPATCH
  if (__builtin_cpu_supports("avx2")) return &knapsack_row_avx2_body;
#endif
  return nullptr;
}

void knapsack_row(std::int64_t* dp, char* row, std::size_t grid, std::size_t weight,
                  std::int64_t value) {
  g_knapsack_row(dp, row, grid, weight, value);
}

}  // namespace dauct::auction::detail
