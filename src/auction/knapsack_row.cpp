#include "auction/knapsack_row.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define DAUCT_KNAPSACK_X86_DISPATCH 1
#endif

namespace dauct::auction::detail {

namespace {

// Cells lo + count − 1 down to lo, one at a time, as take bits (cell lo + i
// at bit i). Top-down, so a read below the cells already stored sees the
// pre-item value for any weight ≥ 1. Preconditions: weight ≤ lo, count ≤ 8.
[[gnu::always_inline]] inline std::uint8_t scalar_cells(std::int64_t* dp, std::size_t lo,
                                                        std::size_t count,
                                                        std::size_t weight,
                                                        std::int64_t value) {
  unsigned bits = 0;
  for (std::size_t i = count; i-- > 0;) {
    const std::size_t w = lo + i;
    const std::int64_t cand = dp[w - weight] + value;
    const bool take = cand > dp[w];
    dp[w] = take ? cand : dp[w];
    bits |= static_cast<unsigned>(take) << i;
  }
  return static_cast<std::uint8_t>(bits);
}

// The < 8 cells [weight, hi) that the full steps leave, as the top bits of
// the byte of cells [hi − 8, hi): its bits below `weight` come out clear.
[[gnu::always_inline]] inline void scalar_tail(std::int64_t* dp, std::uint8_t* out,
                                               std::size_t hi, std::size_t weight,
                                               std::int64_t value) {
  if (hi <= weight) return;
  const std::size_t left = hi - weight;
  *out = static_cast<std::uint8_t>(scalar_cells(dp, weight, left, weight, value)
                                   << (8 - left));
}

}  // namespace

// Every body is pinned to a 64-byte boundary so the row loop's position
// relative to 32-byte fetch boundaries does not move with code-size changes
// elsewhere in the link (an unpinned branchy predecessor of this loop swung
// fig5_vcg latency by ~8% that way). Every body walks cells [lo, lo + 8) from
// the top, with lo + pad a multiple of 8, and writes the step's byte through
// `out`, which starts one past the row's last byte.
[[gnu::aligned(64)]] void knapsack_row_scalar(std::int64_t* dp, std::uint8_t* row,
                                              std::size_t grid, std::size_t weight,
                                              std::int64_t value) {
  std::uint8_t* out = row + knapsack_row_bytes(grid);
  std::size_t hi = grid + 1;  // cells [hi, grid] are done
  while (hi >= weight + 8) {
    hi -= 8;
    *--out = scalar_cells(dp, hi, 8, weight, value);
  }
  scalar_tail(dp, out - 1, hi, weight, value);
}

namespace {

#ifdef DAUCT_KNAPSACK_X86_DISPATCH

// One 4-lane half of an AVX2 step: cells [l, l+4), their take bits as a
// nibble. It loads dp[l-weight, l-weight+4) before it stores dp[l, l+4).
[[gnu::target("avx2"), gnu::always_inline]] inline unsigned avx2_half(
    std::int64_t* dp, std::size_t l, std::size_t weight, __m256i v) {
  const __m256i cur = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dp + l));
  const __m256i cand = _mm256_add_epi64(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dp + l - weight)), v);
  const __m256i gt = _mm256_cmpgt_epi64(cand, cur);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(dp + l), _mm256_blendv_epi8(cur, cand, gt));
  return static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(gt)));
}

// Eight cells [lo, lo+8) per step as two halves, upper first. Every index a
// half reads is below every cell an earlier (higher) half stored, so all
// reads see pre-item values exactly as in the scalar loop — for any weight
// ≥ 1, including weights below the lane count where a half's reads overlap
// its own stores. The two nibbles are the step's byte.
[[gnu::aligned(64), gnu::target("avx2")]] void knapsack_row_avx2_body(
    std::int64_t* dp, std::uint8_t* row, std::size_t grid, std::size_t weight,
    std::int64_t value) {
  const __m256i v = _mm256_set1_epi64x(value);
  std::uint8_t* out = row + knapsack_row_bytes(grid);
  std::size_t hi = grid + 1;  // cells [hi, grid] are done
  while (hi >= weight + 8) {
    const std::size_t lo = hi - 8;
    const unsigned upper = avx2_half(dp, lo + 4, weight, v);
    *--out = static_cast<std::uint8_t>(upper << 4 | avx2_half(dp, lo, weight, v));
    hi = lo;
  }
  scalar_tail(dp, out - 1, hi, weight, value);
}

// Eight cells per step in one zmm, by the same read-before-store argument;
// the compare mask is the step's byte. The < 8 cells [weight, hi) left
// become one masked step over lanes [weight, hi), whose reads stay inside
// dp[0, hi − weight) — below every cell stored so far — and which stores
// only the cells it takes.
[[gnu::aligned(64), gnu::target("avx512f")]] void knapsack_row_avx512_body(
    std::int64_t* dp, std::uint8_t* row, std::size_t grid, std::size_t weight,
    std::int64_t value) {
  const __m512i v = _mm512_set1_epi64(value);
  std::uint8_t* out = row + knapsack_row_bytes(grid);
  std::size_t hi = grid + 1;  // cells [hi, grid] are done
  while (hi >= weight + 8) {
    const std::size_t lo = hi - 8;
    const __m512i cur = _mm512_loadu_si512(dp + lo);
    const __m512i cand = _mm512_add_epi64(_mm512_loadu_si512(dp + lo - weight), v);
    const __mmask8 take = _mm512_cmpgt_epi64_mask(cand, cur);
    _mm512_storeu_si512(dp + lo, _mm512_mask_blend_epi64(take, cur, cand));
    *--out = take;
    hi = lo;
  }
  if (hi > weight) {
    const std::size_t left = hi - weight;
    const auto live = static_cast<__mmask8>((1u << left) - 1);
    const __m512i cur = _mm512_maskz_loadu_epi64(live, dp + weight);
    const __m512i cand = _mm512_add_epi64(_mm512_maskz_loadu_epi64(live, dp), v);
    const __mmask8 take = _mm512_mask_cmpgt_epi64_mask(live, cand, cur);
    _mm512_mask_storeu_epi64(dp + weight, take, cand);
    *--out = static_cast<std::uint8_t>(take << (8 - left));
  }
}

#endif  // DAUCT_KNAPSACK_X86_DISPATCH

KnapsackRowFn pick_knapsack_row() {
  if (KnapsackRowFn avx512 = knapsack_row_avx512()) return avx512;
  if (KnapsackRowFn avx2 = knapsack_row_avx2()) return avx2;
  return &knapsack_row_scalar;
}

// Resolved once at startup; every body computes the same row, so the choice
// is invisible to callers.
const KnapsackRowFn g_knapsack_row = pick_knapsack_row();

// Eight cells per step: a fixed-length inner loop, which -O2 turns into whole
// vector stores in whatever ISA the caller is compiled for.
[[gnu::always_inline]] inline void fill_cells(std::int64_t* dp, std::size_t n,
                                              std::int64_t value) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (std::size_t k = 0; k < 8; ++k) dp[i + k] = value;
  }
  for (; i < n; ++i) dp[i] = value;
}

using KnapsackFillFn = void (*)(std::int64_t* dp, std::size_t n, std::int64_t value);

void knapsack_fill_portable(std::int64_t* dp, std::size_t n, std::int64_t value) {
  fill_cells(dp, n, value);
}

#ifdef DAUCT_KNAPSACK_X86_DISPATCH
[[gnu::target("avx512f")]] void knapsack_fill_avx512(std::int64_t* dp, std::size_t n,
                                                     std::int64_t value) {
  fill_cells(dp, n, value);
}
#endif

KnapsackFillFn pick_knapsack_fill() {
#ifdef DAUCT_KNAPSACK_X86_DISPATCH
  if (__builtin_cpu_supports("avx512f")) return &knapsack_fill_avx512;
#endif
  return &knapsack_fill_portable;
}

const KnapsackFillFn g_knapsack_fill = pick_knapsack_fill();

}  // namespace

KnapsackRowFn knapsack_row_avx2() {
#ifdef DAUCT_KNAPSACK_X86_DISPATCH
  if (__builtin_cpu_supports("avx2")) return &knapsack_row_avx2_body;
#endif
  return nullptr;
}

KnapsackRowFn knapsack_row_avx512() {
#ifdef DAUCT_KNAPSACK_X86_DISPATCH
  if (__builtin_cpu_supports("avx512f")) return &knapsack_row_avx512_body;
#endif
  return nullptr;
}

void knapsack_row(std::int64_t* dp, std::uint8_t* row, std::size_t grid,
                  std::size_t weight, std::int64_t value) {
  g_knapsack_row(dp, row, grid, weight, value);
}

void knapsack_fill(std::int64_t* dp, std::size_t n, std::int64_t value) {
  g_knapsack_fill(dp, n, value);
}

}  // namespace dauct::auction::detail
