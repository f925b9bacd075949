// Sample statistics and the run header for dauct_bench.
//
// Percentiles are nearest-rank: the p-th percentile of N sorted samples is
// the sample at rank ⌈p·N/100⌉ (1-based), so every reported value is one
// that was actually measured. A tail percentile is only reported when at
// least ten samples lie beyond it — p90 needs N ≥ 100 — because a "p90" read
// off 20 samples is the second-largest sample, not a tail.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace dauct::bench {

/// Samples that must lie strictly beyond a reported percentile.
inline constexpr std::size_t kTailSamples = 10;

/// 1-based nearest rank of the p-th percentile in `n` samples.
inline std::size_t nearest_rank(double p, std::size_t n) {
  if (n == 0 || !(p > 0.0 && p <= 100.0)) {
    throw std::invalid_argument("nearest_rank: need n > 0 and p in (0, 100]");
  }
  // The 1e-9 guard keeps exact products exact: 90 % of 100 is rank 90,
  // not 91 from a floating-point 90.00000000000001.
  const double r = std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

/// Nearest-rank p-th percentile of `xs` (any order; must be non-empty).
inline double percentile(std::vector<double> xs, double p) {
  const std::size_t rank = nearest_rank(p, xs.size());
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   xs.end());
  return xs[rank - 1];
}

inline double median(std::vector<double> xs) { return percentile(std::move(xs), 50); }

struct Quartiles {
  double q1 = 0, median = 0, q3 = 0;
};

inline Quartiles quartiles(const std::vector<double>& xs) {
  return {percentile(xs, 25), percentile(xs, 50), percentile(xs, 75)};
}

/// Fewest samples for which the p-th percentile has kTailSamples beyond it.
inline std::size_t min_samples_for(double p) {
  std::size_t n = 1;
  while (n - nearest_rank(p, n) < kTailSamples) ++n;
  return n;
}

/// The p-th percentile, or nullopt when too few samples lie beyond it.
inline std::optional<double> tail_percentile(const std::vector<double>& xs, double p) {
  if (xs.size() < min_samples_for(p)) return std::nullopt;
  return percentile(xs, p);
}

/// Highest of p50 / p90 / p99 / p99.9 that `n` samples support (0 if none).
inline double highest_supported_percentile(std::size_t n) {
  double best = 0;
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    if (n >= min_samples_for(p)) best = p;
  }
  return best;
}

#ifndef DAUCT_BENCH_GIT_SHA
#define DAUCT_BENCH_GIT_SHA "unknown"
#endif
#ifndef DAUCT_BENCH_BUILD_TYPE
#define DAUCT_BENCH_BUILD_TYPE "unknown"
#endif

/// JSON object describing the host and build a record was taken on: a
/// number is only comparable with numbers from the same header.
inline std::string host_json() {
  std::string compiler =
#if defined(__clang__)
      "clang " __clang_version__;
#elif defined(__GNUC__)
      "gcc " __VERSION__;
#else
      "unknown";
#endif
  std::erase_if(compiler, [](char c) { return c == '"' || c == '\\'; });
  return "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": \"" + compiler + "\", \"build_type\": \"" +
         DAUCT_BENCH_BUILD_TYPE + "\", \"git_sha\": \"" + DAUCT_BENCH_GIT_SHA + "\"}";
}

}  // namespace dauct::bench
