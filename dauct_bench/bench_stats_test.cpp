// Known-vector checks for bench_stats.hpp (registered as the CTest
// dauct_bench_stats). Exits 1 on the first wrong value.
#include <cstdio>
#include <numeric>

#include "bench_stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> iota_samples(std::size_t n) {
  std::vector<double> xs(n);
  std::iota(xs.begin(), xs.end(), 1.0);  // 1, 2, …, n
  return xs;
}

}  // namespace

int main() {
  using namespace dauct::bench;

  // Nearest rank over 1..100: the p-th percentile is the value p itself.
  const auto hundred = iota_samples(100);
  expect(percentile(hundred, 50) == 50, "p50 of 1..100 is 50");
  expect(percentile(hundred, 90) == 90, "p90 of 1..100 is 90");
  expect(percentile(hundred, 99) == 99, "p99 of 1..100 is 99");
  expect(percentile(hundred, 100) == 100, "p100 of 1..100 is 100");

  // Order does not matter; small N rounds the rank up.
  expect(percentile({5, 1, 4, 2, 3}, 50) == 3, "p50 of a shuffled 1..5 is 3");
  expect(percentile({10, 20}, 50) == 10, "p50 of {10,20} is rank 1");
  expect(percentile({7}, 90) == 7, "any percentile of one sample is it");

  const Quartiles q = quartiles(iota_samples(8));
  expect(q.q1 == 2 && q.median == 4 && q.q3 == 6, "quartiles of 1..8 are 2/4/6");

  // Ten samples beyond the percentile.
  expect(min_samples_for(50) == 20, "p50 needs 20 samples");
  expect(min_samples_for(90) == 100, "p90 needs 100 samples");
  expect(min_samples_for(99) == 1000, "p99 needs 1000 samples");
  expect(!tail_percentile(iota_samples(99), 90).has_value(), "p90 refused at 99");
  expect(tail_percentile(hundred, 90) == 90.0, "p90 reported at 100");
  expect(highest_supported_percentile(19) == 0, "19 samples support nothing");
  expect(highest_supported_percentile(150) == 90, "150 samples support p90");
  expect(highest_supported_percentile(1000) == 99, "1000 samples support p99");

  bool threw = false;
  try {
    percentile({}, 50);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "percentile of no samples throws");

  if (failures == 0) std::printf("bench_stats: all known vectors pass\n");
  return failures == 0 ? 0 : 1;
}
