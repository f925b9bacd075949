#include "sim/latency.hpp"

#include <algorithm>
#include <cmath>

namespace dauct::sim {

LatencyModel LatencyModel::zero() { return LatencyModel{0, 0, 0.0, 0}; }

LatencyModel LatencyModel::lan() {
  return LatencyModel{from_micros(100), 8 /* ≈1 Gbit/s */, 0.1, 4};
}

LatencyModel LatencyModel::community() { return LatencyModel{}; }

SimTime LatencyModel::sample(std::size_t bytes, crypto::Rng& rng) const {
  const SimTime raw = base + per_byte * static_cast<SimTime>(bytes);
  if (jitter <= 0.0 || raw == 0) return raw;
  const double factor = 1.0 + jitter * (2.0 * rng.next_double() - 1.0);
  const SimTime jittered = static_cast<SimTime>(std::llround(raw * factor));
  return std::max<SimTime>(jittered, 0);
}

SimTime LatencyModel::min_delay() const {
  if (jitter <= 0.0 || base <= 0) return std::max<SimTime>(base, 0);
  // sample() rounds raw·factor with raw ≥ base and factor ≥ 1 − jitter, all
  // in the same double arithmetic, so this floor bounds every draw.
  const double lowest = std::floor(static_cast<double>(base) * (1.0 - jitter));
  return std::max<SimTime>(static_cast<SimTime>(lowest), 0);
}

}  // namespace dauct::sim
