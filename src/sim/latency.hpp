// Link latency model for the simulated community network.
//
// Calibrated to a Guifi.net-style wireless mesh WAN path: a fixed base delay
// (propagation + forwarding through mesh hops) plus a per-byte serialization
// term, with multiplicative jitter. The defaults reproduce the regime of the
// paper's evaluation: milliseconds-scale links where the double-auction run
// is communication-dominated (Fig. 4) while the standard auction is
// computation-dominated (Fig. 5).
#pragma once

#include <cstdint>

#include "crypto/rng.hpp"
#include "sim/clock.hpp"

namespace dauct::sim {

/// latency = base + bytes·per_byte, scaled by U[1−jitter, 1+jitter].
/// In addition, the *receiving node* is occupied for bytes·recv_per_byte of
/// its own (virtual) time per inbound message — deserialization and NIC/IPC
/// processing serialize at the node even when links are parallel. This term
/// is what makes protocol cost grow with the number of participants m
/// (every provider ingests m copies per round), as in the paper's Fig. 4.
struct LatencyModel {
  SimTime base = from_micros(2'500);   ///< 2.5 ms one-way mesh path
  SimTime per_byte = 1'000;            ///< 1 µs/byte ≈ 8 Mbit/s effective
  double jitter = 0.2;                 ///< ±20 % multiplicative jitter
  SimTime recv_per_byte = 500;         ///< 0.5 µs/byte receive occupancy

  /// Zero-latency model (for logic-only tests).
  static LatencyModel zero();

  /// LAN-ish model.
  static LatencyModel lan();

  /// Community-network default (the calibration above).
  static LatencyModel community();

  /// Sample the one-way delay of a `bytes`-sized message.
  SimTime sample(std::size_t bytes, crypto::Rng& rng) const;

  /// The shortest delay sample() can return, floor(base·(1−jitter)) (base
  /// itself without jitter): the scheduler's lookahead window.
  SimTime min_delay() const;

  /// Receive occupancy charged to the destination node's clock.
  SimTime recv_occupancy(std::size_t bytes) const {
    return recv_per_byte * static_cast<SimTime>(bytes);
  }
};

}  // namespace dauct::sim
