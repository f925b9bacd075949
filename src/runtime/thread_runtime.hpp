// Threaded runtime: every provider is an OS thread over in-memory mailboxes.
//
// The wall-clock analogue of the paper's deployment (modulo the network):
// engines are the same sans-I/O state machines used by the virtual-time
// runtime, so this runtime doubles as a concurrency stress test of the
// protocol logic.
#pragma once

#include <chrono>

#include "adversary/provider_deviation.hpp"
#include "core/distributed_auctioneer.hpp"
#include "net/mem_transport.hpp"

namespace dauct::runtime {

struct ThreadRunConfig {
  std::uint64_t seed = 1;
  std::chrono::milliseconds timeout{10'000};  ///< watchdog for stalls
  std::map<NodeId, std::shared_ptr<adversary::DeviationStrategy>> deviations;
};

struct ThreadRunResult {
  std::vector<auction::AuctionOutcome> provider_outcomes;
  auction::AuctionOutcome global_outcome{Bottom{}};
  std::chrono::nanoseconds wall_time{0};
  bool timed_out = false;
};

class ThreadRuntime {
 public:
  explicit ThreadRuntime(ThreadRunConfig config) : config_(std::move(config)) {}

  /// Run the distributed protocol with one thread per provider. Bids are
  /// taken directly from `instance` (honest bidders).
  ThreadRunResult run_distributed(const core::DistributedAuctioneer& auctioneer,
                                  const auction::AuctionInstance& instance);

 private:
  ThreadRunConfig config_;
};

}  // namespace dauct::runtime
