// Endpoint implementation over the virtual-time scheduler.
#pragma once

#include <algorithm>

#include "blocks/block.hpp"
#include "sim/scheduler.hpp"

namespace dauct::net {

/// Wires a protocol engine to the simulated network: send() stamps messages
/// from this node's virtual clock and routes them through the scheduler.
class SimEndpoint final : public blocks::Endpoint {
 public:
  SimEndpoint(sim::Scheduler& scheduler, NodeId self, std::size_t num_providers,
              std::uint64_t rng_seed)
      : scheduler_(scheduler), self_(self), num_providers_(num_providers),
        rng_(rng_seed) {}

  NodeId self() const override { return self_; }
  std::size_t num_providers() const override { return num_providers_; }

  void send(NodeId to, const net::Topic& topic, SharedBytes payload) override {
    scheduler_.send(Message{self_, to, topic, std::move(payload)});
  }

  bool schedule_after(std::int64_t delay_ns, std::function<void()> fn) override {
    scheduler_.schedule_timer(scheduler_.now() + delay_ns, self_, std::move(fn));
    return true;
  }

  /// A handler's event time can trail the node's clock when the node is
  /// backlogged; the handler starts at the later of the two.
  std::int64_t local_time() const override {
    return std::max(scheduler_.now(), scheduler_.clock(self_));
  }

  std::int64_t event_time() const override { return scheduler_.now(); }

  crypto::Rng& rng() override { return rng_; }

 private:
  sim::Scheduler& scheduler_;
  NodeId self_;
  std::size_t num_providers_;
  crypto::Rng rng_;
};

}  // namespace dauct::net
