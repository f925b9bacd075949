// Provider deviation strategies and the deviant endpoint.
//
// A deviation strategy intercepts everything a coalition member sends. The
// k-resilience tests (tests/resilience_test.cpp) run the protocol
// with a coalition following a strategy and measure whether any member's
// utility exceeds the honest baseline — the empirical counterpart of
// Definition 2.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "blocks/block.hpp"

namespace dauct::adversary {

class DeviationStrategy {
 public:
  virtual ~DeviationStrategy() = default;

  virtual std::string name() const = 0;

  /// Called for every outgoing message of a coalition member.
  /// Return the (possibly rewritten) payload, or std::nullopt to drop the
  /// message entirely. Honest pass-through returns the input SharedBytes
  /// unchanged (a refcount bump — deviation wrappers do not tax the
  /// zero-copy fan-out); rewriters materialize a fresh buffer.
  virtual std::optional<SharedBytes> on_send(NodeId self, NodeId to,
                                             const std::string& topic,
                                             const SharedBytes& payload) = 0;
};

/// Follow the protocol exactly (control arm).
std::shared_ptr<DeviationStrategy> honest_provider();

/// Flip bytes of task-result data transfers sent to providers outside the
/// coalition (forged task result).
std::shared_ptr<DeviationStrategy> forge_task_results(std::vector<NodeId> coalition);

/// Tamper with the common-coin reveal (invalid opening).
std::shared_ptr<DeviationStrategy> corrupt_coin_reveal();

/// Equivocate in the bid-agreement vote round: send different vote payloads
/// to even and odd providers.
std::shared_ptr<DeviationStrategy> equivocate_votes();

/// Vote a forged value in the bid-agreement vote round: the same rewritten
/// vote payload to every provider, so the echoes stay consistent and the
/// forged vote is counted rather than detected.
std::shared_ptr<DeviationStrategy> misvote();

/// Forge the output-agreement digest sent to non-coalition providers.
std::shared_ptr<DeviationStrategy> forge_output_digest(std::vector<NodeId> coalition);

/// Drop every message to providers outside the coalition (selective
/// silence — stalls the protocol, outcome ⊥ via timeout or abort).
std::shared_ptr<DeviationStrategy> selective_silence(std::vector<NodeId> coalition);

/// Lie about this provider's own ask: report `fake_cost` instead of the true
/// unit cost (provider-input truthfulness experiment).
std::shared_ptr<DeviationStrategy> misreport_ask(dauct::Money fake_cost);

/// Endpoint wrapper that funnels every outgoing message through a deviation
/// strategy. Runtimes install it for coalition members.
class DeviantEndpoint final : public blocks::Endpoint {
 public:
  DeviantEndpoint(blocks::Endpoint& inner, std::shared_ptr<DeviationStrategy> strategy)
      : inner_(inner), strategy_(std::move(strategy)) {}

  NodeId self() const override { return inner_.self(); }
  std::size_t num_providers() const override { return inner_.num_providers(); }
  crypto::Rng& rng() override { return inner_.rng(); }
  bool schedule_after(std::int64_t delay_ns, std::function<void()> fn) override {
    return inner_.schedule_after(delay_ns, std::move(fn));
  }
  std::int64_t round_timeout() const override { return inner_.round_timeout(); }

  void send(NodeId to, const net::Topic& topic, SharedBytes payload) override {
    auto rewritten = strategy_->on_send(self(), to, topic.str(), payload);
    if (!rewritten) return;  // dropped
    inner_.send(to, topic, std::move(*rewritten));
  }

 private:
  blocks::Endpoint& inner_;
  std::shared_ptr<DeviationStrategy> strategy_;
};

}  // namespace dauct::adversary
