#include "adversary/provider_deviation.hpp"

#include <algorithm>

#include "serde/auction_codec.hpp"
#include "serde/codec.hpp"

namespace dauct::adversary {

namespace {

bool in(const std::vector<NodeId>& set, NodeId id) {
  return std::find(set.begin(), set.end(), id) != set.end();
}

class Honest final : public DeviationStrategy {
 public:
  std::string name() const override { return "honest"; }
  std::optional<SharedBytes> on_send(NodeId, NodeId, const std::string&,
                                     const SharedBytes& payload) override {
    return payload;  // alias, not a copy
  }
};

class ForgeTaskResults final : public DeviationStrategy {
 public:
  explicit ForgeTaskResults(std::vector<NodeId> coalition)
      : coalition_(std::move(coalition)) {}
  std::string name() const override { return "forge-task-results"; }

  std::optional<SharedBytes> on_send(NodeId, NodeId to, const std::string& topic,
                               const SharedBytes& payload) override {
    if (!blocks::topic_has_prefix(topic, "alloc/dt") || in(coalition_, to) ||
        payload.empty()) {
      return payload;
    }
    Bytes forged = payload.to_bytes();
    forged.back() ^= 0x01;  // corrupt the encoded result
    return forged;
  }

 private:
  std::vector<NodeId> coalition_;
};

class CorruptCoinReveal final : public DeviationStrategy {
 public:
  std::string name() const override { return "corrupt-coin-reveal"; }

  std::optional<SharedBytes> on_send(NodeId, NodeId, const std::string& topic,
                               const SharedBytes& payload) override {
    if (topic != "alloc/coin/reveal" || payload.empty()) return payload;
    Bytes forged = payload.to_bytes();
    forged[0] ^= 0xff;  // the revealed value no longer opens the commitment
    return forged;
  }
};

/// A non-empty payload on a bid-agreement vote topic. Vote topics end in
/// "/v" in both agreement modes, the value mode's fallback included.
bool is_vote(const std::string& topic, const SharedBytes& payload) {
  return !payload.empty() && blocks::topic_has_prefix(topic, "ba") &&
         topic.size() >= 2 && topic.compare(topic.size() - 2, 2, "/v") == 0;
}

/// The vote with its last byte flipped: still well-formed in every mode (a
/// digest, the last slot of an encoded vector, or the last bits).
Bytes forge_vote(const SharedBytes& payload) {
  Bytes forged = payload.to_bytes();
  forged.back() ^= 0x01;
  return forged;
}

class EquivocateVotes final : public DeviationStrategy {
 public:
  std::string name() const override { return "equivocate-votes"; }

  std::optional<SharedBytes> on_send(NodeId, NodeId to, const std::string& topic,
                               const SharedBytes& payload) override {
    if (!is_vote(topic, payload) || to % 2 == 0) return payload;
    return forge_vote(payload);  // different vote for odd-id providers
  }
};

class Misvote final : public DeviationStrategy {
 public:
  std::string name() const override { return "misvote"; }

  std::optional<SharedBytes> on_send(NodeId, NodeId, const std::string& topic,
                               const SharedBytes& payload) override {
    if (!is_vote(topic, payload)) return payload;
    return forge_vote(payload);  // the same forged vote for everyone
  }
};

class ForgeOutputDigest final : public DeviationStrategy {
 public:
  explicit ForgeOutputDigest(std::vector<NodeId> coalition)
      : coalition_(std::move(coalition)) {}
  std::string name() const override { return "forge-output-digest"; }

  std::optional<SharedBytes> on_send(NodeId, NodeId to, const std::string& topic,
                               const SharedBytes& payload) override {
    if (topic != "alloc/out/digest" || in(coalition_, to) || payload.empty()) {
      return payload;
    }
    Bytes forged = payload.to_bytes();
    forged[0] ^= 0x01;
    return forged;
  }

 private:
  std::vector<NodeId> coalition_;
};

class SelectiveSilence final : public DeviationStrategy {
 public:
  explicit SelectiveSilence(std::vector<NodeId> coalition)
      : coalition_(std::move(coalition)) {}
  std::string name() const override { return "selective-silence"; }

  std::optional<SharedBytes> on_send(NodeId, NodeId to, const std::string&,
                               const SharedBytes& payload) override {
    if (in(coalition_, to)) return payload;
    return std::nullopt;  // drop
  }

 private:
  std::vector<NodeId> coalition_;
};

class MisreportAsk final : public DeviationStrategy {
 public:
  explicit MisreportAsk(dauct::Money fake_cost) : fake_cost_(fake_cost) {}
  std::string name() const override { return "misreport-ask"; }

  std::optional<SharedBytes> on_send(NodeId self, NodeId, const std::string& topic,
                               const SharedBytes& payload) override {
    if (topic != "ask/x") return payload;
    serde::Reader r{payload.view()};
    auto ask = serde::read_ask(r);
    if (!ask || !r.at_end() || ask->provider != self) return payload;
    ask->unit_cost = fake_cost_;
    serde::Writer w;
    serde::write_ask(w, *ask);
    return w.take();
  }

 private:
  dauct::Money fake_cost_;
};

}  // namespace

std::shared_ptr<DeviationStrategy> honest_provider() {
  return std::make_shared<Honest>();
}
std::shared_ptr<DeviationStrategy> forge_task_results(std::vector<NodeId> coalition) {
  return std::make_shared<ForgeTaskResults>(std::move(coalition));
}
std::shared_ptr<DeviationStrategy> corrupt_coin_reveal() {
  return std::make_shared<CorruptCoinReveal>();
}
std::shared_ptr<DeviationStrategy> equivocate_votes() {
  return std::make_shared<EquivocateVotes>();
}
std::shared_ptr<DeviationStrategy> misvote() { return std::make_shared<Misvote>(); }
std::shared_ptr<DeviationStrategy> forge_output_digest(std::vector<NodeId> coalition) {
  return std::make_shared<ForgeOutputDigest>(std::move(coalition));
}
std::shared_ptr<DeviationStrategy> selective_silence(std::vector<NodeId> coalition) {
  return std::make_shared<SelectiveSilence>(std::move(coalition));
}
std::shared_ptr<DeviationStrategy> misreport_ask(dauct::Money fake_cost) {
  return std::make_shared<MisreportAsk>(fake_cost);
}

}  // namespace dauct::adversary
