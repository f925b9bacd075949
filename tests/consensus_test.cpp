#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "adversary/provider_deviation.hpp"
#include "consensus/batched_consensus.hpp"
#include "consensus/stream_consensus.hpp"
#include "test_util.hpp"

namespace dauct::consensus {
namespace {

using testutil::LocalNet;

// Drive m StreamConsensus instances over `bits`-bit streams to completion
// over a LocalNet; `equivocator`'s sends go through equivocate_votes().
std::vector<Outcome<std::vector<bool>>> run_stream(
    std::size_t m, std::size_t bits, const std::vector<std::vector<bool>>& in,
    NodeId equivocator = kNoNode) {
  LocalNet net(m);
  std::vector<std::unique_ptr<adversary::DeviantEndpoint>> deviants(m);
  std::vector<std::unique_ptr<StreamConsensus>> nodes(m);
  for (NodeId j = 0; j < m; ++j) {
    blocks::Endpoint* ep = &net.endpoint(j);
    if (j == equivocator) {
      deviants[j] = std::make_unique<adversary::DeviantEndpoint>(
          *ep, adversary::equivocate_votes());
      ep = deviants[j].get();
    }
    nodes[j] = std::make_unique<StreamConsensus>(*ep, "ba/s", bits);
    net.set_handler(j, [&, j](const net::Message& msg) { nodes[j]->handle(msg); });
  }
  for (NodeId j = 0; j < m; ++j) nodes[j]->start(in[j]);
  net.run();
  std::vector<Outcome<std::vector<bool>>> outs;
  for (NodeId j = 0; j < m; ++j) {
    EXPECT_TRUE(nodes[j]->done()) << "node " << j << " did not decide";
    outs.push_back(nodes[j]->done() ? *nodes[j]->result()
                                    : Outcome<std::vector<bool>>(
                                          Bottom{AbortReason::kTimeout, ""}));
  }
  return outs;
}

// The paper's per-bit rational-consensus instance is a 1-bit stream: node
// j's input is inputs[j], and each outcome is the decided bit.
std::vector<Outcome<bool>> run_bit_consensus(std::size_t m,
                                             const std::vector<bool>& inputs,
                                             NodeId equivocator = kNoNode) {
  std::vector<std::vector<bool>> in;
  for (const bool b : inputs) in.push_back({b});
  std::vector<Outcome<bool>> outs;
  for (const auto& o : run_stream(m, 1, in, equivocator)) {
    outs.push_back(o.ok() ? Outcome<bool>(o.value().at(0)) : Outcome<bool>(o.bottom()));
  }
  return outs;
}

// BitConsensus.*: the single-bit instance's guarantees, on 1-bit streams.
TEST(BitConsensus, UnanimousInputDecided) {
  for (bool b : {false, true}) {
    const auto outs = run_bit_consensus(5, std::vector<bool>(5, b));
    for (const auto& o : outs) {
      ASSERT_TRUE(o.ok());
      EXPECT_EQ(o.value(), b);  // validity
    }
  }
}

TEST(BitConsensus, MajorityWins) {
  const auto outs = run_bit_consensus(5, {true, true, true, false, false});
  for (const auto& o : outs) {
    ASSERT_TRUE(o.ok());
    EXPECT_TRUE(o.value());
  }
}

TEST(BitConsensus, AgreementUnderMixedInputs) {
  // Every input pattern of m = 4 at once: position p of a 16-bit stream
  // carries pattern p (node j's bit is bit j of p). Each position is decided
  // on its own, and all nodes agree on every one.
  constexpr std::size_t kPatterns = 16;
  std::vector<std::vector<bool>> in(4, std::vector<bool>(kPatterns));
  for (std::size_t p = 0; p < kPatterns; ++p) {
    for (std::size_t j = 0; j < 4; ++j) in[j][p] = (p >> j) & 1;
  }
  const auto outs = run_stream(4, kPatterns, in);
  ASSERT_TRUE(outs[0].ok());
  for (const auto& o : outs) {
    ASSERT_TRUE(o.ok());
    EXPECT_EQ(o.value(), outs[0].value());
  }
  for (std::size_t p = 0; p < kPatterns; ++p) {
    const int ones = std::popcount(static_cast<unsigned>(p));
    const bool expected = ones == 2 ? (p & 1) != 0 : ones > 2;
    EXPECT_EQ(outs[0].value()[p], expected) << "pattern " << p;
  }
}

TEST(BitConsensus, TieBrokenByLowestId) {
  // m = 4, two true / two false → tie → provider 0's bit wins, either way.
  for (const bool first : {true, false}) {
    const auto outs = run_bit_consensus(4, {first, !first, !first, first});
    for (const auto& o : outs) {
      ASSERT_TRUE(o.ok());
      EXPECT_EQ(o.value(), first);
    }
  }
}

TEST(BitConsensus, EquivocationDetected) {
  // Node 0 sends different votes to odd/even peers → every honest node ⊥.
  const auto outs = run_bit_consensus(5, std::vector<bool>(5, true), /*equivocator=*/0);
  int bottoms = 0;
  for (NodeId j = 1; j < 5; ++j) {
    if (outs[j].is_bottom()) {
      ++bottoms;
      EXPECT_EQ(outs[j].bottom().reason, AbortReason::kEquivocationDetected);
    }
  }
  EXPECT_EQ(bottoms, 4);
}

TEST(BitConsensus, DecisionIsSomeNodesInput) {
  // The decided bit was input by at least one provider (rational-consensus
  // condition (a)).
  for (std::uint64_t seed = 1; seed < 20; ++seed) {
    crypto::Rng rng(seed);
    std::vector<bool> inputs(5);
    for (auto&& b : inputs) b = rng.next_below(2) == 1;
    const auto outs = run_bit_consensus(5, inputs);
    ASSERT_TRUE(outs[0].ok());
    EXPECT_TRUE(std::find(inputs.begin(), inputs.end(), outs[0].value()) !=
                inputs.end());
  }
}

TEST(StreamConsensus, UnanimousStreams) {
  std::vector<bool> stream = {true, false, true, true, false, false, true, false,
                              true, true};
  const auto outs = run_stream(3, stream.size(), {stream, stream, stream});
  for (const auto& o : outs) {
    ASSERT_TRUE(o.ok());
    EXPECT_EQ(o.value(), stream);
  }
}

TEST(StreamConsensus, PerBitMajority) {
  // Bit 0: 2/3 true; bit 1: 1/3 true.
  std::vector<std::vector<bool>> in = {{true, true}, {true, false}, {false, false}};
  const auto outs = run_stream(3, 2, in);
  for (const auto& o : outs) {
    ASSERT_TRUE(o.ok());
    EXPECT_TRUE(o.value()[0]);
    EXPECT_FALSE(o.value()[1]);
  }
}

TEST(StreamConsensus, ShortInputZeroPadded) {
  std::vector<std::vector<bool>> in(3, std::vector<bool>{true});  // 1 of 8 bits
  const auto outs = run_stream(3, 8, in);
  for (const auto& o : outs) {
    ASSERT_TRUE(o.ok());
    EXPECT_TRUE(o.value()[0]);
    for (int b = 1; b < 8; ++b) EXPECT_FALSE(o.value()[b]);
  }
}

// ---------------------------------------------------------------------------

struct BatchedRun {
  std::vector<Outcome<std::vector<Bytes>>> outs;
  std::vector<bool> fell_back;
};

/// Drive m BatchedConsensus instances over a LocalNet; `deviant`'s sends go
/// through `strategy` when both are given.
BatchedRun run_batched_with(std::size_t m, std::size_t slots,
                            const std::vector<std::vector<Bytes>>& in,
                            NodeId deviant = kNoNode,
                            std::shared_ptr<adversary::DeviationStrategy> strategy = nullptr) {
  LocalNet net(m);
  std::unique_ptr<adversary::DeviantEndpoint> wrapped;
  std::vector<std::unique_ptr<BatchedConsensus>> nodes(m);
  for (NodeId j = 0; j < m; ++j) {
    blocks::Endpoint* ep = &net.endpoint(j);
    if (j == deviant && strategy) {
      wrapped = std::make_unique<adversary::DeviantEndpoint>(*ep, strategy);
      ep = wrapped.get();
    }
    nodes[j] = std::make_unique<BatchedConsensus>(*ep, "ba/b", slots);
    net.set_handler(j, [&, j](const net::Message& msg) { nodes[j]->handle(msg); });
  }
  for (NodeId j = 0; j < m; ++j) nodes[j]->start(in[j]);
  net.run();
  BatchedRun run;
  for (NodeId j = 0; j < m; ++j) {
    EXPECT_TRUE(nodes[j]->done()) << "node " << j << " did not decide";
    run.outs.push_back(nodes[j]->done()
                           ? *nodes[j]->result()
                           : Outcome<std::vector<Bytes>>(Bottom{AbortReason::kTimeout, ""}));
    run.fell_back.push_back(nodes[j]->fell_back());
  }
  return run;
}

std::vector<Outcome<std::vector<Bytes>>> run_batched(
    std::size_t m, std::size_t slots, const std::vector<std::vector<Bytes>>& in) {
  return run_batched_with(m, slots, in).outs;
}

TEST(BatchedConsensus, UnanimousSlots) {
  const std::vector<Bytes> slots = {{1, 2, 3}, {}, {9}};
  const auto outs = run_batched(3, 3, {slots, slots, slots});
  for (const auto& o : outs) {
    ASSERT_TRUE(o.ok());
    EXPECT_EQ(o.value(), slots);
  }
}

TEST(BatchedConsensus, MajoritySlotValueWins) {
  const Bytes a = {0xaa}, b = {0xbb};
  const auto outs = run_batched(3, 1, {{a}, {a}, {b}});
  for (const auto& o : outs) {
    ASSERT_TRUE(o.ok());
    EXPECT_EQ(o.value()[0], a);
  }
}

TEST(BatchedConsensus, NoMajorityFallsBackToEmpty) {
  const Bytes a = {0xaa}, b = {0xbb}, c = {0xcc};
  const auto outs = run_batched(3, 1, {{a}, {b}, {c}});
  for (const auto& o : outs) {
    ASSERT_TRUE(o.ok());
    EXPECT_TRUE(o.value()[0].empty());  // neutral fallback
  }
}

TEST(BatchedConsensus, PerSlotIndependence) {
  const Bytes a = {1}, b = {2}, c = {3};
  // Slot 0 unanimous; slot 1 majority; slot 2 split.
  const auto outs =
      run_batched(3, 3, {{a, a, a}, {a, a, b}, {a, b, c}});
  for (const auto& o : outs) {
    ASSERT_TRUE(o.ok());
    EXPECT_EQ(o.value()[0], a);
    EXPECT_EQ(o.value()[1], a);
    EXPECT_TRUE(o.value()[2].empty());
  }
}

/// The decision rule, spelled out: per slot, the value more than half of the
/// m votes carry, else empty.
std::vector<Bytes> majority_by_slot(const std::vector<std::vector<Bytes>>& votes) {
  std::vector<Bytes> out(votes[0].size());
  for (std::size_t s = 0; s < out.size(); ++s) {
    for (const auto& candidate : votes) {
      std::size_t count = 0;
      for (const auto& v : votes) count += v[s] == candidate[s];
      if (count * 2 > votes.size()) {
        out[s] = candidate[s];
        break;
      }
    }
  }
  return out;
}

TEST(BatchedConsensus, UnanimousAndSplitVoteSetsDecideByTheMajorityRule) {
  // Many slots, some empty: the unanimous set takes the digest-vote fast
  // path, the split set (one provider disagrees on every third slot, two on
  // every fifth) the fallback's per-slot grouping. Both must decide what the
  // rule says.
  constexpr std::size_t kM = 5, kSlots = 64;
  std::vector<Bytes> base(kSlots);
  for (std::size_t s = 0; s < kSlots; ++s) {
    if (s % 7 != 0) base[s] = Bytes(s % 11 + 1, static_cast<std::uint8_t>(s));
  }
  std::vector<std::vector<Bytes>> unanimous(kM, base);
  std::vector<std::vector<Bytes>> split(kM, base);
  for (std::size_t s = 0; s < kSlots; ++s) {
    if (s % 3 == 0) split[1][s] = Bytes{0xee};
    if (s % 5 == 0) {
      split[2][s] = Bytes{0xdd};
      split[4][s] = Bytes{0xcc, static_cast<std::uint8_t>(s)};
    }
  }
  for (const auto* votes : {&unanimous, &split}) {
    const std::vector<Bytes> expected = majority_by_slot(*votes);
    for (const auto& o : run_batched(kM, kSlots, *votes)) {
      ASSERT_TRUE(o.ok());
      EXPECT_EQ(o.value(), expected);
    }
  }
  // Slots 15, 30, 45 and 60 split 2-1-1-1 and fall back to empty.
  EXPECT_EQ(majority_by_slot(unanimous), base);
  EXPECT_TRUE(majority_by_slot(split)[15].empty());
}

TEST(BatchedConsensus, RandomVoteSetsMatchTheReferenceRule) {
  // Differential: seeded random vote sets of four shapes per m, each decided
  // by the digest vote (unanimous) or its fallback (the rest), against
  // majority_by_slot. The fast path is taken exactly when every vector is
  // the same.
  enum class Shape { kUnanimous, kMajority, kSplit, kNoMajority };
  for (const std::size_t m : {3, 4, 5, 7, 8}) {
    for (const Shape shape :
         {Shape::kUnanimous, Shape::kMajority, Shape::kSplit, Shape::kNoMajority}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        crypto::Rng rng(seed * 100 + m);
        const std::size_t slots = 1 + rng.next_below(24);
        auto value = [&] {
          Bytes v(rng.next_below(4));  // empty slots included
          for (auto& b : v) b = static_cast<std::uint8_t>(rng.next_below(3));
          return v;
        };
        std::vector<Bytes> base(slots);
        for (auto& v : base) v = value();
        std::vector<std::vector<Bytes>> votes(m, base);
        const std::size_t minority = (m - 1) / 2;  // largest set a majority outvotes
        for (std::size_t s = 0; s < slots; ++s) {
          switch (shape) {
            case Shape::kUnanimous:
              break;
            case Shape::kMajority:  // up to (m−1)/2 providers disagree
              for (std::size_t j = 0; j < minority; ++j) {
                if (rng.next_below(2)) votes[rng.next_below(m)][s] = value();
              }
              break;
            case Shape::kSplit:  // every provider draws its own value
              for (auto& v : votes) v[s] = value();
              break;
            case Shape::kNoMajority:  // m distinct values
              for (std::size_t j = 0; j < m; ++j) {
                votes[j][s] = Bytes{0xf0, static_cast<std::uint8_t>(j)};
              }
              break;
          }
        }
        const bool identical =
            std::all_of(votes.begin(), votes.end(), [&](const auto& v) { return v == votes[0]; });
        const std::vector<Bytes> expected = majority_by_slot(votes);
        const auto run = run_batched_with(m, slots, votes);
        for (NodeId j = 0; j < m; ++j) {
          ASSERT_TRUE(run.outs[j].ok()) << "m=" << m << " seed=" << seed;
          EXPECT_EQ(run.outs[j].value(), expected) << "m=" << m << " seed=" << seed;
          EXPECT_EQ(run.fell_back[j], !identical) << "m=" << m << " seed=" << seed;
        }
        if (shape == Shape::kNoMajority) {
          for (const Bytes& v : expected) EXPECT_TRUE(v.empty());
        }
      }
    }
  }
}

TEST(BatchedConsensus, MisvotingProviderForcesTheFallbackButIsOutvoted) {
  // The same forged vote to every receiver: echoes agree, nothing is
  // detected, and the fallback's per-slot majority ignores the forgery.
  const std::vector<Bytes> slots = {{1, 2, 3}, {}, {9}};
  const auto run = run_batched_with(5, 3, std::vector<std::vector<Bytes>>(5, slots),
                                    /*deviant=*/2, adversary::misvote());
  for (NodeId j = 0; j < 5; ++j) {
    ASSERT_TRUE(run.outs[j].ok()) << "node " << j;
    EXPECT_EQ(run.outs[j].value(), slots);
    EXPECT_TRUE(run.fell_back[j]);
  }
}

TEST(BatchedConsensus, EquivocatedDigestVoteIsBottom) {
  const std::vector<Bytes> slots = {{1}, {2}};
  const auto run = run_batched_with(5, 2, std::vector<std::vector<Bytes>>(5, slots),
                                    /*deviant=*/0, adversary::equivocate_votes());
  for (NodeId j = 1; j < 5; ++j) {
    ASSERT_TRUE(run.outs[j].is_bottom()) << "node " << j;
    EXPECT_EQ(run.outs[j].bottom().reason, AbortReason::kEquivocationDetected);
    EXPECT_FALSE(run.fell_back[j]);
  }
}

/// Equivocates only in the fallback vote round: the digest vote is honest.
class EquivocateFallbackVote final : public adversary::DeviationStrategy {
 public:
  std::string name() const override { return "equivocate-fallback-vote"; }
  std::optional<SharedBytes> on_send(NodeId, NodeId to, const std::string& topic,
                                     const SharedBytes& payload) override {
    const std::string leaf = "/full/v";
    if (to % 2 == 0 || topic.size() < leaf.size() ||
        topic.compare(topic.size() - leaf.size(), leaf.size(), leaf) != 0) {
      return payload;
    }
    Bytes forged = payload.to_bytes();
    forged.back() ^= 0x01;
    return forged;
  }
};

TEST(BatchedConsensus, EquivocationInTheFallbackVoteIsBottom) {
  // Differing inputs force the fallback; there provider 0 sends odd
  // receivers a different vector than even ones, which the fallback's echoes
  // expose.
  const Bytes a = {0xaa}, b = {0xbb};
  const auto run = run_batched_with(5, 1, {{a}, {a}, {a}, {b}, {b}},
                                    /*deviant=*/0, std::make_shared<EquivocateFallbackVote>());
  for (NodeId j = 1; j < 5; ++j) {
    ASSERT_TRUE(run.outs[j].is_bottom()) << "node " << j;
    EXPECT_EQ(run.outs[j].bottom().reason, AbortReason::kEquivocationDetected);
    EXPECT_TRUE(run.fell_back[j]);
  }
}

/// Endpoint whose sends wait in a shared queue until the test delivers them,
/// in whatever order it likes.
class QueuedEndpoint final : public blocks::Endpoint {
 public:
  QueuedEndpoint(NodeId self, std::size_t m, std::vector<net::Message>& queue)
      : self_(self), m_(m), queue_(queue), rng_(self + 1) {}
  NodeId self() const override { return self_; }
  std::size_t num_providers() const override { return m_; }
  crypto::Rng& rng() override { return rng_; }
  void send(NodeId to, const net::Topic& topic, SharedBytes payload) override {
    net::Message msg;
    msg.from = self_;
    msg.to = to;
    msg.topic = topic;
    msg.payload = std::move(payload);
    queue_.push_back(std::move(msg));
  }

 private:
  NodeId self_;
  std::size_t m_;
  std::vector<net::Message>& queue_;
  crypto::Rng rng_;
};

TEST(BatchedConsensus, EarlyFallbackVotesAreKeptAndCounted) {
  // Providers 0 and 1 finish the digest round and cast their fallback votes
  // while provider 2 still waits for their digest echoes. Provider 2 gets
  // those fallback votes before its echo round completes and must keep
  // them: nobody sends them again.
  constexpr std::size_t kM = 3;
  const Bytes a = {0xaa}, b = {0xbb};
  const std::vector<std::vector<Bytes>> in = {{a}, {a}, {b}};
  std::vector<net::Message> queue;
  std::vector<std::unique_ptr<QueuedEndpoint>> eps;
  std::vector<std::unique_ptr<BatchedConsensus>> nodes;
  for (NodeId j = 0; j < kM; ++j) {
    eps.push_back(std::make_unique<QueuedEndpoint>(j, kM, queue));
    nodes.push_back(std::make_unique<BatchedConsensus>(*eps[j], "ba/b", 1));
  }
  for (NodeId j = 0; j < kM; ++j) nodes[j]->start(in[j]);
  auto drain = [&](auto hold) {
    std::vector<net::Message> held;
    while (!queue.empty()) {
      net::Message msg = std::move(queue.front());
      queue.erase(queue.begin());
      if (hold(msg)) {
        held.push_back(std::move(msg));
      } else {
        ASSERT_TRUE(nodes[msg.to]->handle(msg));
      }
    }
    queue = std::move(held);
  };

  // Hold every digest echo addressed to provider 2; deliver the rest.
  std::size_t early_full_votes = 0;
  drain([&](const net::Message& msg) {
    if (msg.to != 2) return false;
    if (msg.topic.str() == "ba/b/full/v") ++early_full_votes;
    return msg.topic.str() == "ba/b/e";
  });
  EXPECT_EQ(early_full_votes, 2u);
  ASSERT_TRUE(nodes[0]->fell_back());
  ASSERT_TRUE(nodes[1]->fell_back());
  ASSERT_FALSE(nodes[2]->fell_back());
  ASSERT_FALSE(nodes[2]->done());

  drain([](const net::Message&) { return false; });
  for (NodeId j = 0; j < kM; ++j) {
    ASSERT_TRUE(nodes[j]->done()) << "node " << j;
    ASSERT_TRUE(nodes[j]->result()->ok()) << "node " << j;
    EXPECT_EQ(nodes[j]->result()->value(), std::vector<Bytes>{a});
    EXPECT_TRUE(nodes[j]->fell_back());
  }
}

}  // namespace
}  // namespace dauct::consensus
