#include <gtest/gtest.h>

#include "adversary/provider_deviation.hpp"
#include "consensus/batched_consensus.hpp"
#include "consensus/bit_consensus.hpp"
#include "consensus/stream_consensus.hpp"
#include "test_util.hpp"

namespace dauct::consensus {
namespace {

using testutil::LocalNet;

// Drive m BitConsensus instances to completion over a LocalNet.
std::vector<Outcome<bool>> run_bit_consensus(std::size_t m,
                                             const std::vector<bool>& inputs,
                                             NodeId equivocator = kNoNode) {
  LocalNet net(m);
  std::vector<std::unique_ptr<adversary::DeviantEndpoint>> deviants(m);
  std::vector<std::unique_ptr<BitConsensus>> nodes(m);
  for (NodeId j = 0; j < m; ++j) {
    blocks::Endpoint* ep = &net.endpoint(j);
    if (j == equivocator) {
      deviants[j] = std::make_unique<adversary::DeviantEndpoint>(
          *ep, adversary::equivocate_votes());
      ep = deviants[j].get();
    }
    nodes[j] = std::make_unique<BitConsensus>(*ep, "ba/t");
    net.set_handler(j, [&, j](const net::Message& msg) { nodes[j]->handle(msg); });
  }
  for (NodeId j = 0; j < m; ++j) nodes[j]->start(inputs[j]);
  net.run();

  std::vector<Outcome<bool>> outs;
  for (NodeId j = 0; j < m; ++j) {
    EXPECT_TRUE(nodes[j]->done()) << "node " << j << " did not decide";
    outs.push_back(nodes[j]->done() ? *nodes[j]->result()
                                    : Outcome<bool>(Bottom{AbortReason::kTimeout, ""}));
  }
  return outs;
}

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
  for (std::uint64_t pattern = 0; pattern < 16; ++pattern) {
    std::vector<bool> inputs(4);
    for (int j = 0; j < 4; ++j) inputs[j] = (pattern >> j) & 1;
    const auto outs = run_bit_consensus(4, inputs);
    ASSERT_TRUE(outs[0].ok());
    for (const auto& o : outs) {
      ASSERT_TRUE(o.ok());
      EXPECT_EQ(o.value(), outs[0].value()) << "pattern " << pattern;
    }
  }
}

TEST(BitConsensus, TieBrokenByLowestId) {
  // m = 4, two true / two false → tie → provider 0's bit wins.
  const auto outs = run_bit_consensus(4, {true, false, false, true});
  for (const auto& o : outs) {
    ASSERT_TRUE(o.ok());
    EXPECT_TRUE(o.value());
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

// ---------------------------------------------------------------------------

std::vector<Outcome<std::vector<bool>>> run_stream(std::size_t m, std::size_t bits,
                                                   const std::vector<std::vector<bool>>& in) {
  LocalNet net(m);
  std::vector<std::unique_ptr<StreamConsensus>> nodes(m);
  for (NodeId j = 0; j < m; ++j) {
    nodes[j] = std::make_unique<StreamConsensus>(net.endpoint(j), "ba/s", bits);
    net.set_handler(j, [&, j](const net::Message& msg) { nodes[j]->handle(msg); });
  }
  for (NodeId j = 0; j < m; ++j) nodes[j]->start(in[j]);
  net.run();
  std::vector<Outcome<std::vector<bool>>> outs;
  for (NodeId j = 0; j < m; ++j) {
    EXPECT_TRUE(nodes[j]->done());
    outs.push_back(*nodes[j]->result());
  }
  return outs;
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

std::vector<Outcome<std::vector<Bytes>>> run_batched(
    std::size_t m, std::size_t slots, const std::vector<std::vector<Bytes>>& in) {
  LocalNet net(m);
  std::vector<std::unique_ptr<BatchedConsensus>> nodes(m);
  for (NodeId j = 0; j < m; ++j) {
    nodes[j] = std::make_unique<BatchedConsensus>(net.endpoint(j), "ba/b", slots);
    net.set_handler(j, [&, j](const net::Message& msg) { nodes[j]->handle(msg); });
  }
  for (NodeId j = 0; j < m; ++j) nodes[j]->start(in[j]);
  net.run();
  std::vector<Outcome<std::vector<Bytes>>> outs;
  for (NodeId j = 0; j < m; ++j) {
    EXPECT_TRUE(nodes[j]->done());
    outs.push_back(*nodes[j]->result());
  }
  return outs;
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
  // Many slots, some empty: the unanimous set takes the one-decode fast path,
  // the split set (one provider disagrees on every third slot, two on every
  // fifth) the per-slot grouping. Both must decide what the rule says.
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

}  // namespace
}  // namespace dauct::consensus
