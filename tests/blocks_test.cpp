#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "adversary/provider_deviation.hpp"
#include "blocks/bid_agreement.hpp"
#include "blocks/common_coin.hpp"
#include "blocks/data_transfer.hpp"
#include "blocks/input_validation.hpp"
#include "blocks/output_agreement.hpp"
#include "test_util.hpp"

namespace dauct::blocks {
namespace {

using testutil::LocalNet;

TEST(TopicUtil, JoinAndPrefix) {
  EXPECT_EQ(topic_join("ba", "vote"), "ba/vote");
  EXPECT_TRUE(topic_has_prefix("ba/vote", "ba"));
  EXPECT_TRUE(topic_has_prefix("ba", "ba"));
  EXPECT_FALSE(topic_has_prefix("bank/vote", "ba"));
  EXPECT_FALSE(topic_has_prefix("b", "ba"));
}

TEST(RoundCollector, CollectsOnePerProvider) {
  RoundCollector rc(3);
  EXPECT_FALSE(rc.complete());
  EXPECT_TRUE(rc.add(0, Bytes{1}));
  EXPECT_FALSE(rc.add(0, Bytes{2}));  // duplicate
  EXPECT_FALSE(rc.add(7, Bytes{3}));  // out of range
  EXPECT_TRUE(rc.add(2, Bytes{4}));
  EXPECT_TRUE(rc.add(1, Bytes{5}));
  EXPECT_TRUE(rc.complete());
  EXPECT_EQ(rc.payloads()[2], Bytes{4});
}

// ---------------------------------------------------------------------------
// Input validation
// ---------------------------------------------------------------------------

std::vector<Outcome<Bytes>> run_iv(std::size_t m, const std::vector<Bytes>& inputs) {
  LocalNet net(m);
  std::vector<std::unique_ptr<InputValidation>> nodes(m);
  for (NodeId j = 0; j < m; ++j) {
    nodes[j] = std::make_unique<InputValidation>(net.endpoint(j), "alloc/iv");
    net.set_handler(j, [&, j](const net::Message& msg) { nodes[j]->handle(msg); });
  }
  for (NodeId j = 0; j < m; ++j) nodes[j]->start(inputs[j]);
  net.run();
  std::vector<Outcome<Bytes>> outs;
  for (NodeId j = 0; j < m; ++j) {
    EXPECT_TRUE(nodes[j]->done());
    outs.push_back(*nodes[j]->result());
  }
  return outs;
}

TEST(InputValidation, SameInputPasses) {
  const Bytes input = {1, 2, 3};
  const auto outs = run_iv(4, std::vector<Bytes>(4, input));
  for (const auto& o : outs) {
    ASSERT_TRUE(o.ok());
    EXPECT_EQ(o.value(), input);
  }
}

TEST(InputValidation, DifferentInputAborts) {
  std::vector<Bytes> inputs(4, Bytes{1, 2, 3});
  inputs[2] = {9, 9};
  const auto outs = run_iv(4, inputs);
  for (const auto& o : outs) {
    ASSERT_TRUE(o.is_bottom());
    EXPECT_EQ(o.bottom().reason, AbortReason::kInputMismatch);
  }
}

TEST(InputValidation, EmptyInputsStillAgree) {
  const auto outs = run_iv(3, std::vector<Bytes>(3));
  for (const auto& o : outs) EXPECT_TRUE(o.ok());
}

// ---------------------------------------------------------------------------
// Common coin
// ---------------------------------------------------------------------------

std::vector<Outcome<CoinValue>> run_coin(std::size_t m, const DistributionSpec& spec,
                                         std::uint64_t seed = 7,
                                         NodeId corrupt = kNoNode) {
  LocalNet net(m, seed);
  std::vector<std::unique_ptr<adversary::DeviantEndpoint>> deviants(m);
  std::vector<std::unique_ptr<CommonCoin>> nodes(m);
  for (NodeId j = 0; j < m; ++j) {
    blocks::Endpoint* ep = &net.endpoint(j);
    if (j == corrupt) {
      deviants[j] = std::make_unique<adversary::DeviantEndpoint>(
          *ep, adversary::corrupt_coin_reveal());
      ep = deviants[j].get();
    }
    nodes[j] = std::make_unique<CommonCoin>(*ep, "alloc/coin");
    net.set_handler(j, [&, j](const net::Message& msg) { nodes[j]->handle(msg); });
  }
  for (NodeId j = 0; j < m; ++j) nodes[j]->start(spec);
  net.run();
  std::vector<Outcome<CoinValue>> outs;
  for (NodeId j = 0; j < m; ++j) {
    EXPECT_TRUE(nodes[j]->done());
    outs.push_back(*nodes[j]->result());
  }
  return outs;
}

TEST(CommonCoin, AllProvidersSameValue) {
  const auto outs = run_coin(5, DistributionSpec::seed64());
  ASSERT_TRUE(outs[0].ok());
  for (const auto& o : outs) {
    ASSERT_TRUE(o.ok());
    EXPECT_EQ(o.value().raw, outs[0].value().raw);
  }
}

TEST(CommonCoin, DifferentSeedsDifferentValues) {
  const auto a = run_coin(3, DistributionSpec::seed64(), 1);
  const auto b = run_coin(3, DistributionSpec::seed64(), 2);
  ASSERT_TRUE(a[0].ok());
  ASSERT_TRUE(b[0].ok());
  EXPECT_NE(a[0].value().raw, b[0].value().raw);
}

TEST(CommonCoin, UniformIntInRange) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto outs = run_coin(3, DistributionSpec::uniform_int(5, 9), seed);
    ASSERT_TRUE(outs[0].ok());
    EXPECT_GE(outs[0].value().integer, 5);
    EXPECT_LE(outs[0].value().integer, 9);
  }
}

TEST(CommonCoin, Uniform01InRange) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto outs = run_coin(3, DistributionSpec::uniform01(), seed);
    ASSERT_TRUE(outs[0].ok());
    EXPECT_GE(outs[0].value().real, 0.0);
    EXPECT_LT(outs[0].value().real, 1.0);
  }
}

TEST(CommonCoin, ExponentialNonNegative) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto outs = run_coin(3, DistributionSpec::exponential(2.0), seed);
    ASSERT_TRUE(outs[0].ok());
    EXPECT_GE(outs[0].value().real, 0.0);
  }
}

TEST(CommonCoin, RoughlyUniformAcrossRuns) {
  // χ²-ish sanity: bucket the raw coin over many seeds.
  std::array<int, 8> buckets{};
  const int runs = 160;
  for (int seed = 1; seed <= runs; ++seed) {
    const auto outs = run_coin(3, DistributionSpec::seed64(), seed);
    ASSERT_TRUE(outs[0].ok());
    ++buckets[outs[0].value().raw >> 61];
  }
  for (int count : buckets) {
    EXPECT_GT(count, runs / 8 / 3);  // no bucket starved
    EXPECT_LT(count, runs / 8 * 3);  // no bucket dominating
  }
}

TEST(CommonCoin, CorruptRevealAborts) {
  const auto outs = run_coin(4, DistributionSpec::seed64(), 7, /*corrupt=*/1);
  for (NodeId j = 0; j < 4; ++j) {
    if (j == 1) continue;  // the deviant's own state is its business
    ASSERT_TRUE(outs[j].is_bottom()) << j;
    EXPECT_EQ(outs[j].bottom().reason, AbortReason::kInvalidCommitment);
  }
}

// ---------------------------------------------------------------------------
// Data transfer
// ---------------------------------------------------------------------------

struct DtRun {
  std::vector<Outcome<Bytes>> outs;
};

DtRun run_dt(std::size_t m, std::vector<NodeId> sources, std::vector<NodeId> receivers,
             const Bytes& value, NodeId forger = kNoNode) {
  LocalNet net(m);
  std::vector<std::unique_ptr<adversary::DeviantEndpoint>> deviants(m);
  std::vector<std::unique_ptr<DataTransfer>> nodes(m);
  std::vector<NodeId> coalition;
  if (forger != kNoNode) coalition.push_back(forger);
  for (NodeId j = 0; j < m; ++j) {
    blocks::Endpoint* ep = &net.endpoint(j);
    if (j == forger) {
      deviants[j] = std::make_unique<adversary::DeviantEndpoint>(
          *ep, adversary::forge_task_results(coalition));
      ep = deviants[j].get();
    }
    nodes[j] = std::make_unique<DataTransfer>(*ep, "alloc/dt/0", sources, receivers);
    net.set_handler(j, [&, j](const net::Message& msg) { nodes[j]->handle(msg); });
  }
  for (NodeId j = 0; j < m; ++j) {
    const bool is_src =
        std::find(sources.begin(), sources.end(), j) != sources.end();
    nodes[j]->start(is_src ? std::optional<Bytes>(value) : std::nullopt);
  }
  net.run();
  DtRun run;
  for (NodeId j = 0; j < m; ++j) {
    EXPECT_TRUE(nodes[j]->done()) << j;
    run.outs.push_back(nodes[j]->done()
                           ? *nodes[j]->result()
                           : Outcome<Bytes>(Bottom{AbortReason::kTimeout, ""}));
  }
  return run;
}

TEST(DataTransfer, DeliversToReceivers) {
  const Bytes value = {1, 2, 3, 4};
  const auto run = run_dt(5, {0, 1}, {2, 3, 4}, value);
  for (NodeId j = 2; j < 5; ++j) {
    ASSERT_TRUE(run.outs[j].ok());
    EXPECT_EQ(run.outs[j].value(), value);
  }
}

TEST(DataTransfer, SourcesCompleteImmediately) {
  const auto run = run_dt(4, {0, 1}, {2, 3}, Bytes{7});
  EXPECT_TRUE(run.outs[0].ok());
  EXPECT_TRUE(run.outs[1].ok());
}

TEST(DataTransfer, SourceAlsoReceiverCrossChecks) {
  const Bytes value = {42};
  const auto run = run_dt(3, {0, 1}, {0, 1, 2}, value);
  for (NodeId j = 0; j < 3; ++j) {
    ASSERT_TRUE(run.outs[j].ok());
  }
  EXPECT_EQ(run.outs[2].value(), value);
}

TEST(DataTransfer, ForgedCopyDetected) {
  // Source 1 forges the value it sends to non-coalition receivers: every
  // receiver sees two different copies → ⊥ (|S| > k makes forgery visible).
  const auto run = run_dt(5, {0, 1}, {2, 3, 4}, Bytes{1, 2, 3}, /*forger=*/1);
  for (NodeId j = 2; j < 5; ++j) {
    ASSERT_TRUE(run.outs[j].is_bottom()) << j;
    EXPECT_EQ(run.outs[j].bottom().reason, AbortReason::kTransferMismatch);
  }
}

TEST(DataTransfer, ValueFromNonSourceAborts) {
  LocalNet net(3);
  DataTransfer node2(net.endpoint(2), "alloc/dt/0", {0}, {2});
  net.set_handler(2, [&](const net::Message& msg) { node2.handle(msg); });
  // Node 1 (not a source) injects a value.
  net.endpoint(1).send(2, "alloc/dt/0/val", Bytes{9});
  net.run();
  ASSERT_TRUE(node2.done());
  EXPECT_TRUE(node2.result()->is_bottom());
}

// ---------------------------------------------------------------------------
// Output agreement
// ---------------------------------------------------------------------------

std::vector<Outcome<Bytes>> run_oa(std::size_t m, const std::vector<Bytes>& results) {
  LocalNet net(m);
  std::vector<std::unique_ptr<OutputAgreement>> nodes(m);
  for (NodeId j = 0; j < m; ++j) {
    nodes[j] = std::make_unique<OutputAgreement>(net.endpoint(j), "alloc/out");
    net.set_handler(j, [&, j](const net::Message& msg) { nodes[j]->handle(msg); });
  }
  for (NodeId j = 0; j < m; ++j) nodes[j]->start(results[j]);
  net.run();
  std::vector<Outcome<Bytes>> outs;
  for (NodeId j = 0; j < m; ++j) {
    EXPECT_TRUE(nodes[j]->done());
    outs.push_back(*nodes[j]->result());
  }
  return outs;
}

TEST(OutputAgreement, IdenticalResultsPass) {
  const Bytes result = {5, 5, 5};
  const auto outs = run_oa(4, std::vector<Bytes>(4, result));
  for (const auto& o : outs) {
    ASSERT_TRUE(o.ok());
    EXPECT_EQ(o.value(), result);
  }
}

TEST(OutputAgreement, DivergentResultAborts) {
  std::vector<Bytes> results(4, Bytes{5, 5, 5});
  results[3] = {6};
  const auto outs = run_oa(4, results);
  for (const auto& o : outs) {
    ASSERT_TRUE(o.is_bottom());
    EXPECT_EQ(o.bottom().reason, AbortReason::kOutputMismatch);
  }
}

// ---------------------------------------------------------------------------
// Block floors: the coordination cost every distributed run pays
// ---------------------------------------------------------------------------

/// Virtual ns one invocation of a block takes on the community network
/// model (zero handler cost, so the figure is deterministic): the latest
/// provider clock once the run drains.
template <typename Block>
sim::SimTime block_floor_ns(
    std::size_t m, std::uint64_t seed,
    const std::function<std::unique_ptr<Block>(Endpoint&)>& make,
    const std::function<void(Block&, NodeId)>& start) {
  LocalNet net(m, seed, sim::LatencyModel::community());
  std::vector<std::unique_ptr<Block>> nodes(m);
  for (NodeId j = 0; j < m; ++j) {
    nodes[j] = make(net.endpoint(j));
    net.set_handler(j, [&, j](const net::Message& msg) { nodes[j]->handle(msg); });
  }
  for (NodeId j = 0; j < m; ++j) start(*nodes[j], j);
  net.run();
  sim::SimTime last = 0;
  for (NodeId j = 0; j < m; ++j) {
    EXPECT_TRUE(nodes[j]->done()) << "m=" << m << " provider " << j;
    last = std::max(last, net.scheduler().clock(j));
  }
  return last;
}

TEST(BlockFloors, CoinOutlastsValidationAndTransferAtEveryProviderCount) {
  // These rounds ship digest-sized or small payloads, so a block's time is
  // its round count times the link latency, nearly flat in m: the small-n
  // plateau of Figs. 4-5. The common coin (commit, then reveal) takes two
  // rounds; input validation and a k+1 = 2-source data transfer take one.
  const Bytes payload(512, 0xab);  // a representative task result
  struct Floor {
    std::size_t m;
    sim::SimTime validation, coin, transfer;
  };
  const Floor pinned[] = {
      {3, 3092564, 6000002, 4100574},
      {8, 3092564, 6139463, 4116693},
      {16, 3136450, 6240320, 4096586},
  };
  std::vector<Floor> measured;
  for (const Floor& f : pinned) {
    Floor got{f.m, 0, 0, 0};
    got.validation = block_floor_ns<InputValidation>(
        f.m, 11, [](Endpoint& ep) { return std::make_unique<InputValidation>(ep, "iv"); },
        [&](InputValidation& b, NodeId) { b.start(payload); });
    got.coin = block_floor_ns<CommonCoin>(
        f.m, 13, [](Endpoint& ep) { return std::make_unique<CommonCoin>(ep, "coin"); },
        [](CommonCoin& b, NodeId) { b.start(DistributionSpec::seed64()); });
    std::vector<NodeId> receivers(f.m);
    for (NodeId j = 0; j < f.m; ++j) receivers[j] = j;
    got.transfer = block_floor_ns<DataTransfer>(
        f.m, 17,
        [&](Endpoint& ep) {
          return std::make_unique<DataTransfer>(ep, "dt", std::vector<NodeId>{0, 1},
                                                receivers);
        },
        [&](DataTransfer& b, NodeId j) {
          b.start(j < 2 ? std::optional<Bytes>(payload) : std::nullopt);
        });
    EXPECT_EQ(got.validation, f.validation) << "m=" << f.m;
    EXPECT_EQ(got.coin, f.coin) << "m=" << f.m;
    EXPECT_EQ(got.transfer, f.transfer) << "m=" << f.m;
    EXPECT_GT(got.coin, got.validation) << "m=" << f.m;
    EXPECT_GT(got.coin, got.transfer) << "m=" << f.m;
    measured.push_back(got);
  }
  // Each block's time varies by at most 10% across m.
  for (auto field : {&Floor::validation, &Floor::coin, &Floor::transfer}) {
    sim::SimTime lo = measured[0].*field, hi = lo;
    for (const Floor& f : measured) {
      lo = std::min(lo, f.*field);
      hi = std::max(hi, f.*field);
    }
    EXPECT_LE(static_cast<double>(hi), 1.10 * static_cast<double>(lo));
  }
}

// ---------------------------------------------------------------------------
// Bid agreement (both modes)
// ---------------------------------------------------------------------------

class BidAgreementModes : public ::testing::TestWithParam<AgreementMode> {};

std::vector<Outcome<std::vector<auction::Bid>>> run_ba(
    std::size_t m, AgreementMode mode,
    const std::vector<std::vector<auction::Bid>>& per_provider_bids,
    std::size_t num_bidders) {
  LocalNet net(m);
  auction::BidLimits limits;
  std::vector<std::unique_ptr<BidAgreement>> nodes(m);
  for (NodeId j = 0; j < m; ++j) {
    nodes[j] =
        std::make_unique<BidAgreement>(net.endpoint(j), "ba", num_bidders, limits, mode);
    net.set_handler(j, [&, j](const net::Message& msg) { nodes[j]->handle(msg); });
  }
  for (NodeId j = 0; j < m; ++j) nodes[j]->start(per_provider_bids[j]);
  net.run();
  std::vector<Outcome<std::vector<auction::Bid>>> outs;
  for (NodeId j = 0; j < m; ++j) {
    EXPECT_TRUE(nodes[j]->done()) << "provider " << j;
    outs.push_back(*nodes[j]->result());
  }
  return outs;
}

TEST_P(BidAgreementModes, ValidityForConsistentBidders) {
  const std::size_t m = 3, n = 4;
  std::vector<auction::Bid> bids;
  for (BidderId i = 0; i < n; ++i) {
    bids.push_back({i, Money::from_double(0.8 + 0.1 * i), Money::from_double(0.5)});
  }
  const auto outs = run_ba(m, GetParam(), std::vector(m, bids), n);
  for (const auto& o : outs) {
    ASSERT_TRUE(o.ok());
    EXPECT_EQ(o.value(), bids);  // every consistent bid survives verbatim
  }
}

TEST_P(BidAgreementModes, AgreementUnderEquivocatingBidder) {
  const std::size_t m = 5, n = 3;
  std::vector<auction::Bid> base;
  for (BidderId i = 0; i < n; ++i) {
    base.push_back({i, Money::from_double(1.0), Money::from_double(0.5)});
  }
  // Bidder 1 told providers 0-1 one thing and providers 2-4 another.
  std::vector<std::vector<auction::Bid>> per_provider(m, base);
  for (NodeId j = 0; j < 2; ++j) {
    per_provider[j][1].unit_value = Money::from_double(0.6);
  }
  const auto outs = run_ba(m, GetParam(), per_provider, n);
  ASSERT_TRUE(outs[0].ok());
  for (const auto& o : outs) {
    ASSERT_TRUE(o.ok());
    EXPECT_EQ(o.value(), outs[0].value());  // agreement regardless
    // Consistent bidders keep their bids (validity).
    EXPECT_EQ(o.value()[0], base[0]);
    EXPECT_EQ(o.value()[2], base[2]);
  }
  // The majority view (providers 2-4) wins for bidder 1 in all modes.
  EXPECT_EQ(outs[0].value()[1].unit_value, Money::from_double(1.0));
}

TEST_P(BidAgreementModes, MissingBidderBecomesNeutral) {
  const std::size_t m = 3, n = 2;
  std::vector<auction::Bid> bids = {
      {0, Money::from_double(1.0), Money::from_double(0.5)},
      auction::neutral_bid(1),
  };
  const auto outs = run_ba(m, GetParam(), std::vector(m, bids), n);
  for (const auto& o : outs) {
    ASSERT_TRUE(o.ok());
    EXPECT_TRUE(o.value()[1].is_neutral());
  }
}

TEST_P(BidAgreementModes, ShortInputVectorPaddedWithNeutral) {
  const std::size_t m = 3, n = 3;
  std::vector<auction::Bid> bids = {
      {0, Money::from_double(1.0), Money::from_double(0.5)}};  // only bidder 0
  const auto outs = run_ba(m, GetParam(), std::vector(m, bids), n);
  for (const auto& o : outs) {
    ASSERT_TRUE(o.ok());
    ASSERT_EQ(o.value().size(), n);
    EXPECT_TRUE(o.value()[1].is_neutral());
    EXPECT_TRUE(o.value()[2].is_neutral());
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, BidAgreementModes,
                         ::testing::Values(AgreementMode::kValueBatched,
                                           AgreementMode::kBitStream),
                         [](const auto& info) {
                           return info.param == AgreementMode::kBitStream
                                      ? "BitStream"
                                      : "ValueBatched";
                         });

}  // namespace
}  // namespace dauct::blocks
