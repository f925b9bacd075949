// Unit tests of the ProviderEngine: ask exchange, abort fan-out, message
// hygiene (stragglers, duplicates, malformed asks) — driving engines directly
// over a LocalNet.
#include <gtest/gtest.h>

#include "auction/double_auction.hpp"
#include "core/adapters.hpp"
#include "core/provider_engine.hpp"
#include "serde/codec.hpp"
#include "test_util.hpp"

namespace dauct::core {
namespace {

using testutil::LocalNet;

struct EngineSet {
  LocalNet net;
  DoubleAuctionAdapter adapter;
  std::vector<std::unique_ptr<ProviderEngine>> engines;
  auction::AuctionInstance instance;

  EngineSet(std::size_t m, std::size_t k, std::size_t n, std::uint64_t seed = 3)
      : net(m, seed), instance(testutil::make_instance(n, m, seed)) {
    EngineConfig cfg;
    cfg.m = m;
    cfg.k = k;
    cfg.num_bidders = n;
    for (NodeId j = 0; j < m; ++j) {
      engines.push_back(std::make_unique<ProviderEngine>(net.endpoint(j), cfg,
                                                         adapter, instance.asks[j]));
      auto* engine = engines.back().get();
      net.set_handler(j, [engine](const net::Message& msg) { engine->on_message(msg); });
    }
  }

  void start_all() {
    for (auto& e : engines) e->start(instance.bids);
  }
};

TEST(ProviderEngine, HappyPathMatchesReference) {
  EngineSet set(4, 1, 8);
  set.start_all();
  set.net.run();
  const auto reference = auction::run_double_auction(set.instance);
  for (const auto& e : set.engines) {
    ASSERT_TRUE(e->done());
    ASSERT_TRUE(e->outcome()->ok());
    EXPECT_EQ(e->outcome()->value(), reference);
  }
}

TEST(ProviderEngine, AgreedBidsExposed) {
  EngineSet set(3, 1, 5);
  set.start_all();
  set.net.run();
  for (const auto& e : set.engines) {
    ASSERT_TRUE(e->agreed_bids().has_value());
    EXPECT_EQ(*e->agreed_bids(), set.instance.bids);
  }
}

TEST(ProviderEngine, RejectsConfigWithTooSmallM) {
  LocalNet net(2);
  DoubleAuctionAdapter adapter;
  EngineConfig cfg;
  cfg.m = 2;
  cfg.k = 1;  // m ≤ 2k
  cfg.num_bidders = 3;
  EXPECT_THROW(ProviderEngine(net.endpoint(0), cfg, adapter, auction::Ask{0, {}, {}}),
               std::invalid_argument);
}

TEST(ProviderEngine, MalformedAskAborts) {
  EngineSet set(3, 1, 5);
  set.start_all();
  // Inject a garbage ask "from provider 1" — the engine must abort, and the
  // abort must cascade.
  set.net.endpoint(1).send(0, "ask/x", Bytes{1, 2, 3});
  set.net.run();
  // Provider 0 received two asks from provider 1 (the real one + garbage) or
  // the garbage first — either way it aborts; the cascade reaches everyone.
  int bottoms = 0;
  for (const auto& e : set.engines) {
    if (e->done() && e->outcome()->is_bottom()) ++bottoms;
  }
  EXPECT_GE(bottoms, 1);
  ASSERT_TRUE(set.engines[0]->done());
  EXPECT_TRUE(set.engines[0]->outcome()->is_bottom());
}

TEST(ProviderEngine, WrongProviderIdInAskAborts) {
  EngineSet set(3, 1, 5);
  set.start_all();
  // Provider 2 claims to be provider 0 in its ask payload.
  serde::Writer w;
  w.id(0);  // forged id
  w.money(Money::from_double(0.5));
  w.money(Money::from_units(1));
  set.net.endpoint(2).send(0, "ask/x", w.take());
  set.net.run();
  ASSERT_TRUE(set.engines[0]->done());
  EXPECT_TRUE(set.engines[0]->outcome()->is_bottom());
}

TEST(ProviderEngine, AbortMessageCascades) {
  EngineSet set(4, 1, 6);
  set.start_all();
  // An explicit abort notification from provider 3.
  serde::Writer w;
  w.u8(static_cast<std::uint8_t>(AbortReason::kProtocolViolation));
  for (NodeId j = 0; j < 4; ++j) set.net.endpoint(3).send(j, "abort", w.buffer());
  set.net.run();
  for (const auto& e : set.engines) {
    ASSERT_TRUE(e->done());
    EXPECT_TRUE(e->outcome()->is_bottom());
  }
}

TEST(ProviderEngine, StragglersAfterCompletionIgnored) {
  EngineSet set(3, 1, 4);
  set.start_all();
  set.net.run();
  ASSERT_TRUE(set.engines[0]->done());
  const auto outcome_before = *set.engines[0]->outcome();
  ASSERT_TRUE(outcome_before.ok());

  // Replay a protocol message and send fresh garbage: state must not change.
  set.engines[0]->on_message(net::Message{1, 0, "alloc/out/digest", Bytes(32, 0)});
  set.engines[0]->on_message(net::Message{1, 0, "no/such/topic", Bytes{1}});
  ASSERT_TRUE(set.engines[0]->done());
  EXPECT_EQ(set.engines[0]->outcome()->ok(), outcome_before.ok());
  EXPECT_EQ(set.engines[0]->outcome()->value(), outcome_before.value());
}

TEST(ProviderEngine, LateAbortDoesNotOverrideResult) {
  EngineSet set(3, 1, 4);
  set.start_all();
  set.net.run();
  ASSERT_TRUE(set.engines[0]->done());
  ASSERT_TRUE(set.engines[0]->outcome()->ok());
  // An abort arriving after the outcome is decided must not flip it (the
  // provider already reported; flipping would violate output monotonicity).
  set.engines[0]->on_message(net::Message{2, 0, "abort", Bytes{0}});
  EXPECT_TRUE(set.engines[0]->outcome()->ok());
}

TEST(ProviderEngine, ShortBidVectorHandled) {
  // A provider that received bids for only some bidders starts with a short
  // vector; agreement must still produce the full-length vector (majority
  // carries the missing slots).
  EngineSet set(3, 1, 6);
  std::vector<auction::Bid> partial(set.instance.bids.begin(),
                                    set.instance.bids.begin() + 2);
  set.engines[0]->start(partial);
  set.engines[1]->start(set.instance.bids);
  set.engines[2]->start(set.instance.bids);
  set.net.run();
  for (const auto& e : set.engines) {
    ASSERT_TRUE(e->done());
    ASSERT_TRUE(e->outcome()->ok());
    ASSERT_TRUE(e->agreed_bids().has_value());
    // Slots 2..5: the two complete providers outvote the short one.
    EXPECT_EQ(*e->agreed_bids(), set.instance.bids);
  }
}

}  // namespace
}  // namespace dauct::core
