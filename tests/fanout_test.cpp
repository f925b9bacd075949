// Zero-copy fan-out tests: one broadcast must allocate its payload (and
// digest) once, with every delivered copy aliasing the same immutable buffer
// — plus the pre-refactor equivalence pins (PR 2 style): fixed-seed runs must
// remain byte-identical to the implementation that deep-copied per recipient.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>

#include "blocks/block.hpp"
#include "core/adapters.hpp"
#include "crypto/sha256.hpp"
#include "net/message.hpp"
#include "net/topic.hpp"
#include "runtime/sim_runtime.hpp"
#include "serde/auction_codec.hpp"
#include "test_util.hpp"

namespace dauct {
namespace {

// ---------------------------------------------------------------------------
// SharedBytes semantics
// ---------------------------------------------------------------------------

TEST(SharedBytes, AliasesAndValueEquality) {
  SharedBytes a(Bytes{1, 2, 3});
  SharedBytes b = a;  // alias
  SharedBytes c(Bytes{1, 2, 3});  // equal bytes, distinct buffer
  EXPECT_TRUE(a.same_buffer(b));
  EXPECT_FALSE(a.same_buffer(c));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  EXPECT_EQ(a, (Bytes{1, 2, 3}));
  EXPECT_NE(a, (Bytes{1, 2, 4}));
  EXPECT_EQ(a.use_count(), 2);
}

TEST(SharedBytes, EmptyBufferAllocatesNothing) {
  SharedBytes empty;
  SharedBytes from_empty_bytes((Bytes{}));
  EXPECT_TRUE(empty.same_buffer(from_empty_bytes));  // both rep-less
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.use_count(), 0);
  EXPECT_EQ(empty, from_empty_bytes);
}

TEST(SharedBytes, SenderSideMutationAfterSharingIsUnobservable) {
  Bytes original{10, 20, 30};
  const SharedBytes shared = SharedBytes::copy(BytesView(original));
  original[0] = 99;  // the sender keeps writing into its own buffer
  EXPECT_EQ(shared, (Bytes{10, 20, 30}));
}

TEST(SharedBytes, DigestSlotComputesOnceAcrossAliases) {
  static std::atomic<int> calls{0};
  const SharedBytes::DigestFn counting_fn = [](const std::uint8_t* data,
                                               std::size_t size,
                                               std::uint8_t out[32]) {
    ++calls;
    std::memset(out, 0, 32);
    if (size > 0) out[0] = data[0];
  };
  calls = 0;
  SharedBytes a(Bytes{7, 8, 9});
  SharedBytes b = a;
  const auto& d1 = a.shared_digest(counting_fn);
  const auto& d2 = b.shared_digest(counting_fn);
  EXPECT_EQ(calls.load(), 1);      // one buffer, one computation
  EXPECT_EQ(&d1, &d2);             // the very same slot
  EXPECT_EQ(d1[0], 7);
}

// ---------------------------------------------------------------------------
// Endpoint::broadcast fan-out
// ---------------------------------------------------------------------------

/// Endpoint that records every sent message verbatim.
class CollectingEndpoint final : public blocks::Endpoint {
 public:
  CollectingEndpoint(NodeId self, std::size_t m) : self_(self), m_(m), rng_(1) {}

  NodeId self() const override { return self_; }
  std::size_t num_providers() const override { return m_; }
  crypto::Rng& rng() override { return rng_; }

  void send(NodeId to, const net::Topic& topic, SharedBytes payload) override {
    sent.push_back(net::Message{self_, to, topic, std::move(payload)});
  }

  std::vector<net::Message> sent;

 private:
  NodeId self_;
  std::size_t m_;
  crypto::Rng rng_;
};

TEST(Fanout, BroadcastPayloadSharedAcrossAllRecipients) {
  const std::size_t m = 8;
  CollectingEndpoint ep(0, m);
  const SharedBytes payload(Bytes(1024, 0x5a));
  ep.broadcast("dt/val", payload);

  ASSERT_EQ(ep.sent.size(), m);
  for (NodeId j = 0; j < m; ++j) {
    EXPECT_EQ(ep.sent[j].to, j);
    EXPECT_TRUE(ep.sent[j].payload.same_buffer(payload))
        << "recipient " << j << " received a deep copy";
    EXPECT_EQ(ep.sent[j].topic, ep.sent[0].topic);
  }
  // m in-flight aliases + the local handle.
  EXPECT_EQ(payload.use_count(), static_cast<long>(m) + 1);
}

TEST(Fanout, DigestComputedExactlyOncePerBroadcast) {
  static std::atomic<int> hash_calls{0};
  const SharedBytes::DigestFn counting_sha = [](const std::uint8_t* data,
                                                std::size_t size,
                                                std::uint8_t out[32]) {
    ++hash_calls;
    const crypto::Digest d = crypto::sha256(BytesView(data, size));
    std::memcpy(out, d.data(), d.size());
  };

  const std::size_t m = 16;
  CollectingEndpoint ep(3, m);
  ep.broadcast("ba/vb/v", SharedBytes(Bytes(4096, 0x11)));

  hash_calls = 0;
  crypto::Digest reference{};
  for (const net::Message& msg : ep.sent) {
    // Every recipient asks for the digest, as the cross-validating blocks do.
    const auto& d = msg.payload.shared_digest(counting_sha);
    if (msg.to == 0) {
      std::memcpy(reference.data(), d.data(), d.size());
    } else {
      EXPECT_TRUE(std::memcmp(reference.data(), d.data(), d.size()) == 0);
    }
  }
  EXPECT_EQ(hash_calls.load(), 1) << "each recipient re-hashed the payload";
}

TEST(Fanout, SimSchedulerDeliversAliasesOfOneBroadcast) {
  const std::size_t m = 6;
  testutil::LocalNet net(m);
  std::vector<net::Message> delivered;
  for (NodeId j = 0; j < m; ++j) {
    net.set_handler(j, [&](const net::Message& msg) { delivered.push_back(msg); });
  }
  net.endpoint(1).broadcast("coin/commit", SharedBytes(Bytes(256, 0xab)));
  net.run();

  ASSERT_EQ(delivered.size(), m);
  for (std::size_t i = 1; i < delivered.size(); ++i) {
    EXPECT_TRUE(delivered[i].payload.same_buffer(delivered[0].payload));
    EXPECT_EQ(delivered[i].topic, delivered[0].topic);
  }
}

// ---------------------------------------------------------------------------
// Topic interning
// ---------------------------------------------------------------------------

TEST(Topic, InternedEqualityAndStrings) {
  const net::Topic a("ba/vb/v");
  const net::Topic b(std::string("ba/vb/v"));
  const net::Topic c("ba/vb/e");
  EXPECT_EQ(a.id(), b.id());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.str(), "ba/vb/v");
  EXPECT_EQ(a.size(), 7u);
  // Comparing against a literal interns and compares ids.
  EXPECT_EQ(a, "ba/vb/v");
  EXPECT_NE(a, "ba/vb/x");
  // The default topic is the interned empty string.
  EXPECT_EQ(net::Topic{}, net::Topic(""));
  EXPECT_TRUE(net::Topic{}.empty());
}

// ---------------------------------------------------------------------------
// TCP framing over shared payloads
// ---------------------------------------------------------------------------

TEST(Fanout, TcpFrameRoundTripOverSharedPayload) {
  const SharedBytes payload(Bytes{9, 8, 7, 6, 5});
  net::Message a{1, 2, "alloc/dt/4/val", payload};
  net::Message b{1, 3, "alloc/dt/4/val", payload};  // second alias, other peer
  ASSERT_TRUE(a.payload.same_buffer(b.payload));

  const Bytes frame_a = net::encode_frame(a);
  const Bytes frame_b = net::encode_frame(b);
  EXPECT_NE(frame_a, frame_b);  // differ in `to` only

  const auto decoded = net::decode_frame(BytesView(frame_a));
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->consumed, frame_a.size());
  EXPECT_EQ(decoded->message.from, 1u);
  EXPECT_EQ(decoded->message.to, 2u);
  EXPECT_EQ(decoded->message.topic, a.topic);
  EXPECT_EQ(decoded->message.payload, payload);
  // The decoded payload owns its bytes (fresh buffer, not a view into the
  // frame) and its digest agrees with the sender's shared slot.
  EXPECT_FALSE(decoded->message.payload.same_buffer(payload));
  EXPECT_EQ(decoded->message.payload_digest(), a.payload_digest());
}

// ---------------------------------------------------------------------------
// Pre-refactor equivalence pins
// ---------------------------------------------------------------------------

// The golden table lives in test_util.hpp (testutil::kGoldenRuns): the
// zero-copy spine must reproduce every run byte-for-byte — same outcome
// bytes, same virtual makespan, same traffic — and scenario_test.cpp holds
// the fault-injection hooks to the same standard.

TEST(FanoutEquivalence, FixedSeedRunsMatchPreRefactorFingerprints) {
  for (const testutil::GoldenRun& g : testutil::kGoldenRuns) {
    const core::DistributedAuctioneer auctioneer =
        testutil::make_golden_auctioneer(g);
    const auto inst = testutil::make_instance(g.n, g.m, g.seed, g.standard);

    runtime::SimRunConfig cfg;
    cfg.seed = g.seed;
    const auto run = runtime::SimRuntime(cfg).run_distributed(auctioneer, inst);

    SCOPED_TRACE("n=" + std::to_string(g.n) + " m=" + std::to_string(g.m) +
                 " k=" + std::to_string(g.k) + " seed=" + std::to_string(g.seed));
    EXPECT_TRUE(testutil::matches_golden_fingerprint(g, run.global_outcome,
                                                     run.makespan, run.traffic));
  }
}

// The golden digests pin the outcome's encoding; this pins its value: every
// golden run's (x, p⃗) is the trusted auctioneer's on the same instance and
// common coin, for the double auction and VCG alike. So a re-pinned digest
// can only mean a new encoding of the same outcome.
TEST(FanoutEquivalence, GoldenOutcomesEqualTheTrustedAuctioneer) {
  for (const testutil::GoldenRun& g : testutil::kGoldenRuns) {
    const core::DistributedAuctioneer auctioneer =
        testutil::make_golden_auctioneer(g);
    const auto inst = testutil::make_instance(g.n, g.m, g.seed, g.standard);
    runtime::SimRunConfig cfg;
    cfg.seed = g.seed;
    const auto run = runtime::SimRuntime(cfg).run_distributed(auctioneer, inst);

    SCOPED_TRACE("n=" + std::to_string(g.n) + " m=" + std::to_string(g.m) +
                 " k=" + std::to_string(g.k) + " seed=" + std::to_string(g.seed));
    ASSERT_TRUE(run.global_outcome.ok());
    EXPECT_TRUE(run.global_outcome.value() ==
                auctioneer.adapter().run_centralized(inst, run.shared_seed));
  }
}

// The shared assertion must actually discriminate: a fingerprint perturbed
// in ANY field (digest, makespan, either traffic counter) is rejected, and
// a ⊥ outcome never aliases a pinned digest. Guards the helper itself —
// a fingerprint check that accepts everything pins nothing.
TEST(FanoutEquivalence, GoldenFingerprintHelperRejectsPerturbedFingerprints) {
  const testutil::GoldenRun& g = testutil::kGoldenRuns[1];
  const core::DistributedAuctioneer auctioneer =
      testutil::make_golden_auctioneer(g);
  const auto inst = testutil::make_instance(g.n, g.m, g.seed, g.standard);
  runtime::SimRunConfig cfg;
  cfg.seed = g.seed;
  const auto run = runtime::SimRuntime(cfg).run_distributed(auctioneer, inst);
  ASSERT_TRUE(testutil::matches_golden_fingerprint(g, run.global_outcome,
                                                   run.makespan, run.traffic));

  testutil::GoldenRun bad = g;
  bad.result_sha256 = "0000000000000000000000000000000000000000000000000000000000000000";
  EXPECT_FALSE(testutil::matches_golden_fingerprint(bad, run.global_outcome,
                                                    run.makespan, run.traffic));
  bad = g;
  bad.makespan += 1;
  EXPECT_FALSE(testutil::matches_golden_fingerprint(bad, run.global_outcome,
                                                    run.makespan, run.traffic));
  bad = g;
  bad.messages += 1;
  EXPECT_FALSE(testutil::matches_golden_fingerprint(bad, run.global_outcome,
                                                    run.makespan, run.traffic));
  bad = g;
  bad.bytes -= 1;
  EXPECT_FALSE(testutil::matches_golden_fingerprint(bad, run.global_outcome,
                                                    run.makespan, run.traffic));
  // ⊥ never matches: its digest is "" by construction.
  const auction::AuctionOutcome bottom{Bottom{AbortReason::kTimeout, "test"}};
  EXPECT_FALSE(testutil::matches_golden_fingerprint(g, bottom, run.makespan,
                                                    run.traffic));
}

}  // namespace
}  // namespace dauct
