// The threaded and TCP runtimes execute the same engines as the virtual-time
// simulator; these tests check the concurrency plumbing end to end.
#include <gtest/gtest.h>

#include "auction/double_auction.hpp"
#include "core/adapters.hpp"
#include "crypto/sha256.hpp"
#include "net/message.hpp"
#include "net/tcp_transport.hpp"
#include "serde/codec.hpp"
#include "runtime/submission_codec.hpp"
#include "runtime/tcp_runtime.hpp"
#include "runtime/thread_runtime.hpp"
#include "test_util.hpp"

namespace dauct::runtime {
namespace {

core::DistributedAuctioneer make_double(std::size_t m, std::size_t k, std::size_t n) {
  core::AuctioneerSpec spec;
  spec.m = m;
  spec.k = k;
  spec.num_bidders = n;
  return core::DistributedAuctioneer(spec,
                                     std::make_shared<core::DoubleAuctionAdapter>());
}

TEST(Frame, RoundTrip) {
  net::Message msg{3, 7, "alloc/dt/1/val", Bytes{1, 2, 3, 4, 5}};
  const Bytes frame = net::encode_frame(msg);
  const auto decoded = net::decode_frame(BytesView(frame));
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->consumed, frame.size());
  EXPECT_EQ(decoded->message.from, 3u);
  EXPECT_EQ(decoded->message.to, 7u);
  EXPECT_EQ(decoded->message.topic, "alloc/dt/1/val");
  EXPECT_EQ(decoded->message.payload, msg.payload);
}

TEST(Frame, PartialFrameNeedsMoreBytes) {
  net::Message msg{1, 2, "topic", Bytes{9, 9}};
  Bytes frame = net::encode_frame(msg);
  frame.pop_back();
  EXPECT_FALSE(net::decode_frame(BytesView(frame)));
  EXPECT_FALSE(net::decode_frame(BytesView(frame.data(), 3)));
}

TEST(Frame, OversizedFrameRejected) {
  Bytes bad = {0xff, 0xff, 0xff, 0xff};  // 4 GiB body length
  EXPECT_THROW(net::decode_frame(BytesView(bad)), std::length_error);
}

TEST(Frame, SingleBufferEncodeMatchesTwoWriterReference) {
  // encode_frame now writes body-in-place with an up-front exact size; the
  // wire bytes must be identical to the seed's body-writer-then-copy shape.
  for (std::size_t payload_len : {std::size_t{0}, std::size_t{1}, std::size_t{127},
                                  std::size_t{128}, std::size_t{5000}}) {
    net::Message msg{4, 9, "alloc/out/digest", Bytes(payload_len, 0xad)};
    serde::Writer body;
    body.u32(msg.from);
    body.u32(msg.to);
    body.str(msg.topic.str());
    body.bytes(msg.payload.view());
    serde::Writer ref;
    ref.u32(static_cast<std::uint32_t>(body.buffer().size()));
    ref.raw(BytesView(body.buffer()));
    EXPECT_EQ(net::encode_frame(msg), ref.buffer()) << payload_len;
  }
}

TEST(Message, PayloadDigestMatchesOneShotHash) {
  net::Message msg{1, 2, "t", Bytes{5, 6, 7, 8}};
  EXPECT_EQ(msg.payload_digest(), crypto::sha256(msg.payload.view()));
  // Cached: repeated calls and copies return the same digest object value.
  const crypto::Digest first = msg.payload_digest();
  const net::Message copy = msg;
  EXPECT_EQ(copy.payload_digest(), first);
}

TEST(Message, SetPayloadInvalidatesDigestCache) {
  net::Message msg{1, 2, "t", Bytes{1}};
  const crypto::Digest d1 = msg.payload_digest();
  msg.set_payload(Bytes{2});
  const crypto::Digest d2 = msg.payload_digest();
  EXPECT_NE(d1, d2);
  EXPECT_EQ(d2, crypto::sha256(msg.payload.view()));
}

TEST(Mailbox, PushPopClose) {
  net::Mailbox mb;
  EXPECT_TRUE(mb.push(net::Message{0, 1, "a", {}}));
  EXPECT_TRUE(mb.push(net::Message{0, 1, "b", {}}));
  EXPECT_EQ(mb.size(), 2u);
  EXPECT_EQ(mb.pop()->topic, "a");
  mb.close();
  EXPECT_FALSE(mb.push(net::Message{0, 1, "c", {}}));  // refused
  EXPECT_EQ(mb.pop()->topic, "b");                      // drained
  EXPECT_FALSE(mb.pop());                               // closed + empty
}

TEST(Mailbox, PopForTimesOut) {
  net::Mailbox mb;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(mb.pop_for(std::chrono::milliseconds(30)));
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(25));
}

TEST(ThreadRuntime, MatchesReferenceResult) {
  const auto instance = testutil::make_instance(15, 4, 5);
  const auto auctioneer = make_double(4, 1, 15);
  ThreadRunConfig cfg;
  const auto run = ThreadRuntime(cfg).run_distributed(auctioneer, instance);
  ASSERT_FALSE(run.timed_out);
  ASSERT_TRUE(run.global_outcome.ok())
      << abort_reason_name(run.global_outcome.bottom().reason);
  EXPECT_EQ(run.global_outcome.value(), auction::run_double_auction(instance));
}

TEST(ThreadRuntime, DetectsDeviationsUnderConcurrency) {
  const auto instance = testutil::make_instance(10, 5, 7);
  const auto auctioneer = make_double(5, 2, 10);
  ThreadRunConfig cfg;
  cfg.deviations[2] = adversary::corrupt_coin_reveal();
  const auto run = ThreadRuntime(cfg).run_distributed(auctioneer, instance);
  EXPECT_TRUE(run.global_outcome.is_bottom());
}

TEST(ThreadRuntime, RepeatedRunsStable) {
  const auto instance = testutil::make_instance(8, 3, 9);
  const auto auctioneer = make_double(3, 1, 8);
  const auto reference = auction::run_double_auction(instance);
  for (int round = 0; round < 5; ++round) {
    ThreadRunConfig cfg;
    cfg.seed = round + 1;
    const auto run = ThreadRuntime(cfg).run_distributed(auctioneer, instance);
    ASSERT_TRUE(run.global_outcome.ok()) << "round " << round;
    EXPECT_EQ(run.global_outcome.value(), reference) << "round " << round;
  }
}

TEST(SubmissionCodec, RoundTripKeepsAbsentBids) {
  std::vector<std::optional<auction::Bid>> subs(4);
  subs[0] = auction::Bid{0, Money::from_units(3), Money::from_double(0.5)};
  subs[2] = auction::Bid{2, Money::from_double(1.25), Money::from_units(2)};
  const auto dec = detail::decode_submissions(BytesView(detail::encode_submissions(subs)));
  ASSERT_TRUE(dec);
  EXPECT_EQ(*dec, subs);
  Bytes trailing = detail::encode_submissions(subs);
  trailing.push_back(0);
  EXPECT_FALSE(detail::decode_submissions(BytesView(trailing)));
}

/// One instance's result frames as honest providers send them: the full
/// report from `reporter`, its sha256 from everyone else.
std::vector<Bytes> result_frames(const Bytes& report, NodeId reporter,
                                 std::size_t m) {
  const crypto::Digest d = crypto::sha256(BytesView(report));
  std::vector<Bytes> frames;
  for (NodeId j = 0; j < m; ++j) {
    frames.push_back(detail::result_frame(report, d, j == reporter));
  }
  return frames;
}

Bytes ok_report() {
  return detail::encode_report(auction::AuctionOutcome(
      auction::run_double_auction(testutil::make_instance(8, 4, 3))));
}

/// Feed every frame in provider order; the verdict after the last one.
ReportVerdict check(const std::vector<Bytes>& frames, NodeId reporter) {
  detail::ResultReports reports(frames.size(), reporter);
  for (NodeId j = 0; j < frames.size(); ++j) {
    EXPECT_EQ(reports.verdict(), ReportVerdict::kIncomplete);
    EXPECT_TRUE(reports.accept(j, BytesView(frames[j])));
  }
  EXPECT_TRUE(reports.complete());
  return reports.verdict();
}

TEST(ResultReports, AllAgreeIsAgreedWithTheFullReportsDigest) {
  const Bytes report = ok_report();
  const auto frames = result_frames(report, 2, 4);
  EXPECT_EQ(frames[2], report);
  EXPECT_EQ(frames[0].size(), 32u);
  detail::ResultReports reports(4, 2);
  for (NodeId j = 0; j < 4; ++j) reports.accept(j, BytesView(frames[j]));
  EXPECT_EQ(reports.verdict(), ReportVerdict::kAgreed);
  EXPECT_EQ(reports.report_digest(), crypto::sha256(BytesView(report)));
  EXPECT_EQ(detail::designated_reporter(6, 4), 2u);
}

TEST(ResultReports, OneDifferingDigestIsDivergent) {
  const Bytes report = ok_report();
  auto frames = result_frames(report, 0, 4);
  frames[3][5] ^= 1;
  EXPECT_EQ(check(frames, 0), ReportVerdict::kDivergent);
  // A digest frame of the wrong length cannot agree either.
  frames = result_frames(report, 0, 4);
  frames[1].push_back(0);
  EXPECT_EQ(check(frames, 0), ReportVerdict::kDivergent);
}

TEST(ResultReports, TamperedFullReportIsDivergent) {
  const Bytes report = ok_report();
  auto frames = result_frames(report, 1, 4);
  frames[1].back() ^= 1;  // still starts with the ok flag
  EXPECT_EQ(check(frames, 1), ReportVerdict::kDivergent);
}

TEST(ResultReports, DesignatedBottomReportIsBottom) {
  const Bytes report = detail::encode_report(
      auction::AuctionOutcome(Bottom{AbortReason::kTimeout, "stalled"}));
  EXPECT_EQ(check(result_frames(report, 3, 4), 3), ReportVerdict::kBottom);
}

TEST(ResultReports, DuplicateFrameIsDropped) {
  const Bytes report = ok_report();
  const auto frames = result_frames(report, 0, 3);
  detail::ResultReports reports(3, 0);
  EXPECT_TRUE(reports.accept(0, BytesView(frames[0])));
  EXPECT_TRUE(reports.accept(1, BytesView(frames[1])));
  // A second frame from provider 1, even a bad one, neither counts nor
  // replaces the first.
  const Bytes junk(32, 0);
  EXPECT_FALSE(reports.accept(1, BytesView(junk)));
  EXPECT_EQ(reports.received(), 2u);
  EXPECT_FALSE(reports.complete());
  EXPECT_TRUE(reports.accept(2, BytesView(frames[2])));
  EXPECT_EQ(reports.verdict(), ReportVerdict::kAgreed);
}

TEST(ResultReports, NonProviderFrameIsDropped) {
  const Bytes report = ok_report();
  const auto frames = result_frames(report, 0, 3);
  detail::ResultReports reports(3, 0);
  EXPECT_FALSE(reports.accept(3, BytesView(frames[1])));  // the client's id
  EXPECT_FALSE(reports.accept(kNoNode, BytesView(frames[1])));
  EXPECT_EQ(reports.received(), 0u);
  for (NodeId j = 0; j < 3; ++j) reports.accept(j, BytesView(frames[j]));
  EXPECT_EQ(reports.verdict(), ReportVerdict::kAgreed);
}

TEST(ThreadRuntime, OutOfLimitsBidBecomesNeutral) {
  // The thread runtime speaks the sim's client codec: a bid outside
  // spec().limits reaches the engines as the neutral bid, not as submitted.
  auto instance = testutil::make_instance(12, 4, 11);
  const auto auctioneer = make_double(4, 1, 12);
  instance.bids[3].unit_value =
      auctioneer.spec().limits.max_unit_value + Money::from_units(1);
  ASSERT_FALSE(auctioneer.spec().limits.valid(instance.bids[3]));
  auto sanitized = instance;
  sanitized.bids[3] = auction::neutral_bid(3);

  const auto run = ThreadRuntime(ThreadRunConfig{}).run_distributed(auctioneer, instance);
  ASSERT_FALSE(run.timed_out);
  ASSERT_TRUE(run.global_outcome.ok())
      << abort_reason_name(run.global_outcome.bottom().reason);
  EXPECT_EQ(run.global_outcome.value(), auction::run_double_auction(sanitized));
  // ...which matters: taken as submitted, that bid changes the result.
  EXPECT_NE(run.global_outcome.value(), auction::run_double_auction(instance));
}

TEST(TcpRuntime, FullProtocolOverRealSockets) {
  const auto instance = testutil::make_instance(10, 3, 21);
  const auto auctioneer = make_double(3, 1, 10);
  TcpNodeConfig cfg;
  const auto run = TcpRuntime(cfg).run_distributed(auctioneer, instance);
  ASSERT_FALSE(run.timed_out) << "tcp run stalled";
  ASSERT_TRUE(run.global_outcome.ok())
      << abort_reason_name(run.global_outcome.bottom().reason);
  EXPECT_EQ(run.global_outcome.value(), auction::run_double_auction(instance));
  // The client checked provider 0's full report against the others' digests
  // and names the report every provider computed.
  const Bytes report = detail::encode_report(run.global_outcome);
  EXPECT_EQ(run.result_digest,
            crypto::digest_hex(crypto::sha256(BytesView(report))));
}

TEST(TcpNode, DirectSendReceive) {
  net::TcpPeers peers;
  peers.base_port = net::pick_base_port(4);
  net::TcpNode a(0, peers);
  net::TcpNode b(1, peers);
  ASSERT_TRUE(a.send(net::Message{0, 1, "hello", Bytes{1, 2, 3}}));
  const auto msg = b.inbox().pop_for(std::chrono::milliseconds(2000));
  ASSERT_TRUE(msg);
  EXPECT_EQ(msg->topic, "hello");
  EXPECT_EQ(msg->payload, (Bytes{1, 2, 3}));
  a.shutdown();
  b.shutdown();
}

}  // namespace
}  // namespace dauct::runtime
