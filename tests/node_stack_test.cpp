// runtime::NodeStack on its own: the per-provider chain and write-ahead log
// every simulated and TCP provider is built on, driven over MemStorage and a
// recording wire endpoint.
#include <gtest/gtest.h>

#include "runtime/node_stack.hpp"

namespace dauct::runtime {
namespace {

constexpr NodeId kSelf = 0;
constexpr std::size_t kProviders = 3;

/// The bottom of the chain: records every frame the stack puts on the wire.
class WireRecorder final : public blocks::Endpoint {
 public:
  explicit WireRecorder(std::vector<net::Message>* sent) : sent_(sent) {}
  NodeId self() const override { return kSelf; }
  std::size_t num_providers() const override { return kProviders; }
  void send(NodeId to, const net::Topic& topic, SharedBytes payload) override {
    sent_->push_back(net::Message{kSelf, to, topic, std::move(payload)});
  }
  crypto::Rng& rng() override { return rng_; }

 private:
  std::vector<net::Message>* sent_;
  crypto::Rng rng_{1};
};

/// A timerless link, as over TCP.
NodeStack make_stack(std::vector<net::Message>& sent) {
  NodeStack::Layers layers;
  layers.reliability.enable = true;
  NodeStack stack(kSelf, [&sent] { return std::make_unique<WireRecorder>(&sent); },
                  layers);
  stack.build();
  return stack;
}

store::WalMeta meta() {
  store::WalMeta m;
  m.run_seed = 7;
  m.node = kSelf;
  m.providers = kProviders;
  m.users = 8;
  m.k = 1;
  m.endpoint_seed = 99;
  return m;
}

std::vector<store::WalRecord> records(store::MemStorage& disk) {
  const Bytes data = disk.read_all();
  return store::scan_wal(BytesView(data)).records;
}

const Bytes kPayload{1, 2, 3};
/// kPayload from peer 1 as it arrives on the wire: the link header (magic,
/// epoch 0, transmission 0, no acks) ‖ the payload.
const net::Message kFromPeer{1, kSelf, "ba/vote/0", Bytes{0xAB, 0, 0, 0, 1, 2, 3}};

/// deliver() with a route that counts and a fixed snapshot state.
void deliver(NodeStack& stack, const net::Message& msg, int& routed,
             bool started = true) {
  stack.deliver(
      msg,
      [&](const net::Message&) {
        ++routed;
        return true;
      },
      [&] {
        store::Snapshot s;
        s.started = started;
        return s;
      });
}

TEST(NodeStack, FreshOpenWritesExactlyOneMetaRecord) {
  std::vector<net::Message> sent;
  NodeStack stack = make_stack(sent);
  auto disk = std::make_shared<store::MemStorage>();
  EXPECT_EQ(stack.open_wal(disk, meta(), 8), "");
  EXPECT_FALSE(stack.recovering());
  const auto recs = records(*disk);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].type, store::RecordType::kMeta);
  EXPECT_EQ(store::decode_meta(BytesView(recs[0].payload)), meta());
}

TEST(NodeStack, RecoveryRefusesMissingUndecodableOrForeignMeta) {
  std::vector<net::Message> sent;
  const auto refusal = [&](store::RecordType first, const Bytes& payload) {
    auto disk = std::make_shared<store::MemStorage>();
    store::Wal wal(disk);
    wal.append(first, BytesView(payload));
    wal.commit();
    NodeStack stack = make_stack(sent);
    const std::string why = stack.open_wal(disk, meta(), 8);
    EXPECT_FALSE(stack.recovering());
    return why;
  };
  const Bytes logged = store::encode_message(1, "ba/vote/0", BytesView(Bytes{1}));
  EXPECT_EQ(refusal(store::RecordType::kMessage, logged), "no meta record");
  EXPECT_EQ(refusal(store::RecordType::kMeta, Bytes{0xff}), "meta record undecodable");

  store::WalMeta foreign = meta();
  foreign.run_seed = 8;
  std::string want;
  ASSERT_FALSE(store::meta_matches(foreign, meta(), &want));
  EXPECT_EQ(refusal(store::RecordType::kMeta, store::encode_meta(foreign)), want);
  EXPECT_NE(want.find("run seed 8"), std::string::npos) << want;
}

TEST(NodeStack, EmptyLogIsAFirstStartButARefusedRebuild) {
  std::vector<net::Message> sent;
  NodeStack stack = make_stack(sent);
  auto disk = std::make_shared<store::MemStorage>();
  // First start (a TCP provider's fresh file): the meta record is written.
  ASSERT_EQ(stack.open_wal(disk, meta(), 8), "");
  ASSERT_EQ(records(*disk).size(), 1u);
  // An amnesia rebuild finds the log gone: this run wrote a meta record, so
  // an empty log is lost state, not a first start.
  disk->truncate(0);
  stack.build();
  EXPECT_EQ(stack.reopen_wal(), "no meta record");
  EXPECT_TRUE(records(*disk).empty());
}

TEST(NodeStack, ReplayRestoresDedupKeysBeforeRouting) {
  std::vector<net::Message> sent;
  NodeStack stack = make_stack(sent);
  auto disk = std::make_shared<store::MemStorage>();
  ASSERT_EQ(stack.open_wal(disk, meta(), 8), "");
  int routed = 0;
  deliver(stack, kFromPeer, routed);
  ASSERT_EQ(routed, 1);
  EXPECT_EQ(stack.delivered(), 1u);

  // Amnesia: a fresh chain, the log reopened and replayed.
  stack.build();
  ASSERT_EQ(stack.reopen_wal(), "");
  ASSERT_TRUE(stack.recovering());
  sent.clear();
  std::vector<std::uint64_t> restored_at_route;
  stack.replay(
      [&](const net::Message& msg) {
        EXPECT_EQ(msg.from, kFromPeer.from);
        EXPECT_EQ(msg.topic, kFromPeer.topic);
        EXPECT_EQ(msg.payload, kPayload);
        restored_at_route.push_back(stack.reliability_stats().restored_delivered);
      },
      [] { return store::Snapshot{}; });
  ASSERT_EQ(restored_at_route, (std::vector<std::uint64_t>{1}));
  EXPECT_FALSE(stack.recovering());
  EXPECT_EQ(stack.delivered(), 1u);
  // The rejoin sweep: one wildcard re-request per peer.
  ASSERT_EQ(sent.size(), kProviders - 1);
  for (const auto& f : sent) {
    EXPECT_EQ(f.topic, net::Topic(net::kRetransmitRequestTopicName));
    EXPECT_EQ(f.payload, (Bytes{'*'}));
  }

  // A post-replay wire copy of the logged message is swallowed.
  const std::uint64_t suppressed = stack.reliability_stats().duplicates_suppressed;
  deliver(stack, kFromPeer, routed);
  EXPECT_EQ(routed, 1);
  EXPECT_EQ(stack.reliability_stats().duplicates_suppressed, suppressed + 1);
  EXPECT_EQ(stack.delivered(), 1u);
}

TEST(NodeStack, SnapshotMismatchIsCounted) {
  for (const bool replay_started : {true, false}) {
    std::vector<net::Message> sent;
    NodeStack stack = make_stack(sent);
    auto disk = std::make_shared<store::MemStorage>();
    ASSERT_EQ(stack.open_wal(disk, meta(), /*snapshot_every=*/1), "");
    int routed = 0;
    deliver(stack, kFromPeer, routed, /*started=*/true);
    ASSERT_EQ(records(*disk).back().type, store::RecordType::kSnapshot);

    stack.build();
    ASSERT_EQ(stack.reopen_wal(), "");
    stack.replay([](const net::Message&) {},
                 [&] {
                   store::Snapshot s;
                   s.started = replay_started;
                   return s;
                 });
    EXPECT_EQ(stack.wal_stats().snapshots_checked, 1u);
    EXPECT_EQ(stack.wal_stats().snapshot_mismatches, replay_started ? 0u : 1u);
  }
}

TEST(NodeStack, StatsSurviveARebuild) {
  std::vector<net::Message> sent;
  NodeStack stack = make_stack(sent);
  auto disk = std::make_shared<store::MemStorage>();
  ASSERT_EQ(stack.open_wal(disk, meta(), 0), "");
  int routed = 0;
  deliver(stack, kFromPeer, routed);
  const net::ReliabilityStats link_before = stack.reliability_stats();
  const store::WalStats wal_before = stack.wal_stats();
  ASSERT_EQ(link_before.acks_sent, 1u);
  ASSERT_EQ(wal_before.records_appended, 2u);  // meta + message

  stack.build();
  ASSERT_EQ(stack.reopen_wal(), "");
  stack.replay([](const net::Message&) {}, [] { return store::Snapshot{}; });
  const net::ReliabilityStats link_after = stack.reliability_stats();
  const store::WalStats wal_after = stack.wal_stats();
  EXPECT_EQ(link_after.acks_sent, link_before.acks_sent);
  EXPECT_EQ(link_after.restored_delivered, 1u);
  EXPECT_EQ(link_after.rejoin_requests_sent, kProviders - 1);
  EXPECT_EQ(wal_after.records_appended, wal_before.records_appended);
  EXPECT_EQ(wal_after.commits, wal_before.commits);
  EXPECT_EQ(wal_after.messages_replayed, 1u);
}

TEST(NodeStack, AcksLeaveWithTheHandlerOutputOrAloneWhenItReturns) {
  std::vector<net::Message> sent;
  NodeStack stack = make_stack(sent);
  const net::Topic ack_topic(net::kAckTopicName);
  // The handler sends nothing: one standalone ack frame naming
  // transmission 0 of epoch 0 (count 1 ‖ epoch 0 ‖ tx 0).
  stack.deliver(kFromPeer, [](const net::Message&) { return true; },
                [] { return store::Snapshot{}; });
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].topic, ack_topic);
  EXPECT_EQ(sent[0].payload, (Bytes{1, 0, 0}));

  // The handler replies to the sender: the ack rides the reply's header.
  sent.clear();
  net::Message second = kFromPeer;
  second.payload = SharedBytes(Bytes{0xAB, 0, 1, 0, 4});
  stack.deliver(
      second,
      [&](const net::Message& msg) {
        stack.top().send(msg.from, "ba/vote/1", SharedBytes(Bytes{9}));
        return true;
      },
      [] { return store::Snapshot{}; });
  ASSERT_EQ(sent.size(), 1u);
  // magic ‖ epoch 0 ‖ tx 0 ‖ (count 1 ‖ epoch 0 ‖ tx 1) ‖ payload
  EXPECT_EQ(sent[0].payload, (Bytes{0xAB, 0, 0, 1, 0, 1, 9}));
  EXPECT_EQ(stack.reliability_stats().acks_piggybacked, 1u);
  EXPECT_EQ(stack.reliability_stats().acks_sent, 1u);
}

TEST(NodeStack, EachBuildStampsTheNextEpoch) {
  std::vector<net::Message> sent;
  NodeStack stack = make_stack(sent);
  for (std::uint8_t epoch = 0; epoch < 3; ++epoch) {
    if (epoch > 0) stack.build();
    sent.clear();
    stack.top().send(1, "ba/vote/0", SharedBytes(Bytes{7}));
    ASSERT_EQ(sent.size(), 1u);
    // magic ‖ epoch ‖ tx 0 (a fresh link numbers from 0) ‖ no acks ‖ payload
    EXPECT_EQ(sent[0].payload, (Bytes{0xAB, epoch, 0, 0, 7}));
  }
}

}  // namespace
}  // namespace dauct::runtime
