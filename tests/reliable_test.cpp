// Reliable-delivery layer tests (net/reliable.hpp + the timer plumbing and
// round watchdogs behind it).
//
// Four layers of guarantees:
//  * equivalence — reliability disabled is byte-identical to the
//    pre-reliability implementation (full golden fingerprints), and
//    reliability enabled over a fault-free link reproduces every golden
//    *result digest* (acks change traffic and timing, never the outcome);
//  * link mechanics — ack loss is absorbed (retransmit of an already
//    delivered message is dedup'd end-to-end and re-acked), retries
//    exhausted reports a clean give-up, duplicates never reach the app;
//  * timers — a crash-stop node's due timers are discarded with the node;
//  * recovery — lossy and crash-recover runs complete with the fault-free
//    result through retransmits and targeted re-requests.
#include <gtest/gtest.h>

#include <map>

#include "core/adapters.hpp"
#include "crypto/sha256.hpp"
#include "net/reliable.hpp"
#include "net/sim_transport.hpp"
#include "runtime/sim_runtime.hpp"
#include "serde/auction_codec.hpp"
#include "test_util.hpp"

namespace dauct {
namespace {

// ---------------------------------------------------------------------------
// Link mechanics over a two-node scheduler
// ---------------------------------------------------------------------------

/// Two providers wired through ReliableLinks over a lan-latency scheduler.
struct LinkNet {
  sim::Scheduler scheduler;
  net::SimEndpoint ep0, ep1;
  net::ReliableLink link0, link1;
  std::vector<net::Message> app0, app1;  ///< what survives past the links

  explicit LinkNet(const net::ReliabilityConfig& cfg, std::uint64_t seed = 7)
      : scheduler(2, sim::LatencyModel::lan(), seed, sim::CostMode::kZero),
        ep0(scheduler, 0, 2, 100),
        ep1(scheduler, 1, 2, 101),
        link0(ep0, cfg),
        link1(ep1, cfg) {
    // on_deliver strips the link wire header in place (aliasing copy, like
    // the runtime's deliver hook), so the app vectors hold logical payloads;
    // owed acks leave when the handler returns, as in runtime::NodeStack.
    scheduler.set_deliver(0, [this](const net::Message& m) {
      net::Message unwrapped = m;
      if (link0.on_deliver(unwrapped)) app0.push_back(unwrapped);
      link0.flush_acks();
    });
    scheduler.set_deliver(1, [this](const net::Message& m) {
      net::Message unwrapped = m;
      if (link1.on_deliver(unwrapped)) app1.push_back(unwrapped);
      link1.flush_acks();
    });
  }

  /// Make node 1 answer every delivered data frame by sending `reply` back
  /// to the sender from inside the deliver handler — the pattern that lets
  /// an owed ack ride the reply for free.
  void reply_from_node1(const Bytes& reply) {
    scheduler.set_deliver(1, [this, reply](const net::Message& m) {
      net::Message unwrapped = m;
      if (link1.on_deliver(unwrapped)) {
        app1.push_back(unwrapped);
        link1.send(unwrapped.from, "t/reply", SharedBytes(Bytes(reply)));
      }
      link1.flush_acks();
    });
  }
};

/// `payload` as a provider data frame on the wire from a link of epoch 0:
/// magic ‖ epoch 0 ‖ transmission `tx` ‖ no acks ‖ payload.
SharedBytes wire_frame(std::uint8_t tx, Bytes payload) {
  payload.insert(payload.begin(), {0xAB, 0, tx, 0});
  return SharedBytes(std::move(payload));
}

net::ReliabilityConfig fast_config() {
  net::ReliabilityConfig cfg;
  cfg.enable = true;
  cfg.retransmit_delay = sim::from_millis(1);
  cfg.max_retries = 5;
  cfg.round_timeout = 0;  // watchdogs exercised separately
  return cfg;
}

TEST(ReliableLink, AckLossRecoveredByRetransmitAndReAck) {
  // Acks (1 → 0) are lost until 1.5 ms; the data direction is clean. The
  // sender must retransmit, the receiver must suppress the duplicate AND
  // re-ack it, and the pending entry must drain once the window lifts.
  sim::FaultPlan plan;
  sim::LinkFault rule;
  rule.from = 1;
  rule.to = 0;
  rule.symmetric = false;
  rule.drop = 1.0;
  rule.active_until = sim::from_micros(1'500);
  plan.links.push_back(rule);

  LinkNet net(fast_config());
  net.scheduler.install_fault_plan(plan);
  net.link0.send(1, "t/data", SharedBytes(Bytes{1, 2, 3}));
  net.scheduler.run();

  ASSERT_EQ(net.app1.size(), 1u) << "dedup failed end-to-end";
  EXPECT_EQ(net.app1[0].payload, (Bytes{1, 2, 3}));
  EXPECT_GE(net.link0.stats().retransmits, 1u);
  EXPECT_GE(net.link1.stats().duplicates_suppressed, 1u);
  EXPECT_GE(net.link1.stats().acks_sent, 2u) << "duplicates must be re-acked";
  EXPECT_GE(net.link0.stats().acks_received, 1u) << "pending entry never drained";
  EXPECT_EQ(net.link0.stats().give_ups, 0u);
}

TEST(ReliableLink, RetriesExhaustedReportsCleanGiveUp) {
  sim::FaultPlan plan;
  sim::LinkFault rule;
  rule.from = 0;
  rule.to = 1;
  rule.symmetric = false;
  rule.drop = 1.0;  // the peer is unreachable, forever
  plan.links.push_back(rule);

  net::ReliabilityConfig cfg = fast_config();
  cfg.max_retries = 2;
  LinkNet net(cfg);
  net.scheduler.install_fault_plan(plan);

  NodeId gave_up_on = kNoNode;
  std::string gave_up_topic;
  std::size_t gave_up_attempts = 0;
  int give_up_calls = 0;
  net.link0.set_on_give_up(
      [&](NodeId to, const net::Topic& topic, std::size_t attempts) {
        ++give_up_calls;
        gave_up_on = to;
        gave_up_topic = topic.str();
        gave_up_attempts = attempts;
      });

  net.link0.send(1, "t/data", SharedBytes(Bytes{9}));
  net.scheduler.run();  // must drain: the retransmit chain is bounded

  EXPECT_TRUE(net.app1.empty());
  EXPECT_EQ(give_up_calls, 1);
  EXPECT_EQ(gave_up_on, 1u);
  EXPECT_EQ(gave_up_topic, "t/data");
  EXPECT_EQ(gave_up_attempts, 3u);  // original + max_retries retransmits
  EXPECT_EQ(net.link0.stats().retransmits, 2u);
  EXPECT_EQ(net.link0.stats().give_ups, 1u);
}

TEST(ReliableLink, NetworkDuplicatesNeverReachTheApp) {
  sim::FaultPlan plan;
  sim::LinkFault rule;
  rule.duplicate = 1.0;  // every message delivered twice, both directions
  plan.links.push_back(rule);

  LinkNet net(fast_config());
  net.scheduler.install_fault_plan(plan);
  net.link0.send(1, "t/data", SharedBytes(Bytes{5, 6}));
  net.scheduler.run();

  ASSERT_EQ(net.app1.size(), 1u);
  EXPECT_GE(net.link1.stats().duplicates_suppressed, 1u);
  // The duplicated ack is consumed harmlessly (second erase misses).
  EXPECT_GE(net.link0.stats().acks_received, 2u);
  EXPECT_EQ(net.link0.stats().give_ups, 0u);
}

TEST(ReliableLink, ReRequestAnsweredFromSentCache) {
  LinkNet net(fast_config());
  net.link0.send(1, "round/x", SharedBytes(Bytes{7, 7}));
  net.scheduler.run();
  ASSERT_EQ(net.app1.size(), 1u);

  // Node 1 re-requests the round topic (what a round watchdog sends); node 0
  // must answer from its last-sent cache and node 1 must dedup the copy.
  const std::string topic = "round/x";
  net.link1.send(0, net::kRetransmitRequestTopicName,
                 SharedBytes(Bytes(topic.begin(), topic.end())));
  net.scheduler.run();

  EXPECT_EQ(net.app1.size(), 1u) << "re-sent copy leaked past dedup";
  EXPECT_EQ(net.link0.stats().rerequests_answered, 1u);
  EXPECT_EQ(net.link1.stats().rerequests_sent, 1u);
  EXPECT_GE(net.link1.stats().duplicates_suppressed, 1u);
}

TEST(ReliableLink, UnknownControlTopicNamesAreDroppedWithoutInterning) {
  // Re-request frames carry peer-chosen topic strings; a name no local block
  // ever interned must be dropped via the find-only lookup, never interned —
  // the append-only registry stays bounded by protocol structure. An ack
  // frame naming a topic and a digest is not an ack block: dropped too.
  LinkNet net(fast_config());
  const std::size_t before = net::topic_registry_size();

  const std::string garbage = "hostile/unseen-topic-87c1";
  net::Message rreq{0, 1, net::kRetransmitRequestTopicName,
                    SharedBytes(Bytes(garbage.begin(), garbage.end()))};
  EXPECT_FALSE(net.link1.on_deliver(rreq));

  Bytes ack_payload(garbage.begin(), garbage.end());
  ack_payload.resize(garbage.size() + 32, 0);  // + a 32-byte "digest"
  net::Message ack{0, 1, net::kAckTopicName, SharedBytes(std::move(ack_payload))};
  EXPECT_FALSE(net.link1.on_deliver(ack));

  EXPECT_EQ(net::topic_registry_size(), before)
      << "a forged control frame grew the topic registry";
  EXPECT_EQ(net.link1.stats().rerequests_answered, 0u);
  EXPECT_EQ(net.link1.stats().acks_received, 0u);
}

/// Endpoint without a timer facility (inherits the default schedule_after).
class TimerlessEndpoint final : public blocks::Endpoint {
 public:
  explicit TimerlessEndpoint(std::size_t m) : m_(m), rng_(1) {}
  NodeId self() const override { return 0; }
  std::size_t num_providers() const override { return m_; }
  crypto::Rng& rng() override { return rng_; }
  void send(NodeId to, const net::Topic& topic, SharedBytes payload) override {
    sent.push_back(net::Message{0, to, topic, std::move(payload)});
  }
  std::vector<net::Message> sent;

 private:
  std::size_t m_;
  crypto::Rng rng_;
};

TEST(ReliableLink, DegradesToFireAndForgetOverATimerlessEndpoint) {
  // Over an endpoint that cannot schedule timers (thread/TCP runtimes) the
  // link must not accumulate pending entries nothing can ever retire: sends
  // pass through untracked, acks and dedup still function.
  net::ReliabilityConfig cfg;
  cfg.enable = true;
  TimerlessEndpoint ep(2);
  net::ReliableLink link(ep, cfg);

  for (int i = 0; i < 3; ++i) {
    link.send(1, "t/data", SharedBytes(Bytes{static_cast<std::uint8_t>(i)}));
  }
  EXPECT_EQ(ep.sent.size(), 3u) << "sends must still reach the wire";
  EXPECT_EQ(link.stats().tracked, 0u) << "untracked: nothing could retransmit";

  // Inbound data is still acked and deduplicated.
  for (const bool fresh : {true, false}) {
    net::Message data{1, 0, "t/data", wire_frame(0, Bytes{9})};
    EXPECT_EQ(link.on_deliver(data), fresh);
    link.flush_acks();
  }
  EXPECT_EQ(link.stats().acks_sent, 2u);
  EXPECT_EQ(link.stats().duplicates_suppressed, 1u);
}

TEST(ReliableLink, DedupSetsAreBoundedByTheConfiguredWindow) {
  // Regression for the unbounded-growth bug: the receiver dedup set and the
  // sender key history used to grow with every distinct message for the life
  // of the link. Both are now FIFO-capped at dedup_window entries.
  net::ReliabilityConfig cfg;
  cfg.enable = true;
  cfg.dedup_window = 8;
  TimerlessEndpoint ep(2);
  net::ReliableLink link(ep, cfg);

  for (int i = 0; i < 100; ++i) {
    const auto b = static_cast<std::uint8_t>(i);
    net::Message m{1, 0, "t/data", wire_frame(b, Bytes{b, 0x5a})};
    EXPECT_TRUE(link.on_deliver(m));
    EXPECT_LE(link.dedup_entries(), 8u);
    link.send(1, "t/data", SharedBytes(Bytes{b, 0x77}));
    EXPECT_LE(link.sent_key_entries(), 8u);
  }
  EXPECT_EQ(link.dedup_entries(), 8u);
  EXPECT_EQ(link.sent_key_entries(), 8u);
  EXPECT_EQ(link.stats().dedup_evictions, 2u * (100 - 8));
  EXPECT_EQ(link.stats().sender_key_reuses, 0u);

  // FIFO semantics: a key still inside the window dedups...
  net::Message recent{1, 0, "t/data", wire_frame(100, Bytes{99, 0x5a})};
  EXPECT_FALSE(link.on_deliver(recent));
  // ...while one evicted long ago is accepted again — the documented
  // trade-off: eviction only forgets messages whose retransmission window
  // has closed, so a "duplicate" this stale cannot occur in a real run.
  net::Message ancient{1, 0, "t/data", wire_frame(101, Bytes{0, 0x5a})};
  EXPECT_TRUE(link.on_deliver(ancient));
}

TEST(ReliableLink, SenderKeyReuseIsCountedNotSilentlySwallowed) {
  // The dedup key is (peer, topic, sha256(payload)): if a block re-sent an
  // identical payload as a *new* logical message, receiver-side dedup would
  // silently swallow it. The link counts exactly that pattern on the sender
  // side so the invariant is observable (and pinned to 0 over real runs).
  net::ReliabilityConfig cfg;
  cfg.enable = true;
  TimerlessEndpoint ep(2);
  net::ReliableLink link(ep, cfg);

  link.send(1, "t/data", SharedBytes(Bytes{1, 2}));
  EXPECT_EQ(link.stats().sender_key_reuses, 0u);
  link.send(1, "t/data", SharedBytes(Bytes{1, 2}));  // identical key: flagged
  EXPECT_EQ(link.stats().sender_key_reuses, 1u);
  link.send(1, "t/data", SharedBytes(Bytes{3}));       // new payload: fine
  link.send(1, "t/other", SharedBytes(Bytes{1, 2}));   // new topic: fine
  link.send(0, "t/data", SharedBytes(Bytes{1, 2}));    // new peer: fine
  EXPECT_EQ(link.stats().sender_key_reuses, 1u);
}

// ---------------------------------------------------------------------------
// Piggybacked ack vectors (link wire header)
// ---------------------------------------------------------------------------

TEST(PiggybackAcks, AckRidesAReplyDataFrameInsteadOfItsOwnMessage) {
  // Node 1 replies to every delivery from inside the handler: the ack owed
  // for the inbound frame must ride the reply's link header (count 1), and
  // the flush when the handler returns finds nothing left to send alone.
  LinkNet net(fast_config());
  net.reply_from_node1(Bytes{0x42});
  net.link0.send(1, "t/data", SharedBytes(Bytes{1, 2, 3}));
  net.scheduler.run();

  ASSERT_EQ(net.app1.size(), 1u);
  EXPECT_EQ(net.app1[0].payload, (Bytes{1, 2, 3})) << "header not stripped";
  ASSERT_EQ(net.app0.size(), 1u);
  EXPECT_EQ(net.app0[0].payload, (Bytes{0x42}));
  EXPECT_EQ(net.link1.stats().acks_piggybacked, 1u);
  EXPECT_EQ(net.link1.stats().acks_sent, 0u)
      << "the carried ack went out standalone anyway";
  EXPECT_GE(net.link0.stats().acks_received, 1u) << "carried ack not processed";
  // Node 0 has no data frame to carry its ack for the reply: standalone.
  EXPECT_EQ(net.link0.stats().acks_sent, 1u);
  EXPECT_EQ(net.link0.stats().give_ups, 0u);
  EXPECT_EQ(net.link1.stats().give_ups, 0u);
}

TEST(PiggybackAcks, MalformedHeaderIsDroppedNotDelivered) {
  // Every provider data frame must carry the header; a frame without the
  // magic (corruption, or a peer speaking another format) is dropped at the
  // link rather than delivered with garbage acks parsed.
  net::ReliabilityConfig cfg = fast_config();
  TimerlessEndpoint ep(2);
  net::ReliableLink link(ep, cfg);

  net::Message bare{1, 0, "t/data", SharedBytes(Bytes{9, 9, 9})};
  EXPECT_FALSE(link.on_deliver(bare));
  EXPECT_EQ(link.stats().duplicates_suppressed, 0u);
}

TEST(PiggybackAcks, TimerlessEndpointAcksWhenTheHandlerReturns) {
  // Acks leave at flush_acks(), which needs no timer facility: a timerless
  // link (thread/TCP runtimes) speaks the same wire format as a simulated one.
  net::ReliabilityConfig cfg;
  cfg.enable = true;
  TimerlessEndpoint ep(2);
  net::ReliableLink link(ep, cfg);

  const SharedBytes wrapped = wire_frame(5, Bytes{0x07});
  net::Message copy{1, 0, "t/data", wrapped};
  EXPECT_TRUE(link.on_deliver(copy));
  EXPECT_EQ(copy.payload, (Bytes{0x07})) << "header not stripped";
  EXPECT_EQ(link.stats().acks_sent, 0u) << "an ack left before the handler returned";
  link.flush_acks();
  ASSERT_EQ(ep.sent.size(), 1u);
  EXPECT_EQ(ep.sent[0].topic, net::Topic(net::kAckTopicName));
  EXPECT_EQ(ep.sent[0].payload, (Bytes{1, 0, 5})) << "count 1 ‖ epoch 0 ‖ tx 5";
  net::Message again{1, 0, "t/data", wrapped};
  EXPECT_FALSE(link.on_deliver(again)) << "dedup must key the unwrapped payload";
  link.flush_acks();
  EXPECT_EQ(link.stats().acks_sent, 2u) << "duplicates must be re-acked";
}

TEST(PiggybackAcks, AFlushSendsOneAckFramePerOwedPeer) {
  // Three frames from peer 2 and one from peer 1 before the flush: one ack
  // frame each, in peer order, naming every transmission owed.
  net::ReliabilityConfig cfg;
  cfg.enable = true;
  TimerlessEndpoint ep(4);
  net::ReliableLink link(ep, cfg);
  for (const std::uint8_t tx : {3, 4, 9}) {
    net::Message m{2, 0, "t/data", wire_frame(tx, Bytes{tx})};
    ASSERT_TRUE(link.on_deliver(m));
  }
  net::Message m{1, 0, "t/data", wire_frame(0, Bytes{1})};
  ASSERT_TRUE(link.on_deliver(m));
  link.flush_acks();
  ASSERT_EQ(ep.sent.size(), 2u);
  EXPECT_EQ(ep.sent[0].to, 1u);
  EXPECT_EQ(ep.sent[0].payload, (Bytes{1, 0, 0}));
  EXPECT_EQ(ep.sent[1].to, 2u);
  EXPECT_EQ(ep.sent[1].payload, (Bytes{3, 0, 3, 4, 9}));
  EXPECT_EQ(link.stats().acks_sent, 2u);
  link.flush_acks();
  EXPECT_EQ(ep.sent.size(), 2u) << "a second flush found acks still owed";
}

// ---------------------------------------------------------------------------
// Per-peer retransmission timeout (RFC 6298 estimator, one sample per ack)
// ---------------------------------------------------------------------------

/// m providers behind ReliableLinks on a kZero scheduler with a fixed,
/// jitter-free one-way delay and no per-byte or receive costs: every round
/// trip is exactly 2·(one-way + node delays), so timeouts can be computed by
/// hand. Data frames ("t/..." topics) are timestamped on arrival; a "deaf"
/// node drops them before its link (no dedup, no ack).
struct RttNet {
  sim::Scheduler scheduler;
  std::vector<std::unique_ptr<net::SimEndpoint>> eps;
  std::vector<std::unique_ptr<net::ReliableLink>> links;
  std::vector<std::vector<sim::SimTime>> arrivals;
  std::vector<bool> deaf;

  RttNet(std::size_t m, sim::SimTime one_way, const net::ReliabilityConfig& cfg)
      : scheduler(m, sim::LatencyModel{one_way, 0, 0.0, 0}, 7, sim::CostMode::kZero),
        arrivals(m),
        deaf(m, false) {
    for (NodeId j = 0; j < m; ++j) {
      eps.push_back(std::make_unique<net::SimEndpoint>(scheduler, j, m, 100 + j));
      links.push_back(std::make_unique<net::ReliableLink>(*eps.back(), cfg));
      scheduler.set_deliver(j, [this, j](const net::Message& msg) {
        if (msg.topic.str().starts_with("t/")) {
          arrivals[j].push_back(scheduler.now());
          if (deaf[j]) return;
        }
        net::Message unwrapped = msg;
        links[j]->on_deliver(unwrapped);
        links[j]->flush_acks();
      });
    }
  }

  /// Send from inside node `from`'s context at exactly `at`.
  void send_at(sim::SimTime at, NodeId from, NodeId to, std::string topic) {
    scheduler.schedule_timer(at, from, [this, from, to, topic] {
      links[from]->send(to, net::Topic(topic), SharedBytes(Bytes(topic.begin(), topic.end())));
    });
  }
};

/// A SimEndpoint that counts the data frames ("t/..." topics) it puts on the
/// wire, per sender, receiver and topic: the transmissions of each frame.
class TapEndpoint final : public blocks::Endpoint {
 public:
  TapEndpoint(sim::Scheduler& scheduler, NodeId self, std::size_t m,
              std::map<std::string, int>& counts)
      : base_(scheduler, self, m, 100 + self), counts_(counts) {}
  NodeId self() const override { return base_.self(); }
  std::size_t num_providers() const override { return base_.num_providers(); }
  crypto::Rng& rng() override { return base_.rng(); }
  bool schedule_after(std::int64_t delay_ns, std::function<void()> fn) override {
    return base_.schedule_after(delay_ns, std::move(fn));
  }
  std::int64_t local_time() const override { return base_.local_time(); }
  std::int64_t event_time() const override { return base_.event_time(); }
  void send(NodeId to, const net::Topic& topic, SharedBytes payload) override {
    if (topic.str().starts_with("t/")) {
      ++counts_[std::to_string(self()) + ">" + std::to_string(to) + topic.str()];
    }
    base_.send(to, topic, std::move(payload));
  }

 private:
  net::SimEndpoint base_;
  std::map<std::string, int>& counts_;
};

net::ReliabilityConfig rtt_config() {
  net::ReliabilityConfig cfg;
  cfg.enable = true;
  cfg.retransmit_delay = sim::from_millis(8);
  cfg.max_retries = 3;
  cfg.round_timeout = 0;
  return cfg;
}

/// Two clean 6 ms round trips 0 → 1 (one-way 3 ms): SRTT = 6 ms, RTTVAR =
/// (3·3 ms + |6 − 6| ms)/4 = 2.25 ms, RTO = 6 + 4·2.25 = 15 ms.
constexpr sim::SimTime kLearnedRto = sim::from_millis(15);

void learn_two_six_ms_round_trips(RttNet& net) {
  net.send_at(0, 0, 1, "t/a");
  net.send_at(sim::from_millis(20), 0, 1, "t/b");
  net.scheduler.run();
  EXPECT_EQ(net.links[0]->stats().retransmits, 0u);
  EXPECT_EQ(net.links[0]->rto(1), kLearnedRto);
}

TEST(RtoEstimator, WithoutASampleTheScheduleIsTheFixedBackoff) {
  // No ack ever comes back: every attempt follows retransmit_delay · 2^i from
  // the previous one, exactly the schedule of a fixed backoff base.
  const net::ReliabilityConfig cfg = rtt_config();
  RttNet net(2, sim::from_millis(3), cfg);
  net.deaf[1] = true;
  sim::SimTime gave_up_at = -1;
  net.links[0]->set_on_give_up(
      [&](NodeId, const net::Topic&, std::size_t) { gave_up_at = net.scheduler.now(); });
  EXPECT_EQ(net.links[0]->rto(1), cfg.retransmit_delay);
  net.send_at(0, 0, 1, "t/x");
  net.scheduler.run();

  const sim::SimTime d = cfg.retransmit_delay, one_way = sim::from_millis(3);
  EXPECT_EQ(net.arrivals[1], (std::vector<sim::SimTime>{one_way, one_way + d,
                                                         one_way + 3 * d, one_way + 7 * d}));
  EXPECT_EQ(gave_up_at, 15 * d);
  EXPECT_EQ(net.links[0]->rto(1), d) << "a peer that never acked has no sample";
}

TEST(RtoEstimator, FirstRetransmitFiresAtTheHandComputedTimeout) {
  RttNet net(2, sim::from_millis(3), rtt_config());
  learn_two_six_ms_round_trips(net);
  // A third sample of 10 ms (node 1 now 2 ms further away each way):
  // RTTVAR = (3·2.25 + |6 − 10|)/4 = 2.6875 ms, SRTT = (7·6 + 10)/8 = 6.5 ms,
  // RTO = 6.5 + 4·2.6875 = 17.25 ms.
  net.scheduler.set_node_delay(1, sim::from_millis(2));
  net.send_at(sim::from_millis(40), 0, 1, "t/c");
  net.scheduler.run();
  ASSERT_EQ(net.links[0]->stats().retransmits, 0u);
  EXPECT_EQ(net.links[0]->rto(1), sim::from_micros(17'250));

  net.deaf[1] = true;
  net.arrivals[1].clear();
  const sim::SimTime t = sim::from_millis(80), one_way = sim::from_millis(5);
  net.send_at(t, 0, 1, "t/d");
  net.scheduler.run();
  ASSERT_GE(net.arrivals[1].size(), 2u);
  EXPECT_EQ(net.arrivals[1][0], t + one_way);
  EXPECT_EQ(net.arrivals[1][1], t + sim::from_micros(17'250) + one_way);
}

TEST(RtoEstimator, MeasuredTimeoutNeverDropsBelowTheFloor) {
  // 2 ms round trips: SRTT + 4·RTTVAR = 2 + 4·1 = 6 ms, then 2 + 4·0.75 =
  // 5 ms, both under the 8 ms floor.
  const net::ReliabilityConfig cfg = rtt_config();
  RttNet net(2, sim::from_millis(1), cfg);
  net.send_at(0, 0, 1, "t/a");
  net.scheduler.run();
  EXPECT_EQ(net.links[0]->rto(1), cfg.retransmit_delay);
  net.send_at(sim::from_millis(20), 0, 1, "t/b");
  net.scheduler.run();
  EXPECT_EQ(net.links[0]->rto(1), cfg.retransmit_delay);
}

/// After kLearnedRto's two 6 ms samples, a third 6 ms sample: RTTVAR =
/// (3·2.25 + 0)/4 = 1.6875 ms, SRTT = 6 ms, RTO = 6 + 4·1.6875 = 12.75 ms.
constexpr sim::SimTime kThirdSampleRto = sim::from_micros(12'750);

TEST(RtoEstimator, AckOfARetransmissionSamplesThatTransmission) {
  // Node 1 misses the original; the 15 ms timer retransmits, and the ack
  // names the retransmission, so its 6 ms round trip is a clean sample (a
  // digest-keyed ack could not say which copy it answered).
  RttNet net(2, sim::from_millis(3), rtt_config());
  learn_two_six_ms_round_trips(net);
  const sim::SimTime t = sim::from_millis(40);
  net.deaf[1] = true;
  net.send_at(t, 0, 1, "t/k");
  net.scheduler.schedule_timer(t + sim::from_millis(5), 1, [&net] { net.deaf[1] = false; });
  net.scheduler.run();
  EXPECT_EQ(net.links[0]->stats().retransmits, 1u);
  EXPECT_EQ(net.links[0]->stats().give_ups, 0u);
  EXPECT_EQ(net.links[0]->stats().rtt_samples, 3u);
  EXPECT_EQ(net.links[0]->rto(1), kThirdSampleRto);
}

TEST(RtoEstimator, AckOfAReRequestAnswerSamplesTheAnswer) {
  // Node 1 misses the original and re-requests it 5 ms later; the answer is
  // a fresh transmission of the pending frame, so its ack retires the frame
  // 14 ms after the original send — before the 15 ms retransmit — and
  // samples the answer's own 6 ms round trip.
  RttNet net(2, sim::from_millis(3), rtt_config());
  learn_two_six_ms_round_trips(net);
  const sim::SimTime t = sim::from_millis(40);
  net.deaf[1] = true;
  net.send_at(t, 0, 1, "t/r");
  net.scheduler.schedule_timer(t + sim::from_millis(5), 1, [&net] {
    net.deaf[1] = false;
    const std::string topic = "t/r";
    net.links[1]->send(0, net::kRetransmitRequestTopicName,
                       SharedBytes(Bytes(topic.begin(), topic.end())));
  });
  net.scheduler.run();
  EXPECT_EQ(net.links[0]->stats().rerequests_answered, 1u);
  EXPECT_EQ(net.links[0]->stats().retransmits, 0u);
  EXPECT_EQ(net.links[0]->stats().rtt_samples, 3u);
  EXPECT_EQ(net.links[0]->rto(1), kThirdSampleRto);
}

TEST(RtoEstimator, LossyRunSamplesMoreRoundTripsThanFramesSentOnce) {
  // Four links trade 40 frames per ordered pair over a 20%-loss wire. A tap
  // under each link counts the transmissions of every logical frame: with
  // Karn's rule only the frames that went out exactly once could give a
  // sample; here every frame an ack retires gives one.
  constexpr std::size_t m = 4;
  sim::Scheduler scheduler(m, sim::LatencyModel{sim::from_millis(3), 0, 0.0, 0}, 7,
                           sim::CostMode::kZero);
  sim::FaultPlan plan;
  plan.seed = 5;
  sim::LinkFault rule;
  rule.drop = 0.2;
  plan.links.push_back(rule);
  scheduler.install_fault_plan(plan);
  net::ReliabilityConfig cfg = rtt_config();
  cfg.max_retries = 8;  // no give-ups: every frame ends retired by an ack
  std::map<std::string, int> transmissions;  // "from>to topic" → copies sent
  std::vector<std::unique_ptr<TapEndpoint>> taps;
  std::vector<std::unique_ptr<net::ReliableLink>> links;
  for (NodeId j = 0; j < m; ++j) {
    taps.push_back(std::make_unique<TapEndpoint>(scheduler, j, m, transmissions));
    links.push_back(std::make_unique<net::ReliableLink>(*taps.back(), cfg));
    scheduler.set_deliver(j, [&links, j](const net::Message& msg) {
      net::Message unwrapped = msg;
      links[j]->on_deliver(unwrapped);
      links[j]->flush_acks();
    });
  }
  for (int i = 0; i < 40; ++i) {
    for (NodeId a = 0; a < m; ++a) {
      for (NodeId b = 0; b < m; ++b) {
        if (a == b) continue;
        const std::string topic = "t/" + std::to_string(i);
        scheduler.schedule_timer(sim::from_millis(2 * i), a, [&links, a, b, topic] {
          links[a]->send(b, net::Topic(topic), SharedBytes(Bytes(topic.begin(), topic.end())));
        });
      }
    }
  }
  scheduler.run();

  net::ReliabilityStats total;
  for (const auto& link : links) total += link->stats();
  std::size_t sent_once = 0;
  for (const auto& [frame, copies] : transmissions) sent_once += copies == 1 ? 1 : 0;
  ASSERT_EQ(transmissions.size(), 40u * m * (m - 1));
  EXPECT_EQ(total.give_ups, 0u);
  EXPECT_GT(total.retransmits, 0u);
  EXPECT_EQ(total.rtt_samples, total.tracked) << "every frame retired by an ack samples";
  EXPECT_GT(total.rtt_samples, sent_once);
}

TEST(RtoEstimator, BackoffDoublesFromTheLearnedTimeoutUntilGiveUp) {
  RttNet net(2, sim::from_millis(3), rtt_config());
  learn_two_six_ms_round_trips(net);
  net.deaf[1] = true;
  net.arrivals[1].clear();
  sim::SimTime gave_up_at = -1;
  std::size_t attempts = 0;
  net.links[0]->set_on_give_up([&](NodeId, const net::Topic&, std::size_t a) {
    gave_up_at = net.scheduler.now();
    attempts = a;
  });
  const sim::SimTime t = sim::from_millis(40), one_way = sim::from_millis(3);
  const sim::SimTime r = kLearnedRto;
  net.send_at(t, 0, 1, "t/x");
  net.scheduler.run();
  EXPECT_EQ(net.arrivals[1],
            (std::vector<sim::SimTime>{t + one_way, t + r + one_way,
                                       t + 3 * r + one_way, t + 7 * r + one_way}));
  EXPECT_EQ(attempts, 4u);  // original + max_retries (3)
  EXPECT_EQ(gave_up_at, t + 15 * r);
  EXPECT_EQ(net.links[0]->stats().give_ups, 1u);
}

TEST(RtoEstimator, EachPeerKeepsItsOwnEstimate) {
  // One 12 ms peer and one 28 ms peer behind the same link, 30 ms floor
  // (above both round trips, so neither first send is retransmitted):
  // after one sample each, RTO = 3·RTT — 36 ms and 84 ms.
  net::ReliabilityConfig cfg = rtt_config();
  cfg.retransmit_delay = sim::from_millis(30);
  RttNet net(4, sim::from_millis(6), cfg);
  net.scheduler.set_node_delay(2, sim::from_millis(8));
  net.send_at(0, 0, 2, "t/slow");
  net.send_at(sim::from_millis(1), 0, 1, "t/fast");
  net.scheduler.run();
  ASSERT_EQ(net.links[0]->stats().retransmits, 0u);
  EXPECT_EQ(net.links[0]->rto(1), sim::from_millis(36));
  EXPECT_EQ(net.links[0]->rto(2), sim::from_millis(84));
  EXPECT_EQ(net.links[0]->rto(3), cfg.retransmit_delay) << "peer 3 has no sample";

  // The fast peer's next loss is retransmitted on its own 36 ms timeout.
  net.deaf[1] = true;
  net.arrivals[1].clear();
  const sim::SimTime t = sim::from_millis(100);
  net.send_at(t, 0, 1, "t/fast2");
  net.scheduler.run();
  ASSERT_GE(net.arrivals[1].size(), 2u);
  EXPECT_EQ(net.arrivals[1][1] - net.arrivals[1][0], sim::from_millis(36));
}

// ---------------------------------------------------------------------------
// Timer semantics
// ---------------------------------------------------------------------------

TEST(SchedulerTimer, DueTimersOfACrashStopNodeAreDiscarded) {
  sim::Scheduler scheduler(2, sim::LatencyModel::zero(), 1, sim::CostMode::kZero);
  sim::FaultPlan plan;
  plan.crashes.push_back(sim::CrashEvent{0, sim::from_millis(1)});  // crash-stop
  scheduler.install_fault_plan(plan);

  bool fired_on_crashed = false;
  bool fired_on_healthy = false;
  scheduler.schedule_timer(sim::from_millis(2), 0,
                           [&] { fired_on_crashed = true; });
  scheduler.schedule_timer(sim::from_millis(2), 1,
                           [&] { fired_on_healthy = true; });
  scheduler.run();

  EXPECT_FALSE(fired_on_crashed) << "a crash-stop node fired a timer";
  EXPECT_TRUE(fired_on_healthy);
}

TEST(SchedulerTimer, TimerBeforeCrashWindowStillFires) {
  sim::Scheduler scheduler(1, sim::LatencyModel::zero(), 1, sim::CostMode::kZero);
  sim::FaultPlan plan;
  plan.crashes.push_back(sim::CrashEvent{0, sim::from_millis(5)});
  scheduler.install_fault_plan(plan);

  bool fired = false;
  scheduler.schedule_timer(sim::from_millis(2), 0, [&] { fired = true; });
  scheduler.run();
  EXPECT_TRUE(fired);
}

// ---------------------------------------------------------------------------
// Round watchdog (RoundCollector::arm)
// ---------------------------------------------------------------------------

/// Endpoint with a hand-cranked timer wheel: callbacks are stored and fired
/// by the test (which sets `now`, the event time), sends are recorded.
class ManualTimerEndpoint final : public blocks::Endpoint {
 public:
  ManualTimerEndpoint(std::size_t m, std::int64_t timeout)
      : m_(m), timeout_(timeout), rng_(1) {}

  NodeId self() const override { return 0; }
  std::size_t num_providers() const override { return m_; }
  crypto::Rng& rng() override { return rng_; }
  std::int64_t round_timeout() const override { return timeout_; }
  std::int64_t event_time() const override { return now; }
  bool schedule_after(std::int64_t, std::function<void()> fn) override {
    timers.push_back(std::move(fn));
    return true;
  }
  void send(NodeId to, const net::Topic& topic, SharedBytes payload) override {
    sent.push_back(net::Message{0, to, topic, std::move(payload)});
  }

  std::vector<std::function<void()>> timers;
  std::vector<net::Message> sent;
  std::int64_t now = 0;

 private:
  std::size_t m_;
  std::int64_t timeout_;
  crypto::Rng rng_;
};

TEST(RoundWatch, ReRequestsExactlyTheMissingContributions) {
  ManualTimerEndpoint ep(4, /*timeout=*/1000);
  blocks::RoundCollector round(4);
  ASSERT_TRUE(round.add(2, SharedBytes(Bytes{1})));

  const net::Topic topic("ba/vb/v");
  round.arm(ep, topic);
  ASSERT_EQ(ep.timers.size(), 1u);
  ep.timers[0]();  // the watchdog comes due

  ASSERT_EQ(ep.sent.size(), 3u);  // 0, 1, 3 — not 2
  std::vector<NodeId> targets;
  for (const auto& m : ep.sent) {
    EXPECT_EQ(m.topic, net::Topic(net::kRetransmitRequestTopicName));
    EXPECT_EQ(m.payload, Bytes(topic.str().begin(), topic.str().end()));
    targets.push_back(m.to);
  }
  EXPECT_EQ(targets, (std::vector<NodeId>{0, 1, 3}));
  EXPECT_EQ(ep.timers.size(), 2u) << "watchdog did not re-arm";
}

TEST(RoundWatch, CompletionAndCancelDisarm) {
  ManualTimerEndpoint ep(3, 1000);
  const net::Topic topic("coin/commit");
  {
    blocks::RoundCollector round(3);
    round.arm(ep, topic);
    for (NodeId j = 0; j < 3; ++j) {
      round.add(j, SharedBytes(Bytes{static_cast<std::uint8_t>(j)}));
    }
    ASSERT_TRUE(round.complete());
    ep.timers[0]();  // due after completion: must do nothing
    EXPECT_TRUE(ep.sent.empty());
    EXPECT_EQ(ep.timers.size(), 1u);
  }
  {
    blocks::RoundCollector round(3);
    round.arm(ep, topic);
    round.cancel();
    ep.timers[1]();  // due after cancel: must do nothing
    EXPECT_TRUE(ep.sent.empty());
  }
  {
    // Zero timeout (reliability off): arm is a no-op, no timer scheduled.
    ManualTimerEndpoint off(3, 0);
    blocks::RoundCollector round(3);
    round.arm(off, topic);
    EXPECT_TRUE(off.timers.empty());
  }
}

// ---------------------------------------------------------------------------
// Link wire format: epochs and malformed frames
// ---------------------------------------------------------------------------

TEST(LinkWire, AnAckOfAPreviousEpochDoesNotRetireAFrameOfARebuiltLink) {
  // A rebuilt link (epoch 1) numbers its transmissions from 0 again; an ack
  // still in flight for its predecessor's transmission 0 must not retire
  // the new frame 0, which the peer timer then retransmits.
  ManualTimerEndpoint ep(2, 0);
  net::ReliableLink link(ep, fast_config(), /*epoch=*/1);
  link.send(1, "t/data", SharedBytes(Bytes{7}));
  ASSERT_EQ(ep.sent.size(), 1u);
  EXPECT_EQ(ep.sent[0].payload, (Bytes{0xAB, 1, 0, 0, 7}));  // epoch 1, tx 0
  // count 1 ‖ epoch 0 ‖ tx 0
  net::Message stale{1, 0, net::kAckTopicName, SharedBytes(Bytes{1, 0, 0})};
  EXPECT_FALSE(link.on_deliver(stale));
  EXPECT_EQ(link.stats().rtt_samples, 0u);
  ASSERT_EQ(ep.timers.size(), 1u);
  ep.now = sim::from_millis(1);
  ep.timers[0]();
  EXPECT_EQ(link.stats().retransmits, 1u) << "the stale ack retired the frame";
  ASSERT_EQ(ep.sent.size(), 2u);
  EXPECT_EQ(ep.sent[1].payload, (Bytes{0xAB, 1, 1, 0, 7})) << "a retransmit is tx 1";
  // An ack of this epoch naming either transmission retires the frame.
  net::Message current{1, 0, net::kAckTopicName, SharedBytes(Bytes{1, 1, 0})};
  EXPECT_FALSE(link.on_deliver(current));
  EXPECT_EQ(link.stats().rtt_samples, 1u);
  ASSERT_EQ(ep.timers.size(), 2u);
  ep.now = sim::from_millis(3);
  ep.timers[1]();
  EXPECT_EQ(ep.sent.size(), 2u) << "a retired frame was retransmitted";
}

TEST(LinkWire, TruncatedOrFlippedFramesAreDroppedOrParsedInBounds) {
  // Two valid frames from peer 1, every byte of them link header: a data
  // frame with an empty payload carrying one ack, and an ack frame naming
  // two transmissions. Every truncation is dropped with nothing retired. A
  // flipped byte often still spells a well-formed frame (another epoch or
  // transmission number: the header has no checksum), so a flip is either
  // dropped or parsed without reading past the frame — a delivered payload
  // is a suffix of the mutated bytes. The sanitizer jobs run this too.
  // magic ‖ epoch 0 ‖ tx 133 ‖ (count 1 ‖ epoch 0 ‖ tx 3)
  const Bytes data{0xAB, 0x00, 0x85, 0x01, 0x01, 0x00, 0x03};
  // count 2 ‖ epoch 0 ‖ tx 1 ‖ tx 3
  const Bytes ack{0x02, 0x00, 0x01, 0x03};
  struct Seen {
    bool delivered;
    Bytes payload;
    std::uint64_t samples;
  };
  // A fresh link with frames pending under transmissions 0–3 to peer 1.
  const auto deliver = [](std::string_view topic, const Bytes& frame) {
    ManualTimerEndpoint ep(2, 0);
    net::ReliableLink link(ep, fast_config());
    for (std::uint8_t i = 0; i < 4; ++i) link.send(1, "t/out", SharedBytes(Bytes{i}));
    net::Message msg{1, 0, net::Topic(topic), SharedBytes(Bytes(frame))};
    const bool delivered = link.on_deliver(msg);
    link.flush_acks();
    return Seen{delivered, Bytes(msg.payload.view().begin(), msg.payload.view().end()),
                link.stats().rtt_samples};
  };
  const Seen whole_data = deliver("t/in", data);
  EXPECT_TRUE(whole_data.delivered);
  EXPECT_TRUE(whole_data.payload.empty());
  EXPECT_EQ(whole_data.samples, 1u);
  EXPECT_EQ(deliver(net::kAckTopicName, ack).samples, 2u);

  for (const auto& [topic, frame] :
       {std::pair<std::string_view, Bytes>{"t/in", data}, {net::kAckTopicName, ack}}) {
    for (std::size_t len = 0; len < frame.size(); ++len) {
      SCOPED_TRACE(std::string(topic) + " cut to " + std::to_string(len));
      const Seen s = deliver(topic, Bytes(frame.begin(), frame.begin() + len));
      EXPECT_FALSE(s.delivered);
      EXPECT_EQ(s.samples, 0u);
    }
    for (std::size_t at = 0; at < frame.size(); ++at) {
      for (int x = 1; x < 256; ++x) {
        Bytes mutated = frame;
        mutated[at] ^= static_cast<std::uint8_t>(x);
        SCOPED_TRACE(std::string(topic) + " byte " + std::to_string(at) + " ^ " +
                     std::to_string(x));
        const Seen s = deliver(topic, mutated);
        if (topic == "t/in" && at == 0) {
          EXPECT_FALSE(s.delivered) << "magic flipped";
        }
        EXPECT_LE(s.samples, 2u);
        if (!s.delivered) continue;
        ASSERT_LT(s.payload.size(), mutated.size());
        EXPECT_TRUE(std::equal(s.payload.rbegin(), s.payload.rend(), mutated.rbegin()));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end equivalence and recovery
// ---------------------------------------------------------------------------

runtime::SimRunResult run_golden(const testutil::GoldenRun& g,
                                 std::optional<sim::FaultPlan> faults,
                                 net::ReliabilityConfig reliability) {
  core::AuctioneerSpec spec;
  spec.m = g.m;
  spec.k = g.k;
  spec.num_bidders = g.n;
  std::shared_ptr<core::AuctionAdapter> adapter;
  if (g.standard) {
    auction::StandardAuctionParams p;
    p.epsilon = 0.25;
    adapter = std::make_shared<core::StandardAuctionAdapter>(p);
  } else {
    adapter = std::make_shared<core::DoubleAuctionAdapter>();
  }
  const core::DistributedAuctioneer auctioneer(spec, adapter);
  const auto inst = testutil::make_instance(g.n, g.m, g.seed, g.standard);
  runtime::SimRunConfig cfg;
  cfg.seed = g.seed;
  cfg.faults = std::move(faults);
  cfg.reliability = reliability;
  return runtime::SimRuntime(cfg).run_distributed(auctioneer, inst);
}

std::string digest_of(const runtime::SimRunResult& run) {
  const Bytes enc = serde::encode_result(run.global_outcome.value());
  return crypto::digest_hex(crypto::sha256(BytesView(enc)));
}

TEST(ReliableEquivalence, DisabledConfigIsByteIdenticalOverAllGoldens) {
  // "Zero-config reliability ≡ no reliability": a default-constructed
  // ReliabilityConfig in the run config must reproduce the *full* golden
  // fingerprint — outcome bytes, virtual makespan, traffic counters.
  for (const testutil::GoldenRun& g : testutil::kGoldenRuns) {
    SCOPED_TRACE("n=" + std::to_string(g.n) + " m=" + std::to_string(g.m) +
                 " seed=" + std::to_string(g.seed));
    const auto run = run_golden(g, std::nullopt, net::ReliabilityConfig{});
    ASSERT_TRUE(run.global_outcome.ok());
    EXPECT_EQ(digest_of(run), g.result_sha256);
    EXPECT_EQ(run.makespan, static_cast<sim::SimTime>(g.makespan));
    EXPECT_EQ(run.traffic.messages, g.messages);
    EXPECT_EQ(run.traffic.bytes, g.bytes);
    EXPECT_EQ(run.reliability_stats.tracked, 0u);
    EXPECT_EQ(run.reliability_stats.acks_sent, 0u);
  }
}

TEST(ReliableEquivalence, EnabledOverFaultFreeLinkPinsEveryGoldenDigest) {
  // Reliability on, no faults: acks and timers reshape traffic and timing,
  // but the decided (x, p⃗) must equal the golden result digest exactly.
  net::ReliabilityConfig cfg;
  cfg.enable = true;
  for (const testutil::GoldenRun& g : testutil::kGoldenRuns) {
    SCOPED_TRACE("n=" + std::to_string(g.n) + " m=" + std::to_string(g.m) +
                 " seed=" + std::to_string(g.seed));
    const auto run = run_golden(g, std::nullopt, cfg);
    ASSERT_TRUE(run.global_outcome.ok());
    EXPECT_EQ(digest_of(run), g.result_sha256);
    EXPECT_FALSE(run.stalled);
    EXPECT_GT(run.reliability_stats.tracked, 0u);
    EXPECT_GT(run.traffic.messages, g.messages) << "acks should add traffic";
    EXPECT_EQ(run.reliability_stats.give_ups, 0u);
    EXPECT_EQ(run.reliability_stats.duplicates_suppressed,
              run.reliability_stats.retransmits)
        << "on a fault-free link every retransmit (if any) is spurious";
    EXPECT_EQ(run.reliability_stats.sender_key_reuses, 0u)
        << "a block re-sent an identical (peer, topic, payload) as a new "
           "logical message — digest-keyed dedup would swallow it";
  }
}

TEST(ReliableEquivalence, NoSenderKeyReuseAcrossAgreementModes) {
  // The digest-keyed dedup is sound only while no block — in any round type:
  // value or bit-stream agreement — re-sends an identical (peer, topic,
  // payload) as a new logical message. Pin the invariant over every
  // agreement mode. Dedup stays content-keyed on purpose: a node
  // recovering from a torn log re-sends what its peers already hold, under
  // new transmission numbers (docs/RELIABILITY.md).
  net::ReliabilityConfig cfg;
  cfg.enable = true;
  for (const blocks::AgreementMode mode :
       {blocks::AgreementMode::kValueBatched, blocks::AgreementMode::kBitStream}) {
    SCOPED_TRACE(blocks::agreement_mode_name(mode));
    core::AuctioneerSpec spec;
    spec.m = 3;
    spec.k = 1;
    spec.num_bidders = 4;
    spec.agreement_mode = mode;
    const core::DistributedAuctioneer auctioneer(
        spec, std::make_shared<core::DoubleAuctionAdapter>());
    const auto inst = testutil::make_instance(4, 3, 13, false);
    runtime::SimRunConfig rc;
    rc.seed = 13;
    rc.reliability = cfg;
    const auto run = runtime::SimRuntime(rc).run_distributed(auctioneer, inst);
    ASSERT_TRUE(run.global_outcome.ok());
    EXPECT_GT(run.reliability_stats.tracked, 0u);
    EXPECT_EQ(run.reliability_stats.sender_key_reuses, 0u);
  }
}

TEST(ReliableRecovery, LossyRunCompletesWithTheFaultFreeResult) {
  const testutil::GoldenRun& g = testutil::kGoldenRuns[1];
  sim::FaultPlan plan;
  plan.seed = 999;
  sim::LinkFault rule;
  rule.drop = 0.05;
  rule.active_from = sim::from_micros(200);
  plan.links.push_back(rule);

  net::ReliabilityConfig cfg;
  cfg.enable = true;
  const auto run = run_golden(g, plan, cfg);

  ASSERT_TRUE(run.global_outcome.ok())
      << "⊥ (" << abort_reason_name(run.global_outcome.bottom().reason) << ")";
  EXPECT_FALSE(run.stalled);
  EXPECT_EQ(digest_of(run), g.result_sha256);
  EXPECT_GT(run.fault_stats.link_dropped, 0u);
  EXPECT_GT(run.reliability_stats.retransmits, 0u);
  EXPECT_EQ(run.reliability_stats.give_ups, 0u);
  // Retransmits and re-request answers bypass the key history: even a lossy
  // run must not register application-level key reuse.
  EXPECT_EQ(run.reliability_stats.sender_key_reuses, 0u);
}

TEST(PiggybackAcks, LossyRunPinsTheGoldenDigestWithFewerStandaloneAcks) {
  // End to end on a lossy run: acks change only the message economy — the
  // decided (x, p⃗) still matches the golden digest — and part of the ack
  // volume rides data frames, so there are fewer standalone ack frames than
  // acks.
  const testutil::GoldenRun& g = testutil::kGoldenRuns[1];
  sim::FaultPlan plan;
  plan.seed = 999;
  sim::LinkFault rule;
  rule.drop = 0.05;
  rule.active_from = sim::from_micros(200);
  plan.links.push_back(rule);

  net::ReliabilityConfig cfg;
  cfg.enable = true;
  const auto run = run_golden(g, plan, cfg);
  ASSERT_TRUE(run.global_outcome.ok());
  EXPECT_EQ(digest_of(run), g.result_sha256);
  EXPECT_GT(run.reliability_stats.acks_piggybacked, 0u)
      << "no ack ever rode a data frame";
}

TEST(ReliableRecovery, CrashRecoverMidRoundIsRecovered) {
  // Node 1 is down for [8 ms, 20 ms) — mid bid-agreement. Recovery needs
  // all three mechanisms: peers' sender-side retransmits (for what it
  // missed), its own timer wheel deferred to the recovery instant (for its
  // crash-dropped self-deliveries — e.g. its own echo), and the round
  // watchdogs' re-requests. Without reliability this exact plan stalls to
  // ⊥ (ScenarioCrash.CrashMidRoundStallsToBottom).
  const testutil::GoldenRun& g = testutil::kGoldenRuns[1];
  sim::FaultPlan plan;
  plan.crashes.push_back(
      sim::CrashEvent{1, sim::from_millis(8), sim::from_millis(20)});

  net::ReliabilityConfig cfg;
  cfg.enable = true;
  const auto run = run_golden(g, plan, cfg);

  ASSERT_TRUE(run.global_outcome.ok())
      << "⊥ (" << abort_reason_name(run.global_outcome.bottom().reason) << ")";
  EXPECT_FALSE(run.stalled);
  EXPECT_EQ(digest_of(run), g.result_sha256);
  EXPECT_GT(run.fault_stats.crash_dropped, 0u);
}

TEST(ReliableRecovery, UnreachablePeerTerminatesWithDeliveryFailed) {
  // Provider 2's inbound direction is dead forever: nobody can reach it, so
  // senders exhaust their retries and abort with the distinct reason instead
  // of hanging until the event budget.
  const testutil::GoldenRun& g = testutil::kGoldenRuns[1];
  sim::FaultPlan plan;
  sim::LinkFault rule;
  rule.to = 2;
  rule.symmetric = false;
  rule.drop = 1.0;
  plan.links.push_back(rule);

  net::ReliabilityConfig cfg;
  cfg.enable = true;
  cfg.max_retries = 2;
  const auto run = run_golden(g, plan, cfg);

  ASSERT_FALSE(run.global_outcome.ok());
  EXPECT_GT(run.reliability_stats.give_ups, 0u);
  bool saw_delivery_failed = false;
  for (const auto& o : run.provider_outcomes) {
    if (o.is_bottom() && o.bottom().reason == AbortReason::kDeliveryFailed) {
      saw_delivery_failed = true;
    }
  }
  EXPECT_TRUE(saw_delivery_failed);
  // The run terminates on its own (bounded retransmit chains drain the
  // queue) — nowhere near the 50M event budget.
  EXPECT_LT(run.traffic.messages, 100'000u);
}

TEST(ReliableRecovery, PeerLostAfterTheLinksLearnedTerminatesWithDeliveryFailed) {
  // Like the test above, but provider 2 goes unreachable 8 ms in, after the
  // links have sampled round trips: give-up still follows the (now learned)
  // retransmit schedule and still ends in the distinct reason.
  const testutil::GoldenRun& g = testutil::kGoldenRuns[1];
  sim::FaultPlan plan;
  sim::LinkFault rule;
  rule.to = 2;
  rule.symmetric = false;
  rule.drop = 1.0;
  rule.active_from = sim::from_millis(8);
  plan.links.push_back(rule);

  net::ReliabilityConfig cfg;
  cfg.enable = true;
  cfg.max_retries = 2;
  const auto run = run_golden(g, plan, cfg);

  ASSERT_FALSE(run.global_outcome.ok());
  EXPECT_GT(run.reliability_stats.give_ups, 0u);
  EXPECT_TRUE(std::any_of(
      run.provider_outcomes.begin(), run.provider_outcomes.end(),
      [](const auction::AuctionOutcome& o) {
        return o.is_bottom() && o.bottom().reason == AbortReason::kDeliveryFailed;
      }));
  EXPECT_FALSE(run.stalled);
}

}  // namespace
}  // namespace dauct
