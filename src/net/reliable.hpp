// Reliable-delivery layer: ack/retransmit + dedup between the protocol
// blocks and a lossy transport.
//
// The paper's model assumes reliable non-duplicating channels; the simulated
// community network (sim/fault.hpp) is neither. ReliableLink restores the
// channel contract on top of it:
//
//   engine → [DeviantEndpoint] → ReliableLink → SimEndpoint → scheduler
//
//  * Wire: every provider-bound data frame (fresh send, retransmit,
//    re-request or rejoin answer) leaves with a link header — magic ‖ this
//    link's epoch ‖ a fresh per-peer transmission number ‖ the acks owed to
//    that peer. A transmission number is never reused, so an ack names one
//    copy of one frame in a few bytes.
//  * Sender side: every data message to a provider is kept as a pending
//    frame until an ack names any of its transmissions. One virtual-time
//    timer per peer, armed at the earliest pending deadline, retransmits
//    with exponential backoff (sent at + RTO(peer) · 2^attempt); after
//    max_retries unacked retransmits the link gives up and reports the peer
//    through the give-up callback (the runtime turns that into a clean ⊥
//    with AbortReason::kDeliveryFailed).
//  * Retransmission timeout: estimated per peer from measured round trips
//    (RFC 6298: SRTT/RTTVAR with α = 1/8, β = 1/4, RTO = SRTT + 4·RTTVAR,
//    floored at retransmit_delay). Every ack names the transmission it
//    answers, so every retired frame gives an unambiguous sample — no
//    Karn's rule. Until a peer's first sample its RTO is retransmit_delay.
//  * Receiver side: every data copy from a provider owes an ack for its
//    transmission number; owed acks ride the next data frame to that peer
//    or, when the delivery handler returns (flush_acks), one standalone
//    net::kAckTopicName frame per peer. Copies are deduplicated by (peer,
//    topic, payload digest) *before* the blocks see them, so a retransmitted
//    or network-duplicated copy is never misread as equivocation. Content,
//    not a transmission number, identifies a logical message: a node that
//    recovers from a torn log re-derives messages its peers already hold.
//  * Re-requests: the link keeps the last payload it sent per (peer, topic)
//    and answers net::kRetransmitRequestTopicName messages from it — the
//    recovery path the blocks' round watchdogs (RoundCollector::arm) use
//    when sender-driven retransmission cannot help.
//
// Everything runs in virtual time through the wrapped endpoint's
// schedule_after(); with reliability disabled no link is constructed and the
// event stream is byte-identical to the pre-reliability implementation
// (pinned against the golden fingerprints). Full wire contract:
// docs/RELIABILITY.md.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "blocks/block.hpp"
#include "sim/clock.hpp"

namespace dauct::net {

/// Declarative reliability knobs, threaded from scenario files / CLI flags
/// through SimRunConfig. Defaults are tuned for the community latency model
/// (one-way base 2.5 ms → first retransmit comfortably past one RTT).
struct ReliabilityConfig {
  bool enable = false;
  /// Initial retransmission timeout of every peer and the floor of its
  /// measured one (RTO = max(retransmit_delay, SRTT + 4·RTTVAR)). Must be
  /// > 0: a zero floor would burn every retry at the send instant.
  sim::SimTime retransmit_delay = sim::from_millis(8);
  std::size_t max_retries = 6;       ///< retransmits before giving up
  sim::SimTime round_timeout = sim::from_millis(12);  ///< 0 = no watchdogs

  /// Bound on the receiver dedup set and the sender key history (entries,
  /// FIFO-evicted). Without a bound those sets grow with every distinct
  /// message for the lifetime of the link — a leak on long runs. Eviction
  /// only forgets messages old enough that their retransmission window
  /// (max_retries backoffs) has long closed, so correctness is unaffected
  /// unless the window is set absurdly small. Must be >= 1.
  std::size_t dedup_window = 4096;
};

/// What the link did, for reports and assertions (aggregated per run into
/// SimRunResult::reliability_stats).
struct ReliabilityStats {
  std::uint64_t tracked = 0;                 ///< data sends under ack protection
  std::uint64_t acks_sent = 0;               ///< standalone rl/ack frames
  std::uint64_t acks_piggybacked = 0;        ///< ack entries carried on data frames
  std::uint64_t acks_received = 0;           ///< incl. redundant re-acks
  std::uint64_t rtt_samples = 0;             ///< acks that retired a pending frame
  std::uint64_t retransmits = 0;
  std::uint64_t duplicates_suppressed = 0;   ///< copies hidden from the blocks
  std::uint64_t rerequests_sent = 0;         ///< round-watchdog re-requests
  std::uint64_t rerequests_answered = 0;     ///< answered from the sent cache
  std::uint64_t rejoin_requests_sent = 0;    ///< "*" sweeps after a recovery
  std::uint64_t rejoin_answers = 0;          ///< frames re-sent for a "*" sweep
  std::uint64_t restored_delivered = 0;      ///< dedup keys rebuilt from a WAL
  std::uint64_t give_ups = 0;                ///< messages abandoned after max_retries
  std::uint64_t dedup_evictions = 0;         ///< keys FIFO-evicted at the bound
  /// Application-level sends that reused an already-sent (peer, topic,
  /// digest) key. Receiver dedup is keyed by content, so it is sound only
  /// while blocks never re-send an identical payload as a *new* logical
  /// message — this counter is the runtime check of that invariant (pinned
  /// to 0 across the golden runs in reliable_test).
  std::uint64_t sender_key_reuses = 0;

  ReliabilityStats& operator+=(const ReliabilityStats& o) {
    tracked += o.tracked;
    acks_sent += o.acks_sent;
    acks_piggybacked += o.acks_piggybacked;
    acks_received += o.acks_received;
    rtt_samples += o.rtt_samples;
    retransmits += o.retransmits;
    duplicates_suppressed += o.duplicates_suppressed;
    rerequests_sent += o.rerequests_sent;
    rerequests_answered += o.rerequests_answered;
    rejoin_requests_sent += o.rejoin_requests_sent;
    rejoin_answers += o.rejoin_answers;
    restored_delivered += o.restored_delivered;
    give_ups += o.give_ups;
    dedup_evictions += o.dedup_evictions;
    sender_key_reuses += o.sender_key_reuses;
    return *this;
  }
};

class ReliableLink final : public blocks::Endpoint {
 public:
  /// Fired once per abandoned message, from timer context.
  using GiveUpFn =
      std::function<void(NodeId to, const net::Topic& topic, std::size_t attempts)>;

  /// `epoch` names this incarnation of the node (runtime::NodeStack passes
  /// its rebuild count): acks echo it, so an ack meant for a previous
  /// incarnation's transmissions never retires a frame of this one.
  ReliableLink(blocks::Endpoint& base, ReliabilityConfig config,
               std::uint64_t epoch = 0);

  // Endpoint: sends are tracked, everything else forwards to the base.
  NodeId self() const override { return base_.self(); }
  std::size_t num_providers() const override { return base_.num_providers(); }
  crypto::Rng& rng() override { return base_.rng(); }
  void send(NodeId to, const net::Topic& topic, SharedBytes payload) override;
  bool schedule_after(std::int64_t delay_ns, std::function<void()> fn) override {
    return base_.schedule_after(delay_ns, std::move(fn));
  }
  std::int64_t round_timeout() const override { return config_.round_timeout; }

  /// Inbound hook, called by the runtime before the engine sees a delivery.
  /// Returns true iff `msg` should reach the application: control traffic
  /// (acks, re-requests), malformed frames and deduplicated copies are
  /// consumed here. The link header is stripped from a provider data frame's
  /// `msg.payload` in place (an aliasing suffix view — no byte copy).
  bool on_deliver(net::Message& msg);

  /// Send the acks still owed as one standalone ack frame per peer, in peer
  /// order. The runtime calls it when each delivery handler returns, so an
  /// ack departs with the handler's other output.
  void flush_acks();

  /// Recovery support (store/wal.hpp; sequence in docs/DURABILITY.md):
  /// record a message a *previous incarnation* of this node already consumed
  /// — the key goes straight into the receiver dedup set, with no ack and no
  /// forwarding — so that post-recovery wire duplicates (peer retransmits,
  /// rejoin-sweep answers) are suppressed instead of reaching the fresh
  /// engine twice. `msg` must be the engine-facing form the WAL logged
  /// (headers stripped). Client traffic is not deduplicated on the live
  /// path, so it is not restored either.
  void restore_delivered(const net::Message& msg);

  /// Broadcast the rejoin sweep: a re-request with the wildcard payload "*"
  /// to every other provider, asking each to re-send everything in its sent
  /// cache addressed to this node. Called once after a WAL replay; the
  /// replayed engine's own re-sends and round watchdogs cover the rest.
  void request_rejoin();

  void set_on_give_up(GiveUpFn fn) { on_give_up_ = std::move(fn); }
  const ReliabilityStats& stats() const { return stats_; }
  const ReliabilityConfig& config() const { return config_; }

  /// Current retransmission timeout for `peer` (retransmit_delay until the
  /// first round-trip sample from that peer).
  sim::SimTime rto(NodeId peer) const;

  /// Current receiver-dedup set size (tests pin the dedup_window bound).
  std::size_t dedup_entries() const { return seen_.size(); }
  /// Current sender key-history size (bounded by the same window).
  std::size_t sent_key_entries() const { return sent_keys_.size(); }

 private:
  /// Content identity of one logical message: peer + round topic + payload
  /// digest (the sender for the dedup set, the receiver for the key
  /// history). Every retransmitted or duplicated copy maps to the same key.
  struct MsgKey {
    NodeId node;
    std::uint32_t topic;
    crypto::Digest digest;
    bool operator==(const MsgKey&) const = default;
  };
  struct MsgKeyHash {
    std::size_t operator()(const MsgKey& k) const;
  };
  /// A logical frame awaiting its ack, keyed by its first transmission.
  struct Pending {
    net::Topic topic;
    SharedBytes payload;
    std::size_t attempt = 0;
    sim::SimTime deadline = 0;        ///< event time of the next retransmit
    std::vector<std::uint64_t> txs;   ///< every transmission that carried it
  };
  struct Sent {
    std::uint64_t frame;    ///< the Pending it carried
    sim::SimTime at;        ///< node-local send time: the RTT sample's base
  };
  /// One peer's send and receive state.
  struct Peer {
    std::uint64_t next_tx = 0;
    std::map<std::uint64_t, Pending> pending;   ///< send order
    std::unordered_map<std::uint64_t, Sent> sent;
    std::optional<sim::SimTime> timer_due;      ///< the live timer's deadline
    std::uint64_t timer_gen = 0;                ///< older timers are no-ops
    /// RFC 6298 state, integer ns (kZero runs stay pure functions of the seed).
    bool sampled = false;
    sim::SimTime srtt = 0, rttvar = 0;
    /// Transmissions of the peer this node owes acks for, and the epoch
    /// they were sent in.
    std::uint64_t owed_epoch = 0;
    std::vector<std::uint64_t> owed;
  };

  /// Single wire exit for data frames: wraps `payload` in the link header
  /// under a fresh transmission number, credited to pending frame `frame`
  /// if it is still pending.
  void transmit(NodeId to, const net::Topic& topic, const SharedBytes& payload,
                std::uint64_t frame);
  /// Retire the frames transmissions `txs` carried (a miss is a redundant
  /// re-ack), each feeding the estimator; acks of another epoch are ignored.
  void on_acks(NodeId from, std::uint64_t epoch, const std::vector<std::uint64_t>& txs);
  void retire(Peer& p, std::map<std::uint64_t, Pending>::iterator it);
  /// Make `peer`'s timer due no later than `due` (event time).
  void arm(NodeId peer, sim::SimTime due);
  void on_timer(NodeId peer);

  /// Insert `key` into `set` with FIFO eviction at config_.dedup_window
  /// (`order` tracks insertion order). Returns false if already present.
  bool bounded_insert(std::unordered_set<MsgKey, MsgKeyHash>& set,
                      std::deque<MsgKey>& order, const MsgKey& key);

  blocks::Endpoint& base_;
  ReliabilityConfig config_;
  std::uint64_t epoch_;
  std::size_t m_;  ///< providers: the reliability domain (client traffic passes through)
  net::Topic ack_topic_;
  net::Topic rreq_topic_;
  std::vector<Peer> peers_;  ///< indexed by NodeId

  /// Receiver dedup set + its FIFO eviction order: bounded at
  /// config_.dedup_window entries, not by run length.
  std::unordered_set<MsgKey, MsgKeyHash> seen_;
  std::deque<MsgKey> seen_order_;
  /// Keys of application-level sends (same bound): detects a block re-sending
  /// an identical (peer, topic, payload) as a new logical message — which
  /// receiver dedup would silently swallow (stats_.sender_key_reuses).
  std::unordered_set<MsgKey, MsgKeyHash> sent_keys_;
  std::deque<MsgKey> sent_keys_order_;
  /// Last payload sent per (peer, topic id) — the re-request answer source
  /// and, swept whole, the rejoin answer source — with the pending frame it
  /// started as, so an answer's ack can retire that frame.
  struct CachedSend {
    net::Topic topic;
    SharedBytes payload;
    std::uint64_t frame;
  };
  std::unordered_map<std::uint64_t, CachedSend> sent_cache_;

  GiveUpFn on_give_up_;
  ReliabilityStats stats_;
  /// Cleared the first time schedule_after() reports no timer facility
  /// (endpoints of the thread/TCP runtimes): the link stops tracking sends
  /// — retransmission is impossible, and pending entries nothing can retire
  /// must not accumulate — while headers, acks and dedup keep working.
  bool timers_available_ = true;
  /// Liveness token for timer callbacks: timers hold it weakly, so a due
  /// timer outliving the link degrades to a no-op instead of a dangling call.
  std::shared_ptr<int> alive_ = std::make_shared<int>(0);
};

}  // namespace dauct::net
