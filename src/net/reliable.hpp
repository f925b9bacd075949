// Reliable-delivery layer: ack/retransmit + dedup between the protocol
// blocks and a lossy transport.
//
// The paper's model assumes reliable non-duplicating channels; the simulated
// community network (sim/fault.hpp) is neither. ReliableLink restores the
// channel contract on top of it:
//
//   engine → [DeviantEndpoint] → ReliableLink → SimEndpoint → scheduler
//
//  * Sender side: every data message to a provider is keyed by
//    (peer, topic, sha256(payload)) and kept until the matching ack arrives.
//    A virtual-time timer retransmits it with exponential backoff
//    (RTO(peer) · 2^attempt); after max_retries unacked retransmits the link
//    gives up and reports the peer unreachable through the give-up callback
//    (the runtime turns that into a clean ⊥ with
//    AbortReason::kDeliveryFailed — termination instead of a silent stall).
//  * Retransmission timeout: estimated per peer from measured round trips
//    (RFC 6298: SRTT/RTTVAR with α = 1/8, β = 1/4, RTO = SRTT + 4·RTTVAR,
//    floored at retransmit_delay), sampled only from frames that went out
//    exactly once (Karn's rule — a digest-keyed ack cannot say which copy
//    it answers). Until a peer's first sample its RTO is retransmit_delay.
//  * Receiver side: every data message from a provider is acked
//    (net::kAckTopicName, payload = topic string ++ 32-byte payload digest)
//    and deduplicated by the same digest key *before* the blocks see it, so
//    a retransmitted or network-duplicated copy is never misread as
//    equivocation by a RoundCollector. Duplicates are re-acked: a lost ack
//    costs one retransmit, not a stall.
//  * Re-requests: the link keeps the last payload it sent per (peer, topic)
//    and answers net::kRetransmitRequestTopicName messages from it — the
//    recovery path the blocks' round watchdogs (RoundCollector::arm) use
//    when sender-driven retransmission cannot help: the sender already gave
//    up, or it crashed before ever sending (its due timers are deferred to
//    the recovery instant by the scheduler, not lost — but a contribution
//    it never produced has no timer to defer).
//
// Everything runs in virtual time through the wrapped endpoint's
// schedule_after(); with reliability disabled no link is constructed and the
// event stream is byte-identical to the pre-reliability implementation
// (pinned against the golden fingerprints). Full wire contract:
// docs/RELIABILITY.md.
#pragma once

#include <deque>
#include <functional>
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

  /// Carry pending ack vectors on outgoing data frames instead of sending
  /// each ack as its own message. On receipt of a data frame the ack is
  /// queued; any data frame to that peer before the end-of-instant flush
  /// timer carries the queue in a length-prefixed header (the frame's last
  /// wire wrapper, below signatures), and only the leftovers go out as
  /// standalone rl/ack frames. Same virtual-time ack instants — the flush
  /// timer fires at the handler's end, exactly when the immediate ack would
  /// have departed — so the protocol outcome is unchanged; the message count
  /// drops. Both ends of a link must agree on this flag (one runtime config
  /// sets every link's). Falls back to immediate standalone acks on
  /// endpoints without a timer facility.
  bool piggyback_acks = true;

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
  /// digest) key. The dedup key is sound only while blocks never re-send an
  /// identical payload as a *new* logical message — this counter is the
  /// runtime check of that invariant (pinned to 0 across the golden runs in
  /// reliable_test; were a block ever to violate it, the fix is a sender
  /// sequence number in MsgKey, see docs/RELIABILITY.md).
  std::uint64_t sender_key_reuses = 0;

  ReliabilityStats& operator+=(const ReliabilityStats& o) {
    tracked += o.tracked;
    acks_sent += o.acks_sent;
    acks_piggybacked += o.acks_piggybacked;
    acks_received += o.acks_received;
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

  ReliableLink(blocks::Endpoint& base, ReliabilityConfig config);

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
  /// (acks, re-requests) and deduplicated copies are consumed here. With
  /// piggybacked acks on, the link's wire header is stripped from
  /// `msg.payload` in place (an aliasing suffix view — no byte copy) before
  /// the message continues up the chain.
  bool on_deliver(net::Message& msg);

  /// Recovery support (store/wal.hpp; sequence in docs/DURABILITY.md):
  /// record a message a *previous incarnation* of this node already consumed
  /// — the key goes straight into the receiver dedup set, with no ack and no
  /// forwarding — so that post-recovery wire duplicates (peer retransmits,
  /// the node's own replayed broadcasts echoed back by nobody, rejoin-sweep
  /// answers) are suppressed instead of reaching the fresh engine twice.
  /// `msg` must be the engine-facing form the WAL logged (headers stripped).
  /// Client traffic (from outside the provider domain) is not deduplicated
  /// on the live path, so it is not restored either.
  void restore_delivered(const net::Message& msg);

  /// Broadcast the rejoin sweep: a re-request with the wildcard payload "*"
  /// to every other provider, asking each to re-send everything in its sent
  /// cache addressed to this node. Peers that predate the wildcard treat it
  /// as an unknown topic name and drop it — the sweep degrades, never harms.
  /// Called once after a WAL replay; the replayed engine's own re-sends and
  /// round watchdogs cover whatever the sweep cannot.
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
  /// Identity of one logical message: peer + round topic + payload digest.
  /// (`node` is the receiver for pending sends, the sender for the dedup
  /// set.) Distinct logical messages never collide — a round carries one
  /// payload per (sender, topic) — while every retransmitted or duplicated
  /// copy of the same message maps to the same key.
  struct MsgKey {
    NodeId node;
    std::uint32_t topic;
    crypto::Digest digest;
    bool operator==(const MsgKey&) const = default;
  };
  struct MsgKeyHash {
    std::size_t operator()(const MsgKey& k) const;
  };
  struct Pending {
    NodeId to;
    net::Topic topic;
    SharedBytes payload;
    std::size_t attempt = 0;
    sim::SimTime sent_at = 0;  ///< node-local time of the original send
    /// No second copy went out (retransmit or re-request answer), so the
    /// ack can only answer the original: a valid RTT sample (Karn).
    bool sent_once = true;
  };
  /// RFC 6298 state for one peer, integer ns (kZero runs stay pure
  /// functions of the seed); rto() derives the timeout from it.
  struct RttEstimate {
    bool sampled = false;
    sim::SimTime srtt = 0;
    sim::SimTime rttvar = 0;
  };

  /// Arm the next retransmit timer for `key`, RTO(peer) · 2^attempt from
  /// now; false iff the wrapped endpoint has no timer facility.
  bool schedule_retransmit(const MsgKey& key, std::size_t attempt);
  /// Retire the pending entry an ack names (a miss is a redundant re-ack),
  /// feeding the estimator when the frame went out once.
  void on_ack(const MsgKey& key);
  /// Mark a pending frame as sent more than once (Karn: no sample).
  void mark_resent(NodeId to, const net::Topic& topic, const SharedBytes& payload);
  void queue_or_send_ack(const net::Message& msg);
  void send_ack_frame(NodeId to, const std::string& topic,
                      const crypto::Digest& digest);
  /// Single wire-exit point for data frames (fresh sends, retransmits,
  /// re-request answers): with piggybacking on, wraps `payload` in the
  /// link header carrying `to`'s pending ack vector.
  void wire_send(NodeId to, const net::Topic& topic, const SharedBytes& payload);
  void flush_pending_acks();

  blocks::Endpoint& base_;
  ReliabilityConfig config_;
  std::size_t m_;  ///< providers: the reliability domain (client traffic passes through)
  net::Topic ack_topic_;
  net::Topic rreq_topic_;

  /// Insert `key` into `set` with FIFO eviction at config_.dedup_window
  /// (`order` tracks insertion order). Returns false if already present.
  bool bounded_insert(std::unordered_set<MsgKey, MsgKeyHash>& set,
                      std::deque<MsgKey>& order, const MsgKey& key);

  std::unordered_map<MsgKey, Pending, MsgKeyHash> unacked_;
  std::vector<RttEstimate> rtt_;  ///< per provider peer, indexed by NodeId
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
  /// and, swept whole, the rejoin answer source. Stores the *unwrapped*
  /// payload: every wire exit wraps afresh, so a re-request answer carries
  /// the acks pending at answer time, and digests stay consistent across
  /// original / retransmit / answer copies. The Topic rides along because a
  /// rejoin sweep must reconstruct frames from the id-keyed cache alone.
  struct CachedSend {
    net::Topic topic;
    SharedBytes payload;
  };
  std::unordered_map<std::uint64_t, CachedSend> sent_cache_;

  /// Acks owed per peer, awaiting a data frame to ride on (or the
  /// end-of-instant flush). Only used with config_.piggyback_acks and a
  /// working timer facility.
  struct PendingAck {
    std::string topic;       ///< round-topic name, as the ack frame carries it
    crypto::Digest digest;
  };
  std::unordered_map<NodeId, std::vector<PendingAck>> pending_acks_;
  bool ack_flush_scheduled_ = false;

  GiveUpFn on_give_up_;
  ReliabilityStats stats_;
  /// Cleared the first time schedule_after() reports no timer facility
  /// (endpoints of the thread/TCP runtimes): the link stops tracking sends
  /// — retransmission is impossible, and pending entries nothing can retire
  /// must not accumulate — while acks and dedup keep working.
  bool timers_available_ = true;
  /// Liveness token for timer callbacks: timers hold it weakly, so a due
  /// timer outliving the link degrades to a no-op instead of a dangling call.
  std::shared_ptr<int> alive_ = std::make_shared<int>(0);
};

}  // namespace dauct::net
