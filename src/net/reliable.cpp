#include "net/reliable.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "serde/codec.hpp"

namespace dauct::net {

namespace {

std::uint64_t cache_key(NodeId to, std::uint32_t topic) {
  return (static_cast<std::uint64_t>(to) << 32) | topic;
}

/// First byte of every provider-bound data frame (docs/RELIABILITY.md):
///   0xAB ‖ varint epoch ‖ varint tx ‖ ack block ‖ payload.
constexpr std::uint8_t kLinkHeaderMagic = 0xAB;

/// Append `owed` as an ack block (varint count ‖ [varint epoch ‖ count ×
/// varint tx]) and clear it.
void write_acks(serde::Writer& w, std::uint64_t epoch, std::vector<std::uint64_t>& owed) {
  w.varint(owed.size());
  if (owed.empty()) return;
  w.varint(epoch);
  for (const std::uint64_t tx : owed) w.varint(tx);
  owed.clear();
}

struct Acks {
  std::uint64_t epoch = 0;
  std::vector<std::uint64_t> txs;
};

std::optional<Acks> read_acks(serde::Reader& r) {
  Acks acks;
  const std::uint64_t count = r.varint();
  // Each number takes at least one byte: a larger count is malformed, and
  // the bound keeps a hostile count from sizing an allocation.
  if (!r.ok() || count > r.remaining()) return std::nullopt;
  if (count == 0) return acks;
  acks.epoch = r.varint();
  acks.txs.resize(count);
  for (std::uint64_t& tx : acks.txs) tx = r.varint();
  if (!r.ok()) return std::nullopt;
  return acks;
}

}  // namespace

std::size_t ReliableLink::MsgKeyHash::operator()(const MsgKey& k) const {
  // The sha256 prefix is already uniform; fold in the peer and topic so two
  // peers' copies of one broadcast payload land in different buckets.
  std::uint64_t h;
  std::memcpy(&h, k.digest.data(), sizeof h);
  h ^= static_cast<std::uint64_t>(k.node) * 0x9e3779b97f4a7c15ull;
  h ^= static_cast<std::uint64_t>(k.topic) << 32;
  return static_cast<std::size_t>(h);
}

ReliableLink::ReliableLink(blocks::Endpoint& base, ReliabilityConfig config,
                           std::uint64_t epoch)
    : base_(base),
      config_(config),
      epoch_(epoch),
      m_(base.num_providers()),
      ack_topic_(kAckTopicName),
      rreq_topic_(kRetransmitRequestTopicName),
      peers_(m_) {}

sim::SimTime ReliableLink::rto(NodeId peer) const {
  if (peer >= peers_.size() || !peers_[peer].sampled) return config_.retransmit_delay;
  const Peer& p = peers_[peer];
  return std::max(config_.retransmit_delay, p.srtt + 4 * p.rttvar);
}

void ReliableLink::send(NodeId to, const net::Topic& topic, SharedBytes payload) {
  if (topic == rreq_topic_) {
    // Round-watchdog re-requests are themselves fire-and-forget: the
    // watchdog re-arms, so a lost re-request costs one timeout, not a stall.
    ++stats_.rerequests_sent;
    base_.send(to, topic, std::move(payload));
    return;
  }
  if (to >= m_) {  // outside the provider reliability domain
    base_.send(to, topic, std::move(payload));
    return;
  }
  // Every call reaching this point is an application-level logical message
  // (retransmits and answers re-enter at transmit below): record its key and
  // flag reuse, the one pattern receiver dedup would misread.
  if (!bounded_insert(sent_keys_, sent_keys_order_,
                      MsgKey{to, topic.id(), payload_digest(payload)})) {
    ++stats_.sender_key_reuses;
  }
  Peer& p = peers_[to];
  const std::uint64_t frame = p.next_tx;  // a frame is named by its first transmission
  sent_cache_[cache_key(to, topic.id())] = CachedSend{topic, payload, frame};
  if (timers_available_) {
    const sim::SimTime deadline = base_.event_time() + rto(to);
    p.pending.emplace(frame, Pending{topic, payload, 0, deadline, {}});
    arm(to, deadline);
    if (timers_available_) ++stats_.tracked;
  }
  transmit(to, topic, payload, frame);
}

void ReliableLink::transmit(NodeId to, const net::Topic& topic,
                            const SharedBytes& payload, std::uint64_t frame) {
  Peer& p = peers_[to];
  const std::uint64_t tx = p.next_tx++;
  if (const auto it = p.pending.find(frame); it != p.pending.end()) {
    it->second.txs.push_back(tx);
    p.sent.emplace(tx, Sent{frame, base_.local_time()});
  }
  // The link header is the frame's last wrapper before the wire: signatures
  // (and everything else above) cover the unwrapped payload, and the
  // receiving link strips the header before the validator looks at it.
  serde::Writer w(payload.size() + 32 + 10 * p.owed.size());
  w.u8(kLinkHeaderMagic);
  w.varint(epoch_);
  w.varint(tx);
  stats_.acks_piggybacked += p.owed.size();
  write_acks(w, p.owed_epoch, p.owed);
  w.raw(payload.view());
  base_.send(to, topic, SharedBytes(w.take()));
}

void ReliableLink::flush_acks() {
  for (NodeId to = 0; to < m_; ++to) {
    Peer& p = peers_[to];
    if (p.owed.empty()) continue;
    serde::Writer w(12 + 10 * p.owed.size());
    write_acks(w, p.owed_epoch, p.owed);
    ++stats_.acks_sent;
    base_.send(to, ack_topic_, SharedBytes(w.take()));
  }
}

void ReliableLink::on_acks(NodeId from, std::uint64_t epoch,
                           const std::vector<std::uint64_t>& txs) {
  stats_.acks_received += txs.size();
  if (epoch != epoch_) return;  // a previous incarnation's transmissions
  Peer& p = peers_[from];
  for (const std::uint64_t tx : txs) {
    const auto s = p.sent.find(tx);
    if (s == p.sent.end()) continue;  // redundant re-ack, or never tracked
    // RFC 6298 §2 in integer ns (α = 1/8, β = 1/4; RTTVAR from the old
    // SRTT). The ack names its transmission, so the sample is unambiguous.
    const sim::SimTime r = std::max<sim::SimTime>(base_.local_time() - s->second.at, 0);
    if (!p.sampled) {
      p.sampled = true;
      p.srtt = r;
      p.rttvar = r / 2;
    } else {
      const sim::SimTime err = p.srtt > r ? p.srtt - r : r - p.srtt;
      p.rttvar = (3 * p.rttvar + err) / 4;
      p.srtt = (7 * p.srtt + r) / 8;
    }
    ++stats_.rtt_samples;
    retire(p, p.pending.find(s->second.frame));
  }
}

void ReliableLink::retire(Peer& p, std::map<std::uint64_t, Pending>::iterator it) {
  for (const std::uint64_t tx : it->second.txs) p.sent.erase(tx);
  p.pending.erase(it);
}

void ReliableLink::arm(NodeId peer, sim::SimTime due) {
  Peer& p = peers_[peer];
  if (p.timer_due && *p.timer_due <= due) return;  // the live timer comes first
  p.timer_due = due;
  const std::uint64_t gen = ++p.timer_gen;
  const auto fire = [this, weak = std::weak_ptr<int>(alive_), peer, gen] {
    if (!weak.expired() && peers_[peer].timer_gen == gen) on_timer(peer);
  };
  if (!base_.schedule_after(due - base_.event_time(), fire)) {
    // The wrapped endpoint has no timer facility (thread/TCP runtimes):
    // retransmission is impossible, so keep no pending frames that nothing
    // will ever retire. Headers, acks and dedup keep working; delivery
    // guarantees degrade to the transport's own.
    timers_available_ = false;
    for (Peer& q : peers_) {
      q.pending.clear();
      q.sent.clear();
      q.timer_due.reset();
    }
  }
}

void ReliableLink::on_timer(NodeId peer) {
  Peer& p = peers_[peer];
  p.timer_due.reset();
  const sim::SimTime now = base_.event_time();
  std::vector<std::uint64_t> due;
  for (const auto& [frame, f] : p.pending) {
    if (f.deadline <= now) due.push_back(frame);
  }
  for (const std::uint64_t frame : due) {
    // Looked up afresh: a give-up callback below runs runtime code.
    const auto it = p.pending.find(frame);
    if (it == p.pending.end()) continue;
    Pending& f = it->second;
    if (f.attempt >= config_.max_retries) {
      ++stats_.give_ups;
      const net::Topic topic = f.topic;
      const std::size_t attempts = f.attempt + 1;  // original + retransmits
      retire(p, it);
      if (on_give_up_) on_give_up_(peer, topic, attempts);
      continue;
    }
    // Exponential backoff from the peer's current RTO, counted from now
    // (capped well below overflow; max_retries bounds the chain anyway).
    ++f.attempt;
    ++stats_.retransmits;
    f.deadline = now + (rto(peer) << std::min<std::size_t>(f.attempt, 16));
    transmit(peer, f.topic, f.payload, frame);
  }
  sim::SimTime next = std::numeric_limits<sim::SimTime>::max();
  for (const auto& [frame, f] : p.pending) next = std::min(next, f.deadline);
  if (!p.pending.empty()) arm(peer, next);
}

bool ReliableLink::on_deliver(net::Message& msg) {
  serde::Reader r(msg.payload.view());
  if (msg.topic == ack_topic_) {
    const auto acks = read_acks(r);
    if (acks && r.at_end() && msg.from < m_) on_acks(msg.from, acks->epoch, acks->txs);
    return false;
  }
  if (msg.topic == rreq_topic_) {
    // Re-requests name topics as strings chosen by the peer: resolve them
    // with a find-only registry query (Topic::lookup) — a name no local
    // block ever interned cannot match a cached payload, so it is dropped
    // instead of interned (the registry stays bounded by protocol structure).
    // Each answer is a fresh transmission of the cached payload, credited to
    // the frame it started as if that is still pending: its ack retires the
    // frame and gives a sample like any other.
    const BytesView v = msg.payload.view();
    if (v.empty() || msg.from >= m_) return false;  // malformed re-request: drop
    if (v.size() == 1 && v[0] == '*') {
      // Rejoin sweep (request_rejoin): the peer lost its memory and asks for
      // everything this link ever sent it. Answer the whole sent cache for
      // that peer, in topic-id order — never hash-table order, which the
      // deterministic event stream must not depend on. The recovered peer's
      // restored dedup set swallows what its WAL already had.
      std::vector<std::pair<std::uint64_t, const CachedSend*>> entries;
      for (const auto& [key, cached] : sent_cache_) {
        if (static_cast<NodeId>(key >> 32) == msg.from) entries.emplace_back(key, &cached);
      }
      std::sort(entries.begin(), entries.end());
      for (const auto& [key, cached] : entries) {
        ++stats_.rejoin_answers;
        transmit(msg.from, cached->topic, cached->payload, cached->frame);
      }
      return false;
    }
    const auto topic = net::Topic::lookup(
        std::string_view(reinterpret_cast<const char*>(v.data()), v.size()));
    if (!topic) return false;  // unknown round topic: nothing cached anyway
    if (const auto it = sent_cache_.find(cache_key(msg.from, topic->id()));
        it != sent_cache_.end()) {
      ++stats_.rerequests_answered;
      transmit(msg.from, it->second.topic, it->second.payload, it->second.frame);
    }
    return false;
  }
  if (msg.from >= m_) return true;  // client traffic: no header, acks or dedup
  // Process the header's carried acks, owe an ack for this transmission,
  // then strip the header in place — an aliasing suffix view, no byte copy —
  // so everything above this layer (validator, engine, dedup key) sees the
  // logical payload.
  if (r.u8() != kLinkHeaderMagic) return false;  // malformed frame: drop
  const std::uint64_t epoch = r.varint();
  const std::uint64_t tx = r.varint();
  const auto acks = read_acks(r);
  if (!acks) return false;
  on_acks(msg.from, acks->epoch, acks->txs);
  msg.set_payload(msg.payload.suffix(msg.payload.size() - r.remaining()));
  // (Re-)ack every copy — a lost ack is recovered by the re-ack. Acks owed
  // to an older epoch of the peer name transmissions it no longer tracks.
  Peer& p = peers_[msg.from];
  if (p.owed_epoch != epoch) p.owed.clear();
  p.owed_epoch = epoch;
  p.owed.push_back(tx);
  if (!bounded_insert(seen_, seen_order_,
                      MsgKey{msg.from, msg.topic.id(), payload_digest(msg.payload)})) {
    ++stats_.duplicates_suppressed;
    return false;
  }
  return true;
}

void ReliableLink::restore_delivered(const net::Message& msg) {
  // Same key the live path inserts after header-stripping: the WAL logs the
  // engine-facing payload, so the digests line up. Client traffic is outside
  // the dedup domain live, and stays outside here.
  if (msg.from >= m_) return;
  if (bounded_insert(seen_, seen_order_,
                     MsgKey{msg.from, msg.topic.id(), payload_digest(msg.payload)})) {
    ++stats_.restored_delivered;
  }
}

void ReliableLink::request_rejoin() {
  // Not routed through send(): the sweep is its own fire-and-forget protocol
  // step with its own counter, and must not perturb rerequests_sent (pinned
  // by scenario fingerprints on non-recovery runs).
  const SharedBytes star{Bytes{std::uint8_t{'*'}}};
  for (NodeId p = 0; p < static_cast<NodeId>(m_); ++p) {
    if (p == base_.self()) continue;
    ++stats_.rejoin_requests_sent;
    base_.send(p, rreq_topic_, star);
  }
}

bool ReliableLink::bounded_insert(std::unordered_set<MsgKey, MsgKeyHash>& set,
                                  std::deque<MsgKey>& order, const MsgKey& key) {
  if (!set.insert(key).second) return false;
  order.push_back(key);
  const std::size_t window = std::max<std::size_t>(config_.dedup_window, 1);
  while (order.size() > window) {
    set.erase(order.front());
    order.pop_front();
    ++stats_.dedup_evictions;
  }
  return true;
}

}  // namespace dauct::net
