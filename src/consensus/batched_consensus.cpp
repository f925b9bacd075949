#include "consensus/batched_consensus.hpp"

#include "crypto/sha256.hpp"
#include "serde/codec.hpp"

namespace dauct::consensus {

using blocks::topic_join;

namespace {

Bytes encode_slots(const std::vector<Bytes>& slots) {
  serde::Writer w;
  w.varint(slots.size());
  for (const Bytes& s : slots) w.bytes(s);
  return w.take();
}

/// Zero-copy decode: views into `data`. Valid while the backing buffer lives —
/// callers pass views into SharedBytes payloads held by the vote collector.
std::optional<std::vector<BytesView>> decode_slot_views(BytesView data,
                                                        std::size_t expected) {
  serde::Reader r(data);
  const std::uint64_t n = r.varint();
  if (!r.ok() || n != expected) return std::nullopt;
  std::vector<BytesView> out;
  out.reserve(expected);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(r.bytes_view());
  if (!r.at_end()) return std::nullopt;
  return out;
}

}  // namespace

BatchedConsensus::BatchedConsensus(blocks::Endpoint& endpoint, std::string topic_prefix,
                                   std::size_t num_slots)
    : endpoint_(endpoint),
      vote_topic_(topic_join(topic_prefix, "v")),
      echo_topic_(topic_join(topic_prefix, "e")),
      num_slots_(num_slots),
      votes_(endpoint.num_providers()),
      echoes_(endpoint.num_providers()) {}

void BatchedConsensus::start(const std::vector<Bytes>& input) {
  std::vector<Bytes> slots = input;
  slots.resize(num_slots_);
  endpoint_.broadcast(vote_topic_, encode_slots(slots));
  votes_.arm(endpoint_, vote_topic_);
}

void BatchedConsensus::abort(AbortReason reason, std::string detail) {
  if (!result_) result_ = Outcome<std::vector<Bytes>>(Bottom{reason, std::move(detail)});
  votes_.cancel();
  echoes_.cancel();
}

bool BatchedConsensus::handle(const net::Message& msg) {
  if (msg.topic == vote_topic_) {
    if (result_) return true;
    if (!decode_slot_views(msg.payload.view(), num_slots_)) {
      abort(AbortReason::kProtocolViolation, "malformed batched vote");
      return true;
    }
    if (!votes_.add(msg.from, msg.payload)) {
      abort(AbortReason::kProtocolViolation, "duplicate batched vote");
      return true;
    }
    // Take the digest from the message cache now: the echo round then builds
    // from stored 32-byte digests instead of re-hashing every vote payload.
    if (vote_digests_.size() < endpoint_.num_providers()) {
      vote_digests_.resize(endpoint_.num_providers());
    }
    vote_digests_[msg.from] = msg.payload_digest();
    maybe_echo();
    maybe_decide();
    return true;
  }
  if (msg.topic == echo_topic_) {
    if (result_) return true;
    if (msg.payload.size() != 32 * endpoint_.num_providers()) {
      abort(AbortReason::kProtocolViolation, "malformed batched echo");
      return true;
    }
    if (!echoes_.add(msg.from, msg.payload)) {
      abort(AbortReason::kProtocolViolation, "duplicate batched echo");
      return true;
    }
    maybe_decide();
    return true;
  }
  return false;
}

void BatchedConsensus::maybe_echo() {
  if (echoed_ || !votes_.complete()) return;
  echoed_ = true;
  // Echo = digest of every provider's raw vote payload, in id order.
  Bytes echo;
  echo.reserve(32 * endpoint_.num_providers());
  for (NodeId j = 0; j < endpoint_.num_providers(); ++j) {
    const crypto::Digest& d = vote_digests_[j];
    append(echo, BytesView(d.data(), d.size()));
  }
  endpoint_.broadcast(echo_topic_, std::move(echo));
  echoes_.arm(endpoint_, echo_topic_);
}

void BatchedConsensus::maybe_decide() {
  if (result_ || !echoes_.complete() || !votes_.complete()) return;

  const SharedBytes& reference = echoes_.payloads()[0];
  for (NodeId j = 1; j < endpoint_.num_providers(); ++j) {
    if (echoes_.payloads()[j] != reference) {
      abort(AbortReason::kEquivocationDetected,
            "batched echo mismatch at provider " + std::to_string(j));
      return;
    }
  }

  const std::size_t m = endpoint_.num_providers();
  const auto& votes = votes_.payloads();

  // Unanimous fast path (the honest case): every provider voted the same
  // bytes, so every slot's strict majority is vote 0's value. One decode, no
  // per-slot grouping. The digests screen; the bytes confirm.
  bool unanimous = true;
  for (NodeId j = 1; j < m && unanimous; ++j) {
    unanimous = vote_digests_[j] == vote_digests_[0] && votes[j] == votes[0];
  }
  if (unanimous) {
    auto slots = decode_slot_views(votes[0].view(), num_slots_);
    if (!slots) {
      abort(AbortReason::kProtocolViolation, "undecodable agreed vote");
      return;
    }
    std::vector<Bytes> decided;
    decided.reserve(num_slots_);
    for (const BytesView v : *slots) decided.emplace_back(v.begin(), v.end());
    result_ = Outcome<std::vector<Bytes>>(std::move(decided));
    return;
  }

  // Otherwise decide per slot by strict majority of exact values; fallback =
  // empty bytes (neutral) when no majority. The vote payloads stay in the
  // collector's shared buffers, so the per-sender slot vectors are views,
  // not copies.
  std::vector<std::vector<BytesView>> votes_by_sender;
  votes_by_sender.reserve(m);
  for (NodeId j = 0; j < m; ++j) {
    auto slots = decode_slot_views(votes[j].view(), num_slots_);
    if (!slots) {
      abort(AbortReason::kProtocolViolation, "undecodable agreed vote");
      return;
    }
    votes_by_sender.push_back(std::move(*slots));
  }

  // Majority per slot, grouped by a cheap 64-bit slot digest: raw bytes are
  // only compared when digests agree (confirming a group member) — no
  // ordered-map key compares, no per-slot-value allocations.
  struct Candidate {
    std::uint64_t digest;
    BytesView value;
    std::size_t count;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(m);
  std::vector<std::uint64_t> slot_digests(m);

  std::vector<Bytes> decided(num_slots_);
  for (std::size_t s = 0; s < num_slots_; ++s) {
    candidates.clear();
    for (std::size_t j = 0; j < m; ++j) {
      slot_digests[j] = hash64(votes_by_sender[j][s]);
    }
    for (std::size_t j = 0; j < m; ++j) {
      const BytesView v = votes_by_sender[j][s];
      bool grouped = false;
      for (Candidate& c : candidates) {
        if (c.digest == slot_digests[j] && c.value.size() == v.size() &&
            std::equal(v.begin(), v.end(), c.value.begin())) {
          ++c.count;
          grouped = true;
          break;
        }
      }
      if (!grouped) candidates.push_back(Candidate{slot_digests[j], v, 1});
    }
    for (const Candidate& c : candidates) {
      if (c.count * 2 > m) {
        decided[s].assign(c.value.begin(), c.value.end());
        break;
      }
    }
    // No strict majority → decided[s] stays empty (neutral fallback).
  }
  result_ = Outcome<std::vector<Bytes>>(std::move(decided));
}

}  // namespace dauct::consensus
