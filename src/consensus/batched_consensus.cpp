#include "consensus/batched_consensus.hpp"

#include "crypto/sha256.hpp"
#include "serde/codec.hpp"

namespace dauct::consensus {

using blocks::topic_join;

namespace {

constexpr std::size_t kDigestBytes = 32;

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

BatchedConsensus::Round::Round(std::size_t m, std::string_view prefix)
    : vote_topic(topic_join(prefix, "v")),
      echo_topic(topic_join(prefix, "e")),
      votes(m),
      echoes(m),
      vote_digests(m) {}

BatchedConsensus::BatchedConsensus(blocks::Endpoint& endpoint, std::string topic_prefix,
                                   std::size_t num_slots)
    : endpoint_(endpoint),
      num_slots_(num_slots),
      digest_(endpoint.num_providers(), topic_prefix),
      full_(endpoint.num_providers(), topic_join(topic_prefix, "full")) {}

void BatchedConsensus::start(const std::vector<Bytes>& input) {
  slots_ = input;
  slots_.resize(num_slots_);
  encoded_ = encode_slots(slots_);
  // Hashing through the payload's digest slot means the fallback broadcast
  // of encoded_, if it happens, reuses this digest for its own echo entry.
  const crypto::Digest& d = net::payload_digest(encoded_);
  endpoint_.broadcast(digest_.vote_topic, Bytes(d.begin(), d.end()));
  digest_.votes.arm(endpoint_, digest_.vote_topic);
}

void BatchedConsensus::abort(AbortReason reason, std::string detail) {
  if (!result_) result_ = Outcome<std::vector<Bytes>>(Bottom{reason, std::move(detail)});
  for (Round* round : {&digest_, &full_}) {
    round->votes.cancel();
    round->echoes.cancel();
  }
}

bool BatchedConsensus::handle(const net::Message& msg) {
  if (handle_round(digest_, msg) || handle_round(full_, msg)) {
    advance();
    return true;
  }
  return false;
}

bool BatchedConsensus::handle_round(Round& round, const net::Message& msg) {
  if (msg.topic == round.vote_topic) {
    if (result_) return true;
    const bool well_formed =
        &round == &digest_ ? msg.payload.size() == kDigestBytes
                           : decode_slot_views(msg.payload.view(), num_slots_).has_value();
    if (!well_formed) {
      abort(AbortReason::kProtocolViolation, "malformed batched vote");
      return true;
    }
    if (!round.votes.add(msg.from, msg.payload)) {
      abort(AbortReason::kProtocolViolation, "duplicate batched vote");
      return true;
    }
    // Take the digest from the message cache now: the echo round then builds
    // from stored 32-byte digests instead of re-hashing every vote payload.
    round.vote_digests[msg.from] = msg.payload_digest();
    return true;
  }
  if (msg.topic == round.echo_topic) {
    if (result_) return true;
    if (msg.payload.size() != kDigestBytes * endpoint_.num_providers()) {
      abort(AbortReason::kProtocolViolation, "malformed batched echo");
      return true;
    }
    if (!round.echoes.add(msg.from, msg.payload)) {
      abort(AbortReason::kProtocolViolation, "duplicate batched echo");
      return true;
    }
    return true;
  }
  return false;
}

void BatchedConsensus::maybe_echo(Round& round) {
  if (round.echoed || !round.votes.complete()) return;
  round.echoed = true;
  // Echo = digest of every provider's raw vote payload, in id order.
  Bytes echo;
  echo.reserve(kDigestBytes * endpoint_.num_providers());
  for (const crypto::Digest& d : round.vote_digests) {
    append(echo, BytesView(d.data(), d.size()));
  }
  endpoint_.broadcast(round.echo_topic, std::move(echo));
  round.echoes.arm(endpoint_, round.echo_topic);
}

bool BatchedConsensus::settled(const Round& round) {
  if (!round.echoes.complete() || !round.votes.complete()) return false;
  const SharedBytes& reference = round.echoes.payloads()[0];
  for (NodeId j = 1; j < endpoint_.num_providers(); ++j) {
    if (round.echoes.payloads()[j] != reference) {
      abort(AbortReason::kEquivocationDetected,
            "batched echo mismatch at provider " + std::to_string(j));
      return false;
    }
  }
  return true;
}

void BatchedConsensus::advance() {
  if (result_) return;
  maybe_echo(digest_);
  if (!fell_back_) {
    if (!settled(digest_)) return;
    const auto& votes = digest_.votes.payloads();
    bool unanimous = true;
    for (NodeId j = 1; j < votes.size() && unanimous; ++j) unanimous = votes[j] == votes[0];
    if (unanimous) {
      // Every provider hashed the same vector as this one.
      result_ = Outcome<std::vector<Bytes>>(std::move(slots_));
      return;
    }
    // The digests differ: agree on the vectors themselves. Fallback votes
    // and echoes that arrived before this point are already collected.
    fell_back_ = true;
    endpoint_.broadcast(full_.vote_topic, encoded_);
    full_.votes.arm(endpoint_, full_.vote_topic);
  }
  maybe_echo(full_);
  if (settled(full_)) decide_by_majority();
}

void BatchedConsensus::decide_by_majority() {
  const std::size_t m = endpoint_.num_providers();
  const auto& votes = full_.votes.payloads();

  // Decide per slot by strict majority of exact values; fallback = empty
  // bytes (neutral) when no majority. The vote payloads stay in the
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
