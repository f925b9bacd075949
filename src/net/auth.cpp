#include "net/auth.hpp"

#include <cstring>

#include "common/parallel.hpp"

namespace dauct::net {

namespace {

/// (sender, topic) routing-slot key.
std::uint64_t slot_key(NodeId sender, std::uint32_t topic_id) {
  return (static_cast<std::uint64_t>(sender) << 32) | topic_id;
}

void put_u32_le(Bytes& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

template <class Key>
bool verify_transcript(const Key& key, const crypto::Digest& transcript,
                       const crypto::ed25519::Signature& sig) {
  return crypto::ed25519::verify(key, BytesView(transcript), sig);
}

/// verify_equivocation_proof() on a raw or a prepared key.
template <class Key>
bool proof_verifies(const EquivocationProof& proof, const Key& key) {
  if (proof.payload1 == proof.payload2) return false;  // no conflict, no proof
  const crypto::Digest t1 =
      auth_transcript(proof.signer, proof.topic, proof.payload1);
  const crypto::Digest t2 =
      auth_transcript(proof.signer, proof.topic, proof.payload2);
  return verify_transcript(key, t1, proof.sig1) &&
         verify_transcript(key, t2, proof.sig2);
}

}  // namespace

AuthStats& AuthStats::operator+=(const AuthStats& o) {
  tracked = tracked || o.tracked;
  signed_sends += o.signed_sends;
  signed_reuses += o.signed_reuses;
  verified_eager += o.verified_eager;
  verified_batched += o.verified_batched;
  batches += o.batches;
  rejected_bad_sig += o.rejected_bad_sig;
  rejected_malformed += o.rejected_malformed;
  replays_dropped += o.replays_dropped;
  equivocations += o.equivocations;
  return *this;
}

crypto::Digest auth_transcript(NodeId sender, std::string_view topic,
                               BytesView payload) {
  crypto::Sha256 h;
  std::uint8_t hdr[8];
  for (int i = 0; i < 4; ++i) {
    hdr[i] = static_cast<std::uint8_t>(sender >> (8 * i));
    hdr[4 + i] = static_cast<std::uint8_t>(topic.size() >> (8 * i));
  }
  h.update(kAuthDomain);
  h.update(BytesView(hdr, 8));
  h.update(topic);
  h.update(payload);
  return h.finish();
}

KeyDirectory::KeyDirectory(std::size_t num_providers, std::uint64_t run_seed)
    : pairs_(num_providers), verify_keys_(num_providers) {
  host::parallel_for(num_providers, [&](std::size_t n) {
    // Seed_n = SHA-256("dauct-auth-key" || run_seed u64 LE || n u32 LE):
    // independent per provider, reproducible per run.
    Bytes material;
    material.reserve(32);
    append(material, BytesView(
        reinterpret_cast<const std::uint8_t*>("dauct-auth-key"), 14));
    for (int i = 0; i < 8; ++i) {
      material.push_back(static_cast<std::uint8_t>(run_seed >> (8 * i)));
    }
    put_u32_le(material, static_cast<std::uint32_t>(n));
    const crypto::Digest d = crypto::sha256(BytesView(material));
    crypto::ed25519::Seed seed;
    std::memcpy(seed.data(), d.data(), seed.size());
    pairs_[n] = crypto::ed25519::keypair_from_seed(seed);
    verify_keys_[n] = crypto::ed25519::VerifyKey(pairs_[n].public_key);
  });
}

bool verify_equivocation_proof(const EquivocationProof& proof,
                               const crypto::ed25519::PublicKey& pk) {
  return proof_verifies(proof, pk);
}

SignerEndpoint::SignerEndpoint(blocks::Endpoint& inner,
                               std::shared_ptr<const KeyDirectory> keys,
                               AuthStats* stats)
    : inner_(inner), keys_(std::move(keys)), stats_(stats) {
  if (stats_) stats_->tracked = true;
}

void SignerEndpoint::send(NodeId to, const Topic& topic, SharedBytes payload) {
  // Client-bound traffic (to >= m) crosses no provider validator: unsigned.
  if (to >= keys_->size()) {
    inner_.send(to, topic, std::move(payload));
    return;
  }
  inner_.send(to, topic, signed_frame(topic, payload));
}

SharedBytes SignerEndpoint::signed_frame(const Topic& topic,
                                         const SharedBytes& payload) {
  if (topic.id() == cached_topic_id_ && payload.same_buffer(cached_plain_) &&
      !cached_frame_.empty()) {
    if (stats_) ++stats_->signed_reuses;
    return cached_frame_;
  }
  const crypto::Digest t = auth_transcript(self(), topic.str(), payload);
  const crypto::ed25519::Signature sig =
      crypto::ed25519::sign(keys_->pair(self()), BytesView(t));

  Bytes frame;
  frame.reserve(kAuthHeaderBytes + payload.size());
  frame.push_back(kAuthMagic);
  append(frame, BytesView(sig));
  append(frame, payload);

  cached_topic_id_ = topic.id();
  cached_plain_ = payload;
  cached_frame_ = SharedBytes(std::move(frame));
  if (stats_) ++stats_->signed_sends;
  return cached_frame_;
}

MessageValidator::MessageValidator(NodeId self,
                                   std::shared_ptr<const KeyDirectory> keys,
                                   AuthConfig config, std::uint64_t rng_seed,
                                   AuthStats* stats)
    : self_(self),
      keys_(std::move(keys)),
      config_(config),
      stats_(stats),
      batch_rng_(rng_seed) {
  if (stats_) stats_->tracked = true;
}

MessageValidator::Action MessageValidator::on_deliver(Message& msg) {
  // Client traffic is unsigned (clients hold no keys), and the reliability
  // link's control frames originate below the signer.
  if (msg.from >= keys_->size()) return Action::kDeliver;
  if (blocks::topic_has_prefix(msg.topic.str(), "rl")) return Action::kDeliver;

  const BytesView raw = msg.payload.view();
  if (raw.size() < kAuthHeaderBytes || raw[0] != kAuthMagic) {
    if (stats_) ++stats_->rejected_malformed;
    return Action::kDrop;
  }
  crypto::ed25519::Signature sig;
  std::memcpy(sig.data(), raw.data() + 1, sig.size());
  SharedBytes stripped = msg.payload.suffix(kAuthHeaderBytes);
  const crypto::Digest& digest = payload_digest(stripped);
  const crypto::Digest transcript =
      auth_transcript(msg.from, msg.topic.str(), stripped);
  const crypto::ed25519::VerifyKey& sender_key = keys_->verify_key(msg.from);

  const std::uint64_t key = slot_key(msg.from, msg.topic.id());
  auto it = slots_.find(key);
  if (it != slots_.end()) {
    SenderRecord& held = records_[it->second.record_index];
    if (held.digest == digest) {
      // Byte-identical resend of the slot's payload (a replayed frame, or a
      // retransmission that slipped past the link dedup): swallow it.
      if (stats_) ++stats_->replays_dropped;
      return Action::kDrop;
    }
    // Conflicting payload for an occupied slot. Accuse only on *two valid
    // signatures* — an attacker must not frame an honest sender by pairing
    // its real frame with a forged conflicting one.
    if (!verify_transcript(sender_key, transcript, sig)) {
      if (stats_) ++stats_->rejected_bad_sig;
      return Action::kDrop;
    }
    const crypto::Digest held_transcript =
        auth_transcript(held.sender, held.topic.str(), held.payload);
    if (!verify_transcript(sender_key, held_transcript, held.signature)) {
      // Only reachable in batch mode: the held frame was delivered
      // optimistically and is in fact forged (its batch will abort). The
      // new, valid frame takes the slot.
      if (stats_) ++stats_->rejected_bad_sig;
      held.digest = digest;
      held.signature = sig;
      held.payload = stripped;
      it->second.verified = true;
      msg.set_payload(std::move(stripped));
      return Action::kDeliver;
    }
    if (stats_) ++stats_->equivocations;
    proof_ = EquivocationProof{msg.from,       held.topic.str(), held.payload,
                               stripped,       held.signature,   sig};
    abort_detail_ = "auth: equivocation by provider " +
                    std::to_string(msg.from) + " on topic " + msg.topic.str();
    return Action::kAbort;
  }

  if (!config_.batch_verify) {
    if (!verify_transcript(sender_key, transcript, sig)) {
      if (stats_) ++stats_->rejected_bad_sig;
      return Action::kDrop;
    }
    if (stats_) ++stats_->verified_eager;
  }

  const std::size_t index = records_.size();
  records_.push_back(SenderRecord{msg.from, msg.topic, digest, sig, stripped});
  slots_.emplace(key, Slot{index, !config_.batch_verify});

  Action batch_action = Action::kDeliver;
  if (config_.batch_verify) {
    auto& pending = pending_by_topic_[msg.topic.id()];
    pending.push_back(Pending{index, transcript});
    // A topic slot exists once per sender, so `pending` holding m entries
    // means the round is complete: verify all m signatures in one batch.
    if (pending.size() == keys_->size()) {
      batch_action = flush_batch(pending);
      pending_by_topic_.erase(msg.topic.id());
    }
  }
  if (batch_action != Action::kDeliver) return batch_action;
  msg.set_payload(std::move(stripped));
  return Action::kDeliver;
}

MessageValidator::Action MessageValidator::flush_batch(
    std::vector<Pending>& pending) {
  std::vector<crypto::ed25519::KeyedBatchItem> items;
  items.reserve(pending.size());
  for (const Pending& p : pending) {
    const SenderRecord& rec = records_[p.record_index];
    items.push_back({&keys_->verify_key(rec.sender), BytesView(p.transcript),
                     &rec.signature});
  }
  if (stats_) ++stats_->batches;
  if (crypto::ed25519::verify_batch_keyed(items, batch_rng_)) {
    for (const Pending& p : pending) {
      slots_[slot_key(records_[p.record_index].sender,
                      records_[p.record_index].topic.id())]
          .verified = true;
    }
    if (stats_) stats_->verified_batched += pending.size();
    return Action::kDeliver;
  }
  // Attribute: one individual verify per item. The forged frame was already
  // delivered optimistically, so this is an abort, not a reject.
  for (const Pending& p : pending) {
    const SenderRecord& rec = records_[p.record_index];
    if (!verify_transcript(keys_->verify_key(rec.sender), p.transcript,
                           rec.signature)) {
      if (stats_) ++stats_->rejected_bad_sig;
      abort_detail_ = "auth: invalid signature attributed to provider " +
                      std::to_string(rec.sender) + " on topic " +
                      rec.topic.str() + " (batched, delivered optimistically)";
      return Action::kAbort;
    }
  }
  abort_detail_ = "auth: batch verification failed without attribution";
  return Action::kAbort;
}

MessageValidator::Action MessageValidator::finalize() {
  for (auto& [topic_id, pending] : pending_by_topic_) {
    if (pending.empty()) continue;
    if (flush_batch(pending) == Action::kAbort) return Action::kAbort;
  }
  pending_by_topic_.clear();
  return Action::kDeliver;
}

std::optional<EquivocationProof> audit_equivocation(
    const std::vector<const MessageValidator*>& validators,
    const KeyDirectory& keys) {
  // First validly-signed record seen per (sender, topic) slot, across all
  // receivers; a later conflicting valid record completes a proof.
  std::unordered_map<std::uint64_t, const MessageValidator::SenderRecord*>
      first_seen;
  for (const MessageValidator* v : validators) {
    for (const MessageValidator::SenderRecord& rec : v->records()) {
      const std::uint64_t key = slot_key(rec.sender, rec.topic.id());
      auto [it, inserted] = first_seen.emplace(key, &rec);
      if (inserted || it->second->digest == rec.digest) continue;
      const MessageValidator::SenderRecord& held = *it->second;
      EquivocationProof proof{rec.sender,    rec.topic.str(), held.payload,
                              rec.payload,   held.signature,  rec.signature};
      // Both frames carry real signatures or they would not be on record
      // (eager mode) — but batch mode can record an unverified forgery, so
      // check before accusing.
      if (proof_verifies(proof, keys.verify_key(rec.sender))) {
        return proof;
      }
    }
  }
  return std::nullopt;
}

}  // namespace dauct::net
