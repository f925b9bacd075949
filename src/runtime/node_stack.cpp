#include "runtime/node_stack.hpp"

#include "common/log.hpp"
#include "crypto/sha256.hpp"
#include "serde/auction_codec.hpp"

namespace dauct::runtime {

void NodeStack::build() {
  if (link_) link_stats_acc_ += link_->stats();
  // Wire-facing last.
  validator_.reset();
  signer_.reset();
  tamperer_.reset();
  link_.reset();
  endpoint_ = make_base_();
  blocks::Endpoint* ep = endpoint_.get();
  const std::uint64_t epoch = builds_++;
  if (layers_.reliability.enable) {
    link_ = std::make_unique<net::ReliableLink>(*ep, layers_.reliability, epoch);
    if (layers_.on_give_up) link_->set_on_give_up(layers_.on_give_up);
    ep = link_.get();
  }
  if (layers_.keys) {
    if (layers_.tamper != adversary::AuthTamperMode::kNone) {
      tamperer_ = std::make_unique<adversary::AuthTamperEndpoint>(*ep, layers_.tamper);
      ep = tamperer_.get();
    }
    signer_ = std::make_unique<net::SignerEndpoint>(*ep, layers_.keys,
                                                    layers_.auth_stats);
    ep = signer_.get();
    validator_ = std::make_unique<net::MessageValidator>(
        self_, layers_.keys, layers_.auth, layers_.validator_seed,
        layers_.auth_stats);
  }
  top_ = ep;
}

std::string NodeStack::open_wal(std::shared_ptr<store::Storage> storage,
                                store::WalMeta expected,
                                std::size_t snapshot_every) {
  storage_ = std::move(storage);
  expected_ = expected;
  snapshot_every_ = snapshot_every;
  wal_ = std::make_unique<store::Wal>(storage_);
  store::WalScan scan = wal_->open();
  if (!scan.records.empty()) return gate(std::move(scan));
  const Bytes enc = store::encode_meta(expected_);
  wal_->append(store::RecordType::kMeta, BytesView(enc));
  wal_->commit();
  return {};
}

std::string NodeStack::reopen_wal() {
  wal_stats_acc_ += wal_->stats();
  wal_ = std::make_unique<store::Wal>(storage_);
  return gate(wal_->open());
}

std::string NodeStack::gate(store::WalScan scan) {
  // A log that does not name this exact run and node is foreign state:
  // replaying it would silently diverge.
  if (scan.records.empty() || scan.records.front().type != store::RecordType::kMeta) {
    return "no meta record";
  }
  const auto meta = store::decode_meta(BytesView(scan.records.front().payload));
  if (!meta) return "meta record undecodable";
  std::string why;
  if (!store::meta_matches(*meta, expected_, &why)) return why;
  recovered_.assign(std::make_move_iterator(scan.records.begin() + 1),
                    std::make_move_iterator(scan.records.end()));
  recovering_ = true;
  return {};
}

void NodeStack::replay(const std::function<void(const net::Message&)>& route,
                       const std::function<store::Snapshot()>& state) {
  replaying_ = true;
  std::uint64_t replayed = 0;
  for (const store::WalRecord& rec : recovered_) {
    if (rec.type == store::RecordType::kMessage) {
      auto lm = store::decode_message(BytesView(rec.payload));
      if (!lm) continue;  // framing passed CRC but the payload is malformed
      net::Message msg{lm->from, self_, net::Topic(lm->topic),
                       SharedBytes(std::move(lm->payload))};
      // Dedup key first: post-replay wire copies (peer retransmits, rejoin
      // answers) must be suppressed, not delivered to the engine twice.
      if (link_) link_->restore_delivered(msg);
      ++replayed;
      ++wal_->stats().messages_replayed;
      route(msg);
    } else if (rec.type == store::RecordType::kSnapshot) {
      const auto s = store::decode_snapshot(BytesView(rec.payload));
      if (!s) continue;
      ++wal_->stats().snapshots_checked;
      store::Snapshot now = state();
      now.messages_delivered = replayed;
      if (*s != now) {
        ++wal_->stats().snapshot_mismatches;
        DAUCT_WARN("wal replay: snapshot checkpoint mismatch at node "
                   << self_ << " after " << replayed << " messages");
      }
    }
    // Decision records are durable commitments, not replay inputs.
  }
  recovered_.clear();
  delivered_ = replayed;
  recovering_ = replaying_ = false;
  // Close the gap: every peer re-sends its cached frames for this node; what
  // the log already had dedups against the keys restored above.
  if (link_) link_->request_rejoin();
}

std::optional<Bottom> NodeStack::finalize() {
  if (validator_ && validator_->finalize() == net::MessageValidator::Action::kAbort) {
    return validator_abort();
  }
  return std::nullopt;
}

Bottom NodeStack::validator_abort() const {
  return Bottom{validator_->proof() ? AbortReason::kEquivocationDetected
                                    : AbortReason::kProtocolViolation,
                validator_->abort_detail()};
}

void NodeStack::journal_message(const net::Message& msg) {
  // Logged with any signature header: replay re-runs the validator, and the
  // link's dedup digests (computed pre-validator) match the restored keys.
  wal_->append_message_record(msg.from, msg.topic.str(), BytesView(msg.payload));
  wal_->commit();
  ++delivered_;
}

void NodeStack::append_snapshot(store::Snapshot s) {
  // After dispatch: the flags describe what the preceding records replay to.
  s.messages_delivered = delivered_;
  const Bytes enc = store::encode_snapshot(s);
  wal_->append(store::RecordType::kSnapshot, BytesView(enc));
  wal_->commit();
}

void NodeStack::journal_decision(store::DecisionKind kind, bool ok,
                                 const crypto::Digest& digest) {
  store::Decision d;
  d.kind = kind;
  d.ok = ok;
  d.digest = digest;
  if (layers_.keys) {
    // Sign kind ‖ digest with the node's run key: the decision record is
    // then transferable evidence of what this provider committed to.
    Bytes msg;
    msg.reserve(1 + digest.size());
    msg.push_back(static_cast<std::uint8_t>(kind));
    msg.insert(msg.end(), digest.begin(), digest.end());
    const auto sig = crypto::ed25519::sign(layers_.keys->pair(self_), BytesView(msg));
    d.signature.assign(sig.begin(), sig.end());
  }
  const Bytes enc = store::encode_decision(d);
  wal_->append(store::RecordType::kDecision, BytesView(enc));
  wal_->commit();
}

void NodeStack::journal_started(const SharedBytes& bids_payload) {
  if (!wal_ || replaying_) return;
  journal_decision(store::DecisionKind::kStarted, true,
                   net::payload_digest(bids_payload));
}

void NodeStack::journal_bids_agreed(const std::vector<auction::Bid>& bids) {
  if (!wal_ || replaying_) return;
  serde::Writer w;
  w.varint(bids.size());
  for (const auto& b : bids) serde::write_bid(w, b);
  const Bytes enc = w.take();
  journal_decision(store::DecisionKind::kBidsAgreed, true,
                   crypto::sha256(BytesView(enc)));
}

void NodeStack::journal_outcome(bool ok, const crypto::Digest& report_digest) {
  if (!wal_ || replaying_) return;
  // The digest covers the full report, whether this provider sent the
  // client that report or only this digest of it: the pin the kill-restart
  // equivalence checks compare, the same on every provider.
  journal_decision(store::DecisionKind::kOutcome, ok, report_digest);
}

net::ReliabilityStats NodeStack::reliability_stats() const {
  net::ReliabilityStats s = link_stats_acc_;
  if (link_) s += link_->stats();
  return s;
}

store::WalStats NodeStack::wal_stats() const {
  store::WalStats s = wal_stats_acc_;
  if (wal_) s += wal_->stats();
  return s;
}

}  // namespace dauct::runtime
