// Message authentication: ed25519 signatures under the protocol blocks.
//
// The paper's protocol assumes authenticated channels; up to now the
// simulator modelled that assumption as "adversaries only reorder, drop, or
// duplicate". This layer discharges it: every provider-bound payload is
// signed on send and verified on deliver, so a network-level adversary can no
// longer forge a frame as another provider, and a *protocol-level* equivocator
// (same round slot, different payloads to different peers) leaves behind a
// transferable proof — two valid signatures by one key over conflicting
// payloads — that any third party can check with the public key alone.
//
// Wire format (the signed frame replaces the payload on the wire):
//
//   [0]      0xA1  magic
//   [1..65)  ed25519 signature (64 bytes)
//   [65..)   original payload
//
// The signature covers the *transcript hash*
//
//   SHA-256("dauct-auth-v1" || sender u32 LE || topic_len u32 LE
//           || topic bytes || payload bytes)
//
// — sender and topic bind the signature to its routing slot (no cross-topic
// or cross-sender splicing); the receiver is deliberately NOT in the
// transcript, so one broadcast needs one signature and the signed buffer
// fans out zero-copy (SignerEndpoint caches the last payload→frame mapping;
// the m recipients alias one signed buffer).
//
// Placement in the endpoint chain (outermost first):
//
//   engine → [DeviantEndpoint] → SignerEndpoint → [ReliableLink] → transport
//
// and on deliver: transport → ReliableLink::on_deliver → MessageValidator →
// engine. The deviant sits *above* the signer on purpose: a deviation models
// a compromised provider, and a compromised provider signs its tampered
// output with its own (to it, legitimate) key — the stolen-key equivocator
// scenario. The link below signs nothing and verifies nothing: its control
// frames (rl/*) are unauthenticated metadata, and its dedup/ack digests refer
// to the signed frames actually on the wire.
//
// Verification modes: eager (default) verifies each frame before delivery —
// forged frames are *rejected* (dropped, run continues). Batch mode delivers
// optimistically and verifies a round's m signatures in one small-exponent
// batch (crypto/ed25519.hpp), amortizing the curve work — but detection is
// late, so a bad signature becomes an *abort*, not a reject. docs/AUTH.md
// spells out the tradeoff.
//
// With auth disabled nothing here is constructed and runs are byte-identical
// to the unauthenticated simulator (golden-fingerprint-pinned in auth_test).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "blocks/block.hpp"
#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/rng.hpp"
#include "crypto/sha256.hpp"
#include "net/message.hpp"
#include "net/topic.hpp"

namespace dauct::net {

/// First byte of a signed frame.
inline constexpr std::uint8_t kAuthMagic = 0xA1;
/// Signed-frame header size: magic + 64-byte signature.
inline constexpr std::size_t kAuthHeaderBytes = 65;
/// Domain-separation prefix of the signing transcript.
inline constexpr std::string_view kAuthDomain = "dauct-auth-v1";

struct AuthConfig {
  bool enable = false;
  /// Verify per-message (false) or per-round batch (true). Batch mode
  /// delivers optimistically: cheaper, but forged frames abort instead of
  /// being rejected.
  bool batch_verify = false;
};

/// Counters of the signing layer. `tracked` distinguishes "auth off" from
/// "auth on, nothing happened" in reports (mirrors ReliabilityStats).
struct AuthStats {
  bool tracked = false;
  std::uint64_t signed_sends = 0;      ///< frames signed (cache misses)
  std::uint64_t signed_reuses = 0;     ///< broadcast fan-out cache hits
  std::uint64_t verified_eager = 0;    ///< per-message verifications
  std::uint64_t verified_batched = 0;  ///< signatures cleared via a batch
  std::uint64_t batches = 0;           ///< batch verifications run
  std::uint64_t rejected_bad_sig = 0;  ///< frames dropped: signature invalid
  std::uint64_t rejected_malformed = 0;  ///< frames dropped: no/bad header
  std::uint64_t replays_dropped = 0;   ///< duplicate (sender,topic) payloads
  std::uint64_t equivocations = 0;     ///< conflicting signed payloads seen

  AuthStats& operator+=(const AuthStats& o);
};

/// The transcript hash a provider signs for (sender, topic, payload).
crypto::Digest auth_transcript(NodeId sender, std::string_view topic,
                               BytesView payload);

/// All m providers' keypairs for one run, derived deterministically from the
/// run seed (reproducibility), and each public key prepared once for
/// verification. In the simulator every node holds the whole directory; a
/// real deployment would distribute only public keys at setup and each node
/// its own seed — the verification paths below use nothing but public keys,
/// so the trust structure is honest even if the storage is not.
///
/// Construction derives and prepares the m keys on the host pool, one item
/// per provider (~0.1–0.2 ms each); the result does not depend on the
/// worker count. Immutable afterwards, so concurrent readers are safe.
class KeyDirectory {
 public:
  KeyDirectory(std::size_t num_providers, std::uint64_t run_seed);

  std::size_t size() const { return pairs_.size(); }
  const crypto::ed25519::KeyPair& pair(NodeId n) const { return pairs_[n]; }
  const crypto::ed25519::PublicKey& public_key(NodeId n) const {
    return pairs_[n].public_key;
  }
  const crypto::ed25519::VerifyKey& verify_key(NodeId n) const {
    return verify_keys_[n];
  }

 private:
  std::vector<crypto::ed25519::KeyPair> pairs_;
  std::vector<crypto::ed25519::VerifyKey> verify_keys_;
};

/// Proof that `signer` equivocated on `topic`: two valid signatures by its
/// key over *different* payloads for the same routing slot. Self-contained
/// (topic carried as a string, payloads inline): any third party holding the
/// signer's public key can check it — see verify_equivocation_proof(). This
/// is what turns "I saw provider 2 equivocate" (a claim) into evidence that
/// travels in the abort report.
struct EquivocationProof {
  NodeId signer = kNoNode;
  std::string topic;
  SharedBytes payload1, payload2;
  crypto::ed25519::Signature sig1{}, sig2{};
};

/// Check an equivocation proof using only the accused signer's public key:
/// the payloads must differ and both signatures must verify over their
/// respective (signer, topic, payload) transcripts.
bool verify_equivocation_proof(const EquivocationProof& proof,
                               const crypto::ed25519::PublicKey& pk);

/// Signs provider-bound payloads on their way down the endpoint chain.
/// Client-bound sends (to >= m) and everything below the chain (the link's
/// rl/* control frames) pass through untouched.
class SignerEndpoint final : public blocks::Endpoint {
 public:
  SignerEndpoint(blocks::Endpoint& inner,
                 std::shared_ptr<const KeyDirectory> keys, AuthStats* stats);

  NodeId self() const override { return inner_.self(); }
  std::size_t num_providers() const override { return inner_.num_providers(); }
  crypto::Rng& rng() override { return inner_.rng(); }
  bool schedule_after(std::int64_t delay_ns,
                      std::function<void()> fn) override {
    return inner_.schedule_after(delay_ns, std::move(fn));
  }
  std::int64_t round_timeout() const override { return inner_.round_timeout(); }

  void send(NodeId to, const Topic& topic, SharedBytes payload) override;

 private:
  SharedBytes signed_frame(const Topic& topic, const SharedBytes& payload);

  blocks::Endpoint& inner_;
  std::shared_ptr<const KeyDirectory> keys_;
  AuthStats* stats_;  ///< borrowed; may be null (untracked)

  // One-slot frame cache: broadcast() calls send() m times with the same
  // (topic, payload buffer); sign once, alias the frame m times.
  std::uint32_t cached_topic_id_ = 0;
  SharedBytes cached_plain_, cached_frame_;
};

/// Verifies and strips signed frames on the deliver path, detects replays
/// and (receiver-local) equivocation, and keeps the per-(sender, topic)
/// evidence records the post-run auditor sweep cross-references.
class MessageValidator {
 public:
  enum class Action {
    kDeliver,  ///< frame valid (or exempt): pass msg — payload stripped — up
    kDrop,     ///< frame rejected or replayed: swallow it, run continues
    kAbort,    ///< equivocation (or late batch failure): abort this provider
  };

  /// `rng_seed` feeds the batch-verification coefficients (deterministic
  /// runs); `stats` is borrowed and may be null.
  MessageValidator(NodeId self, std::shared_ptr<const KeyDirectory> keys,
                   AuthConfig config, std::uint64_t rng_seed, AuthStats* stats);

  /// Process a delivered message *after* the reliability link and before the
  /// engine. On kDeliver, msg.payload has been replaced by the stripped
  /// (signature-less) view. On kAbort, abort_detail()/proof() explain.
  Action on_deliver(Message& msg);

  /// Batch mode: verify whatever is still pending (stragglers of incomplete
  /// rounds). kDeliver if clean, kAbort on a bad signature. Eager mode: no-op.
  Action finalize();

  /// Human-readable reason for the last kAbort.
  const std::string& abort_detail() const { return abort_detail_; }

  /// The transferable proof behind the last equivocation kAbort, if one was
  /// assembled (receiver-local detection sees both conflicting frames).
  const std::optional<EquivocationProof>& proof() const { return proof_; }

  /// Evidence record: the signed payload this receiver accepted for one
  /// (sender, topic) slot.
  struct SenderRecord {
    NodeId sender = kNoNode;
    Topic topic{};
    crypto::Digest digest{};  ///< of the stripped payload
    crypto::ed25519::Signature signature{};
    SharedBytes payload;  ///< stripped
  };
  const std::vector<SenderRecord>& records() const { return records_; }

 private:
  struct Slot {
    std::size_t record_index;  ///< into records_
    bool verified;             ///< false while waiting in a batch
  };
  struct Pending {
    std::size_t record_index;
    crypto::Digest transcript;
  };

  Action flush_batch(std::vector<Pending>& pending);

  NodeId self_;
  std::shared_ptr<const KeyDirectory> keys_;
  AuthConfig config_;
  AuthStats* stats_;
  crypto::Rng batch_rng_;

  std::unordered_map<std::uint64_t, Slot> slots_;  ///< (sender,topic) → slot
  std::vector<SenderRecord> records_;
  std::unordered_map<std::uint32_t, std::vector<Pending>> pending_by_topic_;
  std::string abort_detail_;
  std::optional<EquivocationProof> proof_;
};

/// Post-run auditor sweep: cross-reference every receiver's evidence records
/// and assemble a proof for any (sender, topic) slot where two receivers hold
/// conflicting *validly signed* payloads. This catches split equivocation —
/// different payloads to different peers — which no single receiver can see
/// locally. In the simulator the auditor reads all validators directly; in a
/// real deployment the same records would travel in a post-protocol
/// evidence-exchange round (docs/AUTH.md).
std::optional<EquivocationProof> audit_equivocation(
    const std::vector<const MessageValidator*>& validators,
    const KeyDirectory& keys);

}  // namespace dauct::net
