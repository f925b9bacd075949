// Tests for the signing layer: the vendored SHA-512/ed25519 primitives
// (known-answer vectors from FIPS 180-4 and RFC 8032) and, above them, the
// sign-on-send / verify-on-deliver message-auth boundary.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "core/adapters.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/rng.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha512.hpp"
#include "net/auth.hpp"
#include "net/message.hpp"
#include "runtime/sim_runtime.hpp"
#include "serde/auction_codec.hpp"
#include "test_util.hpp"

namespace dauct {
namespace {

using crypto::ed25519::BatchItem;
using crypto::ed25519::KeyPair;
using crypto::ed25519::PublicKey;
using crypto::ed25519::Seed;
using crypto::ed25519::Signature;

std::string hex(const std::uint8_t* data, std::size_t n) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(kDigits[data[i] >> 4]);
    out.push_back(kDigits[data[i] & 0xf]);
  }
  return out;
}

template <std::size_t N>
std::array<std::uint8_t, N> from_hex(std::string_view h) {
  std::array<std::uint8_t, N> out{};
  EXPECT_EQ(h.size(), 2 * N);
  auto nib = [](char c) -> std::uint8_t {
    return static_cast<std::uint8_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  };
  for (std::size_t i = 0; i < N; ++i) {
    out[i] = static_cast<std::uint8_t>((nib(h[2 * i]) << 4) | nib(h[2 * i + 1]));
  }
  return out;
}

BytesView view(const std::string& s) {
  return BytesView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

TEST(Sha512, AbcVector) {
  const auto d = crypto::sha512(view("abc"));
  EXPECT_EQ(hex(d.data(), d.size()),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512, MillionAStreaming) {
  // FIPS 180-4 long vector; also exercises the buffered multi-block path by
  // feeding chunk sizes that straddle the 128-byte block boundary.
  crypto::Sha512 h;
  const std::string chunk(257, 'a');
  std::size_t fed = 0;
  while (fed + chunk.size() <= 1000000) {
    h.update(view(chunk));
    fed += chunk.size();
  }
  h.update(view(std::string(1000000 - fed, 'a')));
  const auto d = h.finish();
  EXPECT_EQ(hex(d.data(), d.size()),
            "e718483d0ce769644e2e42c7bc15b4638e1f98b13b2044285632a803afa973eb"
            "de0ff244877ea60a4cb0432ce577c31beb009c5c2c49aa2e4eadb217ad8cc09b");
}

TEST(Sha512, OneShotMatchesChunked) {
  const std::string msg(517, 'x');
  crypto::Sha512 h;
  for (std::size_t i = 0; i < msg.size(); i += 13) {
    h.update(view(msg.substr(i, 13)));
  }
  EXPECT_EQ(h.finish(), crypto::sha512(view(msg)));
}

struct Rfc8032Vector {
  const char* seed;
  const char* public_key;
  std::string message;
  const char* signature;
};

// RFC 8032 §7.1 TEST 1 and TEST 2.
const Rfc8032Vector kRfcVectors[] = {
    {"9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
     "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
     "",
     "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
     "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"},
    {"4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
     "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
     std::string(1, '\x72'),
     "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
     "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"},
};

TEST(Ed25519, Rfc8032KeyDerivation) {
  for (const auto& v : kRfcVectors) {
    const KeyPair kp = crypto::ed25519::keypair_from_seed(from_hex<32>(v.seed));
    EXPECT_EQ(hex(kp.public_key.data(), 32), v.public_key);
  }
}

TEST(Ed25519, Rfc8032SignVectors) {
  for (const auto& v : kRfcVectors) {
    const KeyPair kp = crypto::ed25519::keypair_from_seed(from_hex<32>(v.seed));
    const Signature sig = crypto::ed25519::sign(kp, view(v.message));
    EXPECT_EQ(hex(sig.data(), 64), v.signature);
  }
}

TEST(Ed25519, Rfc8032VerifyVectors) {
  for (const auto& v : kRfcVectors) {
    const auto pk = from_hex<32>(v.public_key);
    const auto sig = from_hex<64>(v.signature);
    EXPECT_TRUE(crypto::ed25519::verify(pk, view(v.message), sig));
  }
}

TEST(Ed25519, RejectsTamperedMessageAndSignature) {
  const KeyPair kp =
      crypto::ed25519::keypair_from_seed(from_hex<32>(kRfcVectors[0].seed));
  const std::string msg = "round 3: bid vector";
  const Signature sig = crypto::ed25519::sign(kp, view(msg));
  ASSERT_TRUE(crypto::ed25519::verify(kp.public_key, view(msg), sig));

  EXPECT_FALSE(crypto::ed25519::verify(kp.public_key, view(msg + "!"), sig));
  for (std::size_t i : {std::size_t{0}, std::size_t{31}, std::size_t{63}}) {
    Signature bad = sig;
    bad[i] ^= 0x01;
    EXPECT_FALSE(crypto::ed25519::verify(kp.public_key, view(msg), bad));
  }
  PublicKey wrong = kp.public_key;
  wrong[5] ^= 0x40;
  EXPECT_FALSE(crypto::ed25519::verify(wrong, view(msg), sig));
}

TEST(Ed25519, RejectsNonCanonicalScalar) {
  const KeyPair kp =
      crypto::ed25519::keypair_from_seed(from_hex<32>(kRfcVectors[0].seed));
  const std::string msg = "m";
  Signature sig = crypto::ed25519::sign(kp, view(msg));
  // s += L: same value mod L but non-canonical encoding; must be rejected,
  // not accepted as a second valid signature (malleability).
  const std::uint8_t kL[32] = {0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58,
                               0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
                               0,    0,    0,    0,    0,    0,    0,    0,
                               0,    0,    0,    0,    0,    0,    0,    0x10};
  unsigned carry = 0;
  for (int i = 0; i < 32; ++i) {
    const unsigned sum = sig[32 + i] + kL[i] + carry;
    sig[32 + i] = static_cast<std::uint8_t>(sum & 0xff);
    carry = sum >> 8;
  }
  EXPECT_FALSE(crypto::ed25519::verify(kp.public_key, view(msg), sig));
}

TEST(Ed25519, BatchVerifyAcceptsValidBatch) {
  crypto::Rng rng(0x5eedULL);
  std::vector<KeyPair> keys;
  std::vector<std::string> msgs;
  std::vector<Signature> sigs;
  for (int i = 0; i < 8; ++i) {
    Seed seed{};
    seed[0] = static_cast<std::uint8_t>(i + 1);
    seed[17] = 0xc3;
    keys.push_back(crypto::ed25519::keypair_from_seed(seed));
    msgs.push_back("payload #" + std::to_string(i));
  }
  for (int i = 0; i < 8; ++i) sigs.push_back(crypto::ed25519::sign(keys[i], view(msgs[i])));

  std::vector<BatchItem> items;
  for (int i = 0; i < 8; ++i) {
    items.push_back({&keys[i].public_key, view(msgs[i]), &sigs[i]});
  }
  EXPECT_TRUE(crypto::ed25519::verify_batch(items, rng));
  EXPECT_TRUE(crypto::ed25519::verify_batch({}, rng));
}

TEST(Ed25519, BatchVerifyRejectsOneBadSignature) {
  crypto::Rng rng(0xbadULL);
  std::vector<KeyPair> keys;
  std::vector<std::string> msgs;
  std::vector<Signature> sigs;
  for (int i = 0; i < 5; ++i) {
    Seed seed{};
    seed[3] = static_cast<std::uint8_t>(0x80 + i);
    keys.push_back(crypto::ed25519::keypair_from_seed(seed));
    msgs.push_back("vote " + std::to_string(i));
    sigs.push_back(crypto::ed25519::sign(keys.back(), view(msgs.back())));
  }
  sigs[3][7] ^= 0x20;  // corrupt R of one signature

  std::vector<BatchItem> items;
  for (int i = 0; i < 5; ++i) {
    items.push_back({&keys[i].public_key, view(msgs[i]), &sigs[i]});
  }
  // Run several times: the random coefficients must not mask the bad item.
  for (int trial = 0; trial < 4; ++trial) {
    EXPECT_FALSE(crypto::ed25519::verify_batch(items, rng));
  }
}

TEST(Ed25519, BatchVerifyRejectsSwappedMessages) {
  crypto::Rng rng(0x77ULL);
  Seed s1{}, s2{};
  s1[0] = 1;
  s2[0] = 2;
  const KeyPair k1 = crypto::ed25519::keypair_from_seed(s1);
  const KeyPair k2 = crypto::ed25519::keypair_from_seed(s2);
  const std::string m1 = "alpha", m2 = "beta";
  const Signature g1 = crypto::ed25519::sign(k1, view(m1));
  const Signature g2 = crypto::ed25519::sign(k2, view(m2));
  // Each signature is individually valid — but attributed to the wrong
  // message. The batch must notice the cross-wiring.
  std::vector<BatchItem> items = {{&k1.public_key, view(m2), &g1},
                                  {&k2.public_key, view(m1), &g2}};
  EXPECT_FALSE(crypto::ed25519::verify_batch(items, rng));
}

TEST(Ed25519, SignIsDeterministic) {
  Seed seed{};
  seed[31] = 0x5a;
  const KeyPair kp = crypto::ed25519::keypair_from_seed(seed);
  const std::string msg = "determinism keeps golden fingerprints stable";
  EXPECT_EQ(crypto::ed25519::sign(kp, view(msg)),
            crypto::ed25519::sign(kp, view(msg)));
}

// The directory derives and prepares its keys on the host pool. The result
// must not depend on the pool (CI also runs this suite with one usable CPU,
// where every item runs inline), and concurrent readers — provider handlers
// of one lookahead window — share its tables (CI runs this suite under TSan).
TEST(AuthLayer, KeyDirectoryPreparesEveryKeyOnThePool) {
  constexpr std::size_t kM = 16;
  const net::KeyDirectory keys(kM, 42);
  ASSERT_EQ(keys.size(), kM);
  for (NodeId n = 0; n < kM; ++n) {
    EXPECT_TRUE(keys.verify_key(n).valid()) << n;
    EXPECT_EQ(keys.verify_key(n).public_key(), keys.public_key(n)) << n;
    EXPECT_EQ(crypto::ed25519::keypair_from_seed(keys.pair(n).seed).public_key,
              keys.public_key(n))
        << n;
  }
  // A provider's key depends only on the run seed and its id.
  const net::KeyDirectory fewer(3, 42);
  for (NodeId n = 0; n < 3; ++n) EXPECT_EQ(fewer.public_key(n), keys.public_key(n));
  EXPECT_NE(net::KeyDirectory(3, 43).public_key(0), keys.public_key(0));

  std::vector<int> ok(kM, 0);
  host::parallel_for(kM, [&](std::size_t i) {
    const auto n = static_cast<NodeId>(i);
    const auto next = static_cast<NodeId>((i + 1) % kM);
    const Bytes payload = {static_cast<std::uint8_t>(i)};
    const crypto::Digest t = net::auth_transcript(n, "t/round", BytesView(payload));
    const Signature sig = crypto::ed25519::sign(keys.pair(n), BytesView(t));
    ok[i] = crypto::ed25519::verify(keys.verify_key(n), BytesView(t), sig) &&
            !crypto::ed25519::verify(keys.verify_key(next), BytesView(t), sig);
  });
  for (std::size_t i = 0; i < kM; ++i) EXPECT_EQ(ok[i], 1) << i;
}

// ---------------------------------------------------------------------------
// The message-auth boundary: SignerEndpoint framing, MessageValidator
// verdicts, transferable equivocation proofs, and the auditor sweep.
// ---------------------------------------------------------------------------

/// A validly signed frame exactly as SignerEndpoint would put it on the wire.
SharedBytes make_frame(const net::KeyDirectory& keys, NodeId sender,
                       const std::string& topic, Bytes payload) {
  const crypto::Digest t =
      net::auth_transcript(sender, topic, BytesView(payload));
  const Signature sig = crypto::ed25519::sign(keys.pair(sender), BytesView(t));
  Bytes frame;
  frame.reserve(net::kAuthHeaderBytes + payload.size());
  frame.push_back(net::kAuthMagic);
  append(frame, BytesView(sig));
  append(frame, BytesView(payload));
  return SharedBytes(std::move(frame));
}

net::AuthConfig eager_auth() {
  net::AuthConfig cfg;
  cfg.enable = true;
  return cfg;
}

TEST(AuthLayer, ValidFrameIsVerifiedAndStripped) {
  const auto keys = std::make_shared<net::KeyDirectory>(3, 42);
  net::AuthStats stats;
  net::MessageValidator v(0, keys, eager_auth(), 7, &stats);

  const Bytes payload = {1, 2, 3, 4};
  net::Message msg{1, 0, "t/round", make_frame(*keys, 1, "t/round", payload)};
  ASSERT_EQ(v.on_deliver(msg), net::MessageValidator::Action::kDeliver);
  EXPECT_EQ(msg.payload, payload) << "signature header must be stripped";
  EXPECT_EQ(stats.verified_eager, 1u);
  ASSERT_EQ(v.records().size(), 1u);
  EXPECT_EQ(v.records()[0].sender, 1u);
}

TEST(AuthLayer, ClientAndLinkControlTrafficIsExempt) {
  const auto keys = std::make_shared<net::KeyDirectory>(3, 42);
  net::AuthStats stats;
  net::MessageValidator v(0, keys, eager_auth(), 7, &stats);

  // Client traffic (from >= m): unsigned, passes untouched.
  net::Message client{3, 0, "bids", SharedBytes(Bytes{9, 9})};
  EXPECT_EQ(v.on_deliver(client), net::MessageValidator::Action::kDeliver);
  EXPECT_EQ(client.payload, (Bytes{9, 9}));
  // Reliability-layer control frames originate below the signer: exempt.
  net::Message ack{1, 0, net::kAckTopicName, SharedBytes(Bytes{8})};
  EXPECT_EQ(v.on_deliver(ack), net::MessageValidator::Action::kDeliver);
  EXPECT_EQ(stats.verified_eager, 0u);
  EXPECT_EQ(stats.rejected_malformed, 0u);
}

TEST(AuthLayer, ForgedFrameIsRejectedWithoutAbort) {
  const auto keys = std::make_shared<net::KeyDirectory>(3, 42);
  net::AuthStats stats;
  net::MessageValidator v(0, keys, eager_auth(), 7, &stats);

  // A frame whose payload was tampered after signing: signature invalid.
  Bytes forged = make_frame(*keys, 1, "t/round", Bytes{1, 2, 3}).to_bytes();
  forged[net::kAuthHeaderBytes] ^= 0x5a;
  net::Message bad{1, 0, "t/round", SharedBytes(std::move(forged))};
  EXPECT_EQ(v.on_deliver(bad), net::MessageValidator::Action::kDrop);
  EXPECT_EQ(stats.rejected_bad_sig, 1u);
  EXPECT_FALSE(v.proof().has_value());

  // The honest frame still goes through — rejection is not an abort.
  net::Message good{1, 0, "t/round", make_frame(*keys, 1, "t/round", {1, 2, 3})};
  EXPECT_EQ(v.on_deliver(good), net::MessageValidator::Action::kDeliver);

  // Anti-framing: a forged *conflicting* frame against an occupied slot is
  // dropped, not treated as equivocation — an attacker without the key must
  // not be able to frame an honest sender.
  Bytes conflict = make_frame(*keys, 1, "t/round", Bytes{7, 7, 7}).to_bytes();
  conflict[net::kAuthHeaderBytes] ^= 0x11;
  net::Message framed{1, 0, "t/round", SharedBytes(std::move(conflict))};
  EXPECT_EQ(v.on_deliver(framed), net::MessageValidator::Action::kDrop);
  EXPECT_EQ(stats.rejected_bad_sig, 2u);
  EXPECT_FALSE(v.proof().has_value());
  EXPECT_EQ(stats.equivocations, 0u);
}

TEST(AuthLayer, TruncatedAndGarbageHeadersAreRejected) {
  const auto keys = std::make_shared<net::KeyDirectory>(3, 42);
  net::AuthStats stats;
  net::MessageValidator v(0, keys, eager_auth(), 7, &stats);

  const auto drop = net::MessageValidator::Action::kDrop;
  net::Message empty{1, 0, "t/round", SharedBytes(Bytes{})};
  EXPECT_EQ(v.on_deliver(empty), drop);
  net::Message truncated{1, 0, "t/round",
                         SharedBytes(Bytes(net::kAuthHeaderBytes - 1,
                                           net::kAuthMagic))};
  EXPECT_EQ(v.on_deliver(truncated), drop);
  net::Message unsigned_frame{1, 0, "t/round", SharedBytes(Bytes(80, 0x42))};
  EXPECT_EQ(v.on_deliver(unsigned_frame), drop);
  EXPECT_EQ(stats.rejected_malformed, 3u);

  // None of it poisoned the slot: the honest frame still delivers.
  net::Message good{1, 0, "t/round", make_frame(*keys, 1, "t/round", {5})};
  EXPECT_EQ(v.on_deliver(good), net::MessageValidator::Action::kDeliver);
}

TEST(AuthLayer, ReplayedFrameIsSwallowed) {
  const auto keys = std::make_shared<net::KeyDirectory>(3, 42);
  net::AuthStats stats;
  net::MessageValidator v(0, keys, eager_auth(), 7, &stats);

  const SharedBytes frame = make_frame(*keys, 1, "t/round", {1, 2, 3});
  net::Message first{1, 0, "t/round", frame};
  EXPECT_EQ(v.on_deliver(first), net::MessageValidator::Action::kDeliver);
  net::Message replayed{1, 0, "t/round", frame};
  EXPECT_EQ(v.on_deliver(replayed), net::MessageValidator::Action::kDrop);
  EXPECT_EQ(stats.replays_dropped, 1u);
  EXPECT_FALSE(v.proof().has_value()) << "a replay is not equivocation";
}

TEST(AuthLayer, EquivocationYieldsATransferableProof) {
  const auto keys = std::make_shared<net::KeyDirectory>(3, 42);
  net::AuthStats stats;
  net::MessageValidator v(0, keys, eager_auth(), 7, &stats);

  net::Message a{1, 0, "t/round", make_frame(*keys, 1, "t/round", {1, 1})};
  ASSERT_EQ(v.on_deliver(a), net::MessageValidator::Action::kDeliver);
  net::Message b{1, 0, "t/round", make_frame(*keys, 1, "t/round", {2, 2})};
  EXPECT_EQ(v.on_deliver(b), net::MessageValidator::Action::kAbort);
  EXPECT_EQ(stats.equivocations, 1u);
  EXPECT_NE(v.abort_detail().find("provider 1"), std::string::npos);

  // The proof is transferable: an independent verifier holding nothing but
  // the accused signer's public key accepts it...
  ASSERT_TRUE(v.proof().has_value());
  const net::EquivocationProof& proof = *v.proof();
  EXPECT_EQ(proof.signer, 1u);
  EXPECT_TRUE(net::verify_equivocation_proof(proof, keys->public_key(1)));
  // ...and it does not incriminate anyone else,
  EXPECT_FALSE(net::verify_equivocation_proof(proof, keys->public_key(2)));
  // nor survive tampering,
  net::EquivocationProof tampered = proof;
  Bytes twisted = tampered.payload2.to_bytes();
  twisted[0] ^= 0xff;
  tampered.payload2 = SharedBytes(std::move(twisted));
  EXPECT_FALSE(net::verify_equivocation_proof(tampered, keys->public_key(1)));
  // nor hold with identical payloads (no conflict, no proof).
  net::EquivocationProof same = proof;
  same.payload2 = same.payload1;
  same.sig2 = same.sig1;
  EXPECT_FALSE(net::verify_equivocation_proof(same, keys->public_key(1)));
}

TEST(AuthLayer, SplitEquivocationIsCaughtByTheAuditorSweep) {
  // The equivocator sends conflicting payloads to *different* receivers: no
  // single validator sees a conflict, but the post-run sweep does.
  const auto keys = std::make_shared<net::KeyDirectory>(4, 42);
  net::MessageValidator v0(0, keys, eager_auth(), 7, nullptr);
  net::MessageValidator v2(2, keys, eager_auth(), 9, nullptr);

  net::Message to0{1, 0, "t/round", make_frame(*keys, 1, "t/round", {1, 1})};
  ASSERT_EQ(v0.on_deliver(to0), net::MessageValidator::Action::kDeliver);
  net::Message to2{1, 2, "t/round", make_frame(*keys, 1, "t/round", {2, 2})};
  ASSERT_EQ(v2.on_deliver(to2), net::MessageValidator::Action::kDeliver);
  EXPECT_FALSE(v0.proof() || v2.proof()) << "locally everything looked fine";

  const auto proof = net::audit_equivocation({&v0, &v2}, *keys);
  ASSERT_TRUE(proof.has_value());
  EXPECT_EQ(proof->signer, 1u);
  EXPECT_EQ(proof->topic, "t/round");
  EXPECT_TRUE(net::verify_equivocation_proof(*proof, keys->public_key(1)));

  // Consistent broadcasts must NOT trigger the auditor.
  net::MessageValidator w0(0, keys, eager_auth(), 7, nullptr);
  net::MessageValidator w2(2, keys, eager_auth(), 9, nullptr);
  net::Message c0{3, 0, "t/next", make_frame(*keys, 3, "t/next", {6})};
  net::Message c2{3, 2, "t/next", make_frame(*keys, 3, "t/next", {6})};
  ASSERT_EQ(w0.on_deliver(c0), net::MessageValidator::Action::kDeliver);
  ASSERT_EQ(w2.on_deliver(c2), net::MessageValidator::Action::kDeliver);
  EXPECT_FALSE(net::audit_equivocation({&w0, &w2}, *keys).has_value());
}

TEST(AuthLayer, BatchModeVerifiesARoundTogether) {
  const auto keys = std::make_shared<net::KeyDirectory>(3, 42);
  net::AuthConfig cfg;
  cfg.enable = true;
  cfg.batch_verify = true;
  net::AuthStats stats;
  net::MessageValidator v(0, keys, cfg, 7, &stats);

  // A full round: one frame per sender on one topic. All delivered
  // optimistically; the m-th completes the round and triggers one batch.
  for (NodeId s = 0; s < 3; ++s) {
    net::Message msg{s, 0, "t/round",
                     make_frame(*keys, s, "t/round", {static_cast<std::uint8_t>(s)})};
    EXPECT_EQ(v.on_deliver(msg), net::MessageValidator::Action::kDeliver);
  }
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.verified_batched, 3u);
  EXPECT_EQ(stats.verified_eager, 0u);
  EXPECT_EQ(v.finalize(), net::MessageValidator::Action::kDeliver);
}

TEST(AuthLayer, BatchModeAttributesABadSignatureAtFinalize) {
  const auto keys = std::make_shared<net::KeyDirectory>(3, 42);
  net::AuthConfig cfg;
  cfg.enable = true;
  cfg.batch_verify = true;
  net::AuthStats stats;
  net::MessageValidator v(0, keys, cfg, 7, &stats);

  // An incomplete round with one forged frame: delivered optimistically
  // (that is the batch-mode trade-off), caught and attributed at finalize.
  net::Message good{0, 0, "t/round", make_frame(*keys, 0, "t/round", {0})};
  EXPECT_EQ(v.on_deliver(good), net::MessageValidator::Action::kDeliver);
  Bytes forged = make_frame(*keys, 1, "t/round", Bytes{1}).to_bytes();
  forged[net::kAuthHeaderBytes] ^= 0x5a;
  net::Message bad{1, 0, "t/round", SharedBytes(std::move(forged))};
  EXPECT_EQ(v.on_deliver(bad), net::MessageValidator::Action::kDeliver)
      << "batch mode delivers optimistically";

  EXPECT_EQ(v.finalize(), net::MessageValidator::Action::kAbort);
  EXPECT_NE(v.abort_detail().find("provider 1"), std::string::npos)
      << "the abort must attribute the forgery: " << v.abort_detail();
  EXPECT_EQ(stats.rejected_bad_sig, 1u);
}

// ---------------------------------------------------------------------------
// End-to-end equivalence: the PR-5-style contract, now for auth.
// ---------------------------------------------------------------------------

runtime::SimRunResult run_golden_auth(const testutil::GoldenRun& g,
                                      net::AuthConfig auth) {
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
  cfg.auth = auth;
  return runtime::SimRuntime(cfg).run_distributed(auctioneer, inst);
}

std::string digest_of(const runtime::SimRunResult& run) {
  const Bytes enc = serde::encode_result(run.global_outcome.value());
  return crypto::digest_hex(crypto::sha256(BytesView(enc)));
}

TEST(AuthEquivalence, DisabledConfigIsByteIdenticalOverAllGoldens) {
  // Auth off constructs nothing: the full golden fingerprint — result bytes,
  // virtual makespan, traffic counters — must be reproduced exactly.
  for (const testutil::GoldenRun& g : testutil::kGoldenRuns) {
    SCOPED_TRACE("n=" + std::to_string(g.n) + " m=" + std::to_string(g.m) +
                 " seed=" + std::to_string(g.seed));
    const auto run = run_golden_auth(g, net::AuthConfig{});
    ASSERT_TRUE(run.global_outcome.ok());
    EXPECT_EQ(digest_of(run), g.result_sha256);
    EXPECT_EQ(run.makespan, static_cast<sim::SimTime>(g.makespan));
    EXPECT_EQ(run.traffic.messages, g.messages);
    EXPECT_EQ(run.traffic.bytes, g.bytes);
    EXPECT_FALSE(run.auth_stats.tracked);
    EXPECT_FALSE(run.equivocation_proof.has_value());
  }
}

TEST(AuthEquivalence, EnabledOverFaultFreeLinkPinsEveryGoldenDigest) {
  // Auth on, fault-free: signature headers change traffic bytes, curve work
  // is free in virtual time (CostMode::kZero), and the decided (x, p⃗) must
  // equal the golden result digest exactly — in eager AND batch mode.
  for (const bool batch : {false, true}) {
    net::AuthConfig cfg;
    cfg.enable = true;
    cfg.batch_verify = batch;
    for (const testutil::GoldenRun& g : testutil::kGoldenRuns) {
      SCOPED_TRACE("n=" + std::to_string(g.n) + " m=" + std::to_string(g.m) +
                   " seed=" + std::to_string(g.seed) +
                   (batch ? " batch" : " eager"));
      const auto run = run_golden_auth(g, cfg);
      ASSERT_TRUE(run.global_outcome.ok());
      EXPECT_EQ(digest_of(run), g.result_sha256);
      EXPECT_TRUE(run.auth_stats.tracked);
      EXPECT_GT(run.auth_stats.signed_sends, 0u);
      EXPECT_GT(batch ? run.auth_stats.verified_batched
                      : run.auth_stats.verified_eager, 0u);
      EXPECT_EQ(run.auth_stats.rejected_bad_sig, 0u);
      EXPECT_EQ(run.auth_stats.rejected_malformed, 0u);
      EXPECT_EQ(run.auth_stats.equivocations, 0u);
      EXPECT_FALSE(run.equivocation_proof.has_value());
      EXPECT_GT(run.auth_stats.signed_reuses, 0u)
          << "broadcast fan-out must reuse the one-slot frame cache";
      EXPECT_GT(run.traffic.bytes, g.bytes) << "65-byte headers add traffic";
    }
  }
}

}  // namespace
}  // namespace dauct
