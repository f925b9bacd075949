// Ed25519 signatures (RFC 8032), implemented from scratch.
//
// Vendored next to sha256/hmac so the signing layer has no external
// dependency. The arithmetic follows ref10 / ed25519-donna (Bernstein et
// al., "High-speed high-security signatures", CHES 2011): a radix-2^51
// field (five 51-bit limbs, 128-bit products) and ref10's extended
// twisted-Edwards coordinate systems with the complete a=-1 addition law.
//
// Secret scalars (key generation, signing) go through a fixed-base comb:
// signed radix-16 digits over a 32×8 table of affine multiples of B, built
// once on first use. Every lookup scans all 8 entries of its row with
// branch-free masked moves and negates branch-free, so neither control flow
// nor memory addresses depend on the secret. Verification — public data
// only — is variable time: one doubling chain shared by a width-5 wNAF of
// each point decoded for the call and width-8 wNAFs over precomputed
// tables of odd multiples of B (static) and of prepared keys (VerifyKey).
// Scalars mod L use 64-bit limbs and a branch-free Barrett reduction
// (crypto/ed25519_scalar.hpp).
//
// verify_batch() implements small-exponent batch verification: for random
// 128-bit coefficients z_i it checks
//
//     (sum z_i s_i) B  ==  sum z_i R_i + sum (z_i h_i) A_i
//
// as one interleaved-wNAF (Straus) multi-scalar multiplication over all
// 2m+1 points, so the m signatures share one doubling chain. A failing
// batch says only "at least one bad signature": callers fall back to
// individual verify() to attribute blame.
//
// Keys used many times are prepared once as a VerifyKey: width-8 tables of
// odd multiples of -A and of -2^128·A (affine, one inversion per key), next
// to static tables of B and 2^128·B. Every coefficient of 128 bits or more
// is then split into 128-bit halves c = c_lo + 2^128·c_hi, and with
// w_i = z_i h_i mod L and S = sum z_i s_i mod L the keyed batch checks
//
//     S_lo B + S_hi (2^128 B)
//       == sum z_i R_i + sum (w_i,lo A_i + w_i,hi (2^128 A_i))
//
// where every scalar is below 2^128, so the shared chain runs ~129
// doublings instead of ~253. Only the R_i are decoded per call. The raw
// PublicKey entries run the same core with a width-5 term of the full
// 253-bit h_i (or z_i h_i) on the freshly decoded key.
//
// Signatures are deterministic (RFC 8032 nonce derivation), which the
// golden-fingerprint equivalence tests rely on. Non-canonical signatures
// (s >= L) are rejected. Keys, signatures, verdicts and the Rng draws of
// verify_batch are pinned to the original implementation, retained as
// ed25519_reference.hpp, by tests/ed25519_equivalence_test.cpp. Secret
// intermediates are not wiped from the stack; docs/AUTH.md has the
// side-channel statement.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>

#include "common/bytes.hpp"
#include "crypto/rng.hpp"

namespace dauct::crypto::ed25519 {

using Seed = std::array<std::uint8_t, 32>;       ///< secret key material
using PublicKey = std::array<std::uint8_t, 32>;  ///< compressed point A
using Signature = std::array<std::uint8_t, 64>;  ///< R (32) || s (32)

struct KeyPair {
  Seed seed;
  PublicKey public_key;
};

/// Derive the keypair for a 32-byte seed (RFC 8032 §5.1.5).
KeyPair keypair_from_seed(const Seed& seed);

/// Sign `message` (detached, deterministic).
Signature sign(const KeyPair& kp, BytesView message);

/// Verify a detached signature. False on bad point encodings, non-canonical
/// s, or signature mismatch — never throws.
bool verify(const PublicKey& pk, BytesView message, const Signature& sig);

/// One signature of a batch. Pointers are borrowed for the call.
struct BatchItem {
  const PublicKey* public_key = nullptr;
  BytesView message;
  const Signature* signature = nullptr;
};

/// Small-exponent batch verification. True iff every signature in `items`
/// is valid (empty batch: true). `rng` supplies the random coefficients —
/// any stream works; the caller chooses determinism (a fixed-seed Rng) or
/// not. On false, at least one item is invalid; verify() each to attribute.
bool verify_batch(std::span<const BatchItem> items, Rng& rng);

/// A public key prepared for many verifications: decoded once (with the
/// acceptance set of verify(): y >= p is reduced, x = 0 with the sign bit set
/// is accepted), plus the fixed-base tables of -A and -2^128·A. The
/// challenge hash uses the 32 bytes the key was built from, never a
/// re-encoding. Immutable and shareable across threads; copies share the
/// tables. A key whose bytes do not decode is invalid: verifying with it
/// fails exactly where verify() fails on the bad encoding.
class VerifyKey {
 public:
  struct Tables;  ///< defined in ed25519.cpp

  /// An invalid placeholder (verifies nothing), for containers filled later.
  VerifyKey() = default;
  explicit VerifyKey(const PublicKey& pk);

  const PublicKey& public_key() const { return bytes_; }
  bool valid() const { return tables_ != nullptr; }
  const Tables* tables() const { return tables_.get(); }

 private:
  PublicKey bytes_{};
  std::shared_ptr<const Tables> tables_;
};

/// verify() on a prepared key: same verdict as verify(key.public_key(), ...).
bool verify(const VerifyKey& key, BytesView message, const Signature& sig);

/// One signature of a keyed batch. Pointers are borrowed for the call.
struct KeyedBatchItem {
  const VerifyKey* key = nullptr;
  BytesView message;
  const Signature* signature = nullptr;
};

/// verify_batch() on prepared keys: the same verdict, and the same draws
/// from `rng`, as verify_batch() on the keys' public_key()s.
bool verify_batch_keyed(std::span<const KeyedBatchItem> items, Rng& rng);

}  // namespace dauct::crypto::ed25519
