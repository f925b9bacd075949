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
// the key and a width-8 wNAF over a static table of odd multiples of B.
//
// verify_batch() implements small-exponent batch verification: for random
// 128-bit coefficients z_i it checks
//
//     (sum z_i s_i) B  ==  sum z_i R_i + sum (z_i h_i) A_i
//
// as one interleaved-wNAF (Straus) multi-scalar multiplication over all
// 2m+1 points, so the m signatures share one doubling chain of at most 256
// steps and the R_i terms need only 128 bits. A failing batch says only
// "at least one bad signature": callers fall back to individual verify() to
// attribute blame.
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

}  // namespace dauct::crypto::ed25519
