// Scalar arithmetic modulo the ed25519 group order
// L = 2^252 + 27742317777372353535851937790883648493, on 64-bit limbs.
//
// Internal to crypto/ed25519.cpp; declared here so
// tests/ed25519_equivalence_test.cpp can pin reduce() against the
// reference's byte-wise modL (ed25519_ref::reduce_mod_l).
//
// Every function runs the same instruction sequence and touches the same
// addresses for every input value (loop bounds depend only on the call's
// shape): signing reduces the secret nonce and s = r + k·d through them.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace dauct::crypto::ed25519::scalar {

/// An unsigned integer below 2^512 as eight little-endian 64-bit limbs.
using Wide = std::array<std::uint64_t, 8>;

/// `n` little-endian 64-bit limbs from 8·n little-endian bytes.
void load_limbs(std::uint64_t* out, const std::uint8_t* bytes, std::size_t n);

/// acc += a·b for `a` of `na` <= 4 limbs and `b` of 4 limbs. The caller
/// keeps the sum below 2^512 (bits past limb 7 are dropped).
void mul_add(Wide& acc, const std::uint64_t* a, std::size_t na, const std::uint64_t* b);

/// out = x mod L, 32 little-endian bytes (Barrett reduction, HAC 14.42).
void reduce(std::uint8_t* out, const Wide& x);

}  // namespace dauct::crypto::ed25519::scalar
