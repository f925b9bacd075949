#include "crypto/ed25519_scalar.hpp"

#include <algorithm>

namespace dauct::crypto::ed25519::scalar {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

constexpr u64 kL[4] = {0x5812631a5cf5d3ed, 0x14def9dea2f79cd6, 0, 0x1000000000000000};
/// Barrett's constant floor(2^512 / L).
constexpr u64 kMu[5] = {0xed9ce5a30a2c131b, 0x2106215d086329a7, 0xffffffffffffffeb,
                        0xffffffffffffffff, 0xf};

/// out[0, na + nb) = a·b.
void mul(u64* out, const u64* a, std::size_t na, const u64* b, std::size_t nb) {
  std::fill_n(out, na + nb, 0);
  for (std::size_t i = 0; i < na; ++i) {
    u64 carry = 0;
    for (std::size_t j = 0; j < nb; ++j) {
      const u128 t = static_cast<u128>(a[i]) * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<u64>(t);
      carry = static_cast<u64>(t >> 64);
    }
    out[i + nb] = carry;
  }
}

/// r -= L when r >= L, selected with a mask rather than a branch.
void sub_l_if_ge(u64 r[5]) {
  u64 t[5];
  u64 borrow = 0;
  for (int k = 0; k < 5; ++k) {
    const u128 d = static_cast<u128>(r[k]) - (k < 4 ? kL[k] : 0) - borrow;
    t[k] = static_cast<u64>(d);
    borrow = static_cast<u64>(d >> 64) & 1;
  }
  const u64 take = borrow - 1;  // all ones iff r >= L
  for (int k = 0; k < 5; ++k) r[k] = (t[k] & take) | (r[k] & ~take);
}

}  // namespace

void load_limbs(u64* out, const std::uint8_t* bytes, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    u64 v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | bytes[8 * k + i];
    out[k] = v;
  }
}

void mul_add(Wide& acc, const u64* a, std::size_t na, const u64* b) {
  for (std::size_t i = 0; i < na; ++i) {
    u64 carry = 0;
    for (std::size_t j = 0; j < 4; ++j) {
      const u128 t = static_cast<u128>(a[i]) * b[j] + acc[i + j] + carry;
      acc[i + j] = static_cast<u64>(t);
      carry = static_cast<u64>(t >> 64);
    }
    for (std::size_t k = i + 4; k < acc.size(); ++k) {
      const u128 t = static_cast<u128>(acc[k]) + carry;
      acc[k] = static_cast<u64>(t);
      carry = static_cast<u64>(t >> 64);
    }
  }
}

void reduce(std::uint8_t* out, const Wide& x) {
  // q3 = floor(floor(x / 2^192)·mu / 2^320) undershoots x / L by less than
  // 1 + x·(2^512/L - mu)/2^512 + mu/2^320 < 1.23 (HAC 14.42 allows 2 in
  // general), so q3 is floor(x / L) or one below, and r = x - q3·L, computed
  // mod 2^320, lies in [0, 2L).
  u64 q2[10], q3l[9], r[5];
  mul(q2, x.data() + 3, 5, kMu, 5);
  mul(q3l, q2 + 5, 5, kL, 4);
  u64 borrow = 0;
  for (int k = 0; k < 5; ++k) {
    const u128 d = static_cast<u128>(x[k]) - q3l[k] - borrow;
    r[k] = static_cast<u64>(d);
    borrow = static_cast<u64>(d >> 64) & 1;
  }
  sub_l_if_ge(r);
  for (int k = 0; k < 4; ++k) {
    for (int i = 0; i < 8; ++i) out[8 * k + i] = static_cast<std::uint8_t>(r[k] >> (8 * i));
  }
}

}  // namespace dauct::crypto::ed25519::scalar
