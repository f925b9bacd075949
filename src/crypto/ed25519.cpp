#include "crypto/ed25519.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "crypto/sha512.hpp"

namespace dauct::crypto::ed25519 {

namespace {

using i64 = std::int64_t;
using u8 = std::uint8_t;
using u64 = std::uint64_t;
using u128 = unsigned __int128;

u64 load64_le(const u8* p) {
  u64 v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

void store64_le(u8* p, u64 v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<u8>(v >> (8 * i));
}

// --- Field arithmetic over GF(2^255 - 19), radix 2^51 ----------------------
// Five unsigned 64-bit limbs of 51 bits with 128-bit products (the
// ed25519-donna / amd64-51 layout). Limb bounds are a convention, not a type:
//   tight — every limb < 2^52: the output of fe_mul, fe_sq, fe_sub, fe_carry;
//   loose — every limb < 2^54: a sum of up to four tight values (fe_add).
// fe_mul and fe_sq accept loose inputs: every 128-bit column sum stays below
// 2^115, so each carry fits a u64. fe_sub accepts loose inputs and carries,
// so only additions are lazy.

using Fe = std::array<u64, 5>;

constexpr u64 kMask51 = (u64{1} << 51) - 1;

constexpr Fe kZero{};
constexpr Fe kOne{1};
// d = -121665/121666, 2d, sqrt(-1), and the base point (x, 4/5).
constexpr Fe kD = {0x34dca135978a3, 0x1a8283b156ebd, 0x5e7a26001c029, 0x739c663a03cbb,
                   0x52036cee2b6ff};
constexpr Fe kD2 = {0x69b9426b2f159, 0x35050762add7a, 0x3cf44c0038052, 0x6738cc7407977,
                    0x2406d9dc56dff};
constexpr Fe kSqrtM1 = {0x61b274a0ea0b0, 0x0d5a5fc8f189d, 0x7ef5e9cbd0c60, 0x78595a6804c9e,
                        0x2b8324804fc1d};
constexpr Fe kBaseX = {0x62d608f25d51a, 0x412a4b4f6592a, 0x75b7171a4b31d, 0x1ff60527118fe,
                       0x216936d3cd6e5};
constexpr Fe kBaseY = {0x6666666666658, 0x4cccccccccccc, 0x1999999999999, 0x3333333333333,
                       0x6666666666666};

// Group order L = 2^252 + 27742317777372353535851937790883648493, LE bytes.
constexpr u8 kL[32] = {0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58,
                       0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
                       0,    0,    0,    0,    0,    0,    0,    0,
                       0,    0,    0,    0,    0,    0,    0,    0x10};

// The hot helpers below are force-inlined with their limb loops written
// out: at -O2, GCC keeps five-iteration loops rolled and left these helpers
// out of line (fe_reduce_wide's five 128-bit sums went through memory),
// which made point additions ~2x slower.

/// Weak reduction: limbs below 2^63 in, tight out.
[[gnu::always_inline]] inline Fe fe_carry(const Fe& a) {
  const u64 h1 = a[1] + (a[0] >> 51), h2 = a[2] + (h1 >> 51), h3 = a[3] + (h2 >> 51),
            h4 = a[4] + (h3 >> 51);
  return {(a[0] & kMask51) + 19 * (h4 >> 51), h1 & kMask51, h2 & kMask51, h3 & kMask51,
          h4 & kMask51};
}

[[gnu::always_inline]] inline Fe fe_add(const Fe& a, const Fe& b) {
  return {a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3], a[4] + b[4]};
}

/// a - b computed as a + 16p - b, so loose b never borrows.
[[gnu::always_inline]] inline Fe fe_sub(const Fe& a, const Fe& b) {
  constexpr u64 k16p0 = 16 * (kMask51 - 18), k16p = 16 * kMask51;
  return fe_carry({a[0] + k16p0 - b[0], a[1] + k16p - b[1], a[2] + k16p - b[2],
                   a[3] + k16p - b[3], a[4] + k16p - b[4]});
}

Fe fe_neg(const Fe& a) { return fe_sub(kZero, a); }

/// Fold the five 128-bit column sums of a product back into tight limbs.
[[gnu::always_inline]] inline Fe fe_reduce_wide(u128 r0, u128 r1, u128 r2, u128 r3, u128 r4) {
  r1 += static_cast<u64>(r0 >> 51);
  r2 += static_cast<u64>(r1 >> 51);
  r3 += static_cast<u64>(r2 >> 51);
  r4 += static_cast<u64>(r3 >> 51);
  Fe o = {static_cast<u64>(r0) & kMask51, static_cast<u64>(r1) & kMask51,
          static_cast<u64>(r2) & kMask51, static_cast<u64>(r3) & kMask51,
          static_cast<u64>(r4) & kMask51};
  o[0] += 19 * static_cast<u64>(r4 >> 51);
  o[1] += o[0] >> 51;
  o[0] &= kMask51;
  return o;
}

Fe fe_mul(const Fe& a, const Fe& b) {
  const u64 a0 = a[0], a1 = a[1], a2 = a[2], a3 = a[3], a4 = a[4];
  const u64 b0 = b[0], b1 = b[1], b2 = b[2], b3 = b[3], b4 = b[4];
  const u64 b1_19 = 19 * b1, b2_19 = 19 * b2, b3_19 = 19 * b3, b4_19 = 19 * b4;
  const auto m = [](u64 x, u64 y) { return static_cast<u128>(x) * y; };
  return fe_reduce_wide(
      m(a0, b0) + m(a1, b4_19) + m(a2, b3_19) + m(a3, b2_19) + m(a4, b1_19),
      m(a0, b1) + m(a1, b0) + m(a2, b4_19) + m(a3, b3_19) + m(a4, b2_19),
      m(a0, b2) + m(a1, b1) + m(a2, b0) + m(a3, b4_19) + m(a4, b3_19),
      m(a0, b3) + m(a1, b2) + m(a2, b1) + m(a3, b0) + m(a4, b4_19),
      m(a0, b4) + m(a1, b3) + m(a2, b2) + m(a3, b1) + m(a4, b0));
}

/// a^2: the cross terms are doubled instead of computed twice (15 products).
Fe fe_sq(const Fe& a) {
  const u64 a0 = a[0], a1 = a[1], a2 = a[2], a3 = a[3], a4 = a[4];
  const u64 a0_2 = 2 * a0, a1_2 = 2 * a1;
  const u64 a1_38 = 38 * a1, a2_38 = 38 * a2, a3_38 = 38 * a3;
  const u64 a3_19 = 19 * a3, a4_19 = 19 * a4;
  const auto m = [](u64 x, u64 y) { return static_cast<u128>(x) * y; };
  return fe_reduce_wide(m(a0, a0) + m(a1_38, a4) + m(a2_38, a3),
                        m(a0_2, a1) + m(a2_38, a4) + m(a3_19, a3),
                        m(a0_2, a2) + m(a1, a1) + m(a3_38, a4),
                        m(a0_2, a3) + m(a1_2, a2) + m(a4_19, a4),
                        m(a0_2, a4) + m(a1_2, a3) + m(a2, a2));
}

/// a^(2^n), n >= 1.
Fe fe_sq_n(Fe a, int n) {
  for (int i = 0; i < n; ++i) a = fe_sq(a);
  return a;
}

/// Load 255 bits little-endian; bit 255 (the x sign) is ignored, and values
/// in [p, 2^255) are kept as unreduced field elements.
Fe fe_frombytes(const u8* s) {
  return {load64_le(s) & kMask51, (load64_le(s + 6) >> 3) & kMask51,
          (load64_le(s + 12) >> 6) & kMask51, (load64_le(s + 19) >> 1) & kMask51,
          (load64_le(s + 24) >> 12) & kMask51};
}

/// Canonical (fully reduced) little-endian encoding.
void fe_tobytes(u8* s, const Fe& a) {
  Fe h = fe_carry(a);  // value < 2^255 + 2^18 < 2p
  // q = 1 iff h >= p, i.e. iff h + 19 carries out of bit 255.
  u64 q = (h[0] + 19) >> 51;
  for (int i = 1; i < 5; ++i) q = (h[i] + q) >> 51;
  h[0] += 19 * q;
  for (int i = 0; i < 4; ++i) {
    h[i + 1] += h[i] >> 51;
    h[i] &= kMask51;
  }
  h[4] &= kMask51;  // drops the 2^255 that cancels against -q·p
  store64_le(s, h[0] | h[1] << 51);
  store64_le(s + 8, h[1] >> 13 | h[2] << 38);
  store64_le(s + 16, h[2] >> 26 | h[3] << 25);
  store64_le(s + 24, h[3] >> 39 | h[4] << 12);
}

bool fe_equal(const Fe& a, const Fe& b) {
  u8 c[32], d[32];
  fe_tobytes(c, a);
  fe_tobytes(d, b);
  return std::memcmp(c, d, 32) == 0;
}

u8 fe_parity(const Fe& a) {
  u8 s[32];
  fe_tobytes(s, a);
  return s[0] & 1;
}

/// f = g if flag (0 or 1), without a branch or a flag-dependent address.
[[gnu::always_inline]] inline void fe_cmov(Fe& f, const Fe& g, u64 flag) {
  const u64 mask = 0 - flag;
  f[0] ^= mask & (f[0] ^ g[0]);
  f[1] ^= mask & (f[1] ^ g[1]);
  f[2] ^= mask & (f[2] ^ g[2]);
  f[3] ^= mask & (f[3] ^ g[3]);
  f[4] ^= mask & (f[4] ^ g[4]);
}

/// The shared head of the inversion and square-root chains: returns
/// z^(2^250 - 1) and sets z11 = z^11 (ref10's addition chain).
Fe fe_pow250(const Fe& z, Fe& z11) {
  const Fe z2 = fe_sq(z);
  const Fe z9 = fe_mul(z, fe_sq_n(z2, 2));
  z11 = fe_mul(z2, z9);
  const Fe e5 = fe_mul(z9, fe_sq(z11));        // 2^5 - 1
  const Fe e10 = fe_mul(fe_sq_n(e5, 5), e5);   // 2^10 - 1
  const Fe e20 = fe_mul(fe_sq_n(e10, 10), e10);
  const Fe e40 = fe_mul(fe_sq_n(e20, 20), e20);
  const Fe e50 = fe_mul(fe_sq_n(e40, 10), e10);
  const Fe e100 = fe_mul(fe_sq_n(e50, 50), e50);
  const Fe e200 = fe_mul(fe_sq_n(e100, 100), e100);
  return fe_mul(fe_sq_n(e200, 50), e50);       // 2^250 - 1
}

/// z^(p-2) = z^(2^255 - 21): 254 squarings, 11 multiplications.
Fe fe_inv(const Fe& z) {
  Fe z11;
  const Fe e250 = fe_pow250(z, z11);
  return fe_mul(fe_sq_n(e250, 5), z11);
}

/// z^((p-5)/8) = z^(2^252 - 3), the square-root helper of decompression.
Fe fe_pow2523(const Fe& z) {
  Fe z11;
  const Fe e250 = fe_pow250(z, z11);
  return fe_mul(fe_sq_n(e250, 2), z);
}

// --- Group arithmetic: ref10's coordinate systems ----------------------------
// P2 (X:Y:Z), P3 extended (X:Y:Z:T) with T = XY/Z, P1P1 completed
// ((X:Z), (Y:T)), Cached (Y+X, Y-X, Z, 2dT) for additions of a point used
// many times, and Niels (y+x, y-x, 2dxy) for affine table entries.

struct P2 {
  Fe X, Y, Z;
};
struct P3 {
  Fe X, Y, Z, T;
};
struct P1P1 {
  Fe X, Y, Z, T;
};
struct Cached {
  Fe YplusX, YminusX, Z, T2d;
};
struct Niels {
  Fe yplusx, yminusx, xy2d;
};

const P3 kIdentity = {kZero, kOne, kOne, kZero};

P2 to_p2(const P1P1& p) { return {fe_mul(p.X, p.T), fe_mul(p.Y, p.Z), fe_mul(p.Z, p.T)}; }

P3 to_p3(const P1P1& p) {
  return {fe_mul(p.X, p.T), fe_mul(p.Y, p.Z), fe_mul(p.Z, p.T), fe_mul(p.X, p.Y)};
}

Cached to_cached(const P3& p) {
  return {fe_add(p.Y, p.X), fe_sub(p.Y, p.X), p.Z, fe_mul(p.T, kD2)};
}

Cached negate(const Cached& q) { return {q.YminusX, q.YplusX, q.Z, fe_neg(q.T2d)}; }

Niels negate(const Niels& q) { return {q.yminusx, q.yplusx, fe_neg(q.xy2d)}; }

/// 2p (dbl-2008-hwcd for a = -1).
P1P1 dbl(const P2& p) {
  const Fe xx = fe_sq(p.X);
  const Fe yy = fe_sq(p.Y);
  const Fe zz = fe_sq(p.Z);
  const Fe sum = fe_sq(fe_add(p.X, p.Y));
  P1P1 r;
  r.Y = fe_add(yy, xx);
  r.Z = fe_sub(yy, xx);
  r.X = fe_sub(sum, r.Y);
  r.T = fe_sub(fe_add(zz, zz), r.Z);
  return r;
}

P1P1 dbl(const P3& p) { return dbl(P2{p.X, p.Y, p.Z}); }

/// Shared tail of the complete a = -1 addition law (add-2008-hwcd-3):
/// pp = (Y1+X1)(Y2+X2), mm = (Y1-X1)(Y2-X2), tt = 2d·T1·T2, zz = 2·Z1·Z2.
P1P1 add_tail(const Fe& pp, const Fe& mm, const Fe& tt, const Fe& zz) {
  return {fe_sub(pp, mm), fe_add(pp, mm), fe_add(zz, tt), fe_sub(zz, tt)};
}

/// p + q (complete: also correct for p == q).
P1P1 add(const P3& p, const Cached& q) {
  const Fe zz = fe_mul(p.Z, q.Z);
  return add_tail(fe_mul(fe_add(p.Y, p.X), q.YplusX), fe_mul(fe_sub(p.Y, p.X), q.YminusX),
                  fe_mul(p.T, q.T2d), fe_add(zz, zz));
}

/// p + q for affine q (Z2 = 1): one multiplication fewer.
P1P1 madd(const P3& p, const Niels& q) {
  return add_tail(fe_mul(fe_add(p.Y, p.X), q.yplusx), fe_mul(fe_sub(p.Y, p.X), q.yminusx),
                  fe_mul(p.T, q.xy2d), fe_add(p.Z, p.Z));
}

/// Canonical 32-byte encoding of (X:Y:Z): y, with x's parity in bit 255.
void point_pack(u8* r, const Fe& X, const Fe& Y, const Fe& Z) {
  const Fe zi = fe_inv(Z);
  fe_tobytes(r, fe_mul(Y, zi));
  r[31] ^= static_cast<u8>(fe_parity(fe_mul(X, zi)) << 7);
}

/// Decompress `n` into -P (x negated; the form verification consumes).
/// False iff `n` is not the encoding of a curve point. Like RFC 8032's
/// decoder except that y >= p is reduced and x = 0 with the sign bit set is
/// accepted — the reference's (and TweetNaCl's) acceptance set, kept so
/// both implementations agree on every input.
bool point_unpack_neg(P3& r, const u8* n) {
  r.Y = fe_frombytes(n);
  r.Z = kOne;
  const Fe yy = fe_sq(r.Y);
  const Fe num = fe_sub(yy, kOne);                // y^2 - 1
  const Fe den = fe_add(fe_mul(yy, kD), kOne);    // d·y^2 + 1, never 0
  const Fe den2 = fe_sq(den);
  const Fe den3 = fe_mul(den2, den);
  const Fe den7 = fe_mul(fe_sq(den2), den3);
  // x = num·den^3·(num·den^7)^((p-5)/8), then fix up by sqrt(-1) if needed.
  Fe x = fe_mul(fe_mul(fe_pow2523(fe_mul(num, den7)), num), den3);
  if (!fe_equal(fe_mul(fe_sq(x), den), num)) x = fe_mul(x, kSqrtM1);
  if (!fe_equal(fe_mul(fe_sq(x), den), num)) return false;
  if (fe_parity(x) == (n[31] >> 7)) x = fe_neg(x);
  r.X = x;
  r.T = fe_mul(x, r.Y);
  return true;
}

/// Montgomery-trick conversion of many points to affine Niels form (one
/// inversion in all); only the precomputed tables use it.
std::vector<Niels> to_niels(const std::vector<P3>& pts) {
  std::vector<Fe> prefix(pts.size());
  Fe acc = kOne;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    prefix[i] = acc;
    acc = fe_mul(acc, pts[i].Z);
  }
  Fe inv = fe_inv(acc);
  std::vector<Niels> out(pts.size());
  for (std::size_t i = pts.size(); i-- > 0;) {
    const Fe zi = fe_mul(inv, prefix[i]);
    inv = fe_mul(inv, pts[i].Z);
    const Fe x = fe_mul(pts[i].X, zi), y = fe_mul(pts[i].Y, zi);
    out[i] = {fe_carry(fe_add(y, x)), fe_sub(y, x), fe_mul(fe_mul(x, y), kD2)};
  }
  return out;
}

P3 base_point() { return {kBaseX, kBaseY, kOne, fe_mul(kBaseX, kBaseY)}; }

// --- Secret scalars: constant-time fixed-base comb -------------------------
// a·B = sum_i e_i·16^i·B with signed radix-16 digits e_i in [-8, 8]. Row j of
// the table holds k·256^j·B for k = 1..8, so the odd digits are summed,
// multiplied by 16 with four doublings, and the even digits added on top:
// 64 mixed additions and 4 doublings. Every lookup reads all 8 entries of
// its row and negates branch-free, so neither the control flow nor the
// memory addresses depend on the scalar.

using CombRow = std::array<Niels, 8>;

const std::array<CombRow, 32>& comb_table() {
  static const std::array<CombRow, 32> table = [] {
    std::vector<P3> pts;
    pts.reserve(256);
    P3 row_base = base_point();
    for (int j = 0; j < 32; ++j) {
      const Cached c = to_cached(row_base);
      P3 acc = row_base;
      pts.push_back(acc);
      for (int k = 1; k < 8; ++k) {
        acc = to_p3(add(acc, c));
        pts.push_back(acc);
      }
      for (int d = 0; d < 8; ++d) row_base = to_p3(dbl(row_base));
    }
    const std::vector<Niels> niels = to_niels(pts);
    std::array<CombRow, 32> t;
    for (int j = 0; j < 32; ++j) std::copy_n(niels.begin() + 8 * j, 8, t[j].begin());
    return t;
  }();
  return table;
}

[[gnu::always_inline]] inline void niels_cmov(Niels& t, const Niels& u, u64 flag) {
  fe_cmov(t.yplusx, u.yplusx, flag);
  fe_cmov(t.yminusx, u.yminusx, flag);
  fe_cmov(t.xy2d, u.xy2d, flag);
}

/// b·row[0] for a digit b in [-8, 8], in constant time.
Niels comb_select(const CombRow& row, int b) {
  const int neg = static_cast<int>(static_cast<unsigned>(b) >> 31);
  const int babs = b - 2 * (-neg & b);
  Niels t = {kOne, kOne, kZero};  // the identity
  for (int k = 0; k < 8; ++k) {
    const u64 hit = (static_cast<u64>(babs ^ (k + 1)) - 1) >> 63;  // babs == k + 1
    niels_cmov(t, row[k], hit);
  }
  niels_cmov(t, negate(t), neg);
  return t;
}

/// a·B for a < 2^255 (clamped or reduced scalars), constant time.
P3 scalarmult_base(const u8* a) {
  const auto& table = comb_table();
  int e[64];
  for (int i = 0; i < 32; ++i) {
    e[2 * i] = a[i] & 15;
    e[2 * i + 1] = a[i] >> 4;
  }
  int carry = 0;
  for (int i = 0; i < 63; ++i) {
    e[i] += carry;
    carry = (e[i] + 8) >> 4;
    e[i] -= carry * 16;
  }
  e[63] += carry;

  P3 h = kIdentity;
  for (int i = 1; i < 64; i += 2) h = to_p3(madd(h, comb_select(table[i / 2], e[i])));
  P2 s = to_p2(dbl(h));
  s = to_p2(dbl(s));
  s = to_p2(dbl(s));
  h = to_p3(dbl(s));
  for (int i = 0; i < 64; i += 2) h = to_p3(madd(h, comb_select(table[i / 2], e[i])));
  return h;
}

// --- Public scalars: variable-time interleaved wNAF (Straus) ---------------
// sum_k c_k·P_k + b·B shares one doubling chain across all terms: each
// variable point brings a width-5 table of odd multiples (P, 3P, ..., 15P),
// the base point a static width-8 table (B, 3B, ..., 127B). Only
// verification runs this; all of its inputs are public.

constexpr int kVarWidth = 5;
constexpr int kBaseWidth = 8;

using Naf = std::array<std::int8_t, 256>;

/// Width-w non-adjacent form of a scalar s < 2^255: every digit is 0 or odd
/// with |digit| < 2^(w-1), and any w consecutive digits hold at most one
/// nonzero.
Naf wnaf(const u8* s, int w) {
  const u64 x[5] = {load64_le(s), load64_le(s + 8), load64_le(s + 16), load64_le(s + 24), 0};
  const u64 width = u64{1} << w, window_mask = width - 1;
  Naf naf{};
  u64 carry = 0;
  for (int pos = 0; pos < 256;) {
    const int idx = pos / 64, bit = pos % 64;
    const u64 bits = bit < 64 - w ? x[idx] >> bit : (x[idx] >> bit) | (x[idx + 1] << (64 - bit));
    const u64 window = carry + (bits & window_mask);
    if ((window & 1) == 0) {
      ++pos;
      continue;
    }
    if (window < width / 2) {
      carry = 0;
      naf[pos] = static_cast<std::int8_t>(window);
    } else {
      carry = 1;
      naf[pos] = static_cast<std::int8_t>(static_cast<int>(window) - static_cast<int>(width));
    }
    pos += w;
  }
  return naf;
}

/// One variable-base term c·P of a multi-scalar multiplication.
struct VarTerm {
  Naf naf;
  std::array<Cached, 1 << (kVarWidth - 2)> odd;  ///< P, 3P, ..., 15P

  VarTerm(const u8* c, const P3& p) : naf(wnaf(c, kVarWidth)) {
    const Cached p2 = to_cached(to_p3(dbl(p)));
    odd[0] = to_cached(p);
    P3 acc = p;
    for (std::size_t k = 1; k < odd.size(); ++k) {
      acc = to_p3(add(acc, p2));
      odd[k] = to_cached(acc);
    }
  }
};

const std::vector<Niels>& base_odd_multiples() {
  static const std::vector<Niels> table = [] {
    const P3 b = base_point();
    const Cached b2 = to_cached(to_p3(dbl(b)));
    std::vector<P3> pts = {b};
    for (int k = 1; k < (1 << (kBaseWidth - 2)); ++k) pts.push_back(to_p3(add(pts.back(), b2)));
    return to_niels(pts);
  }();
  return table;
}

/// sum_k terms[k] + b·B, variable time (public scalars and points only).
P2 multiscalar_vartime(std::span<const VarTerm> terms, const u8* b) {
  const Naf b_naf = wnaf(b, kBaseWidth);
  const auto& b_odd = base_odd_multiples();
  const auto all_zero_at = [&](int i) {
    return b_naf[i] == 0 &&
           std::all_of(terms.begin(), terms.end(), [i](const VarTerm& t) { return t.naf[i] == 0; });
  };
  int top = 255;
  while (top >= 0 && all_zero_at(top)) --top;
  P2 r = {kZero, kOne, kOne};
  for (int i = top; i >= 0; --i) {
    P1P1 t = dbl(r);
    for (const VarTerm& term : terms) {
      const int d = term.naf[i];
      if (d > 0) t = add(to_p3(t), term.odd[d / 2]);
      if (d < 0) t = add(to_p3(t), negate(term.odd[-d / 2]));
    }
    const int d = b_naf[i];
    if (d > 0) t = madd(to_p3(t), b_odd[d / 2]);
    if (d < 0) t = madd(to_p3(t), negate(b_odd[-d / 2]));
    r = to_p2(t);
  }
  return r;
}

// --- Scalar arithmetic mod L ------------------------------------------------

/// r = x mod L, for x given as 64 limbs of (possibly large) byte products.
void modL(u8* r, i64 x[64]) {
  i64 carry;
  for (int i = 63; i >= 32; --i) {
    carry = 0;
    int j;
    for (j = i - 32; j < i - 12; ++j) {
      x[j] += carry - 16 * x[i] * kL[j - (i - 32)];
      carry = (x[j] + 128) >> 8;
      x[j] -= carry << 8;
    }
    x[j] += carry;
    x[i] = 0;
  }
  carry = 0;
  for (int j = 0; j < 32; ++j) {
    x[j] += carry - (x[31] >> 4) * kL[j];
    carry = x[j] >> 8;
    x[j] &= 255;
  }
  for (int j = 0; j < 32; ++j) x[j] -= carry * kL[j];
  for (int i = 0; i < 32; ++i) {
    x[i + 1] += x[i] >> 8;
    r[i] = static_cast<u8>(x[i] & 255);
  }
}

/// Reduce a 64-byte hash into its first 32 bytes mod L.
void reduce64(u8* r) {
  i64 x[64];
  for (int i = 0; i < 64; ++i) x[i] = r[i];
  for (int i = 0; i < 64; ++i) r[i] = 0;
  modL(r, x);
}

/// s < L (little-endian compare): rejects non-canonical (malleable) scalars.
bool scalar_canonical(const u8* s) {
  for (int i = 31; i >= 0; --i) {
    if (s[i] < kL[i]) return true;
    if (s[i] > kL[i]) return false;
  }
  return false;  // s == L
}

Digest64 challenge(const u8* r_bytes, const PublicKey& pk, BytesView message) {
  Sha512 h;
  h.update(BytesView(r_bytes, 32));
  h.update(BytesView(pk.data(), pk.size()));
  h.update(message);
  Digest64 k = h.finish();
  reduce64(k.data());
  return k;
}

}  // namespace

KeyPair keypair_from_seed(const Seed& seed) {
  Digest64 h = sha512(BytesView(seed.data(), seed.size()));
  h[0] &= 248;
  h[31] &= 127;
  h[31] |= 64;
  const P3 p = scalarmult_base(h.data());
  KeyPair kp;
  kp.seed = seed;
  point_pack(kp.public_key.data(), p.X, p.Y, p.Z);
  return kp;
}

Signature sign(const KeyPair& kp, BytesView message) {
  Digest64 h = sha512(BytesView(kp.seed.data(), kp.seed.size()));
  h[0] &= 248;
  h[31] &= 127;
  h[31] |= 64;  // h[0..32) = clamped secret scalar d, h[32..64) = prefix

  Sha512 hasher;
  hasher.update(BytesView(h.data() + 32, 32));
  hasher.update(message);
  Digest64 r = hasher.finish();
  reduce64(r.data());

  const P3 p = scalarmult_base(r.data());
  Signature sig{};
  point_pack(sig.data(), p.X, p.Y, p.Z);

  const Digest64 k = challenge(sig.data(), kp.public_key, message);

  i64 x[64] = {};
  for (int i = 0; i < 32; ++i) x[i] = r[i];
  for (int i = 0; i < 32; ++i) {
    for (int j = 0; j < 32; ++j) {
      x[i + j] += static_cast<i64>(k[i]) * h[j];  // s = r + H(R,A,M)·d mod L
    }
  }
  modL(sig.data() + 32, x);
  return sig;
}

bool verify(const PublicKey& pk, BytesView message, const Signature& sig) {
  if (!scalar_canonical(sig.data() + 32)) return false;
  P3 minus_a;
  if (!point_unpack_neg(minus_a, pk.data())) return false;

  const Digest64 k = challenge(sig.data(), pk, message);
  const VarTerm term(k.data(), minus_a);
  // s·B - H(R,A,M)·A
  const P2 p = multiscalar_vartime(std::span(&term, 1), sig.data() + 32);

  u8 t[32];
  point_pack(t, p.X, p.Y, p.Z);
  return std::memcmp(sig.data(), t, 32) == 0;
}

bool verify_batch(std::span<const BatchItem> items, Rng& rng) {
  if (items.empty()) return true;

  // Check sum z_i·(-R_i) + sum (z_i·h_i mod L)·(-A_i) + (sum z_i·s_i)·B
  // is the identity, as one multi-scalar multiplication over 2m+1 points.
  // Items are decoded, and coefficients drawn, in order with an early exit
  // on the first malformed item, so the Rng advances exactly as it always has.
  i64 s_sum[64] = {};
  std::vector<VarTerm> terms;
  terms.reserve(2 * items.size());

  for (const BatchItem& item : items) {
    const u8* sig = item.signature->data();
    if (!scalar_canonical(sig + 32)) return false;
    P3 minus_a, minus_r;
    if (!point_unpack_neg(minus_a, item.public_key->data())) return false;
    if (!point_unpack_neg(minus_r, sig)) return false;

    u8 z[32] = {};  // 128-bit coefficient, zero-extended for wnaf()
    do {
      std::uint64_t lo = rng.next_u64(), hi = rng.next_u64();
      for (int i = 0; i < 8; ++i) {
        z[i] = static_cast<u8>(lo >> (8 * i));
        z[8 + i] = static_cast<u8>(hi >> (8 * i));
      }
    } while (std::all_of(z, z + 16, [](u8 b) { return b == 0; }));

    for (int i = 0; i < 16; ++i) {
      for (int j = 0; j < 32; ++j) {
        s_sum[i + j] += static_cast<i64>(z[i]) * sig[32 + j];
      }
    }

    const Digest64 h = challenge(sig, *item.public_key, item.message);
    i64 zh[64] = {};
    for (int i = 0; i < 16; ++i) {
      for (int j = 0; j < 32; ++j) {
        zh[i + j] += static_cast<i64>(z[i]) * h[j];
      }
    }
    u8 w[32];
    modL(w, zh);

    terms.emplace_back(z, minus_r);
    terms.emplace_back(w, minus_a);
  }

  u8 s_total[32];
  modL(s_total, s_sum);
  const P2 acc = multiscalar_vartime(terms, s_total);
  // (X:Y:Z) is the identity iff Y == Z (y = 1 forces x = 0 on the curve).
  return fe_equal(acc.Y, acc.Z);
}

}  // namespace dauct::crypto::ed25519
