#include "crypto/ed25519_reference.hpp"

#include <algorithm>
#include <cstring>

#include "crypto/sha512.hpp"

namespace dauct::crypto::ed25519_ref {

using ed25519::BatchItem;
using ed25519::KeyPair;
using ed25519::PublicKey;
using ed25519::Seed;
using ed25519::Signature;

namespace {

using i64 = std::int64_t;
using u8 = std::uint8_t;

// --- Field arithmetic over GF(2^255 - 19), radix 2^16 ----------------------
// 16 signed-64-bit limbs of 16 bits each, TweetNaCl layout: simple enough to
// audit, fast enough that point addition (the unit of all costs here) is a
// handful of microseconds.

using Fe = std::array<i64, 16>;

constexpr Fe kGf0{};
constexpr Fe kGf1{1};
// Curve constant d = -121665/121666, its double, the base point (X, Y), and
// sqrt(-1) — limbs generated from the closed forms with exact integer math.
constexpr Fe kD = {0x78a3, 0x1359, 0x4dca, 0x75eb, 0xd8ab, 0x4141, 0x0a4d, 0x0070,
                   0xe898, 0x7779, 0x4079, 0x8cc7, 0xfe73, 0x2b6f, 0x6cee, 0x5203};
constexpr Fe kD2 = {0xf159, 0x26b2, 0x9b94, 0xebd6, 0xb156, 0x8283, 0x149a, 0x00e0,
                    0xd130, 0xeef3, 0x80f2, 0x198e, 0xfce7, 0x56df, 0xd9dc, 0x2406};
constexpr Fe kBaseX = {0xd51a, 0x8f25, 0x2d60, 0xc956, 0xa7b2, 0x9525, 0xc760, 0x692c,
                       0xdc5c, 0xfdd6, 0xe231, 0xc0a4, 0x53fe, 0xcd6e, 0x36d3, 0x2169};
constexpr Fe kBaseY = {0x6658, 0x6666, 0x6666, 0x6666, 0x6666, 0x6666, 0x6666, 0x6666,
                       0x6666, 0x6666, 0x6666, 0x6666, 0x6666, 0x6666, 0x6666, 0x6666};
constexpr Fe kSqrtM1 = {0xa0b0, 0x4a0e, 0x1b27, 0xc4ee, 0xe478, 0xad2f, 0x1806, 0x2f43,
                        0xd7a7, 0x3dfb, 0x0099, 0x2b4d, 0xdf0b, 0x4fc1, 0x2480, 0x2b83};

// Group order L = 2^252 + 27742317777372353535851937790883648493, LE bytes.
constexpr u8 kL[32] = {0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58,
                       0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
                       0,    0,    0,    0,    0,    0,    0,    0,
                       0,    0,    0,    0,    0,    0,    0,    0x10};

void car25519(Fe& o) {
  for (int i = 0; i < 16; ++i) {
    o[i] += i64{1} << 16;
    const i64 c = o[i] >> 16;
    o[(i + 1) * (i < 15)] += c - 1 + 37 * (c - 1) * (i == 15);
    o[i] -= c << 16;
  }
}

/// Constant-time conditional swap: b must be 0 or 1.
void sel25519(Fe& p, Fe& q, i64 b) {
  const i64 c = ~(b - 1);
  for (int i = 0; i < 16; ++i) {
    const i64 t = c & (p[i] ^ q[i]);
    p[i] ^= t;
    q[i] ^= t;
  }
}

void pack25519(u8* o, const Fe& n) {
  Fe t = n;
  car25519(t);
  car25519(t);
  car25519(t);
  for (int j = 0; j < 2; ++j) {
    Fe m;
    m[0] = t[0] - 0xffed;
    for (int i = 1; i < 15; ++i) {
      m[i] = t[i] - 0xffff - ((m[i - 1] >> 16) & 1);
      m[i - 1] &= 0xffff;
    }
    m[15] = t[15] - 0x7fff - ((m[14] >> 16) & 1);
    const i64 b = (m[15] >> 16) & 1;
    m[14] &= 0xffff;
    sel25519(t, m, 1 - b);
  }
  for (int i = 0; i < 16; ++i) {
    o[2 * i] = static_cast<u8>(t[i] & 0xff);
    o[2 * i + 1] = static_cast<u8>(t[i] >> 8);
  }
}

bool eq25519(const Fe& a, const Fe& b) {
  u8 c[32], d[32];
  pack25519(c, a);
  pack25519(d, b);
  return std::memcmp(c, d, 32) == 0;
}

u8 par25519(const Fe& a) {
  u8 d[32];
  pack25519(d, a);
  return d[0] & 1;
}

void unpack25519(Fe& o, const u8* n) {
  for (int i = 0; i < 16; ++i) o[i] = n[2 * i] + (static_cast<i64>(n[2 * i + 1]) << 8);
  o[15] &= 0x7fff;
}

void fe_add(Fe& o, const Fe& a, const Fe& b) {
  for (int i = 0; i < 16; ++i) o[i] = a[i] + b[i];
}

void fe_sub(Fe& o, const Fe& a, const Fe& b) {
  for (int i = 0; i < 16; ++i) o[i] = a[i] - b[i];
}

void fe_mul(Fe& o, const Fe& a, const Fe& b) {
  i64 t[31] = {};
  for (int i = 0; i < 16; ++i) {
    for (int j = 0; j < 16; ++j) t[i + j] += a[i] * b[j];
  }
  for (int i = 0; i < 15; ++i) t[i] += 38 * t[i + 16];
  for (int i = 0; i < 16; ++i) o[i] = t[i];
  car25519(o);
  car25519(o);
}

void fe_sqr(Fe& o, const Fe& a) { fe_mul(o, a, a); }

void fe_inv(Fe& o, const Fe& in) {
  Fe c = in;
  for (int a = 253; a >= 0; --a) {
    fe_sqr(c, c);
    if (a != 2 && a != 4) fe_mul(c, c, in);
  }
  o = c;
}

/// c = in^((p-5)/8), the square-root helper of point decompression.
void pow2523(Fe& o, const Fe& in) {
  Fe c = in;
  for (int a = 250; a >= 0; --a) {
    fe_sqr(c, c);
    if (a != 1) fe_mul(c, c, in);
  }
  o = c;
}

// --- Group arithmetic: extended twisted-Edwards coordinates -----------------

using Point = std::array<Fe, 4>;  ///< (X, Y, Z, T) with T = XY/Z

const Point kIdentity = {kGf0, kGf1, kGf1, kGf0};

/// p += q (the complete a=-1 addition law; also correct for p == q).
void point_add(Point& p, const Point& q) {
  Fe a, b, c, d, t, e, f, g, h;
  fe_sub(a, p[1], p[0]);
  fe_sub(t, q[1], q[0]);
  fe_mul(a, a, t);
  fe_add(b, p[0], p[1]);
  fe_add(t, q[0], q[1]);
  fe_mul(b, b, t);
  fe_mul(c, p[3], q[3]);
  fe_mul(c, c, kD2);
  fe_mul(d, p[2], q[2]);
  fe_add(d, d, d);
  fe_sub(e, b, a);
  fe_sub(f, d, c);
  fe_add(g, d, c);
  fe_add(h, b, a);
  fe_mul(p[0], e, f);
  fe_mul(p[1], h, g);
  fe_mul(p[2], g, f);
  fe_mul(p[3], e, h);
}

void point_cswap(Point& p, Point& q, i64 b) {
  for (int i = 0; i < 4; ++i) sel25519(p[i], q[i], b);
}

void point_pack(u8* r, const Point& p) {
  Fe tx, ty, zi;
  fe_inv(zi, p[2]);
  fe_mul(tx, p[0], zi);
  fe_mul(ty, p[1], zi);
  pack25519(r, ty);
  r[31] ^= static_cast<u8>(par25519(tx) << 7);
}

/// Decompress `n` into -P (x negated; the form verification consumes).
/// False iff `n` is not the encoding of a curve point.
bool point_unpack_neg(Point& r, const u8* n) {
  Fe t, chk, num, den, den2, den4, den6;
  r[2] = kGf1;
  unpack25519(r[1], n);
  fe_sqr(num, r[1]);
  fe_mul(den, num, kD);
  fe_sub(num, num, r[2]);
  fe_add(den, r[2], den);

  fe_sqr(den2, den);
  fe_sqr(den4, den2);
  fe_mul(den6, den4, den2);
  fe_mul(t, den6, num);
  fe_mul(t, t, den);

  pow2523(t, t);
  fe_mul(t, t, num);
  fe_mul(t, t, den);
  fe_mul(t, t, den);
  fe_mul(r[0], t, den);

  fe_sqr(chk, r[0]);
  fe_mul(chk, chk, den);
  if (!eq25519(chk, num)) fe_mul(r[0], r[0], kSqrtM1);

  fe_sqr(chk, r[0]);
  fe_mul(chk, chk, den);
  if (!eq25519(chk, num)) return false;

  if (par25519(r[0]) == (n[31] >> 7)) fe_sub(r[0], kGf0, r[0]);

  fe_mul(r[3], r[0], r[1]);
  return true;
}

/// p = s·q, constant-time conditional-swap ladder (secret scalars).
void scalarmult_ct(Point& p, Point& q, const u8* s) {
  p = kIdentity;
  for (int i = 255; i >= 0; --i) {
    const i64 b = (s[i / 8] >> (i & 7)) & 1;
    point_cswap(p, q, b);
    point_add(q, p);
    point_add(p, p);
    point_cswap(p, q, b);
  }
}

/// p = s·q over the low `bits` bits of s, variable-time 4-bit windows
/// (public scalars only: verification). ~1.5x the ladder's speed at 256
/// bits, 2x again for the 128-bit batch coefficients.
void scalarmult_vartime(Point& p, const Point& q, const u8* s, int bits) {
  Point table[16];
  table[0] = kIdentity;
  table[1] = q;
  for (int i = 2; i < 16; ++i) {
    table[i] = table[i - 1];
    point_add(table[i], q);
  }
  p = kIdentity;
  const int nibbles = (bits + 3) / 4;
  for (int i = nibbles - 1; i >= 0; --i) {
    for (int d = 0; d < 4; ++d) point_add(p, p);
    const u8 nib = (s[i / 2] >> (4 * (i & 1))) & 0xf;
    if (nib != 0) point_add(p, table[nib]);
  }
}

Point base_point() {
  Point b;
  b[0] = kBaseX;
  b[1] = kBaseY;
  b[2] = kGf1;
  fe_mul(b[3], kBaseX, kBaseY);
  return b;
}

void scalarbase_ct(Point& p, const u8* s) {
  Point q = base_point();
  scalarmult_ct(p, q, s);
}

void scalarbase_vartime(Point& p, const u8* s) {
  const Point q = base_point();
  scalarmult_vartime(p, q, s, 256);
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
  Point p;
  scalarbase_ct(p, h.data());
  KeyPair kp;
  kp.seed = seed;
  point_pack(kp.public_key.data(), p);
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

  Point p;
  scalarbase_ct(p, r.data());
  Signature sig{};
  point_pack(sig.data(), p);

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
  Point minus_a;
  if (!point_unpack_neg(minus_a, pk.data())) return false;

  const Digest64 k = challenge(sig.data(), pk, message);

  Point p;
  scalarmult_vartime(p, minus_a, k.data(), 256);  // p = H(R,A,M)·(-A)
  Point sb;
  scalarbase_vartime(sb, sig.data() + 32);        // s·B
  point_add(p, sb);                               // p = s·B - H(R,A,M)·A

  u8 t[32];
  point_pack(t, p);
  return std::memcmp(sig.data(), t, 32) == 0;
}

bool verify_batch(std::span<const BatchItem> items, Rng& rng) {
  if (items.empty()) return true;

  // Accumulate sum z_i·(-R_i) + sum (z_i·h_i mod L)·(-A_i) into `acc` and
  // sum z_i·s_i into byte-product limbs; the batch passes iff adding
  // (sum z_i·s_i)·B lands back on the identity.
  i64 s_sum[64] = {};
  Point acc = kIdentity;

  for (const BatchItem& item : items) {
    const u8* sig = item.signature->data();
    if (!scalar_canonical(sig + 32)) return false;
    Point minus_a, minus_r;
    if (!point_unpack_neg(minus_a, item.public_key->data())) return false;
    if (!point_unpack_neg(minus_r, sig)) return false;

    u8 z[16];
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

    Point t;
    scalarmult_vartime(t, minus_r, z, 128);  // z_i·(-R_i): half-length scalar
    point_add(acc, t);
    scalarmult_vartime(t, minus_a, w, 256);  // (z_i·h_i)·(-A_i)
    point_add(acc, t);
  }

  u8 s_total[32];
  modL(s_total, s_sum);
  Point sb;
  scalarbase_vartime(sb, s_total);
  point_add(acc, sb);

  u8 t[32];
  point_pack(t, acc);
  if (t[0] != 1) return false;  // identity encodes as 0x01 then 31 zero bytes
  for (int i = 1; i < 32; ++i) {
    if (t[i] != 0) return false;
  }
  return true;
}

void reduce_mod_l(std::uint8_t* r, std::int64_t x[64]) { modL(r, x); }

}  // namespace dauct::crypto::ed25519_ref
