// Equivalence: the optimized ed25519 (radix-2^51 field, fixed-base comb,
// Straus multi-scalar verification) must be indistinguishable from the
// retained reference implementation (ed25519_reference.hpp): byte-identical
// public keys and signatures, the same verify and verify_batch verdict on
// every input — valid, corrupted, non-canonical, small-order, off-curve —
// and the same consumption of the batch coefficient Rng. Both verification
// entry points are pinned: raw PublicKeys and prepared VerifyKeys (the
// validators' path). Validators with either implementation therefore accept
// the same frames and keep the same batch_rng_ stream. The limb-based
// scalar reduction is pinned to the reference's byte-wise modL directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "crypto/ed25519.hpp"
#include "crypto/ed25519_reference.hpp"
#include "crypto/ed25519_scalar.hpp"
#include "crypto/rng.hpp"
#include "crypto/sha512.hpp"

namespace dauct::crypto {
namespace {

namespace scalar = ed25519::scalar;
namespace opt = ed25519;
namespace ref = ed25519_ref;
using ed25519::BatchItem;
using ed25519::KeyedBatchItem;
using ed25519::KeyPair;
using ed25519::PublicKey;
using ed25519::Seed;
using ed25519::Signature;
using ed25519::VerifyKey;

constexpr std::size_t kCorpus = 1024;

struct Case {
  KeyPair kp;
  Bytes msg;
  Signature sig;
};

/// Case i: a seeded key, a random message of 0..96 bytes, its signature.
Case make_case(std::uint64_t i) {
  Rng rng(0xed25519ULL + i);
  Seed seed{};
  for (auto& b : seed) b = static_cast<std::uint8_t>(rng.next_u64());
  Bytes msg(rng.next_below(97));
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next_u64());
  Case c{opt::keypair_from_seed(seed), std::move(msg), {}};
  c.sig = opt::sign(c.kp, BytesView(c.msg));
  return c;
}

const std::vector<Case>& corpus() {
  static const std::vector<Case> cases = [] {
    std::vector<Case> v;
    for (std::uint64_t i = 0; i < kCorpus; ++i) v.push_back(make_case(i));
    return v;
  }();
  return cases;
}

std::array<std::uint8_t, 32> from_hex(const char* hex) {
  std::array<std::uint8_t, 32> out{};
  for (std::size_t i = 0; i < 32; ++i) {
    out[i] = static_cast<std::uint8_t>(std::stoi(std::string(hex + 2 * i, 2), nullptr, 16));
  }
  return out;
}

// Every point of order dividing 8, canonically encoded (both sign bits where
// x != 0), plus the two x = 0 points with the sign bit set, which RFC 8032
// rejects and the reference decoder accepts.
const char* const kSmallOrder[] = {
    "0100000000000000000000000000000000000000000000000000000000000000",  // 1
    "0100000000000000000000000000000000000000000000000000000000000080",  // 1, x = 0
    "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",  // 2
    "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",  // 2, x = 0
    "0000000000000000000000000000000000000000000000000000000000000000",  // 4
    "0000000000000000000000000000000000000000000000000000000000000080",  // 4
    "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",  // 8
    "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85",  // 8
    "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",  // 8
    "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",  // 8
};

// Encodings with y >= p (y = p, p + 1, p + 2, 2^255 - 1) and sign bit
// variants: the decoder reduces y, so some of these land on the curve
// (y = 0, 1, 18) and one does not (y = 2).
const char* const kNonCanonicalY[] = {
    "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
    "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
    "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
    "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
    "efffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
    "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
    "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
};

// y = 2 and y = 7 are not the y of any curve point.
const char* const kOffCurve[] = {
    "0200000000000000000000000000000000000000000000000000000000000000",
    "0700000000000000000000000000000000000000000000000000000000000080",
};

/// One item of the hostile-input sweep: its own key, message and signature.
struct Item {
  PublicKey pk;
  Bytes msg;
  Signature sig;
  std::string what;

  BatchItem batch_item() const { return {&pk, BytesView(msg), &sig}; }
};

Item valid_item(std::size_t i) {
  const Case& c = corpus()[i];
  return {c.kp.public_key, c.msg, c.sig, "valid #" + std::to_string(i)};
}

/// Corrupted and crafted variants of corpus case i.
std::vector<Item> hostile_items(std::size_t i) {
  const Case& c = corpus()[i];
  Rng rng(0xbadULL + i);
  std::vector<Item> out;
  auto variant = [&](std::string what) -> Item& {
    out.push_back(valid_item(i));
    out.back().what = std::move(what) + " #" + std::to_string(i);
    return out.back();
  };

  variant("flipped R bit").sig[rng.next_below(256) / 8] ^=
      static_cast<std::uint8_t>(1u << rng.next_below(8));
  variant("flipped s bit").sig[32 + rng.next_below(256) / 8] ^=
      static_cast<std::uint8_t>(1u << rng.next_below(8));
  Item& m = variant("flipped message bit");
  if (m.msg.empty()) {
    m.msg.push_back(0);
  } else {
    m.msg[rng.next_below(m.msg.size())] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
  }
  variant("swapped key").pk = corpus()[(i + 1) % kCorpus].kp.public_key;

  // s + L and s = L: the same scalar mod L, non-canonically encoded.
  const auto L = from_hex("edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");
  Item& plus_l = variant("s + L");
  unsigned carry = 0;
  for (int k = 0; k < 32; ++k) {
    const unsigned sum = c.sig[32 + k] + L[k] + carry;
    plus_l.sig[32 + k] = static_cast<std::uint8_t>(sum);
    carry = sum >> 8;
  }
  std::copy(L.begin(), L.end(), variant("s = L").sig.begin() + 32);
  Signature& all_ones = variant("s = 2^256 - 1").sig;
  std::fill(all_ones.begin() + 32, all_ones.end(), 0xff);

  auto crafted = [&](const char* const* encs, std::size_t n, const char* what) {
    for (std::size_t k = 0; k < n; ++k) {
      const auto e = from_hex(encs[k]);
      variant(std::string(what) + " A " + std::to_string(k)).pk = e;
      Signature& sig = variant(std::string(what) + " R " + std::to_string(k)).sig;
      std::copy(e.begin(), e.end(), sig.begin());
    }
  };
  crafted(kSmallOrder, std::size(kSmallOrder), "small-order");
  crafted(kNonCanonicalY, std::size(kNonCanonicalY), "y >= p");
  crafted(kOffCurve, std::size(kOffCurve), "off-curve");
  return out;
}

// Keys and signatures are separate tests so CTest can run the two
// reference sweeps in parallel.
TEST(Ed25519Equivalence, KeysMatchReference) {
  for (std::size_t i = 0; i < kCorpus; ++i) {
    const Case& c = corpus()[i];
    ASSERT_EQ(c.kp.public_key, ref::keypair_from_seed(c.kp.seed).public_key) << "case " << i;
  }
}

TEST(Ed25519Equivalence, SignaturesMatchReference) {
  for (std::size_t i = 0; i < kCorpus; ++i) {
    const Case& c = corpus()[i];
    ASSERT_EQ(c.sig, ref::sign(c.kp, BytesView(c.msg))) << "case " << i;
  }
}

// The verify sweeps below compare against the reference on a stride through
// the corpus: it costs milliseconds per call, and tens of times more under
// the sanitizers. Every case still runs both production entry points.
TEST(Ed25519Equivalence, ValidSignaturesVerifyInBoth) {
  for (std::size_t i = 0; i < kCorpus; ++i) {
    const Case& c = corpus()[i];
    EXPECT_TRUE(opt::verify(c.kp.public_key, BytesView(c.msg), c.sig)) << "case " << i;
    EXPECT_TRUE(opt::verify(VerifyKey(c.kp.public_key), BytesView(c.msg), c.sig)) << "case " << i;
    if (i % 8 == 0) {
      EXPECT_TRUE(ref::verify(c.kp.public_key, BytesView(c.msg), c.sig)) << "case " << i;
    }
  }
}

TEST(Ed25519Equivalence, VerifyVerdictsMatchOnHostileInputs) {
  for (std::size_t i = 0; i < kCorpus; i += 64) {
    for (const Item& item : hostile_items(i)) {
      const bool want = ref::verify(item.pk, BytesView(item.msg), item.sig);
      EXPECT_EQ(opt::verify(item.pk, BytesView(item.msg), item.sig), want) << item.what;
      EXPECT_EQ(opt::verify(VerifyKey(item.pk), BytesView(item.msg), item.sig), want)
          << item.what << " (prepared key)";
    }
  }
}

/// verify_batch on `items` in the reference and on both production entry
/// points (raw keys, prepared keys) from the same Rng state: the verdicts
/// agree, and so do the Rng states afterwards.
void expect_batch_equivalent(const std::vector<Item>& items, std::uint64_t rng_seed,
                             bool expected, const std::string& what) {
  std::vector<BatchItem> batch;
  std::vector<VerifyKey> keys;
  for (const Item& it : items) {
    batch.push_back(it.batch_item());
    keys.emplace_back(it.pk);
  }
  std::vector<KeyedBatchItem> keyed;
  for (std::size_t k = 0; k < items.size(); ++k) {
    keyed.push_back({&keys[k], BytesView(items[k].msg), &items[k].sig});
  }
  Rng opt_rng(rng_seed), keyed_rng(rng_seed), ref_rng(rng_seed);
  const bool want = ref::verify_batch(batch, ref_rng);
  EXPECT_EQ(opt::verify_batch(batch, opt_rng), want) << what;
  EXPECT_EQ(opt::verify_batch_keyed(keyed, keyed_rng), want) << what << " (prepared keys)";
  if (expected) {
    EXPECT_TRUE(want) << what;
  }
  const std::uint64_t next = ref_rng.next_u64();
  EXPECT_EQ(opt_rng.next_u64(), next) << what;
  EXPECT_EQ(keyed_rng.next_u64(), next) << what << " (prepared keys)";
}

TEST(Ed25519Equivalence, BatchVerdictsAndRngMatchReference) {
  std::uint64_t rng_seed = 1;
  for (const std::size_t size : {1, 4, 16}) {
    std::vector<Item> items;
    for (std::size_t k = 0; k < size; ++k) items.push_back(valid_item(k * 7 + size));
    expect_batch_equivalent(items, rng_seed++, true, "all valid, size " + std::to_string(size));

    // One bad item per batch, at the first, middle and last position:
    // the early exits and the Rng draws before them differ by position.
    // Batches of 16 take every third kind of bad item.
    const std::vector<Item> hostile = hostile_items(size * 3);
    const std::size_t step = size == 16 ? 3 : 1;
    std::vector<std::size_t> positions = {0, size / 2, size - 1};
    positions.erase(std::unique(positions.begin(), positions.end()), positions.end());
    for (std::size_t k = 0; k < hostile.size(); k += step) {
      const Item& bad = hostile[k];
      for (const std::size_t pos : positions) {
        std::vector<Item> batch = items;
        batch[pos] = bad;
        expect_batch_equivalent(
            batch, rng_seed++, false,
            bad.what + " at " + std::to_string(pos) + "/" + std::to_string(size));
      }
    }
  }
}

/// p - y for a canonical 255-bit y (little-endian, bit 255 clear).
std::array<std::uint8_t, 32> p_minus(const std::uint8_t* y) {
  std::array<std::uint8_t, 32> out{};
  int borrow = 0;
  for (int i = 0; i < 32; ++i) {
    const int p_byte = i == 0 ? 0xed : (i == 31 ? 0x7f : 0xff);
    const int d = p_byte - y[i] - borrow;
    out[i] = static_cast<std::uint8_t>(d);
    borrow = d < 0;
  }
  return out;
}

// A key whose encoding is not canonical must be hashed as sent, never as
// its re-encoding. A = (0, -1), of order 2, encoded with the sign bit set
// (the canonical encoding has it clear). With s = a mod L for a keypair's
// scalar a, both R = s·B (= that keypair's A0) and R = s·B + A (= (-x, -y)
// of A0) are candidate nonces; (R, s) is valid iff H(R, A, M) has the
// parity that matches. Hashing the canonical bytes instead flips about
// half of the verdicts.
TEST(Ed25519Equivalence, NonCanonicalKeysHashTheirOwnBytes) {
  const PublicKey order2 =
      from_hex("ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff");
  const VerifyKey prepared(order2);
  ASSERT_TRUE(prepared.valid());
  const Seed seed = from_hex("0101010101010101010101010101010101010101010101010101010101010101");
  const PublicKey a0 = opt::keypair_from_seed(seed).public_key;
  const Digest64 expanded = sha512(BytesView(seed.data(), seed.size()));
  scalar::Wide a{};
  scalar::load_limbs(a.data(), expanded.data(), 4);
  a[0] &= ~std::uint64_t{7};
  a[3] = (a[3] & ~(std::uint64_t{1} << 63)) | (std::uint64_t{1} << 62);  // clamp
  Signature base{};
  scalar::reduce(base.data() + 32, a);

  PublicKey a0_y = a0;
  a0_y[31] &= 0x7f;
  std::array<std::uint8_t, 32> a0_neg = p_minus(a0_y.data());
  a0_neg[31] |= static_cast<std::uint8_t>((a0[31] & 0x80) ^ 0x80);
  std::vector<Item> valid;
  for (int i = 0; i < 32; ++i) {
    const Bytes msg = {static_cast<std::uint8_t>(i)};
    for (const auto& r : {std::array<std::uint8_t, 32>(a0), a0_neg}) {
      Signature sig = base;
      std::copy(r.begin(), r.end(), sig.begin());
      const bool want = ref::verify(order2, BytesView(msg), sig);
      EXPECT_EQ(opt::verify(order2, BytesView(msg), sig), want) << "message " << i;
      EXPECT_EQ(opt::verify(prepared, BytesView(msg), sig), want) << "message " << i;
      if (want) valid.push_back({order2, msg, sig, "order-2 key, message " + std::to_string(i)});
    }
  }
  ASSERT_GE(valid.size(), 16u);  // about half of the 64 candidates
  ASSERT_LE(valid.size(), 48u);
  // In a batch the key's coefficient is z·h mod L, whose parity is not
  // h's: verdicts vary with z (as for the torsion cases below), and depend
  // on the hashed bytes through h.
  for (std::size_t k = 0; k + 4 <= valid.size(); k += 4) {
    expect_batch_equivalent({valid.begin() + k, valid.begin() + k + 4}, 300 + k, false,
                            "order-2 key batch at " + std::to_string(k));
  }
}

// Torsion: the key of RFC 8032 test 1 plus a point T of order 8, and the
// nonce R of its signature plus T. Signing with the shifted key in the
// KeyPair yields signatures valid only modulo torsion — accepted exactly
// when H(R, A+T, M) is a multiple of 8. Both implementations must agree
// per message, alone and in batches: a cofactored check (8·sum == 0) or a
// scalar reduced differently would flip verdicts here.
TEST(Ed25519Equivalence, TorsionComponentsMatchReference) {
  const Seed rfc_seed =
      from_hex("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60");
  const KeyPair shifted{
      rfc_seed, from_hex("3b5b475c4b82dd1572799fc546f4c6c03e478c6654aa4c7f945b347ea32af60d")};
  std::vector<Item> items;
  int accepted = 0;
  for (int i = 0; i < 32; ++i) {
    Bytes msg = {static_cast<std::uint8_t>(i)};
    const Signature sig = opt::sign(shifted, BytesView(msg));
    ASSERT_EQ(sig, ref::sign(shifted, BytesView(msg)));
    const bool ok = opt::verify(shifted.public_key, BytesView(msg), sig);
    EXPECT_EQ(ok, ref::verify(shifted.public_key, BytesView(msg), sig)) << "message " << i;
    EXPECT_EQ(ok, opt::verify(VerifyKey(shifted.public_key), BytesView(msg), sig))
        << "message " << i;
    accepted += ok;
    items.push_back({shifted.public_key, std::move(msg), sig, "A+T, message " + std::to_string(i)});
  }
  EXPECT_GT(accepted, 0);   // both outcomes occur, so the comparison bites
  EXPECT_LT(accepted, 32);
  for (std::size_t k = 0; k < items.size(); k += 4) {
    expect_batch_equivalent({items.begin() + k, items.begin() + k + 4}, 100 + k, false,
                            "A+T batch at " + std::to_string(k));
  }

  const KeyPair rfc = opt::keypair_from_seed(rfc_seed);
  Item r_shifted{rfc.public_key, {}, opt::sign(rfc, {}), "R+T"};
  const auto rt = from_hex("030ebbcd7da06a0d1188bbe47275208b96c9d32e6e750955a7609d8010ba9222");
  std::copy(rt.begin(), rt.end(), r_shifted.sig.begin());
  const bool want = ref::verify(r_shifted.pk, {}, r_shifted.sig);
  EXPECT_EQ(opt::verify(r_shifted.pk, {}, r_shifted.sig), want);
  EXPECT_EQ(opt::verify(VerifyKey(r_shifted.pk), {}, r_shifted.sig), want);
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    expect_batch_equivalent({valid_item(1), r_shifted, valid_item(2)}, 200 + seed, false,
                            "R+T batch, Rng seed " + std::to_string(200 + seed));
  }
}

TEST(Ed25519Equivalence, EmptyBatchDrawsNothing) {
  Rng opt_rng(9), keyed_rng(9), ref_rng(9);
  EXPECT_TRUE(opt::verify_batch({}, opt_rng));
  EXPECT_TRUE(opt::verify_batch_keyed({}, keyed_rng));
  EXPECT_TRUE(ref::verify_batch({}, ref_rng));
  EXPECT_EQ(opt_rng.next_u64(), Rng(9).next_u64());
  EXPECT_EQ(keyed_rng.next_u64(), Rng(9).next_u64());
  EXPECT_EQ(ref_rng.next_u64(), Rng(9).next_u64());
}

// --- Scalar reduction: scalar::reduce against the reference's modL --------

using Limbs = std::array<std::int64_t, 64>;

/// x = sum x[i]·2^(8i) (nonnegative limbs, value below 2^512) as a Wide.
scalar::Wide to_wide(const Limbs& x) {
  std::uint8_t bytes[64];
  std::int64_t carry = 0;
  for (int i = 0; i < 64; ++i) {
    const std::int64_t v = x[i] + carry;
    bytes[i] = static_cast<std::uint8_t>(v & 255);
    carry = v >> 8;
  }
  EXPECT_EQ(carry, 0) << "input not below 2^512";
  scalar::Wide w;
  scalar::load_limbs(w.data(), bytes, 8);
  return w;
}

void expect_reduce_matches(Limbs x, const std::string& what) {
  std::uint8_t got[32], want[32];
  scalar::reduce(got, to_wide(x));
  ref::reduce_mod_l(want, x.data());
  ASSERT_TRUE(std::equal(got, got + 32, want)) << what;
}

/// x[i + j] += a[i]·b[j]: the byte convolution the reference reduces.
void convolve(Limbs& x, const std::uint8_t* a, int na, const std::uint8_t* b, int nb) {
  for (int i = 0; i < na; ++i) {
    for (int j = 0; j < nb; ++j) x[i + j] += static_cast<std::int64_t>(a[i]) * b[j];
  }
}

Limbs from_bytes(const std::array<std::uint8_t, 32>& v) {
  Limbs x{};
  std::copy(v.begin(), v.end(), x.begin());
  return x;
}

TEST(Ed25519Scalar, ReduceMatchesReferenceOnEdgeInputs) {
  const auto L = from_hex("edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");
  expect_reduce_matches(Limbs{}, "0");
  Limbs l_minus_1 = from_bytes(L);
  l_minus_1[0] -= 1;
  expect_reduce_matches(l_minus_1, "L - 1");
  expect_reduce_matches(from_bytes(L), "L");
  Limbs two_l = from_bytes(L);
  for (auto& limb : two_l) limb *= 2;
  expect_reduce_matches(two_l, "2L");
  Limbs all_ones;
  all_ones.fill(255);
  expect_reduce_matches(all_ones, "2^512 - 1");

  // The largest limb vectors a 16-item batch builds: every byte of z_i
  // (16 bytes), s_i and h_i (32 bytes) at 255.
  std::uint8_t ff[32];
  std::fill(ff, ff + 32, 0xff);
  Limbs zh{};
  convolve(zh, ff, 16, ff, 32);
  expect_reduce_matches(zh, "largest z·h");
  Limbs s_sum{};
  for (int item = 0; item < 16; ++item) convolve(s_sum, ff, 16, ff, 32);
  expect_reduce_matches(s_sum, "largest sum of 16 z·s");
  // And the largest r + k·d that signing builds from 32-byte values.
  Limbs sign_x{};
  std::copy(ff, ff + 32, sign_x.begin());
  convolve(sign_x, ff, 32, ff, 32);
  expect_reduce_matches(sign_x, "largest r + k·d");
}

TEST(Ed25519Scalar, ReduceMatchesReferenceOnRandomInputs) {
  Rng rng(0x5ca1a7);
  const auto random_bytes = [&rng](std::uint8_t* out, int n) {
    for (int i = 0; i < n; ++i) out[i] = static_cast<std::uint8_t>(rng.next_u64());
  };
  std::uint8_t a[32], b[32];
  for (int i = 0; i < 100000; ++i) {
    Limbs x{};
    switch (i % 4) {
      case 0:  // a 64-byte hash
        for (auto& limb : x) limb = static_cast<std::uint8_t>(rng.next_u64());
        break;
      case 1:  // signing: r + k·d
        random_bytes(a, 32);
        std::copy(a, a + 32, x.begin());
        random_bytes(a, 32);
        random_bytes(b, 32);
        convolve(x, a, 32, b, 32);
        break;
      case 2:  // batch: z·h
        random_bytes(a, 16);
        random_bytes(b, 32);
        convolve(x, a, 16, b, 32);
        break;
      default:  // batch: sum of 1..16 z·s
        for (std::uint64_t n = 1 + rng.next_below(16); n > 0; --n) {
          random_bytes(a, 16);
          random_bytes(b, 32);
          convolve(x, a, 16, b, 32);
        }
    }
    expect_reduce_matches(x, "random input " + std::to_string(i));
  }
}

}  // namespace
}  // namespace dauct::crypto
