#include <gtest/gtest.h>

#include <cstdint>
#include <functional>

#include "crypto/rng.hpp"
#include "runtime/submission_codec.hpp"
#include "serde/auction_codec.hpp"
#include "serde/bitstream.hpp"
#include "serde/codec.hpp"

namespace dauct::serde {
namespace {

TEST(Codec, ScalarRoundTrip) {
  Writer w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.boolean(true);
  w.money(Money::from_double(1.25));
  w.str("hello");

  Reader r(BytesView(w.buffer()));
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.money(), Money::from_double(1.25));
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.at_end());
}

TEST(Codec, VarintBoundaries) {
  for (std::uint64_t v : {0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL,
                          0xffffffffULL, 0xffffffffffffffffULL}) {
    Writer w;
    w.varint(v);
    Reader r(BytesView(w.buffer()));
    EXPECT_EQ(r.varint(), v);
    EXPECT_TRUE(r.at_end());
  }
}

TEST(Codec, VarintRejectsOverflow) {
  // 11 bytes of continuation: > 64 bits.
  Bytes bad(11, 0xff);
  bad.back() = 0x01;
  Reader r{BytesView(bad)};
  (void)r.varint();
  EXPECT_FALSE(r.ok());
}

TEST(Codec, MoneyRoundTripsAtTheExtremes) {
  // Zigzag varint of the micro-units: one byte around zero, ten at the ends.
  const struct {
    std::int64_t micros;
    std::size_t wire_bytes;
  } cases[] = {{INT64_MIN, 10}, {INT64_MAX, 10}, {-1, 1}, {0, 1}, {1, 1}};
  for (const auto& c : cases) {
    Writer w;
    w.money(Money::from_micros(c.micros));
    EXPECT_EQ(w.size(), c.wire_bytes) << c.micros;
    Reader r(BytesView(w.buffer()));
    EXPECT_EQ(r.money().micros(), c.micros);
    EXPECT_TRUE(r.at_end()) << c.micros;
  }
}

TEST(Codec, IdRoundTripsAtTheBoundaries) {
  const struct {
    std::uint32_t id;
    std::size_t wire_bytes;
  } cases[] = {{0, 1}, {127, 1}, {128, 2}, {UINT32_MAX, 5}};
  for (const auto& c : cases) {
    Writer w;
    w.id(c.id);
    EXPECT_EQ(w.size(), c.wire_bytes) << c.id;
    Reader r(BytesView(w.buffer()));
    EXPECT_EQ(r.id(), c.id);
    EXPECT_TRUE(r.at_end()) << c.id;
  }
  // One past UINT32_MAX is a well-formed varint but not an id.
  Writer w;
  w.varint(std::uint64_t{UINT32_MAX} + 1);
  Reader r(BytesView(w.buffer()));
  EXPECT_EQ(r.id(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(Codec, MoneyVarintLongerThanTenBytesIsRejected) {
  // Ten bytes hold any 64-bit value; an eleventh continuation is malformed
  // even when the value it spells (zero here) would fit.
  Bytes bad(10, 0x80);
  bad.push_back(0x00);
  Reader r{BytesView(bad)};
  (void)r.money();
  EXPECT_FALSE(r.ok());
  // The same value in ten bytes is accepted.
  Bytes ten(9, 0x80);
  ten.push_back(0x00);
  Reader ok{BytesView(ten)};
  EXPECT_EQ(ok.money(), kZeroMoney);
  EXPECT_TRUE(ok.at_end());
}

TEST(Codec, TruncatedReadsFailSoft) {
  Writer w;
  w.u32(7);
  Reader r(BytesView(w.buffer()));
  (void)r.u64();  // wants 8 bytes, only 4 available
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u32(), 0u);  // all further reads return zero
}

TEST(Codec, BooleanRejectsNonCanonical) {
  const Bytes bad = {2};
  Reader r{BytesView(bad)};
  (void)r.boolean();
  EXPECT_FALSE(r.ok());
}

TEST(Codec, BytesLengthPrefixedDefensive) {
  Writer w;
  w.varint(1000);  // claims 1000 bytes, provides none
  Reader r(BytesView(w.buffer()));
  (void)r.bytes();
  EXPECT_FALSE(r.ok());
}

TEST(Bitstream, RoundTrip) {
  const Bytes data = {0b10110010, 0xff, 0x00, 0x01};
  const auto bits = to_bits(BytesView(data));
  ASSERT_EQ(bits.size(), 32u);
  EXPECT_TRUE(bits[0]);
  EXPECT_FALSE(bits[1]);
  EXPECT_TRUE(bits[2]);
  EXPECT_EQ(from_bits(bits), data);
}

TEST(Bitstream, MsbFirst) {
  const Bytes one = {0x80};
  const auto bits = to_bits(BytesView(one));
  EXPECT_TRUE(bits[0]);
  for (int i = 1; i < 8; ++i) EXPECT_FALSE(bits[i]);
}

TEST(AuctionCodec, BidFixedRoundTrip) {
  auction::Bid b;
  b.bidder = 17;
  b.unit_value = Money::from_double(1.125);
  b.demand = Money::from_double(0.75);
  const Bytes enc = encode_bid_fixed(b);
  EXPECT_EQ(enc.size(), kBidEncodingBytes);
  const auto dec = decode_bid_fixed(BytesView(enc));
  ASSERT_TRUE(dec);
  EXPECT_EQ(*dec, b);
}

TEST(AuctionCodec, BidFixedStaysTwentyBytesWhereTheVarintFormIsShort) {
  // The bit-stream agreement addresses 160 bits per bidder and the value
  // vote hashes these slots: a small bid must not shrink its fixed form.
  const auction::Bid small{1, Money::from_micros(1), Money::from_micros(0)};
  const Bytes enc = encode_bid_fixed(small);
  EXPECT_EQ(kBidEncodingBytes, 20u);
  EXPECT_EQ(enc.size(), kBidEncodingBytes);
  // u32 bidder ‖ i64 value ‖ i64 demand, little-endian.
  Bytes want(kBidEncodingBytes, 0);
  want[0] = 1;
  want[4] = 1;
  EXPECT_EQ(enc, want);
  Writer w;
  write_bid(w, small);
  EXPECT_EQ(w.size(), 3u);
}

TEST(AuctionCodec, BidFixedRejectsWrongLength) {
  Bytes enc(kBidEncodingBytes + 1, 0);
  EXPECT_FALSE(decode_bid_fixed(BytesView(enc)));
  enc.resize(kBidEncodingBytes - 1);
  EXPECT_FALSE(decode_bid_fixed(BytesView(enc)));
}

TEST(AuctionCodec, AskVectorRoundTrip) {
  std::vector<auction::Ask> asks = {{0, Money::from_double(0.3), Money::from_units(4)},
                                    {1, Money::from_double(0.6), Money::from_units(2)}};
  const auto dec = decode_ask_vector(BytesView(encode_ask_vector(asks)));
  ASSERT_TRUE(dec);
  EXPECT_EQ(*dec, asks);
}

TEST(AuctionCodec, AllocationRoundTripCanonical) {
  auction::Allocation x;
  x.add(3, 1, Money::from_double(0.5));
  x.add(1, 0, Money::from_double(0.25));
  x.add(1, 2, Money::from_double(0.75));
  const auto dec = decode_allocation(BytesView(encode_allocation(x)));
  ASSERT_TRUE(dec);
  EXPECT_EQ(*dec, x);
  EXPECT_TRUE(dec->is_canonical());
}

TEST(AuctionCodec, AllocationRejectsNonCanonical) {
  // Hand-craft an out-of-order encoding: entries (2,0) then (1,0).
  Writer w;
  w.varint(2);
  w.id(2); w.id(0); w.money(Money::from_units(1));
  w.id(1); w.id(0); w.money(Money::from_units(1));
  // decode_allocation re-canonicalizes via add(); the duplicate-merge makes
  // this decodable, but the re-encoded form must be canonical.
  const auto dec = decode_allocation(BytesView(w.buffer()));
  ASSERT_TRUE(dec);
  EXPECT_TRUE(dec->is_canonical());
}

TEST(AuctionCodec, AllocationRejectsNonPositiveAmount) {
  Writer w;
  w.varint(1);
  w.id(0); w.id(0); w.money(kZeroMoney);
  EXPECT_FALSE(decode_allocation(BytesView(w.buffer())));
}

TEST(AuctionCodec, PaymentsRoundTrip) {
  auction::Payments p;
  p.user_payments = {Money::from_units(1), kZeroMoney, Money::from_double(0.5)};
  p.provider_revenues = {Money::from_double(1.25)};
  const auto dec = decode_payments(BytesView(encode_payments(p)));
  ASSERT_TRUE(dec);
  EXPECT_EQ(*dec, p);
}

TEST(AuctionCodec, ResultRoundTrip) {
  auction::AuctionResult res;
  res.allocation.add(0, 1, Money::from_units(2));
  res.payments.user_payments = {Money::from_units(1)};
  res.payments.provider_revenues = {kZeroMoney, Money::from_units(1)};
  const auto dec = decode_result(BytesView(encode_result(res)));
  ASSERT_TRUE(dec);
  EXPECT_EQ(*dec, res);
}

TEST(AuctionCodec, AssignmentRoundTrip) {
  auction::Assignment a;
  a.provider_of = {-1, 0, 3, -1};
  a.welfare = Money::from_double(2.5);
  const auto dec = decode_assignment(BytesView(encode_assignment(a)));
  ASSERT_TRUE(dec);
  EXPECT_EQ(*dec, a);
}

TEST(AuctionCodec, InstanceRoundTrip) {
  auction::AuctionInstance inst;
  inst.bids = {{0, Money::from_units(1), Money::from_double(0.5)}};
  inst.asks = {{0, Money::from_double(0.2), Money::from_units(3)}};
  const auto dec = decode_instance(BytesView(encode_instance(inst)));
  ASSERT_TRUE(dec);
  EXPECT_EQ(dec->bids, inst.bids);
  EXPECT_EQ(dec->asks, inst.asks);
}

TEST(AuctionCodec, MoneyVectorRoundTrip) {
  const std::vector<Money> v = {kZeroMoney, Money::from_double(-1.5),
                                Money::from_units(7)};
  const auto dec = decode_money_vector(BytesView(encode_money_vector(v)));
  ASSERT_TRUE(dec);
  EXPECT_EQ(*dec, v);
}

// Every variable-length decoder rejects a cut-short frame at every cut point
// and a frame with a byte appended: truncation and trailing garbage never
// decode to a (different) value.
void expect_rejects_truncation_and_trailing(
    const Bytes& enc, const std::function<bool(BytesView)>& decodes) {
  ASSERT_TRUE(decodes(BytesView(enc)));
  for (std::size_t cut = 0; cut < enc.size(); ++cut) {
    EXPECT_FALSE(decodes(BytesView(enc.data(), cut))) << "cut at " << cut;
  }
  Bytes longer = enc;
  longer.push_back(0);
  EXPECT_FALSE(decodes(BytesView(longer)));
}

TEST(AuctionCodec, SubmissionsRejectTruncationAndTrailingBytes) {
  const std::vector<std::optional<auction::Bid>> subs = {
      auction::Bid{0, Money::from_double(1.5), Money::from_units(2)},
      std::nullopt,
      auction::Bid{300, Money::from_micros(-7), Money::from_micros(INT64_MAX)}};
  const Bytes enc = runtime::detail::encode_submissions(subs);
  const auto dec = runtime::detail::decode_submissions(BytesView(enc));
  ASSERT_TRUE(dec);
  EXPECT_EQ(*dec, subs);
  expect_rejects_truncation_and_trailing(enc, [](BytesView d) {
    return runtime::detail::decode_submissions(d).has_value();
  });
}

TEST(AuctionCodec, ResultRejectsTruncationAndTrailingBytes) {
  auction::AuctionResult res;
  res.allocation.add(0, 1, Money::from_units(2));
  res.allocation.add(200, 0, Money::from_micros(1));
  res.payments.user_payments = {Money::from_units(1), Money::from_micros(-3)};
  res.payments.provider_revenues = {kZeroMoney, Money::from_micros(INT64_MIN)};
  expect_rejects_truncation_and_trailing(encode_result(res), [](BytesView d) {
    return decode_result(d).has_value();
  });
}

TEST(AuctionCodec, AssignmentRejectsTruncationAndTrailingBytes) {
  auction::Assignment a;
  a.provider_of = {-1, 0, 200, INT32_MAX, INT32_MIN};
  a.welfare = Money::from_double(-2.5);
  const Bytes enc = encode_assignment(a);
  const auto dec = decode_assignment(BytesView(enc));
  ASSERT_TRUE(dec);
  EXPECT_EQ(*dec, a);
  expect_rejects_truncation_and_trailing(enc, [](BytesView d) {
    return decode_assignment(d).has_value();
  });
  // A provider index outside int32 is a well-formed svarint, not an index.
  Writer w;
  w.varint(1);
  w.svarint(std::int64_t{INT32_MAX} + 1);
  w.money(kZeroMoney);
  EXPECT_FALSE(decode_assignment(BytesView(w.buffer())));
}

TEST(AuctionCodec, MoneyVectorRejectsTruncationAndTrailingBytes) {
  const std::vector<Money> v = {Money::from_micros(INT64_MAX), kZeroMoney,
                                Money::from_micros(-1), Money::from_units(1)};
  expect_rejects_truncation_and_trailing(encode_money_vector(v), [](BytesView d) {
    return decode_money_vector(d).has_value();
  });
}

// ---------------------------------------------------------------------------
// Zero-copy Reader parity: the *_view accessors must accept and reject
// exactly the same inputs as the owning accessors, with the same ok() state
// transitions and the same produced values.
// ---------------------------------------------------------------------------

TEST(CodecZeroCopy, ViewsMatchOwningOnWellFormed) {
  Writer w;
  w.bytes(to_bytes("payload"));
  w.str("topic/leaf");
  w.raw(to_bytes("xyz"));

  Reader owning(BytesView(w.buffer()));
  Reader viewing(BytesView(w.buffer()));
  const BytesView bytes_view = viewing.bytes_view();
  EXPECT_EQ(owning.bytes(), Bytes(bytes_view.begin(), bytes_view.end()));
  EXPECT_EQ(owning.str(), std::string(viewing.str_view()));
  const Bytes raw_owned = owning.raw(3);
  const BytesView raw_view = viewing.raw_view(3);
  EXPECT_EQ(raw_owned, Bytes(raw_view.begin(), raw_view.end()));
  EXPECT_TRUE(owning.at_end());
  EXPECT_TRUE(viewing.at_end());
}

TEST(CodecZeroCopy, ViewsAliasTheInputBuffer) {
  Writer w;
  w.bytes(to_bytes("abc"));
  const Bytes& buf = w.buffer();
  Reader r{BytesView(buf)};
  const BytesView v = r.bytes_view();
  ASSERT_EQ(v.size(), 3u);
  // Zero-copy means the view points into the original buffer.
  EXPECT_GE(v.data(), buf.data());
  EXPECT_LT(v.data(), buf.data() + buf.size());
}

TEST(CodecZeroCopy, TruncatedLengthPrefixRejectedIdentically) {
  Writer w;
  w.varint(1000);  // claims 1000 bytes, provides none
  Reader owning(BytesView(w.buffer()));
  Reader viewing(BytesView(w.buffer()));
  (void)owning.bytes();
  const BytesView v = viewing.bytes_view();
  EXPECT_FALSE(owning.ok());
  EXPECT_FALSE(viewing.ok());
  EXPECT_TRUE(v.empty());
}

TEST(CodecZeroCopy, TruncatedRawRejectedIdentically) {
  const Bytes buf = {1, 2};
  Reader owning{BytesView(buf)};
  Reader viewing{BytesView(buf)};
  (void)owning.raw(3);
  (void)viewing.raw_view(3);
  EXPECT_FALSE(owning.ok());
  EXPECT_FALSE(viewing.ok());
}

TEST(CodecZeroCopy, MalformedVarintPrefixRejectedIdentically) {
  Bytes bad(11, 0xff);  // varint overflow as a length prefix
  Reader owning{BytesView(bad)};
  Reader viewing{BytesView(bad)};
  (void)owning.str();
  (void)viewing.str_view();
  EXPECT_FALSE(owning.ok());
  EXPECT_FALSE(viewing.ok());
}

TEST(CodecZeroCopy, FuzzedBuffersAgreeEverywhere) {
  crypto::Rng rng(123);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes junk(rng.next_below(40));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    Reader owning{BytesView(junk)};
    Reader viewing{BytesView(junk)};
    for (int op = 0; op < 4; ++op) {
      switch (rng.next_below(3)) {
        case 0: {
          const Bytes a = owning.bytes();
          const BytesView b = viewing.bytes_view();
          EXPECT_EQ(a, Bytes(b.begin(), b.end()));
          break;
        }
        case 1: {
          const std::size_t len = rng.next_below(8);
          const Bytes a = owning.raw(len);
          const BytesView b = viewing.raw_view(len);
          EXPECT_EQ(a, Bytes(b.begin(), b.end()));
          break;
        }
        case 2: {
          EXPECT_EQ(owning.str(), std::string(viewing.str_view()));
          break;
        }
      }
      ASSERT_EQ(owning.ok(), viewing.ok()) << "trial " << trial << " op " << op;
      ASSERT_EQ(owning.remaining(), viewing.remaining());
    }
    EXPECT_EQ(owning.at_end(), viewing.at_end());
  }
}

TEST(CodecWriter, ReserveAndReuseKeepBytesIdentical) {
  const auto encode = [](Writer& w) {
    w.varint(300);
    w.str("reusable");
    w.u64(0x1122334455667788ULL);
  };
  Writer fresh;
  encode(fresh);

  Writer reused(256);
  encode(reused);
  EXPECT_EQ(fresh.buffer(), reused.buffer());

  reused.clear();  // keep capacity, drop contents
  EXPECT_EQ(reused.size(), 0u);
  encode(reused);
  EXPECT_EQ(fresh.buffer(), reused.buffer());
}

TEST(CodecWriter, VarintLenMatchesEncoding) {
  for (std::uint64_t v : {0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL,
                          0xffffffffULL, 0xffffffffffffffffULL}) {
    Writer w;
    w.varint(v);
    EXPECT_EQ(varint_len(v), w.size()) << v;
  }
}

TEST(AuctionCodec, GarbageRejectedEverywhere) {
  crypto::Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    Bytes junk(rng.next_below(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    // Must never crash; may or may not decode, but trailing garbage fails.
    junk.push_back(0x17);
    junk.push_back(0x2a);
    (void)decode_allocation(BytesView(junk));
    (void)decode_result(BytesView(junk));
    (void)decode_instance(BytesView(junk));
  }
  SUCCEED();
}

}  // namespace
}  // namespace dauct::serde
