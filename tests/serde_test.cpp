#include <gtest/gtest.h>

#include "crypto/rng.hpp"
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
  w.u32(2); w.u32(0); w.money(Money::from_units(1));
  w.u32(1); w.u32(0); w.money(Money::from_units(1));
  // decode_allocation re-canonicalizes via add(); the duplicate-merge makes
  // this decodable, but the re-encoded form must be canonical.
  const auto dec = decode_allocation(BytesView(w.buffer()));
  ASSERT_TRUE(dec);
  EXPECT_TRUE(dec->is_canonical());
}

TEST(AuctionCodec, AllocationRejectsNonPositiveAmount) {
  Writer w;
  w.varint(1);
  w.u32(0); w.u32(0); w.money(kZeroMoney);
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
