#include "serde/auction_codec.hpp"

namespace dauct::serde {

using auction::Allocation;
using auction::AllocationEntry;
using auction::Ask;
using auction::AuctionResult;
using auction::Bid;
using auction::Payments;

namespace {
// Hard cap on decoded element counts: a malicious peer must not be able to
// make an honest provider allocate unbounded memory.
constexpr std::uint64_t kMaxElements = 1u << 22;

// Fixed per-element wire sizes (u32 = 4, money = 8). Encoders use these to
// reserve exact buffer sizes and to write nested length-prefixed sections in
// place instead of encoding into a temporary and copying it over.
constexpr std::size_t kBidWireBytes = 4 + 8 + 8;
constexpr std::size_t kAskWireBytes = 4 + 8 + 8;
constexpr std::size_t kAllocEntryWireBytes = 4 + 4 + 8;

std::size_t bid_vector_wire_len(std::size_t n) {
  return varint_len(n) + n * kBidWireBytes;
}
std::size_t ask_vector_wire_len(std::size_t n) {
  return varint_len(n) + n * kAskWireBytes;
}
std::size_t allocation_wire_len(std::size_t entries) {
  return varint_len(entries) + entries * kAllocEntryWireBytes;
}
std::size_t payments_wire_len(const Payments& p) {
  return varint_len(p.user_payments.size()) + 8 * p.user_payments.size() +
         varint_len(p.provider_revenues.size()) + 8 * p.provider_revenues.size();
}
}  // namespace

Bytes encode_bid_fixed(const Bid& bid) {
  Writer w(kBidEncodingBytes);
  w.u32(bid.bidder);
  w.money(bid.unit_value);
  w.money(bid.demand);
  return w.take();
}

std::optional<Bid> decode_bid_fixed(BytesView data) {
  if (data.size() != kBidEncodingBytes) return std::nullopt;
  Reader r(data);
  Bid b;
  b.bidder = r.u32();
  b.unit_value = r.money();
  b.demand = r.money();
  if (!r.at_end()) return std::nullopt;
  return b;
}

void write_bid(Writer& w, const Bid& bid) {
  w.u32(bid.bidder);
  w.money(bid.unit_value);
  w.money(bid.demand);
}

std::optional<Bid> read_bid(Reader& r) {
  Bid b;
  b.bidder = r.u32();
  b.unit_value = r.money();
  b.demand = r.money();
  if (!r.ok()) return std::nullopt;
  return b;
}

namespace {
/// The bid section of an encoded instance.
std::optional<std::vector<Bid>> decode_bid_vector(BytesView data) {
  Reader r(data);
  const std::uint64_t n = r.varint();
  if (!r.ok() || n > kMaxElements) return std::nullopt;
  std::vector<Bid> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    auto b = read_bid(r);
    if (!b) return std::nullopt;
    out.push_back(*b);
  }
  if (!r.at_end()) return std::nullopt;
  return out;
}
}  // namespace

Bytes encode_ask_vector(const std::vector<Ask>& asks) {
  Writer w(ask_vector_wire_len(asks.size()));
  w.varint(asks.size());
  for (const auto& a : asks) {
    w.u32(a.provider);
    w.money(a.unit_cost);
    w.money(a.capacity);
  }
  return w.take();
}

std::optional<std::vector<Ask>> decode_ask_vector(BytesView data) {
  Reader r(data);
  const std::uint64_t n = r.varint();
  if (!r.ok() || n > kMaxElements) return std::nullopt;
  std::vector<Ask> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    Ask a;
    a.provider = r.u32();
    a.unit_cost = r.money();
    a.capacity = r.money();
    out.push_back(a);
  }
  if (!r.at_end()) return std::nullopt;
  return out;
}

Bytes encode_allocation(const Allocation& x) {
  Writer w(allocation_wire_len(x.entries().size()));
  w.varint(x.entries().size());
  for (const auto& e : x.entries()) {
    w.u32(e.bidder);
    w.u32(e.provider);
    w.money(e.amount);
  }
  return w.take();
}

std::optional<Allocation> decode_allocation(BytesView data) {
  Reader r(data);
  const std::uint64_t n = r.varint();
  if (!r.ok() || n > kMaxElements) return std::nullopt;
  Allocation x;
  for (std::uint64_t i = 0; i < n; ++i) {
    const BidderId bidder = r.u32();
    const NodeId provider = r.u32();
    const Money amount = r.money();
    if (!r.ok() || amount <= kZeroMoney) return std::nullopt;
    x.add(bidder, provider, amount);
  }
  if (!r.at_end() || !x.is_canonical()) return std::nullopt;
  return x;
}

Bytes encode_payments(const Payments& p) {
  Writer w(payments_wire_len(p));
  w.varint(p.user_payments.size());
  for (Money m : p.user_payments) w.money(m);
  w.varint(p.provider_revenues.size());
  for (Money m : p.provider_revenues) w.money(m);
  return w.take();
}

std::optional<Payments> decode_payments(BytesView data) {
  Reader r(data);
  Payments p;
  const std::uint64_t nu = r.varint();
  if (!r.ok() || nu > kMaxElements) return std::nullopt;
  p.user_payments.reserve(static_cast<std::size_t>(nu));
  for (std::uint64_t i = 0; i < nu; ++i) p.user_payments.push_back(r.money());
  const std::uint64_t np = r.varint();
  if (!r.ok() || np > kMaxElements) return std::nullopt;
  p.provider_revenues.reserve(static_cast<std::size_t>(np));
  for (std::uint64_t i = 0; i < np; ++i) p.provider_revenues.push_back(r.money());
  if (!r.at_end()) return std::nullopt;
  return p;
}

Bytes encode_result(const AuctionResult& res) {
  // Nested sections written in place: sizes are exact, so the length prefixes
  // can be emitted up front — no encode-into-temporary-and-copy.
  const std::size_t alloc_len = allocation_wire_len(res.allocation.entries().size());
  const std::size_t pay_len = payments_wire_len(res.payments);
  Writer w(varint_len(alloc_len) + alloc_len + varint_len(pay_len) + pay_len);
  w.varint(alloc_len);
  w.varint(res.allocation.entries().size());
  for (const auto& e : res.allocation.entries()) {
    w.u32(e.bidder);
    w.u32(e.provider);
    w.money(e.amount);
  }
  w.varint(pay_len);
  w.varint(res.payments.user_payments.size());
  for (Money m : res.payments.user_payments) w.money(m);
  w.varint(res.payments.provider_revenues.size());
  for (Money m : res.payments.provider_revenues) w.money(m);
  return w.take();
}

std::optional<AuctionResult> decode_result(BytesView data) {
  Reader r(data);
  const BytesView alloc_bytes = r.bytes_view();
  const BytesView pay_bytes = r.bytes_view();
  if (!r.at_end()) return std::nullopt;
  auto alloc = decode_allocation(alloc_bytes);
  auto pay = decode_payments(pay_bytes);
  if (!alloc || !pay) return std::nullopt;
  AuctionResult res;
  res.allocation = std::move(*alloc);
  res.payments = std::move(*pay);
  return res;
}

Bytes encode_assignment(const auction::Assignment& a) {
  Writer w;
  w.varint(a.provider_of.size());
  for (std::int32_t p : a.provider_of) w.u32(static_cast<std::uint32_t>(p));
  w.money(a.welfare);
  return w.take();
}

std::optional<auction::Assignment> decode_assignment(BytesView data) {
  Reader r(data);
  const std::uint64_t n = r.varint();
  if (!r.ok() || n > kMaxElements) return std::nullopt;
  auction::Assignment a;
  a.provider_of.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    a.provider_of.push_back(static_cast<std::int32_t>(r.u32()));
  }
  a.welfare = r.money();
  if (!r.at_end()) return std::nullopt;
  return a;
}

Bytes encode_instance(const auction::AuctionInstance& instance) {
  // In-place nested sections (see encode_result). encode_instance runs once
  // per provider per auction on the allocator input path, right before the
  // payload is hashed for input validation.
  const std::size_t bid_len = bid_vector_wire_len(instance.bids.size());
  const std::size_t ask_len = ask_vector_wire_len(instance.asks.size());
  Writer w(varint_len(bid_len) + bid_len + varint_len(ask_len) + ask_len);
  w.varint(bid_len);
  w.varint(instance.bids.size());
  for (const auto& b : instance.bids) write_bid(w, b);
  w.varint(ask_len);
  w.varint(instance.asks.size());
  for (const auto& a : instance.asks) {
    w.u32(a.provider);
    w.money(a.unit_cost);
    w.money(a.capacity);
  }
  return w.take();
}

std::optional<auction::AuctionInstance> decode_instance(BytesView data) {
  Reader r(data);
  const BytesView bid_bytes = r.bytes_view();
  const BytesView ask_bytes = r.bytes_view();
  if (!r.at_end()) return std::nullopt;
  auto bids = decode_bid_vector(bid_bytes);
  auto asks = decode_ask_vector(ask_bytes);
  if (!bids || !asks) return std::nullopt;
  auction::AuctionInstance out;
  out.bids = std::move(*bids);
  out.asks = std::move(*asks);
  return out;
}

Bytes encode_money_vector(const std::vector<dauct::Money>& v) {
  Writer w(varint_len(v.size()) + 8 * v.size());
  w.varint(v.size());
  for (Money m : v) w.money(m);
  return w.take();
}

std::optional<std::vector<dauct::Money>> decode_money_vector(BytesView data) {
  Reader r(data);
  const std::uint64_t n = r.varint();
  if (!r.ok() || n > kMaxElements) return std::nullopt;
  std::vector<Money> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(r.money());
  if (!r.at_end()) return std::nullopt;
  return out;
}

}  // namespace dauct::serde
