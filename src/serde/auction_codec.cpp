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

void write_allocation(Writer& w, const Allocation& x) {
  w.varint(x.entries().size());
  for (const AllocationEntry& e : x.entries()) {
    w.id(e.bidder);
    w.id(e.provider);
    w.money(e.amount);
  }
}

void write_payments(Writer& w, const Payments& p) {
  w.varint(p.user_payments.size());
  for (Money m : p.user_payments) w.money(m);
  w.varint(p.provider_revenues.size());
  for (Money m : p.provider_revenues) w.money(m);
}

void write_ask_vector(Writer& w, const std::vector<Ask>& asks) {
  w.varint(asks.size());
  for (const auto& a : asks) write_ask(w, a);
}
}  // namespace

Bytes encode_bid_fixed(const Bid& bid) {
  Writer w(kBidEncodingBytes);
  w.u32(bid.bidder);
  w.i64(bid.unit_value.micros());
  w.i64(bid.demand.micros());
  return w.take();
}

std::optional<Bid> decode_bid_fixed(BytesView data) {
  if (data.size() != kBidEncodingBytes) return std::nullopt;
  Reader r(data);
  Bid b;
  b.bidder = r.u32();
  b.unit_value = Money::from_micros(r.i64());
  b.demand = Money::from_micros(r.i64());
  if (!r.at_end()) return std::nullopt;
  return b;
}

void write_bid(Writer& w, const Bid& bid) {
  w.id(bid.bidder);
  w.money(bid.unit_value);
  w.money(bid.demand);
}

std::optional<Bid> read_bid(Reader& r) {
  Bid b;
  b.bidder = r.id();
  b.unit_value = r.money();
  b.demand = r.money();
  if (!r.ok()) return std::nullopt;
  return b;
}

void write_ask(Writer& w, const Ask& ask) {
  w.id(ask.provider);
  w.money(ask.unit_cost);
  w.money(ask.capacity);
}

std::optional<Ask> read_ask(Reader& r) {
  Ask a;
  a.provider = r.id();
  a.unit_cost = r.money();
  a.capacity = r.money();
  if (!r.ok()) return std::nullopt;
  return a;
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
  Writer w;
  write_ask_vector(w, asks);
  return w.take();
}

std::optional<std::vector<Ask>> decode_ask_vector(BytesView data) {
  Reader r(data);
  const std::uint64_t n = r.varint();
  if (!r.ok() || n > kMaxElements) return std::nullopt;
  std::vector<Ask> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    auto a = read_ask(r);
    if (!a) return std::nullopt;
    out.push_back(*a);
  }
  if (!r.at_end()) return std::nullopt;
  return out;
}

Bytes encode_allocation(const Allocation& x) {
  Writer w;
  write_allocation(w, x);
  return w.take();
}

std::optional<Allocation> decode_allocation(BytesView data) {
  Reader r(data);
  const std::uint64_t n = r.varint();
  if (!r.ok() || n > kMaxElements) return std::nullopt;
  Allocation x;
  for (std::uint64_t i = 0; i < n; ++i) {
    const BidderId bidder = r.id();
    const NodeId provider = r.id();
    const Money amount = r.money();
    if (!r.ok() || amount <= kZeroMoney) return std::nullopt;
    x.add(bidder, provider, amount);
  }
  if (!r.at_end() || !x.is_canonical()) return std::nullopt;
  return x;
}

Bytes encode_payments(const Payments& p) {
  Writer w;
  write_payments(w, p);
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
  Writer w;
  w.section([&](Writer& s) { write_allocation(s, res.allocation); });
  w.section([&](Writer& s) { write_payments(s, res.payments); });
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
  for (std::int32_t p : a.provider_of) w.svarint(p);  // −1 (unassigned) is 1 byte
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
    const std::int64_t p = r.svarint();
    if (p < INT32_MIN || p > INT32_MAX) return std::nullopt;
    a.provider_of.push_back(static_cast<std::int32_t>(p));
  }
  a.welfare = r.money();
  if (!r.at_end()) return std::nullopt;
  return a;
}

Bytes encode_instance(const auction::AuctionInstance& instance) {
  Writer w;
  w.section([&](Writer& s) {
    s.varint(instance.bids.size());
    for (const auto& b : instance.bids) write_bid(s, b);
  });
  w.section([&](Writer& s) { write_ask_vector(s, instance.asks); });
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
  Writer w;
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
