// Wire encodings for auction model types.
//
// Two kinds of encoding:
//  * fixed-width bid encoding (20 bytes = 160 bits: u32 bidder, i64 value,
//    i64 demand) — the "stream of bits uniquely determined from b_i^j" that
//    the bit-stream bid agreement feeds one bit at a time into
//    rational-consensus instances, and the slot the value-batched agreement
//    votes on;
//  * variable-length encodings for bids, asks, vectors, allocations,
//    payments and results, used by client submissions, data transfer and
//    output agreement payloads. Every id and Money in them is a varint (see
//    serde/codec.hpp): a bid of the Fig. 4 workload takes ~9 bytes, not 20.
//
// All decoders are defensive (untrusted input) and return std::nullopt on
// malformed bytes.
#pragma once

#include <optional>

#include "auction/types.hpp"
#include "auction/welfare.hpp"
#include "serde/codec.hpp"

namespace dauct::serde {

/// Fixed width of an encoded bid, in bytes (bidder u32 + value i64 + demand
/// i64). The bitwise bid agreement runs exactly 8× this many consensus
/// instances per bidder.
inline constexpr std::size_t kBidEncodingBytes = 20;

/// Fixed-width bid encoding (exactly kBidEncodingBytes bytes).
Bytes encode_bid_fixed(const auction::Bid& bid);
std::optional<auction::Bid> decode_bid_fixed(BytesView data);

/// Variable-length encodings.
void write_bid(Writer& w, const auction::Bid& bid);
std::optional<auction::Bid> read_bid(Reader& r);

/// One ask (a provider's ask/x payload and an ask-vector element).
void write_ask(Writer& w, const auction::Ask& ask);
std::optional<auction::Ask> read_ask(Reader& r);

Bytes encode_ask_vector(const std::vector<auction::Ask>& asks);
std::optional<std::vector<auction::Ask>> decode_ask_vector(BytesView data);

Bytes encode_allocation(const auction::Allocation& x);
std::optional<auction::Allocation> decode_allocation(BytesView data);

Bytes encode_payments(const auction::Payments& p);
std::optional<auction::Payments> decode_payments(BytesView data);

Bytes encode_result(const auction::AuctionResult& r);
std::optional<auction::AuctionResult> decode_result(BytesView data);

Bytes encode_assignment(const auction::Assignment& a);
std::optional<auction::Assignment> decode_assignment(BytesView data);

/// A full auction instance (agreed bids + exchanged asks): the validated
/// allocator input.
Bytes encode_instance(const auction::AuctionInstance& instance);
std::optional<auction::AuctionInstance> decode_instance(BytesView data);

/// Money vector (used by payment-chunk data transfers).
Bytes encode_money_vector(const std::vector<dauct::Money>& v);
std::optional<std::vector<dauct::Money>> decode_money_vector(BytesView data);

}  // namespace dauct::serde
