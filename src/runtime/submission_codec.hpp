// Client↔provider wire formats, shared by every runtime: the bid submission
// (client → provider) and the result report (provider → client). The
// encodings are golden-pinned (tests/fanout_test.cpp fingerprints cover the
// bids batch bytes; the WAL's outcome decision digests the report), so the
// runtimes must speak exactly the same dialect — hence one header.
#pragma once

#include <optional>
#include <vector>

#include "auction/types.hpp"
#include "common/bytes.hpp"
#include "serde/auction_codec.hpp"
#include "serde/codec.hpp"

namespace dauct::runtime::detail {

inline constexpr const char* kBidsTopic = "client/bids";
inline constexpr const char* kResultTopic = "client/result";

/// Encode the (possibly absent) bids a provider receives from the client.
inline Bytes encode_submissions(
    const std::vector<std::optional<auction::Bid>>& subs) {
  serde::Writer w;
  w.varint(subs.size());
  for (const auto& s : subs) {
    w.boolean(s.has_value());
    if (s) serde::write_bid(w, *s);
  }
  return w.take();
}

/// The honest client's submissions: every bidder's bid, as is.
inline Bytes encode_submissions(const std::vector<auction::Bid>& bids) {
  return encode_submissions(
      std::vector<std::optional<auction::Bid>>(bids.begin(), bids.end()));
}

inline std::optional<std::vector<std::optional<auction::Bid>>>
decode_submissions(BytesView data) {
  serde::Reader r(data);
  const std::uint64_t n = r.varint();
  if (!r.ok() || n > (1u << 22)) return std::nullopt;
  std::vector<std::optional<auction::Bid>> out(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    if (r.boolean()) {
      auto b = serde::read_bid(r);
      if (!b) return std::nullopt;
      out[i] = *b;
    }
  }
  if (!r.at_end()) return std::nullopt;
  return out;
}

/// What the paper's deadline rule yields as provider input: the submitted
/// bid if present, valid, and correctly addressed; the neutral bid otherwise.
inline std::vector<auction::Bid> sanitize_submissions(
    const std::vector<std::optional<auction::Bid>>& subs,
    const auction::BidLimits& limits) {
  std::vector<auction::Bid> bids;
  bids.reserve(subs.size());
  for (std::size_t i = 0; i < subs.size(); ++i) {
    const auto& s = subs[i];
    if (s && s->bidder == i && limits.valid(*s)) {
      bids.push_back(*s);
    } else {
      bids.push_back(auction::neutral_bid(static_cast<BidderId>(i)));
    }
  }
  return bids;
}

/// A provider's result report: ok flag, then the encoded (x, p⃗) or the ⊥
/// reason.
inline Bytes encode_report(const auction::AuctionOutcome& out) {
  serde::Writer w;
  w.boolean(out.ok());
  if (out.ok()) {
    w.bytes(serde::encode_result(out.value()));
  } else {
    w.u8(static_cast<std::uint8_t>(out.bottom().reason));
  }
  return w.take();
}

}  // namespace dauct::runtime::detail
