// Client↔provider wire formats, shared by every runtime: the bid submission
// (client → provider) and the result report (provider → client), plus the
// client's check of the reports. The encodings are golden-pinned
// (tests/fanout_test.cpp fingerprints cover the bids batch bytes; the WAL's
// outcome decision digests the report), so the runtimes must speak exactly
// the same dialect — hence one header.
//
// Sizes: bids and results use the varint codec (serde/codec.hpp), so at the
// Fig. 4 shape (n = 512, m = 8) a provider's client/bids frame is ~4.7 KB
// (~9 bytes per bid) and the full report ~4.2 KB.
//
// Digest replies: every provider encodes its full report, but only the
// instance's designated reporter (provider t mod m) sends it on
// client/result; the other m − 1 send its 32-byte SHA-256. The client
// settles on the m-th frame and calls the reports agreed only when every
// digest equals the sha256 of the full report and that report is ok.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "auction/types.hpp"
#include "common/bytes.hpp"
#include "crypto/sha256.hpp"
#include "serde/auction_codec.hpp"
#include "serde/codec.hpp"

namespace dauct::runtime {

/// The client's verdict over one instance's m result frames.
enum class ReportVerdict : std::uint8_t {
  kIncomplete,  ///< fewer than m frames reached the client
  kAgreed,      ///< every digest equals the full report's, which is ok
  kBottom,      ///< every digest agrees, but the full report is ⊥
  kDivergent,   ///< some frame disagrees with the full report
};

}  // namespace dauct::runtime

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

/// The provider that sends instance `instance`'s report in full: t mod m
/// (provider 0 on the single-instance and TCP paths).
inline NodeId designated_reporter(std::uint64_t instance, std::size_t providers) {
  return static_cast<NodeId>(instance % providers);
}

/// What a provider sends on client/result: the report itself if it is the
/// designated reporter, else `digest` (the report's sha256).
inline Bytes result_frame(Bytes report, const crypto::Digest& digest,
                          bool designated) {
  return designated ? std::move(report) : Bytes(digest.begin(), digest.end());
}

/// The client's check of one instance's result frames: one frame per
/// provider (a duplicate or a non-provider sender is dropped), the full
/// report from the designated reporter, a digest from everyone else.
class ResultReports {
 public:
  ResultReports(std::size_t providers, NodeId reporter)
      : seen_(providers, false), digests_(providers), reporter_(reporter) {}

  /// Take provider `from`'s frame; false if it was dropped.
  bool accept(NodeId from, BytesView frame) {
    if (from >= seen_.size() || seen_[from]) return false;
    seen_[from] = true;
    ++received_;
    if (from == reporter_) {
      serde::Reader r(frame);
      report_ok_ = r.boolean() && r.ok();
      digests_[from] = crypto::sha256(frame);
    } else if (frame.size() == crypto::Digest{}.size()) {
      std::copy(frame.begin(), frame.end(), digests_[from].begin());
    } else {
      malformed_ = true;
    }
    return true;
  }

  bool complete() const { return received_ == seen_.size(); }
  std::size_t received() const { return received_; }

  ReportVerdict verdict() const {
    if (!complete()) return ReportVerdict::kIncomplete;
    if (malformed_) return ReportVerdict::kDivergent;
    for (const crypto::Digest& d : digests_) {
      if (d != digests_[reporter_]) return ReportVerdict::kDivergent;
    }
    return report_ok_ ? ReportVerdict::kAgreed : ReportVerdict::kBottom;
  }

  /// sha256 of the full report, once complete().
  const crypto::Digest& report_digest() const { return digests_[reporter_]; }

 private:
  std::vector<bool> seen_;
  std::vector<crypto::Digest> digests_;
  NodeId reporter_;
  std::size_t received_ = 0;
  bool report_ok_ = false;
  bool malformed_ = false;
};

}  // namespace dauct::runtime::detail
