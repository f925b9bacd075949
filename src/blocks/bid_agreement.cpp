#include "blocks/bid_agreement.hpp"

#include "serde/auction_codec.hpp"
#include "serde/bitstream.hpp"

namespace dauct::blocks {

namespace {
constexpr std::size_t kBitsPerBid = serde::kBidEncodingBytes * 8;
}

const char* agreement_mode_name(AgreementMode mode) {
  switch (mode) {
    case AgreementMode::kBitStream: return "bit-stream";
    case AgreementMode::kValueBatched: return "value-batched";
  }
  return "?";
}

BidAgreement::BidAgreement(Endpoint& endpoint, std::string topic_prefix,
                           std::size_t num_bidders, auction::BidLimits limits,
                           AgreementMode mode)
    : endpoint_(endpoint),
      prefix_(std::move(topic_prefix)),
      num_bidders_(num_bidders),
      limits_(limits),
      mode_(mode) {
  switch (mode_) {
    case AgreementMode::kValueBatched:
      value_consensus_ = std::make_unique<consensus::BatchedConsensus>(
          endpoint_, topic_join(prefix_, "vb"), num_bidders_);
      break;
    case AgreementMode::kBitStream:
      stream_consensus_ = std::make_unique<consensus::StreamConsensus>(
          endpoint_, topic_join(prefix_, "bs"), num_bidders_ * kBitsPerBid);
      break;
  }
}

BidAgreement::~BidAgreement() = default;

void BidAgreement::start(const std::vector<auction::Bid>& my_bids) {
  // Serialize each slot; absent slots become neutral bids.
  std::vector<Bytes> encoded(num_bidders_);
  for (std::size_t i = 0; i < num_bidders_; ++i) {
    const auction::Bid bid = i < my_bids.size() ? my_bids[i]
                                                : auction::neutral_bid(static_cast<BidderId>(i));
    encoded[i] = serde::encode_bid_fixed(bid);
  }

  switch (mode_) {
    case AgreementMode::kValueBatched:
      value_consensus_->start(encoded);
      break;
    case AgreementMode::kBitStream: {
      Bytes stream;
      for (const Bytes& e : encoded) append(stream, e);
      stream_consensus_->start(serde::to_bits(stream));
      break;
    }
  }
}

auction::Bid BidAgreement::sanitize(BidderId i, BytesView encoded) const {
  // Paper: "j converts the stream to a bid b_i and outputs b*_i, where
  // b*_i = b_i if b_i is valid, or b*_i is some pre-determined valid bid
  // otherwise." Our pre-determined bid is the neutral bid.
  auto bid = serde::decode_bid_fixed(encoded);
  if (!bid || bid->bidder != i || !limits_.valid(*bid)) {
    return auction::neutral_bid(i);
  }
  return *bid;
}

void BidAgreement::finish_from_bytes(const std::vector<Bytes>& agreed_slots) {
  std::vector<auction::Bid> out;
  out.reserve(num_bidders_);
  for (std::size_t i = 0; i < num_bidders_; ++i) {
    out.push_back(sanitize(static_cast<BidderId>(i), agreed_slots[i]));
  }
  result_ = Outcome<std::vector<auction::Bid>>(std::move(out));
}

void BidAgreement::finish_from_bits(const std::vector<bool>& agreed_bits) {
  const Bytes stream = serde::from_bits(agreed_bits);
  std::vector<auction::Bid> out;
  out.reserve(num_bidders_);
  for (std::size_t i = 0; i < num_bidders_; ++i) {
    BytesView slice(stream.data() + i * serde::kBidEncodingBytes,
                    serde::kBidEncodingBytes);
    out.push_back(sanitize(static_cast<BidderId>(i), slice));
  }
  result_ = Outcome<std::vector<auction::Bid>>(std::move(out));
}

bool BidAgreement::handle(const net::Message& msg) {
  if (!topic_has_prefix(msg.topic.str(), prefix_)) return false;
  if (result_) return true;

  switch (mode_) {
    case AgreementMode::kValueBatched: {
      if (!value_consensus_->handle(msg)) return false;
      if (value_consensus_->done()) {
        const auto& r = *value_consensus_->result();
        if (r.is_bottom()) {
          result_ = Outcome<std::vector<auction::Bid>>(r.bottom());
        } else {
          finish_from_bytes(r.value());
        }
      }
      return true;
    }
    case AgreementMode::kBitStream: {
      if (!stream_consensus_->handle(msg)) return false;
      if (stream_consensus_->done()) {
        const auto& r = *stream_consensus_->result();
        if (r.is_bottom()) {
          result_ = Outcome<std::vector<auction::Bid>>(r.bottom());
        } else {
          finish_from_bits(r.value());
        }
      }
      return true;
    }
  }
  return false;
}

}  // namespace dauct::blocks
