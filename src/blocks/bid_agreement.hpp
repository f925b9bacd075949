// Bid Agreement block (paper §4.1, Property 1).
//
// Input at provider j: the vector b⃗_j of bids submitted to j (one slot per
// bidder; the neutral bid where the bidder sent nothing or garbage).
// Output: an agreed vector b⃗ containing one *valid* bid per bidder, or ⊥.
//
// Guarantees (Property 1): (1) under honest execution, eventual agreement
// (all providers output the same vector) and validity (a bidder that sent
// the same bid b'_i to all providers gets b_i = b'_i); (2) k-resiliency for
// solution preference under m > 2k (inherited from the consensus layer).
//
// Two agreement modes, semantically equivalent:
//  * kBitStream      — the paper's per-bit consensus decisions, votes/echoes
//    batched into one message per round (the faithful bitwise construction;
//    docs/ARCHITECTURE.md records what one message flow per bit cost).
//  * kValueBatched   — the default everywhere (AuctioneerSpec, EngineConfig,
//    `dauct_cli --mode`): a vote on the digest of the whole bid vector, with
//    a value-level per-slot majority over full vectors as the fallback when
//    the digests differ (consensus/batched_consensus.hpp).
//
// Invalid decoded bids (malformed bytes, out-of-limits, wrong bidder id, or
// a no-majority fallback) are replaced by the *pre-determined valid bid* the
// paper prescribes — the neutral bid that excludes that bidder.
#pragma once

#include <memory>
#include <vector>

#include "auction/types.hpp"
#include "blocks/block.hpp"
#include "consensus/batched_consensus.hpp"
#include "consensus/stream_consensus.hpp"

namespace dauct::blocks {

// The values are fixed: gtest prints a parameterized mode test's value
// bytes in its listed name.
enum class AgreementMode {
  kBitStream = 1,     ///< per-bit decisions, batched transport
  kValueBatched = 2,  ///< digest vote, full-vector majority fallback (default)
};

const char* agreement_mode_name(AgreementMode mode);

class BidAgreement {
 public:
  BidAgreement(Endpoint& endpoint, std::string topic_prefix, std::size_t num_bidders,
               auction::BidLimits limits, AgreementMode mode);
  ~BidAgreement();

  /// `my_bids` must have one entry per bidder (index == BidderId); use the
  /// neutral bid for bidders that did not submit a valid bid to this
  /// provider by the deadline.
  void start(const std::vector<auction::Bid>& my_bids);

  bool handle(const net::Message& msg);

  bool done() const { return result_.has_value(); }
  const std::optional<Outcome<std::vector<auction::Bid>>>& result() const {
    return result_;
  }

 private:
  void finish_from_bytes(const std::vector<Bytes>& agreed_slots);
  void finish_from_bits(const std::vector<bool>& agreed_bits);
  auction::Bid sanitize(BidderId i, BytesView encoded) const;

  Endpoint& endpoint_;
  std::string prefix_;
  std::size_t num_bidders_;
  auction::BidLimits limits_;
  AgreementMode mode_;

  // Exactly one of these is active, per mode.
  std::unique_ptr<consensus::BatchedConsensus> value_consensus_;
  std::unique_ptr<consensus::StreamConsensus> stream_consensus_;

  std::optional<Outcome<std::vector<auction::Bid>>> result_;
};

}  // namespace dauct::blocks
