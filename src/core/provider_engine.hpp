// Provider engine: the full per-provider protocol (paper Fig. 1).
//
// Chains the framework's two blocks — Bid Agreement and (Parallel)
// Allocator — plus two practical rounds:
//  * ask exchange: providers broadcast their own asks (they are bidders too
//    in the double auction; in the standard auction the ask carries the
//    capacity). Ask equivocation is caught downstream by input validation.
//  * abort fan-out: a provider whose local outcome is ⊥ notifies everyone,
//    so correct providers terminate promptly instead of waiting on a round
//    that will never complete. (A malicious abort can only force ⊥, which a
//    coalition can do anyway; it zeroes everyone's utility, including its
//    own — the solution-preference argument.)
#pragma once

#include <optional>

#include "auction/types.hpp"
#include "blocks/bid_agreement.hpp"
#include "blocks/block.hpp"
#include "core/adapters.hpp"
#include "core/parallel_allocator.hpp"

namespace dauct::core {

struct EngineConfig {
  std::size_t m = 0;           ///< providers (must be > 2k)
  std::size_t k = 1;           ///< max coalition size
  std::size_t num_bidders = 0;
  auction::BidLimits limits;
  blocks::AgreementMode agreement_mode = blocks::AgreementMode::kValueBatched;
};

class ProviderEngine {
 public:
  /// Builds and validates the task graph from `adapter` (throws
  /// std::invalid_argument on an invalid graph or m ≤ 2k).
  ProviderEngine(blocks::Endpoint& endpoint, const EngineConfig& config,
                 const AuctionAdapter& adapter, auction::Ask my_ask);

  /// Begin with the bids this provider received from the bidders (one slot
  /// per bidder; neutral bid where nothing valid arrived).
  void start(const std::vector<auction::Bid>& my_bids);

  void on_message(const net::Message& msg);

  /// Abort from outside the message flow (the reliability layer's give-up
  /// path: a peer stayed unreachable through every retransmit). Broadcasts
  /// the abort like any local ⊥; a no-op once an outcome is decided.
  void abort(Bottom bottom) { local_abort(std::move(bottom)); }

  bool done() const { return outcome_.has_value(); }
  const std::optional<auction::AuctionOutcome>& outcome() const { return outcome_; }

  /// The common-coin value the allocator ran with (valid once past the coin
  /// phase, e.g. when outcome() is ok; tests/metrics).
  std::uint64_t shared_seed() const { return allocator_.shared_seed(); }

  /// The agreed bid vector (valid after bid agreement; tests/metrics).
  const std::optional<std::vector<auction::Bid>>& agreed_bids() const {
    return agreed_bids_;
  }

 private:
  void maybe_start_allocator();
  void finish_from_allocator();
  void local_abort(Bottom bottom);

  blocks::Endpoint& endpoint_;
  EngineConfig config_;
  auction::Ask my_ask_;

  blocks::BidAgreement bid_agreement_;
  ParallelAllocator allocator_;

  // Ask exchange round.
  net::Topic ask_topic_;
  blocks::RoundCollector asks_;
  std::vector<auction::Ask> ask_vector_;

  // Abort fan-out.
  net::Topic abort_topic_;
  bool abort_sent_ = false;

  bool allocator_started_ = false;
  std::optional<std::vector<auction::Bid>> agreed_bids_;
  std::optional<auction::AuctionOutcome> outcome_;
};

}  // namespace dauct::core
