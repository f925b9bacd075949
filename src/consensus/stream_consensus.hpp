// Rational consensus over a bit *stream* (Afek et al., PODC'14 building
// block), physically batched.
//
// The bid agreement feeds each bit of the serialized bids into one instance
// of rational consensus (§4.1: "generates a stream of bits … and inputs each
// bit to a rational consensus instance"). Each instance runs the cross-
// validation variant sufficient for the two properties the paper imports
// (§4.1, Property 1 discussion):
//
//   round 1 (vote): every provider broadcasts its input bit;
//   round 2 (echo): upon holding all m votes, every provider broadcasts the
//                   full vote vector it received;
//   decide:         upon holding all m echoes — if any two echoes disagree on
//                   any sender's vote, output ⊥ (equivocation detected);
//                   otherwise output the majority bit of the agreed vote
//                   vector (ties broken by the lowest-id provider's bit).
//
// Guarantees under m > 2k:
//  (a) honest execution → all providers output the same bit, which was input
//      by some provider (validity/agreement);
//  (b) a coalition of ≤ k providers cannot flip the decision when all
//      non-coalition inputs agree (the m−k honest votes are a majority), and
//      any vote equivocation is detected by echo comparison → ⊥, which the
//      coalition dis-prefers (solution preference).
//
// Physically, the L votes of one provider travel in a single message (and
// likewise the L echo vectors), because one message flow per bit would
// dominate the experiment (docs/ARCHITECTURE.md has the measured cost); the
// decision rule is still applied independently per bit position. A 1-bit
// stream is one instance exactly.
//
// If any position detects echo inconsistency, the whole stream outputs ⊥
// (the paper: "if some instance outputs ⊥, then j outputs ⊥").
#pragma once

#include <vector>

#include "blocks/block.hpp"
#include "common/outcome.hpp"

namespace dauct::consensus {

class StreamConsensus {
 public:
  /// Agrees on a stream of `num_bits` bits.
  StreamConsensus(blocks::Endpoint& endpoint, std::string topic_prefix,
                  std::size_t num_bits);

  void start(const std::vector<bool>& input);
  bool handle(const net::Message& msg);

  bool done() const { return result_.has_value(); }
  const std::optional<Outcome<std::vector<bool>>>& result() const { return result_; }

 private:
  void maybe_echo();
  void maybe_decide();
  void abort(AbortReason reason, std::string detail);

  blocks::Endpoint& endpoint_;
  net::Topic vote_topic_;
  net::Topic echo_topic_;
  std::size_t num_bits_;
  std::size_t packed_len_;

  blocks::RoundCollector votes_;
  blocks::RoundCollector echoes_;
  bool echoed_ = false;
  std::optional<Outcome<std::vector<bool>>> result_;
};

}  // namespace dauct::consensus
