// Value-level rational consensus over a vector of opaque slots.
//
// Bid agreement's default mode. Each provider votes the 32-byte SHA-256 of
// its encoded slot vector, and the echo round carries a digest per sender's
// vote, so both rounds are constant-size regardless of slot count:
//  * echoes inconsistent → ⊥ (some provider equivocated its vote);
//  * echoes consistent and all m vote digests equal (the honest case, where
//    the client sent every provider the same bids) → each provider outputs
//    its own vector, which is then everyone's vector;
//  * echoes consistent but the digests differ → fallback: the full-vector
//    vote and echo under `<prefix>/full/v` and `<prefix>/full/e`, decided per
//    slot by the majority *exact value* among the m agreed votes, or empty
//    bytes (→ neutral bid at the bid-agreement layer) when no strict
//    majority exists.
//
// The decision equals that of the full-vector vote alone in every run: the
// fast path fires only when every vector is the same. A deviator can force
// the fallback round but cannot change its per-slot majority. Same
// guarantees as the bitwise construction under m > 2k: unanimous honest
// slots win the majority; vote equivocation in either round makes honest
// echoes diverge → ⊥. Both vote topics end in "/v" and both echo topics in
// "/e", and the fallback's are fresh, so a provider's second vote is never
// mistaken for an equivocation of its first.
#pragma once

#include <vector>

#include "blocks/block.hpp"
#include "common/outcome.hpp"
#include "crypto/sha256.hpp"

namespace dauct::consensus {

class BatchedConsensus {
 public:
  BatchedConsensus(blocks::Endpoint& endpoint, std::string topic_prefix,
                   std::size_t num_slots);

  /// `input[s]` is this provider's value for slot s.
  void start(const std::vector<Bytes>& input);
  bool handle(const net::Message& msg);

  bool done() const { return result_.has_value(); }
  const std::optional<Outcome<std::vector<Bytes>>>& result() const { return result_; }

  /// True once the digest votes differed and this provider entered the
  /// full-vector fallback round.
  bool fell_back() const { return fell_back_; }

 private:
  /// One vote round and its echo round. Each provider broadcasts a vote,
  /// then echoes the digest of every provider's vote in id order.
  struct Round {
    Round(std::size_t m, std::string_view prefix);
    net::Topic vote_topic;
    net::Topic echo_topic;
    blocks::RoundCollector votes;
    blocks::RoundCollector echoes;
    std::vector<crypto::Digest> vote_digests;  ///< by sender, from the msg cache
    bool echoed = false;
  };

  bool handle_round(Round& round, const net::Message& msg);
  void maybe_echo(Round& round);
  /// True once `round`'s votes and echoes are all in and the echoes agree;
  /// ⊥s the run when they disagree.
  bool settled(const Round& round);
  void advance();
  void decide_by_majority();
  void abort(AbortReason reason, std::string detail);

  blocks::Endpoint& endpoint_;
  std::size_t num_slots_;
  std::vector<Bytes> slots_;  ///< this provider's vector, sized to num_slots_
  SharedBytes encoded_;       ///< encode(slots_): the fallback vote

  Round digest_;  ///< the fast path: votes are sha256(encoded_)
  Round full_;    ///< the fallback: votes are whole encoded vectors
  bool fell_back_ = false;
  std::optional<Outcome<std::vector<Bytes>>> result_;
};

}  // namespace dauct::consensus
