// Auction adapters: bind concrete auction algorithms A to the framework.
//
// An adapter provides (a) the task-graph decomposition of A for the parallel
// allocator and (b) the centralized reference execution (what a trusted
// auctioneer would run). The two must produce identical results for the same
// inputs and seed — a correctness property the integration tests check
// (Definition 1: the simulation outputs (x, p) with probability A(x, p | b⃗)).
#pragma once

#include <memory>
#include <mutex>
#include <string>

#include "auction/standard_auction.hpp"
#include "auction/types.hpp"
#include "core/task_graph.hpp"

namespace dauct::core {

class AuctionAdapter {
 public:
  virtual ~AuctionAdapter() = default;

  virtual std::string name() const = 0;

  /// Task-graph decomposition for n bidders, m providers, coalition bound k.
  virtual TaskGraph build(std::size_t num_bidders, std::size_t m,
                          std::size_t k) const = 0;

  /// The trusted-auctioneer execution (the baseline the simulation must
  /// reproduce distribution-for-distribution).
  virtual auction::AuctionResult run_centralized(const auction::AuctionInstance& instance,
                                                 std::uint64_t seed) const = 0;

  /// True if the TaskSpec::compute bodies of this adapter's graphs may run
  /// concurrently with each other (several providers' handlers run at once
  /// in the simulator and the thread runtime). False, the default, makes
  /// every allocator built from this adapter take compute_mutex() around
  /// each call — for adapters that instrument compute without locking.
  virtual bool reentrant_compute() const { return false; }

  /// Serializes compute calls of a non-reentrant adapter. One per adapter:
  /// allocators of unrelated adapters never wait on each other.
  std::mutex& compute_mutex() const { return compute_mutex_; }

 private:
  mutable std::mutex compute_mutex_;
};

/// Double auction (§5.2.1): a single task executed by all providers — the
/// algorithm is sort-dominated, so "decomposing its execution into parallel
/// tasks does not provide a performance gain"; the framework's building
/// blocks are pure overhead (the Fig. 4 worst case).
class DoubleAuctionAdapter final : public AuctionAdapter {
 public:
  std::string name() const override { return "double-auction"; }
  TaskGraph build(std::size_t num_bidders, std::size_t m, std::size_t k) const override;
  auction::AuctionResult run_centralized(const auction::AuctionInstance& instance,
                                         std::uint64_t seed) const override;
  bool reentrant_compute() const override { return true; }
};

/// Standard auction (§5.2.2, Algorithm 1): Task 1 computes the allocation at
/// every provider; Tasks 2.g compute the VCG payments of a 1/c chunk of the
/// users at each of the c provider groups (|group| ≥ k+1) in parallel;
/// Task 3 gathers everything and emits (x, p⃗).
class StandardAuctionAdapter final : public AuctionAdapter {
 public:
  /// `params.seed` is ignored — the shared seed comes from the common coin
  /// at run time. `groups` = 0 selects the maximum parallelism ⌊m/(k+1)⌋.
  explicit StandardAuctionAdapter(auction::StandardAuctionParams params,
                                  std::size_t groups = 0);

  std::string name() const override { return "standard-auction"; }
  TaskGraph build(std::size_t num_bidders, std::size_t m, std::size_t k) const override;
  auction::AuctionResult run_centralized(const auction::AuctionInstance& instance,
                                         std::uint64_t seed) const override;
  bool reentrant_compute() const override { return true; }

  const auction::StandardAuctionParams& params() const { return params_; }

 private:
  auction::StandardAuctionParams params_;
  std::size_t groups_;
};

}  // namespace dauct::core
