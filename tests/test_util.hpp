// Shared test helpers: a deterministic local network for driving protocol
// blocks without a full runtime, instance factories, golden end-to-end
// fingerprints (plus the auctioneer factory and the fingerprint assertion
// every equivalence suite shares), and file loading for the scenario-driven
// suites.
#pragma once

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "auction/types.hpp"
#include "auction/workload.hpp"
#include "core/adapters.hpp"
#include "core/distributed_auctioneer.hpp"
#include "crypto/sha256.hpp"
#include "net/sim_transport.hpp"
#include "serde/auction_codec.hpp"
#include "sim/scheduler.hpp"

namespace dauct::testutil {

/// m providers wired through a zero-latency deterministic scheduler.
/// Install a handler per node, call start() on blocks, then run().
class LocalNet {
 public:
  explicit LocalNet(std::size_t m, std::uint64_t seed = 42,
                    sim::LatencyModel latency = sim::LatencyModel::zero())
      : scheduler_(m, latency, seed, sim::CostMode::kZero) {
    for (NodeId j = 0; j < m; ++j) {
      endpoints_.push_back(
          std::make_unique<net::SimEndpoint>(scheduler_, j, m, seed * 1000 + j));
    }
  }

  blocks::Endpoint& endpoint(NodeId j) { return *endpoints_.at(j); }
  sim::Scheduler& scheduler() { return scheduler_; }

  void set_handler(NodeId j, std::function<void(const net::Message&)> fn) {
    scheduler_.set_deliver(j, std::move(fn));
  }

  void run() { scheduler_.run(); }

 private:
  sim::Scheduler scheduler_;
  std::vector<std::unique_ptr<net::SimEndpoint>> endpoints_;
};

/// Small deterministic instance: n users, m providers, paper distributions.
inline auction::AuctionInstance make_instance(std::size_t n, std::size_t m,
                                              std::uint64_t seed,
                                              bool standard = false) {
  crypto::Rng rng(seed);
  const auto params = standard ? auction::standard_auction_workload(n, m)
                               : auction::double_auction_workload(n, m);
  return auction::generate(params, rng);
}

/// Read a whole file; std::nullopt if it cannot be opened (callers ASSERT —
/// a missing scenario file must fail the test, not silently parse as "").
inline std::optional<std::string> slurp_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// One pinned end-to-end run: fixed instance + seed and the full fingerprint
/// the run must reproduce byte-for-byte.
struct GoldenRun {
  std::size_t n, m, k;
  std::uint64_t seed;
  bool standard;
  const char* result_sha256;     ///< sha256(encode_result(outcome))
  std::uint64_t makespan;        ///< virtual ns
  std::uint64_t messages;        ///< traffic counter
  std::uint64_t bytes;           ///< traffic counter
};

// Fingerprints recorded from the pre-zero-copy implementation (deep-copied
// topic + payload per recipient, per-recipient digest cache, std::function
// message events) at fixed seeds. Pinned by fanout_test.cpp (the zero-copy
// spine must reproduce them) and by scenario_test.cpp (a run with a zero-rate
// fault plan installed must too — the fault hooks may not perturb anything).
// The message counts are the originals; makespan and bytes were re-pinned
// when bid agreement moved to 32-byte digest votes, and again when all but
// one provider began reporting the result as its 32-byte digest. Digests,
// makespan and bytes were re-pinned when Money and ids became varints on the
// wire; FanoutEquivalence.GoldenOutcomesEqualTheTrustedAuctioneer holds each
// outcome's value to the trusted auctioneer's, so that re-pin moved only the
// encoding.
inline constexpr GoldenRun kGoldenRuns[] = {
    {12, 3, 1, 99, true,
     "97824a27abfeee4564f026acb95eed175751cb3e1b885a366844ff8a49964f90",
     23124609, 69, 4783},
    {12, 5, 2, 7, false,
     "ed13a6accc961c1cd9ea3f4bb7a7f0dc1a326765124cde193f28017e07d25288",
     24232473, 185, 14343},
    {24, 4, 1, 11, false,
     "d94b4f541d9faa7c3d1a8b2e5020f7d06a0dd4c8be918fa9df766e74f5c177f6",
     23840610, 120, 9319},
    {48, 7, 3, 5, true,
     "232082cdb7c6a1bdbc98f93a2c41ea726673a5236a225b1efba9b1a2c0786282",
     24674948, 357, 32719},
    {16, 3, 1, 123, false,
     "dca9f6878db018e5db911f0fc150ecf431a4ac8017af008eea8b54cb0d875160",
     22992786, 69, 4971},
};

/// The auctioneer a golden run pins (epsilon 0.25 for standard-auction
/// entries — the value the fingerprints were recorded under).
inline core::DistributedAuctioneer make_golden_auctioneer(const GoldenRun& g) {
  core::AuctioneerSpec spec;
  spec.m = g.m;
  spec.k = g.k;
  spec.num_bidders = g.n;
  std::shared_ptr<core::AuctionAdapter> adapter;
  if (g.standard) {
    auction::StandardAuctionParams p;
    p.epsilon = 0.25;
    adapter = std::make_shared<core::StandardAuctionAdapter>(p);
  } else {
    adapter = std::make_shared<core::DoubleAuctionAdapter>();
  }
  return core::DistributedAuctioneer(spec, adapter);
}

/// sha256 hex of the canonical result encoding — the value the golden table
/// pins. "" for ⊥, so a failed run can never alias a pinned digest.
inline std::string outcome_digest(const auction::AuctionOutcome& outcome) {
  if (!outcome.ok()) return std::string();
  const Bytes enc = serde::encode_result(outcome.value());
  return crypto::digest_hex(crypto::sha256(BytesView(enc)));
}

/// The golden assertion every equivalence suite shares: the run must
/// reproduce g's ENTIRE fingerprint — result digest, virtual makespan, and
/// both traffic counters — byte-for-byte. Returns a failure naming the first
/// diverging field, so `EXPECT_TRUE(matches_golden_fingerprint(...))` reads
/// like the four EXPECT_EQs it replaces.
inline ::testing::AssertionResult matches_golden_fingerprint(
    const GoldenRun& g, const auction::AuctionOutcome& outcome,
    sim::SimTime makespan, const sim::TrafficStats& traffic) {
  const std::string digest = outcome_digest(outcome);
  if (digest != g.result_sha256) {
    return ::testing::AssertionFailure()
           << "result digest " << (digest.empty() ? "⊥" : digest) << " != golden "
           << g.result_sha256;
  }
  if (makespan != static_cast<sim::SimTime>(g.makespan)) {
    return ::testing::AssertionFailure()
           << "makespan " << makespan << " != golden " << g.makespan;
  }
  if (traffic.messages != g.messages) {
    return ::testing::AssertionFailure()
           << "traffic.messages " << traffic.messages << " != golden " << g.messages;
  }
  if (traffic.bytes != g.bytes) {
    return ::testing::AssertionFailure()
           << "traffic.bytes " << traffic.bytes << " != golden " << g.bytes;
  }
  return ::testing::AssertionSuccess();
}

}  // namespace dauct::testutil
