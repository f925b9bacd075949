// Equivalence: the optimized welfare solvers must return *byte-identical*
// Assignments to the retained reference implementations (the seed-tree code
// in welfare_reference.hpp) on every instance, active mask, and seed. This
// is what makes the perf suite's solver speedups like-for-like, and what
// keeps optimized and unoptimized providers cross-validating successfully in
// a mixed deployment.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "auction/knapsack_row.hpp"
#include "auction/welfare.hpp"
#include "auction/welfare_reference.hpp"
#include "auction/workload.hpp"
#include "crypto/rng.hpp"
#include "crypto/sha256.hpp"
#include "serde/auction_codec.hpp"

namespace dauct::auction {
namespace {

AuctionInstance random_instance(std::size_t users, std::size_t providers,
                                std::uint64_t seed) {
  crypto::Rng rng(seed);
  return generate(standard_auction_workload(users, providers), rng);
}

std::vector<bool> random_mask(std::size_t n, crypto::Rng& rng) {
  std::vector<bool> mask(n, true);
  // Knock out ~1/4 of the bidders — the shape of Clarke-pivot re-solves.
  for (std::size_t i = 0; i < n; ++i) mask[i] = rng.next_below(4) != 0;
  return mask;
}

TEST(ExactEquivalence, FullSolveAcrossSeeds) {
  const ExactSolver opt;
  const reference::ReferenceExactSolver ref;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const AuctionInstance inst = random_instance(14 + seed % 5, 2 + seed % 4, seed);
    const Assignment a = opt.solve_all(inst, seed);
    const Assignment b = ref.solve_all(inst, seed);
    EXPECT_EQ(a, b) << "seed " << seed;
  }
}

TEST(ExactEquivalence, AcceptanceSizeInstance) {
  // The perf-suite acceptance configuration: 24 bids, 4 providers.
  const AuctionInstance inst = random_instance(24, 4, 7);
  EXPECT_EQ(ExactSolver().solve_all(inst, 0),
            reference::ReferenceExactSolver().solve_all(inst, 0));
}

TEST(ExactEquivalence, ActiveMasks) {
  const ExactSolver opt;
  const reference::ReferenceExactSolver ref;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const AuctionInstance inst = random_instance(12, 3, seed);
    crypto::Rng mask_rng(seed * 31);
    for (int trial = 0; trial < 4; ++trial) {
      const std::vector<bool> mask = random_mask(inst.bids.size(), mask_rng);
      EXPECT_EQ(opt.solve(inst, mask, seed), ref.solve(inst, mask, seed))
          << "seed " << seed << " trial " << trial;
    }
  }
}

TEST(ExactEquivalence, EqualCapacityProviders) {
  // Identical providers exercise the symmetry-breaking path; results must
  // still match the exhaustive reference exactly.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    AuctionInstance inst = random_instance(12, 4, seed);
    for (auto& a : inst.asks) a.capacity = Money::from_double(1.5);
    EXPECT_EQ(ExactSolver().solve_all(inst, seed),
              reference::ReferenceExactSolver().solve_all(inst, seed))
        << "seed " << seed;
  }
}

TEST(ScaledDpEquivalence, FullSolveAcrossSeedsAndEpsilons) {
  for (const double eps : {0.5, 0.2, 0.1}) {
    const ScaledDpSolver opt(eps);
    const reference::ReferenceScaledDpSolver ref(eps);
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const AuctionInstance inst = random_instance(20 + seed, 3 + seed % 4, seed);
      EXPECT_EQ(opt.solve_all(inst, seed * 7), ref.solve_all(inst, seed * 7))
          << "eps " << eps << " seed " << seed;
    }
  }
}

TEST(ScaledDpEquivalence, ActiveMasks) {
  const ScaledDpSolver opt(0.1);
  const reference::ReferenceScaledDpSolver ref(0.1);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const AuctionInstance inst = random_instance(24, 4, seed);
    crypto::Rng mask_rng(seed * 17);
    const std::vector<bool> mask = random_mask(inst.bids.size(), mask_rng);
    EXPECT_EQ(opt.solve(inst, mask, seed), ref.solve(inst, mask, seed))
        << "seed " << seed;
  }
}

// The reference solver's row loop, verbatim: the contract every
// knapsack_row body must meet on a row whose [weight, grid] cells start at 0.
void reference_row(std::int64_t* dp, char* row, std::size_t grid, std::size_t weight,
                   std::int64_t value) {
  for (std::size_t w = grid; w >= weight; --w) {
    const std::int64_t cand = dp[w - weight] + value;
    if (cand > dp[w]) {
      dp[w] = cand;
      row[w] = 1;
    }
    if (w == weight) break;
  }
}

TEST(ScaledDpEquivalence, RowKernelsMatchReferenceLoop) {
  // Solves only ever run the body picked at startup, so this is the one
  // check of every other body this host can run.
  std::vector<std::pair<const char*, detail::KnapsackRowFn>> kernels = {
      {"scalar", &detail::knapsack_row_scalar}};
  if (detail::KnapsackRowFn avx2 = detail::knapsack_row_avx2()) {
    kernels.emplace_back("avx2", avx2);
  }
  if (detail::KnapsackRowFn avx512 = detail::knapsack_row_avx512()) {
    kernels.emplace_back("avx512", avx512);
  }
  std::string ran;
  for (const auto& kernel : kernels) ran += std::string(ran.empty() ? "" : " ") + kernel.first;
  std::printf("knapsack_row bodies exercised: %s\n", ran.c_str());

  // Grid sizes with every residue of (grid + 1) mod 8, plus the fig5 grid (834).
  const std::size_t grids[] = {16, 17, 18, 19, 20, 21, 22, 23, 834};
  crypto::Rng rng(99);
  for (const auto& [name, kernel] : kernels) {
    for (const std::size_t grid : grids) {
      // Weights 1..17 cover every remainder of the 8-cell steps and the steps
      // whose reads overlap their own stores; grid − 1 and grid give two- and
      // one-cell rows.
      std::vector<std::size_t> weights = {grid - 1, grid};
      for (std::size_t w = 1; w <= std::min<std::size_t>(17, grid); ++w) weights.push_back(w);
      for (int extra = 0; extra < 4; ++extra) weights.push_back(1 + rng.next_below(grid));
      const std::size_t pad = detail::knapsack_row_pad(grid);
      for (const std::size_t weight : weights) {
        for (int rep = 0; rep < 4; ++rep) {
          // Small values make ties (cand == dp[w], no take) frequent.
          const std::uint64_t span = rep % 2 == 0 ? 4 : 1'000'000;
          std::vector<std::int64_t> dp_ref(grid + 1);
          for (auto& c : dp_ref) c = static_cast<std::int64_t>(rng.next_below(span));
          const auto value = static_cast<std::int64_t>(rng.next_below(span));
          std::vector<std::int64_t> dp_opt = dp_ref;
          std::vector<char> row_ref(grid + 1, 0);
          // The bit row starts as garbage, 0xA5 and then its complement, so
          // each bit of [weight, grid] must be written to match either way.
          const auto fill = static_cast<std::uint8_t>(rep < 2 ? 0xA5 : 0x5A);
          std::vector<std::uint8_t> row_opt(detail::knapsack_row_bytes(grid), fill);

          reference_row(dp_ref.data(), row_ref.data(), grid, weight, value);
          kernel(dp_opt.data(), row_opt.data(), grid, weight, value);
          ASSERT_EQ(dp_opt, dp_ref) << name << " grid " << grid << " weight " << weight;
          for (std::size_t w = weight; w <= grid; ++w) {
            ASSERT_EQ(detail::knapsack_row_taken(row_opt.data(), grid, weight, w),
                      row_ref[w] != 0)
                << name << " grid " << grid << " weight " << weight << " cell " << w;
          }
          // Bytes holding only cells below `weight` are left alone.
          for (std::size_t b = 0; b < (weight + pad) / 8; ++b) {
            ASSERT_EQ(row_opt[b], fill) << name << " grid " << grid << " weight " << weight
                                        << " byte " << b;
          }
        }
      }
    }
  }
}

TEST(ScaledDpEquivalence, RowFillMatchesStdFill) {
  // Every length through three 8-cell steps, and the fig5 grid's row.
  std::vector<std::size_t> lengths = {834, 835};
  for (std::size_t n = 0; n <= 24; ++n) lengths.push_back(n);
  for (const std::size_t n : lengths) {
    std::vector<std::int64_t> got(n + 2, -7);
    std::vector<std::int64_t> want = got;
    detail::knapsack_fill(got.data() + 1, n, 42);
    std::fill(want.begin() + 1, want.begin() + 1 + static_cast<std::ptrdiff_t>(n), 42);
    ASSERT_EQ(got, want) << "n " << n;
  }
}

TEST(ScaledDpEquivalence, SolverEdgeCases) {
  // The per-provider fit lists built once per solve: a provider with zero and
  // one with negative capacity (skipped), one nothing fits, and one whose
  // capacity equals a demand exactly (weight == grid, a one-cell row). Three
  // or four bidders put the grid at its 16-cell floor for ε ≥ 0.25.
  const auto bid = [](BidderId i, double unit_value, double demand) {
    return Bid{i, Money::from_double(unit_value), Money::from_double(demand)};
  };
  AuctionInstance inst;
  inst.bids = {bid(0, 2.0, 0.75), bid(1, 1.5, 0.5), bid(2, 3.0, 0.25), bid(3, 1.0, 0.0),
               bid(4, 2.5, 0.4)};
  const Money caps[] = {Money::from_double(0.0), Money::from_double(0.5),
                        Money::from_double(0.1), Money::from_micros(-3),
                        Money::from_double(0.75), Money::from_double(0.3)};
  for (std::size_t j = 0; j < std::size(caps); ++j) {
    inst.asks.push_back(Ask{static_cast<NodeId>(j), Money::from_double(0.1), caps[j]});
  }
  for (const double eps : {1.0, 0.5, 0.3, 0.2}) {
    const ScaledDpSolver opt(eps);
    const reference::ReferenceScaledDpSolver ref(eps);
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      EXPECT_EQ(opt.solve_all(inst, seed), ref.solve_all(inst, seed))
          << "eps " << eps << " seed " << seed;
      for (std::size_t out = 0; out < inst.bids.size(); ++out) {
        std::vector<bool> mask(inst.bids.size(), true);
        mask[out] = false;
        EXPECT_EQ(opt.solve(inst, mask, seed), ref.solve(inst, mask, seed))
            << "eps " << eps << " seed " << seed << " without bidder " << out;
      }
    }
  }
  // Every provider skipped or outsized, and no active bidder at all.
  AuctionInstance none = inst;
  for (Ask& a : none.asks) a.capacity = Money::from_double(0.05);
  none.asks[0].capacity = kZeroMoney;
  EXPECT_EQ(ScaledDpSolver(0.5).solve_all(none, 3),
            reference::ReferenceScaledDpSolver(0.5).solve_all(none, 3));
  const std::vector<bool> nobody(inst.bids.size(), false);
  EXPECT_EQ(ScaledDpSolver(0.5).solve(inst, nobody, 3),
            reference::ReferenceScaledDpSolver(0.5).solve(inst, nobody, 3));
}

TEST(ScaledDpEquivalence, Fig5ShapeClarkeMasks) {
  // The fig5_vcg shape (n=50, m=8, ε=0.06) through one solver instance:
  // full solves and Clarke re-solves (one bidder knocked out, per-bidder
  // seed offset as in standard_auction.cpp) across many seeds. Item sets
  // differ per provider and per mask, so a take-row byte left stale in the
  // grow-only buffer would change some reconstruction.
  const ScaledDpSolver opt(0.06);
  const reference::ReferenceScaledDpSolver ref(0.06);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const AuctionInstance inst = random_instance(50, 8, seed);
    EXPECT_EQ(opt.solve_all(inst, seed), ref.solve_all(inst, seed)) << "seed " << seed;
    for (std::size_t i = seed; i < inst.bids.size(); i += 4) {
      std::vector<bool> mask(inst.bids.size(), true);
      mask[i] = false;
      const std::uint64_t s = seed ^ (0x9e3779b97f4a7c15ULL * (i + 1));
      const Assignment a = opt.solve(inst, mask, s);
      const Assignment b = ref.solve(inst, mask, s);
      EXPECT_EQ(a, b) << "seed " << seed << " without bidder " << i;
      EXPECT_EQ(serde::encode_assignment(a), serde::encode_assignment(b));
    }
  }
}

TEST(ScaledDpEquivalence, FewProvidersManyTrials) {
  // Small m means many duplicate provider permutations — the memoized path.
  const ScaledDpSolver opt(0.05);  // 20 trials over 3! = 6 permutations
  const reference::ReferenceScaledDpSolver ref(0.05);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const AuctionInstance inst = random_instance(16, 3, seed);
    EXPECT_EQ(opt.solve_all(inst, seed), ref.solve_all(inst, seed)) << "seed " << seed;
  }
}

// A batch must return exactly the per-mask reference solves, whatever the
// stage table shares between its masks.
void expect_batch_matches_reference(const AuctionInstance& inst, double eps,
                                    const std::vector<std::vector<bool>>& masks,
                                    const std::vector<std::uint64_t>& seeds,
                                    BatchStats* stats = nullptr) {
  const ScaledDpSolver opt(eps);
  const reference::ReferenceScaledDpSolver ref(eps);
  const std::vector<Assignment> batch = opt.solve_batch(inst, masks, seeds, stats);
  ASSERT_EQ(batch.size(), masks.size());
  for (std::size_t b = 0; b < masks.size(); ++b) {
    EXPECT_EQ(batch[b], ref.solve(inst, masks[b], seeds[b])) << "eps " << eps << " mask " << b;
  }
}

std::vector<bool> without(std::size_t n, std::size_t i) {
  std::vector<bool> mask(n, true);
  mask[i] = false;
  return mask;
}

TEST(ScaledDpEquivalence, BatchMatchesPerMaskSolves) {
  // The fig5 shape as a payment chunk: the base solve, the strided Clarke
  // re-solves of one chunk (seed offsets as in standard_auction.cpp) and a
  // duplicate of each kind. Re-solves of one chunk share many stages, so the
  // table must answer some of them.
  {
    const AuctionInstance inst = random_instance(50, 8, 3);
    std::vector<std::vector<bool>> masks = {std::vector<bool>(50, true)};
    std::vector<std::uint64_t> seeds = {3};
    for (std::size_t i = 1; i < 50; i += 4) {
      masks.push_back(without(50, i));
      seeds.push_back(3 ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
    }
    masks.push_back(masks[0]);
    seeds.push_back(seeds[0]);
    masks.push_back(masks[2]);
    seeds.push_back(seeds[2]);
    BatchStats stats;
    expect_batch_matches_reference(inst, 0.06, masks, seeds, &stats);
    EXPECT_GT(stats.table_hits, 0u);
    EXPECT_LT(stats.table_hits, stats.stages);
    EXPECT_GT(stats.cells, 0u);
    // The counts depend on the inputs alone.
    BatchStats again;
    (void)ScaledDpSolver(0.06).solve_batch(inst, masks, seeds, &again);
    EXPECT_EQ(again, stats);
  }
  // n = 130: keys span three 64-bit words.
  {
    const AuctionInstance inst = random_instance(130, 4, 5);
    crypto::Rng mask_rng(41);
    std::vector<std::vector<bool>> masks = {without(130, 0), without(130, 64),
                                            without(130, 129)};
    std::vector<std::uint64_t> seeds = {1, 2, 3};
    for (int r = 0; r < 3; ++r) {
      masks.push_back(random_mask(130, mask_rng));
      seeds.push_back(10 + static_cast<std::uint64_t>(r));
    }
    expect_batch_matches_reference(inst, 0.25, masks, seeds);
  }
  // Neutral (zero-demand) and zero-value bidders are never items: masking
  // one out keeps the grid, masking a real bidder out shrinks it, so one
  // batch runs stages on two grids. A mask shorter than the bid list leaves
  // the rest active.
  {
    AuctionInstance inst = random_instance(20, 3, 9);
    inst.bids[4].demand = kZeroMoney;
    inst.bids[11].unit_value = kZeroMoney;
    std::vector<std::vector<bool>> masks;
    std::vector<std::uint64_t> seeds;
    for (const std::size_t i : {4, 11, 0, 4, 7, 11}) {
      masks.push_back(without(20, i));
      seeds.push_back(5);
    }
    masks.push_back(std::vector<bool>(20, true));
    seeds.push_back(5);
    masks.push_back({true, false});
    seeds.push_back(6);
    for (const double eps : {0.5, 0.1}) expect_batch_matches_reference(inst, eps, masks, seeds);
  }
  // No provider, one provider (a single permutation), and an empty batch.
  {
    AuctionInstance no_asks = random_instance(16, 1, 2);
    no_asks.asks.clear();
    expect_batch_matches_reference(no_asks, 0.1, {without(16, 3), std::vector<bool>(16, true)},
                                   {1, 2});
    const AuctionInstance inst = random_instance(16, 1, 2);
    expect_batch_matches_reference(inst, 0.1, {without(16, 3), without(16, 3), without(16, 8)},
                                   {1, 1, 2});
    BatchStats stats;
    EXPECT_TRUE(ScaledDpSolver(0.1).solve_batch(inst, {}, {}, &stats).empty());
    EXPECT_EQ(stats, BatchStats{});
  }
}

TEST(DigestEquivalence, HardwareAndPortableSha256Agree) {
  // The CPU-dispatched hasher and the scalar reference must agree on every
  // length straddling block/padding boundaries (providers on heterogeneous
  // hosts cross-validate by digest equality).
  crypto::Rng rng(5);
  for (std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{55},
                          std::size_t{56}, std::size_t{63}, std::size_t{64},
                          std::size_t{65}, std::size_t{127}, std::size_t{128},
                          std::size_t{1000}, std::size_t{4096}}) {
    Bytes data(len);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
    EXPECT_EQ(crypto::sha256(BytesView(data)), crypto::sha256_portable(BytesView(data)))
        << "len " << len;
  }
}

TEST(DigestEquivalence, SolveDigestsStable) {
  // End-to-end outcome digest: serialize both solvers' assignments and hash —
  // what output agreement actually compares across providers.
  const AuctionInstance inst = random_instance(24, 4, 3);
  const Bytes opt_bytes = serde::encode_assignment(ExactSolver().solve_all(inst, 0));
  const Bytes ref_bytes =
      serde::encode_assignment(reference::ReferenceExactSolver().solve_all(inst, 0));
  EXPECT_EQ(crypto::sha256(BytesView(opt_bytes)), crypto::sha256(BytesView(ref_bytes)));
}

}  // namespace
}  // namespace dauct::auction
