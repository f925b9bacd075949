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
  std::vector<std::pair<const char*, detail::KnapsackRowFn>> kernels = {
      {"scalar", &detail::knapsack_row_scalar}};
  if (detail::KnapsackRowFn avx2 = detail::knapsack_row_avx2()) {
    kernels.emplace_back("avx2", avx2);
  }
  // Grid sizes with grid + 1 ≡ 0, 1, 2, 3 (mod 4), plus the fig5 grid (834).
  const std::size_t grids[] = {16, 17, 18, 19, 63, 64, 834};
  crypto::Rng rng(99);
  for (const auto& [name, kernel] : kernels) {
    for (const std::size_t grid : grids) {
      // Weights 1..9 cover every lane remainder and the chunks whose reads
      // overlap their own stores; grid − 1 and grid give two- and one-cell rows.
      std::vector<std::size_t> weights = {1, 2, 3, 4, 5, 6, 7, 8, 9, grid - 1, grid};
      for (int extra = 0; extra < 4; ++extra) weights.push_back(1 + rng.next_below(grid));
      for (const std::size_t weight : weights) {
        for (int rep = 0; rep < 3; ++rep) {
          // Small values make ties (cand == dp[w], no take) frequent.
          const std::uint64_t span = rep == 0 ? 4 : 1'000'000;
          std::vector<std::int64_t> dp_ref(grid + 1);
          for (auto& c : dp_ref) c = static_cast<std::int64_t>(rng.next_below(span));
          const auto value = static_cast<std::int64_t>(rng.next_below(span));
          std::vector<std::int64_t> dp_opt = dp_ref;
          // The [0, weight) prefix holds a pattern both must leave alone; the
          // kernel's [weight, grid] cells start as garbage it must overwrite.
          std::vector<char> row_ref(grid + 1, 0);
          for (std::size_t w = 0; w < weight; ++w) {
            row_ref[w] = static_cast<char>(w % 7 + 2);
          }
          std::vector<char> row_opt = row_ref;
          std::fill(row_opt.begin() + static_cast<std::ptrdiff_t>(weight), row_opt.end(),
                    static_cast<char>(0x5a));

          reference_row(dp_ref.data(), row_ref.data(), grid, weight, value);
          kernel(dp_opt.data(), row_opt.data(), grid, weight, value);
          ASSERT_EQ(dp_opt, dp_ref) << name << " grid " << grid << " weight " << weight;
          ASSERT_EQ(row_opt, row_ref) << name << " grid " << grid << " weight " << weight;
        }
      }
    }
  }
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
