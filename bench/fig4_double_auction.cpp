// Figure 4 reproduction: running time for the double auction vs number of
// users, centralized vs distributed with k = 1 (3 providers), k = 2 (5) and
// k = 3 (8 providers).
//
// Paper setup (§6.2): user bids ~ U[0.75, 1.25], demand ~ U(0, 1], provider
// cost ~ U(0, 1], capacity scaled by U[0.5, 1.5] of the per-provider demand
// share; 8 providers in the market, the protocol executed by the minimum
// 2k+1 of them; values averaged over repeated rounds.
//
// Expected shape (not absolute numbers — the substrate is a calibrated
// virtual-time simulation, see src/sim/latency.hpp and dauct_bench/README.md):
// centralized fastest; distributed cost grows with both n (more bid data per
// round) and k (more providers ingesting more copies); everything stays well
// under a second.
#include <cstdio>
#include <cstdlib>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace dauct;
  const std::size_t rounds = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 5;

  std::printf("# Figure 4: double auction running time (seconds) vs users\n");
  std::printf("# distributed series: protocol executed by 2k+1 of the providers\n");
  const std::vector<std::size_t> user_counts = {100, 200, 300, 400, 500,
                                                600, 700, 800, 900, 1000};

  std::vector<std::string> cols;
  for (std::size_t n : user_counts) cols.push_back("n=" + std::to_string(n));
  bench::print_header("series", cols);

  auto adapter = std::make_shared<core::DoubleAuctionAdapter>();

  // Centralized trusted auctioneer (m = 8 market).
  {
    core::CentralizedAuctioneer trusted(adapter);
    std::vector<double> cells;
    for (std::size_t n : user_counts) {
      const auto wl = auction::double_auction_workload(n, 8);
      cells.push_back(bench::centralized_makespan_s(trusted, wl, rounds, 42,
                                                    sim::CostMode::kMeasured));
    }
    bench::print_row("centralized", cells);
  }

  // Distributed series.
  for (std::size_t k : {1u, 2u, 3u}) {
    // The paper's executing-provider counts: 3 when k=1, 5 when k=2, 8 when
    // k=3 (m > 2k always holds).
    const std::size_t m = k == 3 ? 8 : 2 * k + 1;
    std::vector<double> cells;
    for (std::size_t n : user_counts) {
      core::AuctioneerSpec spec;
      spec.m = m;
      spec.k = k;
      spec.num_bidders = n;
      core::DistributedAuctioneer auctioneer(spec, adapter);
      const auto wl = auction::double_auction_workload(n, m);
      cells.push_back(bench::distributed_makespan_s(auctioneer, wl, rounds, 42,
                                                    sim::CostMode::kMeasured));
    }
    bench::print_row("k=" + std::to_string(k) + " (m=" + std::to_string(m) + ")",
                     cells);
  }

  std::printf("# expectation: centralized < k=1 < k=2 < k=3, all < 1 s;\n");
  std::printf("# gaps widen with n (communication-dominated; paper Fig. 4)\n");
  return 0;
}
