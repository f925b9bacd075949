// Ablation F: where does the time go, and how does the network change it?
//
// Phase breakdown (bid agreement vs allocator) of one distributed double
// auction and one distributed standard auction, across three network models:
// zero-latency (pure protocol logic), LAN, and the community-network
// calibration used for Figs. 4–5. Attributes the framework's overhead to its
// parts and shows how the network model moves the centralized/distributed
// trade-off — the sensitivity analysis behind the calibrated network model
// (src/sim/latency.hpp, dauct_bench/README.md).
#include <cstdio>

#include "bench_util.hpp"

int main() {
  using namespace dauct;

  struct Net {
    const char* name;
    sim::LatencyModel model;
  };
  const std::vector<Net> nets = {
      {"zero", sim::LatencyModel::zero()},
      {"lan", sim::LatencyModel::lan()},
      {"community", sim::LatencyModel::community()},
  };

  std::printf("# Ablation F: phase breakdown vs network model (virtual seconds)\n");
  std::printf("%-12s %-10s %12s %12s %12s\n", "network", "auction", "bid-agree",
              "allocator", "end-to-end");

  for (const auto& net : nets) {
    // Double auction, m = 5, k = 2, n = 200.
    {
      core::AuctioneerSpec spec;
      spec.m = 5;
      spec.k = 2;
      spec.num_bidders = 200;
      core::DistributedAuctioneer auctioneer(
          spec, std::make_shared<core::DoubleAuctionAdapter>());
      crypto::Rng rng(1);
      const auto instance =
          auction::generate(auction::double_auction_workload(200, 5), rng);
      runtime::SimRunConfig cfg;
      cfg.latency = net.model;
      cfg.cost_mode = sim::CostMode::kMeasured;
      const auto run = runtime::SimRuntime(cfg).run_distributed(auctioneer, instance);
      const double ba = sim::to_seconds(run.bid_agreement_makespan());
      const double fin = sim::to_seconds(run.provider_makespan());
      std::printf("%-12s %-10s %12.4f %12.4f %12.4f\n", net.name, "double", ba,
                  fin - ba, sim::to_seconds(run.makespan));
    }
    // Standard auction, m = 8, k = 1 (p = 4), n = 40.
    {
      core::AuctioneerSpec spec;
      spec.m = 8;
      spec.k = 1;
      spec.num_bidders = 40;
      auction::StandardAuctionParams params;
      params.epsilon = 0.08;
      core::DistributedAuctioneer auctioneer(
          spec, std::make_shared<core::StandardAuctionAdapter>(params));
      crypto::Rng rng(2);
      const auto instance =
          auction::generate(auction::standard_auction_workload(40, 8), rng);
      runtime::SimRunConfig cfg;
      cfg.latency = net.model;
      cfg.cost_mode = sim::CostMode::kMeasured;
      const auto run = runtime::SimRuntime(cfg).run_distributed(auctioneer, instance);
      const double ba = sim::to_seconds(run.bid_agreement_makespan());
      const double fin = sim::to_seconds(run.provider_makespan());
      std::printf("%-12s %-10s %12.4f %12.4f %12.4f\n", net.name, "standard", ba,
                  fin - ba, sim::to_seconds(run.makespan));
    }
  }

  std::printf("# expectation: double auction is network-bound (zero-latency run\n");
  std::printf("# nearly free); standard auction's allocator phase dominates and\n");
  std::printf("# barely moves across network models (compute-bound)\n");
  return 0;
}
