// Shared helpers for the figure-reproduction benches.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "auction/workload.hpp"
#include "core/adapters.hpp"
#include "runtime/sim_runtime.hpp"

namespace dauct::bench {

/// Mean of seconds.
inline double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(xs.size());
}

/// A table cell is a mean over runs that all reached (x, p): a run that
/// ends in ⊥ ends the bench with exit status 1.
inline void require_ok(const runtime::SimRunResult& run, const char* series) {
  if (run.global_outcome.ok()) return;
  std::fprintf(stderr, "bench: %s run aborted (%s)\n", series,
               abort_reason_name(run.global_outcome.bottom().reason));
  std::exit(1);
}

/// One cell of a running-time table, averaged over `rounds` seeded runs.
/// Returns the mean client-observed makespan in seconds.
inline double distributed_makespan_s(const core::DistributedAuctioneer& auctioneer,
                                     const auction::WorkloadParams& workload,
                                     std::size_t rounds, std::uint64_t seed0,
                                     sim::CostMode cost_mode) {
  std::vector<double> times;
  times.reserve(rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    crypto::Rng rng(seed0 + r);
    const auto instance = auction::generate(workload, rng);
    runtime::SimRunConfig cfg;
    cfg.seed = seed0 * 1000 + r;
    cfg.cost_mode = cost_mode;
    const auto run = runtime::SimRuntime(cfg).run_distributed(auctioneer, instance);
    require_ok(run, "distributed");
    times.push_back(sim::to_seconds(run.makespan));
  }
  return mean(times);
}

inline double centralized_makespan_s(const core::CentralizedAuctioneer& auctioneer,
                                     const auction::WorkloadParams& workload,
                                     std::size_t rounds, std::uint64_t seed0,
                                     sim::CostMode cost_mode) {
  std::vector<double> times;
  times.reserve(rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    crypto::Rng rng(seed0 + r);
    const auto instance = auction::generate(workload, rng);
    runtime::SimRunConfig cfg;
    cfg.seed = seed0 * 1000 + r;
    cfg.cost_mode = cost_mode;
    const auto run = runtime::SimRuntime(cfg).run_centralized(auctioneer, instance);
    require_ok(run, "centralized");
    times.push_back(sim::to_seconds(run.makespan));
  }
  return mean(times);
}

/// Print a table row: first column fixed-width label, then %.4f cells.
inline void print_row(const std::string& label, const std::vector<double>& cells) {
  std::printf("%-14s", label.c_str());
  for (double c : cells) std::printf(" %10.4f", c);
  std::printf("\n");
}

inline void print_header(const std::string& label,
                         const std::vector<std::string>& columns) {
  std::printf("%-14s", label.c_str());
  for (const auto& c : columns) std::printf(" %10s", c.c_str());
  std::printf("\n");
}

}  // namespace dauct::bench
