// Full distributed auctioneer over real TCP loopback sockets.
//
// Every provider is an OS thread with its own listening socket; messages are
// length-prefixed frames; the client submits bids over TCP and collects each
// provider's result — the deployment shape of the paper's Guifi prototype,
// in one process.
//
//   build/examples/tcp_cluster [base_port]
#include <cstdio>
#include <cstdlib>

#include "auction/double_auction.hpp"
#include "auction/workload.hpp"
#include "core/adapters.hpp"
#include "runtime/tcp_runtime.hpp"

int main(int argc, char** argv) {
  using namespace dauct;

  crypto::Rng rng(31337);
  const auction::AuctionInstance market =
      auction::generate(auction::double_auction_workload(20, 4), rng);

  core::AuctioneerSpec spec;
  spec.m = 4;
  spec.k = 1;
  spec.num_bidders = 20;
  core::DistributedAuctioneer auctioneer(
      spec, std::make_shared<core::DoubleAuctionAdapter>());

  runtime::TcpNodeConfig cfg;
  if (argc > 1) cfg.base_port = static_cast<std::uint16_t>(std::atoi(argv[1]));

  std::printf("starting 4 providers + 1 client on 127.0.0.1 ...\n");
  const auto run = runtime::TcpRuntime(cfg).run_distributed(auctioneer, market);
  std::printf("ports %u..%u, wall time %.1f ms\n", run.base_port,
              run.base_port + 4,
              std::chrono::duration<double, std::milli>(run.wall_time).count());

  if (run.timed_out || !run.global_outcome.ok()) {
    std::printf("run failed: %s\n",
                run.timed_out
                    ? "timeout"
                    : abort_reason_name(run.global_outcome.bottom().reason));
    return 1;
  }

  // Verify against the trusted-auctioneer reference.
  const auto reference = auction::run_double_auction(market);
  const bool matches = run.global_outcome.value() == reference;
  std::printf("all 4 providers agreed on (x, p); matches trusted reference: %s\n",
              matches ? "yes" : "NO");

  const auto& result = run.global_outcome.value();
  std::printf("allocated %s bandwidth units across %zu reservations; "
              "users paid %s, providers received %s\n",
              result.allocation.total().str().c_str(),
              result.allocation.entries().size(),
              result.payments.total_paid().str().c_str(),
              result.payments.total_received().str().c_str());
  return matches ? 0 : 1;
}
