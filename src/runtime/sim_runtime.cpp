#include "runtime/sim_runtime.hpp"

#include <algorithm>

#include "runtime/service_runtime.hpp"
#include "runtime/submission_codec.hpp"
#include "serde/auction_codec.hpp"

namespace dauct::runtime {

sim::SimTime SimRunResult::bid_agreement_makespan() const {
  sim::SimTime t = 0;
  for (sim::SimTime v : bid_agreement_done_at) t = std::max(t, v);
  return t;
}

sim::SimTime SimRunResult::provider_makespan() const {
  sim::SimTime t = 0;
  for (sim::SimTime v : provider_done_at) t = std::max(t, v);
  return t;
}

SimRunResult SimRuntime::run_distributed(const core::DistributedAuctioneer& auctioneer,
                                         const auction::AuctionInstance& instance) {
  // One instance at depth 1 through the service plane: its identity path
  // (bare topics, the classic client batch) is the single-auction run.
  ServiceRunConfig svc;
  svc.base = config_;
  ServiceRunResult run = ServiceRuntime(std::move(svc))
                             .run(auctioneer, std::span(&instance, 1));
  InstanceRunResult& inst = run.instances.front();
  SimRunResult result;
  result.provider_outcomes = std::move(inst.provider_outcomes);
  result.global_outcome = std::move(inst.outcome);
  result.bid_agreement_done_at = std::move(inst.bid_agreement_done_at);
  result.provider_done_at = std::move(inst.provider_done_at);
  result.shared_seed = inst.shared_seed;
  result.client_verdict = inst.client_verdict;
  result.client_digest = std::move(inst.client_digest);
  static_cast<RunStats&>(result) = std::move(run);
  return result;
}

SimRunResult SimRuntime::run_centralized(const core::CentralizedAuctioneer& auctioneer,
                                         const auction::AuctionInstance& instance) {
  // Node 0 = the trusted auctioneer, node 1 = the client.
  const NodeId trusted = 0, client = 1;
  const net::Topic bids_topic(detail::kBidsTopic);
  const net::Topic result_topic(detail::kResultTopic);
  sim::Scheduler scheduler(2, config_.latency, config_.seed, config_.cost_mode);
  scheduler.set_cpu_scale(config_.cpu_scale);
  if (config_.faults) scheduler.install_fault_plan(*config_.faults);

  crypto::Rng seed_rng(config_.seed ^ 0xc3a1u);
  const std::uint64_t coin = seed_rng.next_u64();

  std::optional<auction::AuctionResult> result_value;
  sim::SimTime client_done_at = 0;
  bool client_got_result = false;

  scheduler.set_deliver(trusted, [&](const net::Message& msg) {
    if (msg.topic != bids_topic) return;
    auto subs = detail::decode_submissions(BytesView(msg.payload));
    if (!subs) return;
    auction::AuctionInstance run_instance;
    run_instance.bids = detail::sanitize_submissions(*subs, auction::BidLimits{});
    run_instance.asks = instance.asks;
    result_value = auctioneer.run(run_instance, coin);
    scheduler.send(net::Message{trusted, client, result_topic,
                                serde::encode_result(*result_value)});
  });

  scheduler.set_deliver(client, [&](const net::Message& msg) {
    if (msg.topic == result_topic) {
      client_got_result = true;
      client_done_at = scheduler.now();
    }
  });

  // Bids travel client → auctioneer in one batch message.
  scheduler.inject(sim::kSimStart, net::Message{client, trusted, bids_topic,
                                                detail::encode_submissions(instance.bids)});

  const bool overflow = scheduler.run_some(config_.max_events);

  SimRunResult result;
  result.event_budget_exhausted = overflow;
  result.events_dispatched = scheduler.events_dispatched();
  if (result_value && client_got_result) {
    result.provider_outcomes.push_back(auction::AuctionOutcome(*result_value));
    result.makespan = client_done_at;
  } else {
    result.stalled = true;
    result.provider_outcomes.push_back(auction::AuctionOutcome(
        overflow ? Bottom{AbortReason::kEventBudgetExceeded,
                          "event budget (" + std::to_string(config_.max_events) +
                              ") exhausted before the run completed"}
                 : Bottom{AbortReason::kTimeout,
                          "centralized run never completed"}));
    result.makespan = scheduler.now();
  }
  result.global_outcome =
      core::combine_outcomes(std::span(result.provider_outcomes));
  result.traffic = scheduler.traffic();
  if (const auto* fs = scheduler.fault_stats()) result.fault_stats = *fs;
  result.shared_seed = coin;
  return result;
}

}  // namespace dauct::runtime
