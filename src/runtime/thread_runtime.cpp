#include "runtime/thread_runtime.hpp"

#include <thread>

#include "runtime/submission_codec.hpp"

namespace dauct::runtime {

ThreadRunResult ThreadRuntime::run_distributed(
    const core::DistributedAuctioneer& auctioneer,
    const auction::AuctionInstance& instance) {
  const std::size_t m = auctioneer.spec().m;
  const auction::BidLimits& limits = auctioneer.spec().limits;
  const NodeId client = static_cast<NodeId>(m);
  const net::Topic bids_topic(detail::kBidsTopic);
  const net::Topic result_topic(detail::kResultTopic);
  net::MemNetwork network(m + 1);

  crypto::Rng seeder(config_.seed ^ 0x7713adULL);
  std::vector<std::unique_ptr<net::MemEndpoint>> endpoints;
  std::vector<std::unique_ptr<adversary::DeviantEndpoint>> deviants;
  std::vector<std::unique_ptr<core::ProviderEngine>> engines;
  for (NodeId j = 0; j < m; ++j) {
    endpoints.push_back(
        std::make_unique<net::MemEndpoint>(network, j, m, seeder.next_u64()));
    blocks::Endpoint* ep = endpoints.back().get();
    if (auto it = config_.deviations.find(j); it != config_.deviations.end()) {
      deviants.push_back(
          std::make_unique<adversary::DeviantEndpoint>(*ep, it->second));
      ep = deviants.back().get();
    }
    auction::Ask ask =
        j < instance.asks.size() ? instance.asks[j] : auction::Ask{j, {}, {}};
    engines.push_back(auctioneer.make_engine(*ep, ask));
  }

  const auto start_time = std::chrono::steady_clock::now();

  std::vector<std::thread> threads;
  threads.reserve(m);
  for (NodeId j = 0; j < m; ++j) {
    threads.emplace_back([&, j] {
      core::ProviderEngine& engine = *engines[j];
      bool reported = false;
      while (auto msg = network.mailbox(j).pop()) {
        if (msg->topic == bids_topic) {
          if (auto subs = detail::decode_submissions(msg->payload.view())) {
            engine.start(detail::sanitize_submissions(*subs, limits));
          }
        } else {
          engine.on_message(*msg);
        }
        if (engine.done() && !reported) {
          reported = true;
          network.post(net::Message{j, client, result_topic, Bytes{}});
        }
      }
    });
  }

  // The client: submit all bids to every provider, then await m reports.
  // One shared buffer for the bid batch: every provider's copy aliases it.
  const SharedBytes bid_payload(detail::encode_submissions(instance.bids));
  for (NodeId j = 0; j < m; ++j) {
    network.post(net::Message{client, j, bids_topic, bid_payload});
  }

  ThreadRunResult result;
  std::size_t reports = 0;
  const auto deadline = start_time + config_.timeout;
  while (reports < m) {
    const auto msg = network.mailbox(client).pop_for(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now()));
    if (!msg) {
      result.timed_out = true;
      break;
    }
    if (msg->topic == result_topic) ++reports;
  }
  result.wall_time = std::chrono::steady_clock::now() - start_time;

  network.close_all();
  for (auto& t : threads) t.join();

  result.provider_outcomes.reserve(m);
  for (NodeId j = 0; j < m; ++j) {
    if (engines[j]->done()) {
      result.provider_outcomes.push_back(*engines[j]->outcome());
    } else {
      result.provider_outcomes.push_back(auction::AuctionOutcome(
          Bottom{AbortReason::kTimeout, "thread runtime stall"}));
    }
  }
  result.global_outcome =
      core::combine_outcomes(std::span(result.provider_outcomes));
  return result;
}

}  // namespace dauct::runtime
