#include "runtime/tcp_runtime.hpp"

#include <cstdlib>
#include <thread>

#include "common/log.hpp"
#include "crypto/sha256.hpp"
#include "runtime/node_stack.hpp"
#include "runtime/submission_codec.hpp"

namespace dauct::runtime {

namespace {
/// Broadcast by the client once all m reports are in: every provider
/// process may exit. Never journaled (it is not engine input).
constexpr const char* kShutdownTopic = "client/shutdown";

/// Provider `node`'s endpoint RNG seed, the same in every process of a run:
/// what makes a restarted provider's replay (and its re-sent frames)
/// byte-exact.
std::uint64_t endpoint_seed_of(std::uint64_t run_seed, NodeId node) {
  crypto::Rng seeder(run_seed ^ 0x7c9ULL);
  std::uint64_t seed = 0;
  for (NodeId j = 0; j <= node; ++j) seed = seeder.next_u64();
  return seed;
}

std::chrono::milliseconds ms_until(std::chrono::steady_clock::time_point deadline) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - std::chrono::steady_clock::now());
}

/// One provider over its own TcpNode: the NodeStack and the engine on it.
/// The link runs timerless (no retransmits, standalone acks), but its dedup,
/// sent cache and rejoin sweep are the recovery machinery a restart needs.
class TcpProvider {
 public:
  /// Opens the WAL, if any, before binding: a refused log fails fast
  /// (error()) without ever joining the cluster.
  TcpProvider(const core::DistributedAuctioneer& auctioneer,
              const auction::AuctionInstance& instance, NodeId node,
              const TcpNodeConfig& config)
      : auctioneer_(auctioneer), node_(node), config_(config),
        stack_(node,
               [this, seed = endpoint_seed_of(config.seed, node)] {
                 return std::make_unique<net::TcpEndpoint>(
                     *tcp_, auctioneer_.spec().m, seed);
               },
               {.reliability = {.enable = true}}) {
    error_ = open_wal(instance.bids.size());
    if (!error_.empty()) return;
    net::TcpPeers peers;
    peers.base_port = config.base_port;
    tcp_ = std::make_unique<net::TcpNode>(node, peers);
    stack_.build();
    engine_ = auctioneer.make_engine(
        stack_.top(), node < instance.asks.size() ? instance.asks[node]
                                                  : auction::Ask{node, {}, {}});
  }

  TcpProvider(const TcpProvider&) = delete;  // the stack's factory holds `this`
  const std::string& error() const { return error_; }

  /// Replay a recovered log, then serve live traffic until the client calls
  /// the run over (or the timeout).
  TcpProviderResult serve();

 private:
  /// Attach DIR/provider-J.wal, if configured; why it was refused.
  std::string open_wal(std::size_t users) {
    if (config_.wal_dir.empty()) return {};
    const std::string path =
        config_.wal_dir + "/provider-" + std::to_string(node_) + ".wal";
    auto storage = store::FileStorage::open(path);
    if (!storage) return "cannot open wal file " + path;
    const std::string why = stack_.open_wal(
        std::move(storage),
        {.run_seed = config_.seed, .node = node_, .providers = auctioneer_.spec().m,
         .users = users, .k = auctioneer_.spec().k,
         .endpoint_seed = endpoint_seed_of(config_.seed, node_)},
        config_.snapshot_every);
    return why.empty() ? why : "wal recovery refused: " + path + ": " + why;
  }
  void dispatch(const net::Message& msg);
  void note_progress();
  store::Snapshot snapshot() const {
    return store::Snapshot{.started = started_,
                           .bids_agreed = engine_->agreed_bids().has_value(),
                           .done = engine_->done()};
  }

  const core::DistributedAuctioneer& auctioneer_;
  NodeId node_;
  const TcpNodeConfig& config_;
  std::string error_;
  std::unique_ptr<net::TcpNode> tcp_;
  NodeStack stack_;
  std::unique_ptr<core::ProviderEngine> engine_;
  bool started_ = false, bids_agreed_ = false, reported_ = false;
  const net::Topic bids_topic_{detail::kBidsTopic};
  const net::Topic result_topic_{detail::kResultTopic};
};

/// Engine dispatch shared by live deliveries and WAL replay: the replayed
/// run re-executes the same code over the same bytes.
void TcpProvider::dispatch(const net::Message& in) {
  stack_.verify(
      in,
      [&](const net::Message& msg) {
        if (msg.topic == bids_topic_) {
          auto subs = detail::decode_submissions(msg.payload.view());
          if (subs && !started_) {
            started_ = true;
            stack_.journal_started(msg.payload);
            engine_->start(
                detail::sanitize_submissions(*subs, auctioneer_.spec().limits));
          }
        } else {
          engine_->on_message(msg);
        }
        note_progress();
      },
      [&](Bottom b) {
        engine_->abort(std::move(b));
        note_progress();
      });
}

void TcpProvider::note_progress() {
  if (!bids_agreed_ && engine_->agreed_bids().has_value()) {
    bids_agreed_ = true;
    stack_.journal_bids_agreed(*engine_->agreed_bids());
  }
  if (engine_->done() && !reported_) {
    reported_ = true;
    const auto& out = *engine_->outcome();
    Bytes report = detail::encode_report(out);
    const crypto::Digest digest = crypto::sha256(BytesView(report));
    stack_.journal_outcome(out.ok(), digest);
    tcp_->send(net::Message{
        node_, static_cast<NodeId>(auctioneer_.spec().m), result_topic_,
        SharedBytes(detail::result_frame(
            std::move(report), digest,
            node_ == detail::designated_reporter(0, auctioneer_.spec().m)))});
  }
}

TcpProviderResult TcpProvider::serve() {
  TcpProviderResult result;
  const net::Topic shutdown_topic(kShutdownTopic);
  const net::Topic rreq_topic(net::kRetransmitRequestTopicName);
  if (stack_.recovering()) {
    result.recovered = true;
    stack_.replay([this](const net::Message& msg) { dispatch(msg); },
                  [this] { return snapshot(); });
  }

  const auto deadline = std::chrono::steady_clock::now() + config_.timeout;
  std::optional<net::Message> popped;
  while ((popped = tcp_->inbox().pop_for(ms_until(deadline))) &&
         popped->topic != shutdown_topic) {
    const net::Message& msg = *popped;
    // A wildcard re-request announces a restarted peer: our cached outbound
    // socket predates its rebirth, and writes into it would be silently
    // swallowed until the RST — reset before the link answers the sweep.
    if (msg.topic == rreq_topic && msg.payload.view().size() == 1 &&
        msg.payload.view()[0] == '*') {
      tcp_->reset_peer(msg.from);
    }
    stack_.deliver(
        msg,
        [this](const net::Message& in) {
          if (config_.crash_after != 0 && stack_.delivered() == config_.crash_after) {
            // The fault hook: a real kill, not an exception — destructors do
            // not run, sockets die with the process, only the WAL survives.
            DAUCT_WARN("tcp provider " << node_ << ": crash-after hook, _exit(137)");
            std::_Exit(137);
          }
          dispatch(in);
          return true;
        },
        [this] { return snapshot(); });
  }
  result.timed_out = !popped;
  tcp_->shutdown();
  result.outcome = engine_->done()
                       ? *engine_->outcome()
                       : auction::AuctionOutcome(Bottom{
                             AbortReason::kTimeout, "tcp provider stall"});
  result.wal_stats = stack_.wal_stats();
  result.reliability_stats = stack_.reliability_stats();
  return result;
}
}  // namespace

TcpRunResult TcpRuntime::run_distributed(const core::DistributedAuctioneer& auctioneer,
                                         const auction::AuctionInstance& instance) {
  const std::size_t m = auctioneer.spec().m;
  TcpNodeConfig config = config_;
  if (config.base_port == 0) {
    config.base_port = net::pick_base_port(static_cast<std::uint16_t>(m + 1));
  }
  TcpRunResult result;
  result.base_port = config.base_port;

  // Every listener is up before the client submits: its first send to each
  // provider connects. A refused WAL stops the run before any traffic.
  std::vector<std::unique_ptr<TcpProvider>> providers;
  for (NodeId j = 0; j < m; ++j) {
    providers.push_back(
        std::make_unique<TcpProvider>(auctioneer, instance, j, config));
    if (!providers.back()->error().empty()) {
      result.provider_outcomes.assign(
          m, auction::AuctionOutcome(
                 Bottom{AbortReason::kProtocolViolation, providers.back()->error()}));
      result.global_outcome = result.provider_outcomes.front();
      return result;
    }
  }

  std::vector<TcpProviderResult> runs(m);
  std::vector<std::jthread> threads;  // joined on every exit path
  for (NodeId j = 0; j < m; ++j) {
    threads.emplace_back([&, j] { runs[j] = providers[j]->serve(); });
  }
  const TcpClientResult client = run_tcp_client(instance, m, config);
  threads.clear();

  result.timed_out = client.timed_out;
  result.wall_time = client.wall_time;
  result.result_digest = client.result_digest;
  for (const auto& run : runs) result.provider_outcomes.push_back(run.outcome);
  result.global_outcome =
      core::combine_outcomes(std::span(result.provider_outcomes));
  return result;
}

TcpProviderResult run_tcp_provider(const core::DistributedAuctioneer& auctioneer,
                                   const auction::AuctionInstance& instance,
                                   NodeId node, const TcpNodeConfig& config) {
  TcpProvider provider(auctioneer, instance, node, config);
  if (provider.error().empty()) return provider.serve();
  return TcpProviderResult{.error = provider.error()};
}

TcpClientResult run_tcp_client(const auction::AuctionInstance& instance,
                               std::size_t providers,
                               const TcpNodeConfig& config) {
  TcpClientResult result;
  const std::size_t m = providers;
  const NodeId client = static_cast<NodeId>(m);
  const net::Topic bids_topic(detail::kBidsTopic);
  const net::Topic result_topic(detail::kResultTopic);
  const net::Topic shutdown_topic(kShutdownTopic);

  net::TcpPeers peers;
  peers.base_port = config.base_port;
  net::TcpNode tcp(client, peers);
  const auto deadline = std::chrono::steady_clock::now() + config.timeout;

  // Submit the batch; keep trying per provider until its listener is up.
  // One shared buffer: every provider gets the same submissions.
  const SharedBytes bid_payload(detail::encode_submissions(instance.bids));
  std::vector<bool> submitted(m, false);
  std::size_t submissions = 0;
  while (submissions < m && std::chrono::steady_clock::now() < deadline) {
    for (NodeId j = 0; j < static_cast<NodeId>(m); ++j) {
      if (!submitted[j] && tcp.send(net::Message{client, j, bids_topic, bid_payload})) {
        submitted[j] = true;
        ++submissions;
      }
    }
    if (submissions < m) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (submissions < m) {
    result.timed_out = true;
    result.error = "bid submission timed out";
    tcp.shutdown();
    return result;
  }

  // Await one frame per provider: provider 0's full report and the other
  // providers' digests of it.
  detail::ResultReports reports(m, detail::designated_reporter(0, m));
  while (!reports.complete()) {
    auto msg = tcp.inbox().pop_for(ms_until(deadline));
    if (!msg) {
      result.timed_out = true;
      result.error = "awaited " + std::to_string(m) + " reports, got " +
                     std::to_string(reports.received());
      break;
    }
    if (msg->topic == result_topic) reports.accept(msg->from, msg->payload.view());
  }
  result.wall_time = std::chrono::steady_clock::now() - (deadline - config.timeout);
  if (reports.complete()) {
    const ReportVerdict verdict = reports.verdict();
    result.ok = verdict == ReportVerdict::kAgreed;
    result.result_digest = crypto::digest_hex(reports.report_digest());
    if (verdict == ReportVerdict::kDivergent) {
      result.error = "divergent result reports";
    } else if (verdict == ReportVerdict::kBottom) {
      result.error = "a provider reported ⊥";
    }
  }

  // The run is over either way: release every provider, each over a fresh
  // connection — a write into a restarted provider's stale socket still
  // succeeds locally, so the send's own retry would never fire.
  for (NodeId j = 0; j < static_cast<NodeId>(m); ++j) {
    tcp.reset_peer(j);
    tcp.send(net::Message{client, j, shutdown_topic, SharedBytes(Bytes{})});
  }
  tcp.shutdown();
  return result;
}

}  // namespace dauct::runtime
