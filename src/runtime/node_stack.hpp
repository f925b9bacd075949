// One provider's stack below the protocol engine, shared by the simulated
// service plane (runtime/service_runtime.cpp) and the TCP providers
// (runtime/tcp_runtime.cpp). The chain, outermost (engine-facing) first:
//
//   [SignerEndpoint →] [AuthTamperEndpoint →] [ReliableLink →] base endpoint
//
// plus the MessageValidator on the deliver path; only the base endpoint
// (SimEndpoint, TcpEndpoint) differs per runtime. The wire adversary injects
// *after* signing (it holds no key, so its frames cannot verify). The stack
// also owns the node's write-ahead log (store/wal.hpp). Instances, routing
// and engines stay in the runtimes. Counters survive build(), so a rebuilt
// node's totals include its dead incarnations.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adversary/auth_adversary.hpp"
#include "auction/types.hpp"
#include "crypto/sha256.hpp"
#include "net/auth.hpp"
#include "net/reliable.hpp"
#include "store/wal.hpp"

namespace dauct::runtime {

class NodeStack {
 public:
  /// Which layers sit above the base endpoint.
  struct Layers {
    net::ReliabilityConfig reliability;       ///< enable = false: no link
    net::ReliableLink::GiveUpFn on_give_up{};  ///< installed on every link built
    std::shared_ptr<const net::KeyDirectory> keys{};  ///< null: no signer, no validator
    net::AuthConfig auth{};
    std::uint64_t validator_seed = 0;
    adversary::AuthTamperMode tamper = adversary::AuthTamperMode::kNone;
    net::AuthStats* auth_stats = nullptr;     ///< borrowed; may be null
  };
  using BaseFactory = std::function<std::unique_ptr<blocks::Endpoint>()>;

  NodeStack(NodeId self, BaseFactory make_base, Layers layers)
      : self_(self), make_base_(std::move(make_base)), layers_(std::move(layers)) {}

  /// (Re)build the chain over a fresh base endpoint. Whatever the runtime
  /// stacked on top() must be gone. Each build's link gets the next epoch.
  void build();
  blocks::Endpoint& top() { return *top_; }
  net::MessageValidator* validator() { return validator_.get(); }

  /// Attach the log. An empty one is a first start: the meta record is
  /// written. Otherwise it must pass the identity gate and awaits replay().
  /// Returns why the log was refused; empty when accepted.
  std::string open_wal(std::shared_ptr<store::Storage> storage,
                       store::WalMeta expected, std::size_t snapshot_every);
  /// Reopen the attached log after an amnesia crash. Unlike open_wal, an
  /// empty log is refused: this run wrote its meta record.
  std::string reopen_wal();
  /// An accepted recovery awaits replay().
  bool recovering() const { return recovering_; }

  /// Re-feed the recovered log: each message restores its dedup key, then
  /// goes to `route`; each snapshot is checked against `state()` flags.
  /// Ends with the rejoin sweep. Decisions are not re-journaled meanwhile.
  void replay(const std::function<void(const net::Message&)>& route,
              const std::function<store::Snapshot()>& state);

  /// One wire delivery: the link consumes control frames and duplicates and
  /// strips its header; the rest is journaled, then routed. A route that
  /// returns true dispatched it, and a snapshot of `state()` may follow.
  /// Acks the handler's output did not carry leave when it returns.
  template <class Route, class State>
  void deliver(const net::Message& raw, Route&& route, State&& state) {
    if (!link_) return journal_and_route(raw, route, state);
    net::Message unwrapped = raw;  // payload is refcounted, not copied
    if (link_->on_deliver(unwrapped)) journal_and_route(unwrapped, route, state);
    link_->flush_acks();
  }

  /// The validator step, run once the runtime knows the message's engine (an
  /// abort lands on that engine alone). Replay comes through here too.
  template <class Dispatch, class Abort>
  void verify(const net::Message& in, Dispatch&& dispatch, Abort&& abort) {
    if (!validator_) {
      dispatch(in);
      return;
    }
    net::Message verified = in;
    const auto action = validator_->on_deliver(verified);
    if (action == net::MessageValidator::Action::kDeliver) dispatch(verified);
    if (action == net::MessageValidator::Action::kAbort) abort(validator_abort());
  }

  /// Flush batch verification; the abort it forces, if any.
  std::optional<Bottom> finalize();

  // Decision records: no-ops without a log, and while replaying.
  void journal_started(const SharedBytes& bids_payload);
  void journal_bids_agreed(const std::vector<auction::Bid>& bids);
  /// `report_digest` is the sha256 of the full result report (every
  /// provider computes it, whichever frame it sends the client).
  void journal_outcome(bool ok, const crypto::Digest& report_digest);

  /// Message records in the log, replayed ones included.
  std::uint64_t delivered() const { return delivered_; }
  net::ReliabilityStats reliability_stats() const;
  store::WalStats wal_stats() const;

 private:
  template <class Route, class State>
  void journal_and_route(const net::Message& msg, Route& route, State& state) {
    if (wal_) journal_message(msg);  // durable before the engine sees it
    if (route(msg) && wal_ && snapshot_every_ != 0 &&
        delivered_ % snapshot_every_ == 0) {
      append_snapshot(state());
    }
  }
  std::string gate(store::WalScan scan);
  void journal_message(const net::Message& msg);
  void journal_decision(store::DecisionKind kind, bool ok,
                        const crypto::Digest& digest);
  void append_snapshot(store::Snapshot s);
  Bottom validator_abort() const;

  NodeId self_;
  BaseFactory make_base_;
  Layers layers_;

  // Innermost first, so the default destructor runs wire-facing-last.
  std::unique_ptr<blocks::Endpoint> endpoint_;
  std::unique_ptr<net::ReliableLink> link_;
  std::unique_ptr<adversary::AuthTamperEndpoint> tamperer_;
  std::unique_ptr<net::SignerEndpoint> signer_;
  std::unique_ptr<net::MessageValidator> validator_;
  blocks::Endpoint* top_ = nullptr;
  std::uint64_t builds_ = 0;  ///< the next link's epoch

  std::shared_ptr<store::Storage> storage_;
  store::WalMeta expected_;
  std::size_t snapshot_every_ = 0;
  std::unique_ptr<store::Wal> wal_;
  std::vector<store::WalRecord> recovered_;  ///< past the meta record
  std::uint64_t delivered_ = 0;
  bool recovering_ = false, replaying_ = false;
  // Counters of links and logs a rebuild destroyed.
  net::ReliabilityStats link_stats_acc_;
  store::WalStats wal_stats_acc_;
};

}  // namespace dauct::runtime
