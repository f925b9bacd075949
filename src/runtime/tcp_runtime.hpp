// TCP runtime: the distributed auctioneer over real loopback sockets. Every
// provider runs on the simulator's NodeStack (runtime/node_stack.hpp): a
// timerless ReliableLink over a TcpEndpoint and, given a WAL directory, the
// same journaling, identity gate, replay and rejoin sweep.
//
//  * run_tcp_provider() / run_tcp_client() — ONE node per PROCESS: the real
//    kill-and-restart deployment. Every process derives the shared plan
//    (instance, ports, per-node endpoint seeds) from the same --seed. A
//    killed and restarted provider replays its log, broadcasts the rejoin
//    sweep (net/reliable.hpp), and completes with the fault-free result.
//    Sequence: docs/DURABILITY.md; script: tools/kill_restart_smoke.sh.
//  * TcpRuntime::run_distributed() — the same cluster in one process: m
//    provider threads plus the client on the caller's thread, every
//    listener bound before the client submits.
#pragma once

#include <chrono>

#include "core/distributed_auctioneer.hpp"
#include "net/reliable.hpp"
#include "net/tcp_transport.hpp"
#include "store/wal.hpp"

namespace dauct::runtime {

/// Shared knobs of a TCP run. All processes of a run must agree on `seed`
/// and `base_port` (node j listens on base_port + j; the client on
/// base_port + m).
struct TcpNodeConfig {
  std::uint64_t seed = 1;
  std::uint16_t base_port = 0;  ///< one-node processes: required; in-process: 0 picks
  std::chrono::milliseconds timeout{20'000};
  std::string wal_dir;           ///< non-empty: journal to DIR/provider-J.wal
  std::size_t snapshot_every = 8;  ///< WAL checkpoint cadence (0 = never)
  /// Fault hook: _exit(137) right after the Nth WAL message record commits —
  /// a real kill mid-epoch, state durable, memory gone. 0 = never. It ends
  /// the whole process, so it is meant for one-node processes.
  std::uint64_t crash_after = 0;
};

struct TcpRunResult {
  std::vector<auction::AuctionOutcome> provider_outcomes;
  auction::AuctionOutcome global_outcome{Bottom{}};
  std::chrono::nanoseconds wall_time{0};
  bool timed_out = false;
  std::uint16_t base_port = 0;  ///< ports actually used
  std::string result_digest;    ///< the client's TcpClientResult::result_digest
};

class TcpRuntime {
 public:
  explicit TcpRuntime(TcpNodeConfig config) : config_(std::move(config)) {}

  /// A refused WAL fails every provider with its reason before any traffic.
  TcpRunResult run_distributed(const core::DistributedAuctioneer& auctioneer,
                               const auction::AuctionInstance& instance);

 private:
  TcpNodeConfig config_;
};

struct TcpProviderResult {
  auction::AuctionOutcome outcome{Bottom{}};
  bool timed_out = false;
  /// Set iff the process refused to run (e.g. the WAL belongs to a different
  /// run or node — the foreign-state gate); nothing was bound or sent.
  std::string error;
  bool recovered = false;  ///< an existing WAL was replayed on startup
  store::WalStats wal_stats{};
  net::ReliabilityStats reliability_stats{};
};

/// Run provider `node` to completion (or timeout) in this process. With a
/// WAL directory, an existing log is verified against this run's identity
/// (refused via `error` on mismatch), replayed, and closed with a rejoin
/// sweep before live traffic is processed.
TcpProviderResult run_tcp_provider(const core::DistributedAuctioneer& auctioneer,
                                   const auction::AuctionInstance& instance,
                                   NodeId node, const TcpNodeConfig& config);

struct TcpClientResult {
  bool ok = false;  ///< every digest matched provider 0's ok full report
  bool timed_out = false;
  std::string result_digest;  ///< sha256 hex of provider 0's full result report
  std::string error;          ///< divergent / ⊥ reports
  std::chrono::nanoseconds wall_time{0};  ///< first submission to last report
};

/// Run the client in this process: submit the bid batch to every provider,
/// await all m result frames (provider 0's full report, the others' digests
/// of it), check they agree, then send every provider the shutdown over a
/// fresh connection.
TcpClientResult run_tcp_client(const auction::AuctionInstance& instance,
                               std::size_t providers,
                               const TcpNodeConfig& config);

}  // namespace dauct::runtime
