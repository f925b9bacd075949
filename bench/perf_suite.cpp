// perf_suite: the repo's performance trajectory in one binary.
//
// Runs solver / serde / crypto / end-to-end-sim microbenches and emits
// BENCH_dauct.json (op, n, ns/op, throughput, plus a "speedups" section) so
// every PR has a baseline to compare against. Benchmarks come in *_ref /
// *_opt pairs where a pre-optimization implementation is retained:
//
//   exact_solver          ReferenceExactSolver vs ExactSolver (memoized
//                         fractional bound, incremental capacity pool,
//                         provider symmetry breaking)
//   scaled_dp             ReferenceScaledDpSolver vs ScaledDpSolver
//                         (trial-scoped buffer reuse, provider-permutation
//                         trial memoization, branch-free SIMD knapsack row)
//   payload_encode_hash   seed-style encode (nested temporary buffers,
//                         body→frame copy, scalar SHA-256) vs the optimized
//                         path (exact-size single-buffer encode, hardware-
//                         dispatched SHA-256, cached message digest)
//   ed25519_{keygen,sign,verify,verify_batch}
//                         ed25519_ref (radix-2^16 field, CT ladder, 4-bit
//                         windows) vs ed25519 (radix-2^51 field, CT fixed-
//                         base comb, Straus multi-scalar verification)
//
// The *_ref and *_opt implementations are proven to produce bit-identical
// outputs by tests/welfare_equivalence_test.cpp, tests/serde_test.cpp and
// tests/ed25519_equivalence_test.cpp, so the speedups below are like-for-like.
//
// Usage: perf_suite [--min-time-ms=N] [--json=PATH] [--filter=SUBSTR]
// (JSON defaults to ./BENCH_dauct.json)
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>

#include "auction/welfare.hpp"
#include "blocks/block.hpp"
#include "auction/welfare_reference.hpp"
#include "auction/workload.hpp"
#include "core/adapters.hpp"
#include "core/centralized_auctioneer.hpp"
#include "core/distributed_auctioneer.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/ed25519_reference.hpp"
#include "crypto/rng.hpp"
#include "crypto/sha256.hpp"
#include "core/service_plane.hpp"
#include "net/auth.hpp"
#include "net/message.hpp"
#include "runtime/service_runtime.hpp"
#include "runtime/sim_runtime.hpp"
#include "serde/auction_codec.hpp"
#include "serde/codec.hpp"
#include "store/wal.hpp"
#include "tinybench.hpp"

namespace {

using namespace dauct;
using tinybench::DoNotOptimize;
using tinybench::State;

auction::AuctionInstance make_instance(std::size_t users, std::size_t providers,
                                       std::uint64_t seed) {
  crypto::Rng rng(seed);
  return auction::generate(auction::standard_auction_workload(users, providers), rng);
}

// ---------------------------------------------------------------------------
// Welfare solvers: reference vs optimized (identical outputs, see header).
// ---------------------------------------------------------------------------

void BM_exact_solver_ref(State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)), 4, 7);
  const auction::reference::ReferenceExactSolver solver;
  for (auto _ : state) DoNotOptimize(solver.solve_all(inst, 0));
}
TINYBENCH(BM_exact_solver_ref)->Arg(24);

void BM_exact_solver_opt(State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)), 4, 7);
  const auction::ExactSolver solver;
  for (auto _ : state) DoNotOptimize(solver.solve_all(inst, 0));
}
TINYBENCH(BM_exact_solver_opt)->Arg(24);

// Args: users / providers / ε in thousandths. 50/8/60 is the fig5_vcg shape
// (dauct_bench), whose solves are almost all of that workload's wall time.
auction::AuctionInstance scaled_dp_instance(const State& state) {
  return make_instance(static_cast<std::size_t>(state.range(0)),
                       static_cast<std::size_t>(state.range(1)), 11);
}

double scaled_dp_epsilon(const State& state) {
  return static_cast<double>(state.range(2)) / 1000.0;
}

void BM_scaled_dp_ref(State& state) {
  const auto inst = scaled_dp_instance(state);
  const auction::reference::ReferenceScaledDpSolver solver(scaled_dp_epsilon(state));
  for (auto _ : state) DoNotOptimize(solver.solve_all(inst, 42));
}
TINYBENCH(BM_scaled_dp_ref)->Args({32, 5, 100})->Args({50, 8, 60});

void BM_scaled_dp_opt(State& state) {
  const auto inst = scaled_dp_instance(state);
  const auction::ScaledDpSolver solver(scaled_dp_epsilon(state));
  for (auto _ : state) DoNotOptimize(solver.solve_all(inst, 42));
}
TINYBENCH(BM_scaled_dp_opt)->Args({32, 5, 100})->Args({50, 8, 60});

// ---------------------------------------------------------------------------
// Payload encode + hash round trip: the per-message cost of producing a
// cross-validatable allocator payload (encode instance, digest it, frame it).
// The _ref variant replicates the seed tree: nested temporary buffers with
// no reservation, a separate body writer copied into the frame, and the
// portable scalar SHA-256.
// ---------------------------------------------------------------------------

Bytes ref_encode_bid_vector(const std::vector<auction::Bid>& bids) {
  serde::Writer w;
  w.varint(bids.size());
  for (const auto& b : bids) serde::write_bid(w, b);
  return w.take();
}

Bytes ref_encode_ask_vector(const std::vector<auction::Ask>& asks) {
  serde::Writer w;
  w.varint(asks.size());
  for (const auto& a : asks) {
    w.u32(a.provider);
    w.money(a.unit_cost);
    w.money(a.capacity);
  }
  return w.take();
}

Bytes ref_encode_instance(const auction::AuctionInstance& instance) {
  serde::Writer w;
  w.bytes(ref_encode_bid_vector(instance.bids));
  w.bytes(ref_encode_ask_vector(instance.asks));
  return w.take();
}

Bytes ref_encode_frame(const net::Message& msg) {
  serde::Writer body;
  body.u32(msg.from);
  body.u32(msg.to);
  body.str(msg.topic.str());
  body.bytes(msg.payload.view());

  serde::Writer frame;
  frame.u32(static_cast<std::uint32_t>(body.buffer().size()));
  frame.raw(body.buffer());
  return frame.take();
}

void BM_payload_encode_hash_ref(State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)), 8, 13);
  std::int64_t bytes = 0;
  for (auto _ : state) {
    net::Message msg;
    msg.from = 1;
    msg.to = 2;
    msg.topic = "alloc/iv/digest";
    msg.payload = ref_encode_instance(inst);
    DoNotOptimize(crypto::sha256_portable(msg.payload.view()));
    const Bytes frame = ref_encode_frame(msg);
    bytes += static_cast<std::int64_t>(frame.size());
    DoNotOptimize(frame);
  }
  state.SetBytesProcessed(bytes);
}
TINYBENCH(BM_payload_encode_hash_ref)->Arg(100)->Arg(1000);

void BM_payload_encode_hash_opt(State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)), 8, 13);
  std::int64_t bytes = 0;
  for (auto _ : state) {
    net::Message msg;
    msg.from = 1;
    msg.to = 2;
    msg.topic = "alloc/iv/digest";
    msg.set_payload(serde::encode_instance(inst));
    DoNotOptimize(msg.payload_digest());
    const Bytes frame = net::encode_frame(msg);
    bytes += static_cast<std::int64_t>(frame.size());
    DoNotOptimize(frame);
  }
  state.SetBytesProcessed(bytes);
}
TINYBENCH(BM_payload_encode_hash_opt)->Arg(100)->Arg(1000);

// ---------------------------------------------------------------------------
// Broadcast fan-out: the per-recipient cost of one m-way broadcast, including
// the digest every cross-validating recipient needs. The _ref variant
// replicates the seed messaging spine: a deep copy of the topic string and
// payload per recipient, each boxed into a heap-allocated std::function event
// (the seed scheduler's closure-per-message), and a per-recipient SHA-256
// (the seed digest cache died on copy). The _opt variant is the production
// path: Endpoint::broadcast aliases one SharedBytes + interned Topic into
// plain message structs, and the shared digest slot hashes once per
// broadcast. Equivalence: tests/fanout_test.cpp proves delivered bytes and
// digests are identical.
// ---------------------------------------------------------------------------

/// Seed-shaped message: owning topic string + owning payload.
struct RefMessage {
  NodeId from = 0, to = 0;
  std::string topic;
  Bytes payload;
};

/// Minimal endpoint delivering into a vector (the mailbox/event-queue model).
class FanoutEndpoint final : public blocks::Endpoint {
 public:
  FanoutEndpoint(NodeId self, std::size_t m) : self_(self), m_(m), rng_(1) {}
  NodeId self() const override { return self_; }
  std::size_t num_providers() const override { return m_; }
  crypto::Rng& rng() override { return rng_; }
  void send(NodeId to, const net::Topic& topic, SharedBytes payload) override {
    delivered.push_back(net::Message{self_, to, topic, std::move(payload)});
  }
  std::vector<net::Message> delivered;

 private:
  NodeId self_;
  std::size_t m_;
  crypto::Rng rng_;
};

Bytes make_vote_payload() {
  // A realistic value-batched vote: the encoded 100-bid instance (~3 KB).
  return serde::encode_instance(make_instance(100, 8, 21));
}

void BM_broadcast_fanout_ref(State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  const std::string topic = "ba/vb/v";
  const Bytes payload = make_vote_payload();
  std::int64_t bytes = 0;
  for (auto _ : state) {
    // Send: one closure-boxed event per recipient, deep-copying topic+payload.
    std::vector<std::function<void()>> events;
    events.reserve(m);
    std::size_t digests = 0;
    for (NodeId j = 0; j < m; ++j) {
      RefMessage msg{0, j, topic, payload};  // the seed per-recipient copies
      events.push_back([msg = std::move(msg), &digests]() mutable {
        // Deliver: every recipient hashes its own copy (cache died on copy).
        DoNotOptimize(crypto::sha256(BytesView(msg.payload)));
        ++digests;
      });
    }
    for (auto& ev : events) ev();
    bytes += static_cast<std::int64_t>(m * payload.size());
    DoNotOptimize(digests);
  }
  state.SetBytesProcessed(bytes);
}
TINYBENCH(BM_broadcast_fanout_ref)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_broadcast_fanout_opt(State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  const net::Topic topic("ba/vb/v");
  const Bytes payload_bytes = make_vote_payload();
  std::int64_t bytes = 0;
  for (auto _ : state) {
    FanoutEndpoint ep(0, m);
    // Send: one shared buffer, m refcount bumps into plain message structs.
    ep.broadcast(topic, SharedBytes(Bytes(payload_bytes)));
    // Deliver: every recipient asks for the digest; the shared slot computes
    // it once per broadcast.
    std::size_t digests = 0;
    for (const net::Message& msg : ep.delivered) {
      DoNotOptimize(msg.payload_digest());
      ++digests;
    }
    bytes += static_cast<std::int64_t>(m * payload_bytes.size());
    DoNotOptimize(digests);
  }
  state.SetBytesProcessed(bytes);
}
TINYBENCH(BM_broadcast_fanout_opt)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

// ---------------------------------------------------------------------------
// Supporting trajectory points (no retained reference): raw SHA-256
// throughput, frame round trip, and a full end-to-end simulated distributed
// auction (the number the paper's figures are made of).
// ---------------------------------------------------------------------------

void BM_sha256(State& state) {
  Bytes data(static_cast<std::size_t>(state.range(0)), 0x5a);
  for (auto _ : state) DoNotOptimize(crypto::sha256(BytesView(data)));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
TINYBENCH(BM_sha256)->Arg(1024)->Arg(65536);

void BM_frame_roundtrip(State& state) {
  net::Message msg{1, 2, "alloc/dt/3/val",
                   Bytes(static_cast<std::size_t>(state.range(0)), 0x11)};
  for (auto _ : state) {
    const Bytes frame = net::encode_frame(msg);
    DoNotOptimize(net::decode_frame(BytesView(frame)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
TINYBENCH(BM_frame_roundtrip)->Arg(4096);

// End-to-end scenario sweeps: args are {n users, m providers}, k is the
// largest coalition the provider count supports (k = ⌈m/2⌉ − 1, m > 2k).
// The sweep covers the scale band the fan-out work targets — n = 12…512
// bidders, m = 3…16 providers — for both deployment shapes (the paper's
// distributed protocol and the trusted-auctioneer baseline). The workload is
// the paper's Fig-4 double auction: its O(n log n) trade reduction keeps the
// runs messaging/serde-dominated, so these points track the fan-out spine,
// not the welfare solvers (those have their own benches above).
auction::AuctionInstance make_double_instance(std::size_t users, std::size_t m,
                                              std::uint64_t seed) {
  crypto::Rng rng(seed);
  return auction::generate(auction::double_auction_workload(users, m), rng);
}

void BM_e2e_sim_distributed(State& state) {
  const std::size_t users = static_cast<std::size_t>(state.range(0));
  const std::size_t m = static_cast<std::size_t>(state.range(1));
  auto adapter = std::make_shared<core::DoubleAuctionAdapter>();
  core::AuctioneerSpec spec;
  spec.m = m;
  spec.k = (m + 1) / 2 - 1;
  spec.num_bidders = users;
  const core::DistributedAuctioneer auctioneer(spec, adapter);
  const auto inst = make_double_instance(users, m, 5);
  for (auto _ : state) {
    runtime::SimRunConfig cfg;
    cfg.seed = 99;
    const auto run = runtime::SimRuntime(cfg).run_distributed(auctioneer, inst);
    DoNotOptimize(run.global_outcome.ok());
  }
}
TINYBENCH(BM_e2e_sim_distributed)
    ->Args({12, 3})
    ->Args({48, 4})
    ->Args({128, 8})
    ->Args({256, 12})
    ->Args({512, 16});

void BM_e2e_sim_centralized(State& state) {
  const std::size_t users = static_cast<std::size_t>(state.range(0));
  const std::size_t m = static_cast<std::size_t>(state.range(1));
  auto adapter = std::make_shared<core::DoubleAuctionAdapter>();
  const core::CentralizedAuctioneer auctioneer(adapter);
  const auto inst = make_double_instance(users, m, 5);
  for (auto _ : state) {
    runtime::SimRunConfig cfg;
    cfg.seed = 99;
    const auto run = runtime::SimRuntime(cfg).run_centralized(auctioneer, inst);
    DoNotOptimize(run.global_outcome.ok());
  }
}
TINYBENCH(BM_e2e_sim_centralized)
    ->Args({12, 3})
    ->Args({48, 4})
    ->Args({128, 8})
    ->Args({256, 12})
    ->Args({512, 16});

// Faulty end-to-end sweeps: the same double-auction runs with a fault plan
// installed, tracking what the fault-injection subsystem costs when it is
// actually working. (Its cost when *idle* is pinned by BM_e2e_sim_distributed
// staying flat vs the committed baseline: no plan = one null test per
// message.) Two regimes:
//  * _delay — every message matched, delayed, and jittered; the protocol
//    still completes, so this is the per-message fault-path overhead plus
//    the longer virtual timeline at full traffic volume;
//  * _lossy — 2% stochastic loss; rounds starve and the run stalls to ⊥,
//    measuring the drop path and the truncated-run drain.
void BM_e2e_faulty_delay(State& state) {
  const std::size_t users = static_cast<std::size_t>(state.range(0));
  const std::size_t m = static_cast<std::size_t>(state.range(1));
  auto adapter = std::make_shared<core::DoubleAuctionAdapter>();
  core::AuctioneerSpec spec;
  spec.m = m;
  spec.k = (m + 1) / 2 - 1;
  spec.num_bidders = users;
  const core::DistributedAuctioneer auctioneer(spec, adapter);
  const auto inst = make_double_instance(users, m, 5);
  sim::FaultPlan plan;
  plan.seed = 7;
  sim::LinkFault rule;
  rule.extra_delay = sim::from_millis(2);
  rule.jitter = sim::from_millis(1);
  plan.links.push_back(rule);
  for (auto _ : state) {
    runtime::SimRunConfig cfg;
    cfg.seed = 99;
    cfg.faults = plan;
    const auto run = runtime::SimRuntime(cfg).run_distributed(auctioneer, inst);
    DoNotOptimize(run.global_outcome.ok());
  }
}
TINYBENCH(BM_e2e_faulty_delay)->Args({48, 4})->Args({128, 8});

void BM_e2e_faulty_lossy(State& state) {
  const std::size_t users = static_cast<std::size_t>(state.range(0));
  const std::size_t m = static_cast<std::size_t>(state.range(1));
  auto adapter = std::make_shared<core::DoubleAuctionAdapter>();
  core::AuctioneerSpec spec;
  spec.m = m;
  spec.k = (m + 1) / 2 - 1;
  spec.num_bidders = users;
  const core::DistributedAuctioneer auctioneer(spec, adapter);
  const auto inst = make_double_instance(users, m, 5);
  sim::FaultPlan plan;
  plan.seed = 7;
  sim::LinkFault rule;
  rule.drop = 0.02;
  rule.active_from = sim::from_millis(4);  // let the client batches land
  plan.links.push_back(rule);
  for (auto _ : state) {
    runtime::SimRunConfig cfg;
    cfg.seed = 99;
    cfg.faults = plan;
    const auto run = runtime::SimRuntime(cfg).run_distributed(auctioneer, inst);
    DoNotOptimize(run.stalled);
  }
}
TINYBENCH(BM_e2e_faulty_lossy)->Args({48, 4})->Args({128, 8});

// Reliability-layer end-to-end sweeps (net/reliable.hpp). Its cost when
// *disabled* is pinned by BM_e2e_sim_distributed staying flat vs the
// committed baseline — no link is constructed, no timer is ever scheduled.
// Two active regimes:
//  * _clean — reliability on over a fault-free network: pure ack/tracking
//    overhead (one ack per data message, one no-op timer per tracked send);
//  * _lossy — the same 2% loss plan as BM_e2e_faulty_lossy, which *stalled*
//    without the layer; with it the run completes, so this measures the full
//    recovery path (retransmit timers, dedup, re-acks) at full protocol
//    volume, and is directly comparable against the faulty_lossy point.
void BM_e2e_reliable_clean(State& state) {
  const std::size_t users = static_cast<std::size_t>(state.range(0));
  const std::size_t m = static_cast<std::size_t>(state.range(1));
  auto adapter = std::make_shared<core::DoubleAuctionAdapter>();
  core::AuctioneerSpec spec;
  spec.m = m;
  spec.k = (m + 1) / 2 - 1;
  spec.num_bidders = users;
  const core::DistributedAuctioneer auctioneer(spec, adapter);
  const auto inst = make_double_instance(users, m, 5);
  for (auto _ : state) {
    runtime::SimRunConfig cfg;
    cfg.seed = 99;
    cfg.reliability.enable = true;
    const auto run = runtime::SimRuntime(cfg).run_distributed(auctioneer, inst);
    DoNotOptimize(run.global_outcome.ok());
  }
}
TINYBENCH(BM_e2e_reliable_clean)->Args({48, 4})->Args({128, 8});

void BM_e2e_reliable_lossy(State& state) {
  const std::size_t users = static_cast<std::size_t>(state.range(0));
  const std::size_t m = static_cast<std::size_t>(state.range(1));
  auto adapter = std::make_shared<core::DoubleAuctionAdapter>();
  core::AuctioneerSpec spec;
  spec.m = m;
  spec.k = (m + 1) / 2 - 1;
  spec.num_bidders = users;
  const core::DistributedAuctioneer auctioneer(spec, adapter);
  const auto inst = make_double_instance(users, m, 5);
  sim::FaultPlan plan;
  plan.seed = 7;
  sim::LinkFault rule;
  rule.drop = 0.02;
  rule.active_from = sim::from_millis(4);  // let the client batches land
  plan.links.push_back(rule);
  for (auto _ : state) {
    runtime::SimRunConfig cfg;
    cfg.seed = 99;
    cfg.faults = plan;
    cfg.reliability.enable = true;
    const auto run = runtime::SimRuntime(cfg).run_distributed(auctioneer, inst);
    DoNotOptimize(run.global_outcome.ok());
  }
}
TINYBENCH(BM_e2e_reliable_lossy)->Args({48, 4})->Args({128, 8});

// Signing-layer points (net/auth.hpp + crypto/ed25519.hpp). The per-message
// cost is one ed25519 sign at the sender and one verify at each receiver,
// both over the 32-byte transcript digest — payload size only enters through
// the SHA-256 transcript hash, so the sweep below fixes the payload and
// varies the batch width m instead. BM_auth_verify_single vs
// BM_auth_verify_batch is the number the validator's batch mode exists for:
// small-exponent batch verification amortizes the doubling ladder across a
// round's m signatures, and the ratio at m = {4, 8, 16} is the round-latency
// saving batch mode buys over eager per-frame verification.
void BM_auth_sign_verify(State& state) {
  const net::KeyDirectory keys(4, 42);
  Bytes payload(256, 0x5a);
  std::uint32_t n = 0;
  for (auto _ : state) {
    payload[0] = static_cast<std::uint8_t>(++n);  // fresh transcript each op
    const crypto::Digest t =
        net::auth_transcript(1, "ba/vb/v", BytesView(payload));
    const auto sig = crypto::ed25519::sign(keys.pair(1), BytesView(t));
    DoNotOptimize(crypto::ed25519::verify(keys.public_key(1), BytesView(t), sig));
  }
}
TINYBENCH(BM_auth_sign_verify);

/// One provider round's worth of signed transcripts: m distinct senders,
/// each signing its own transcript with its own key (the shape flush_batch
/// sees — `m` is state.range(0) at the call sites below).
struct SignedRound {
  const net::KeyDirectory keys;
  std::vector<crypto::Digest> transcripts;
  std::vector<crypto::ed25519::Signature> sigs;

  explicit SignedRound(std::size_t m) : keys(m, 42) {
    for (std::size_t s = 0; s < m; ++s) {
      Bytes payload(256, static_cast<std::uint8_t>(s));
      transcripts.push_back(net::auth_transcript(static_cast<NodeId>(s),
                                                 "ba/vb/v", BytesView(payload)));
      sigs.push_back(
          crypto::ed25519::sign(keys.pair(static_cast<NodeId>(s)),
                                BytesView(transcripts.back())));
    }
  }
};

void BM_auth_verify_single(State& state) {
  const SignedRound round(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    bool ok = true;
    for (std::size_t s = 0; s < round.sigs.size(); ++s) {
      ok = ok && crypto::ed25519::verify(
                     round.keys.public_key(static_cast<NodeId>(s)),
                     BytesView(round.transcripts[s]), round.sigs[s]);
    }
    DoNotOptimize(ok);
  }
}
TINYBENCH(BM_auth_verify_single)->Arg(4)->Arg(8)->Arg(16);

void BM_auth_verify_batch(State& state) {
  const SignedRound round(static_cast<std::size_t>(state.range(0)));
  std::vector<crypto::ed25519::BatchItem> items;
  for (std::size_t s = 0; s < round.sigs.size(); ++s) {
    items.push_back({&round.keys.public_key(static_cast<NodeId>(s)),
                     BytesView(round.transcripts[s]), &round.sigs[s]});
  }
  crypto::Rng rng(99);
  for (auto _ : state) {
    DoNotOptimize(crypto::ed25519::verify_batch(items, rng));
  }
}
TINYBENCH(BM_auth_verify_batch)->Arg(4)->Arg(8)->Arg(16);

// ed25519 primitives, reference vs optimized: the retained TweetNaCl-style
// code (crypto/ed25519_reference.hpp: radix-2^16 field, constant-time
// ladder, 4-bit windows) against the production code (radix-2^51 field,
// constant-time fixed-base comb, Straus multi-scalar verification).
// tests/ed25519_equivalence_test.cpp pins them to identical keys,
// signatures, verdicts and Rng consumption. Each op gets a fresh seed or
// message, so no result can be hoisted out of the loop.
template <auto Keygen>
void bm_ed25519_keygen(State& state) {
  crypto::ed25519::Seed seed{};
  std::uint32_t n = 0;
  for (auto _ : state) {
    ++n;
    std::memcpy(seed.data(), &n, sizeof(n));
    DoNotOptimize(Keygen(seed));
  }
}
void BM_ed25519_keygen_ref(State& s) {
  bm_ed25519_keygen<crypto::ed25519_ref::keypair_from_seed>(s);
}
void BM_ed25519_keygen_opt(State& s) { bm_ed25519_keygen<crypto::ed25519::keypair_from_seed>(s); }
TINYBENCH(BM_ed25519_keygen_ref);
TINYBENCH(BM_ed25519_keygen_opt);

template <auto Sign>
void bm_ed25519_sign(State& state) {
  const net::KeyDirectory keys(1, 42);
  crypto::Digest msg{};
  std::uint32_t n = 0;
  for (auto _ : state) {
    ++n;
    std::memcpy(msg.data(), &n, sizeof(n));
    DoNotOptimize(Sign(keys.pair(0), BytesView(msg)));
  }
}
void BM_ed25519_sign_ref(State& s) { bm_ed25519_sign<crypto::ed25519_ref::sign>(s); }
void BM_ed25519_sign_opt(State& s) { bm_ed25519_sign<crypto::ed25519::sign>(s); }
TINYBENCH(BM_ed25519_sign_ref);
TINYBENCH(BM_ed25519_sign_opt);

template <auto Verify>
void bm_ed25519_verify(State& state) {
  const SignedRound round(16);
  std::size_t s = 0;
  for (auto _ : state) {
    s = (s + 1) % round.sigs.size();
    DoNotOptimize(Verify(round.keys.public_key(static_cast<NodeId>(s)),
                         BytesView(round.transcripts[s]), round.sigs[s]));
  }
}
void BM_ed25519_verify_ref(State& s) { bm_ed25519_verify<crypto::ed25519_ref::verify>(s); }
void BM_ed25519_verify_opt(State& s) { bm_ed25519_verify<crypto::ed25519::verify>(s); }
TINYBENCH(BM_ed25519_verify_ref);
TINYBENCH(BM_ed25519_verify_opt);

/// One batch of `m` signatures per op (divide ns/op by m for per-signature
/// cost); the coefficient Rng advances, so every op draws fresh z_i.
template <auto VerifyBatch>
void bm_ed25519_verify_batch(State& state) {
  const SignedRound round(static_cast<std::size_t>(state.range(0)));
  std::vector<crypto::ed25519::BatchItem> items;
  for (std::size_t s = 0; s < round.sigs.size(); ++s) {
    items.push_back({&round.keys.public_key(static_cast<NodeId>(s)),
                     BytesView(round.transcripts[s]), &round.sigs[s]});
  }
  crypto::Rng rng(99);
  for (auto _ : state) DoNotOptimize(VerifyBatch(items, rng));
}
void BM_ed25519_verify_batch_ref(State& s) {
  bm_ed25519_verify_batch<crypto::ed25519_ref::verify_batch>(s);
}
void BM_ed25519_verify_batch_opt(State& s) {
  bm_ed25519_verify_batch<crypto::ed25519::verify_batch>(s);
}
TINYBENCH(BM_ed25519_verify_batch_ref)->Arg(4)->Arg(16);
TINYBENCH(BM_ed25519_verify_batch_opt)->Arg(4)->Arg(16);

// Auth end-to-end sweeps: the same fault-free runs as BM_e2e_sim_distributed
// with the signing layer on. Its cost when *disabled* is pinned by that base
// point staying flat (auth off constructs nothing). _eager verifies every
// frame on delivery; _batch holds a round's signatures and flushes them
// through verify_batch — the e2e realization of the micro ratio above.
void BM_e2e_auth_eager(State& state) {
  const std::size_t users = static_cast<std::size_t>(state.range(0));
  const std::size_t m = static_cast<std::size_t>(state.range(1));
  auto adapter = std::make_shared<core::DoubleAuctionAdapter>();
  core::AuctioneerSpec spec;
  spec.m = m;
  spec.k = (m + 1) / 2 - 1;
  spec.num_bidders = users;
  const core::DistributedAuctioneer auctioneer(spec, adapter);
  const auto inst = make_double_instance(users, m, 5);
  for (auto _ : state) {
    runtime::SimRunConfig cfg;
    cfg.seed = 99;
    cfg.auth.enable = true;
    const auto run = runtime::SimRuntime(cfg).run_distributed(auctioneer, inst);
    DoNotOptimize(run.global_outcome.ok());
  }
}
TINYBENCH(BM_e2e_auth_eager)->Args({48, 4})->Args({128, 8});

void BM_e2e_auth_batch(State& state) {
  const std::size_t users = static_cast<std::size_t>(state.range(0));
  const std::size_t m = static_cast<std::size_t>(state.range(1));
  auto adapter = std::make_shared<core::DoubleAuctionAdapter>();
  core::AuctioneerSpec spec;
  spec.m = m;
  spec.k = (m + 1) / 2 - 1;
  spec.num_bidders = users;
  const core::DistributedAuctioneer auctioneer(spec, adapter);
  const auto inst = make_double_instance(users, m, 5);
  for (auto _ : state) {
    runtime::SimRunConfig cfg;
    cfg.seed = 99;
    cfg.auth.enable = true;
    cfg.auth.batch_verify = true;
    const auto run = runtime::SimRuntime(cfg).run_distributed(auctioneer, inst);
    DoNotOptimize(run.global_outcome.ok());
  }
}
TINYBENCH(BM_e2e_auth_batch)->Args({48, 4})->Args({128, 8});

// Durability points (store/wal.hpp). BM_wal_append is the micro cost of one
// journaled delivery: CRC-framed append of an n-byte message record plus its
// share of a batch commit (one sync per 8 records, the runtime's default
// snapshot cadence). BM_e2e_durable_clean is the same fault-free run as
// BM_e2e_sim_distributed with the WAL on — the end-to-end price of
// journaling every engine-consumed delivery (its cost when *disabled* is
// pinned by the base point staying flat; byte-equivalence by
// tests/durability_test.cpp). The ratio durable_clean / sim_distributed is
// the durability overhead quoted in ROADMAP.md.
void BM_wal_append(State& state) {
  const std::size_t payload_len = static_cast<std::size_t>(state.range(0));
  const Bytes payload(payload_len, 0xa5);
  auto mem = std::make_shared<store::MemStorage>();
  store::Wal wal(mem);
  wal.open();
  std::size_t since_commit = 0;
  for (auto _ : state) {
    wal.append_message_record(1, "blk/bids", BytesView(payload));
    if (++since_commit == 8) {
      wal.commit();
      since_commit = 0;
      mem->truncate(0);  // keep the buffer bounded across iterations
    }
    DoNotOptimize(wal.stats().records_appended);
  }
}
TINYBENCH(BM_wal_append)->Arg(64)->Arg(1024);

void BM_e2e_durable_clean(State& state) {
  const std::size_t users = static_cast<std::size_t>(state.range(0));
  const std::size_t m = static_cast<std::size_t>(state.range(1));
  auto adapter = std::make_shared<core::DoubleAuctionAdapter>();
  core::AuctioneerSpec spec;
  spec.m = m;
  spec.k = (m + 1) / 2 - 1;
  spec.num_bidders = users;
  const core::DistributedAuctioneer auctioneer(spec, adapter);
  const auto inst = make_double_instance(users, m, 5);
  for (auto _ : state) {
    runtime::SimRunConfig cfg;
    cfg.seed = 99;
    cfg.wal.enable = true;
    const auto run = runtime::SimRuntime(cfg).run_distributed(auctioneer, inst);
    DoNotOptimize(run.global_outcome.ok());
  }
}
TINYBENCH(BM_e2e_durable_clean)->Args({48, 4})->Args({128, 8});

// Solver-inclusive end-to-end point (the PR 2 trajectory number): the
// ε-approximate standard auction through the full distributed protocol.
void BM_e2e_sim_standard(State& state) {
  const std::size_t users = static_cast<std::size_t>(state.range(0));
  const std::size_t m = static_cast<std::size_t>(state.range(1));
  auction::StandardAuctionParams params;
  params.epsilon = 0.25;
  auto adapter = std::make_shared<core::StandardAuctionAdapter>(params);
  core::AuctioneerSpec spec;
  spec.m = m;
  spec.k = (m + 1) / 2 - 1;
  spec.num_bidders = users;
  const core::DistributedAuctioneer auctioneer(spec, adapter);
  const auto inst = make_instance(users, m, 5);
  for (auto _ : state) {
    runtime::SimRunConfig cfg;
    cfg.seed = 99;
    const auto run = runtime::SimRuntime(cfg).run_distributed(auctioneer, inst);
    DoNotOptimize(run.global_outcome.ok());
  }
}
TINYBENCH(BM_e2e_sim_standard)->Args({12, 3})->Args({48, 4});

// Service-plane points (runtime/service_runtime.hpp): a *stream* of N
// auctions multiplexed over one shared transport — the deployment shape the
// service plane exists for. BM_service_throughput runs the six-instance
// stream at pipeline depth 1 vs 2: the virtual-time speedup (depth 2 clears
// ≥ 1.5× more auctions per virtual second, pinned by tests/service_test.cpp)
// is a protocol property; this point tracks the *wall* cost of the
// multiplexing layer itself (topic scoping, demux, per-instance bundles).
// BM_service_p99 is the wall time per 4-instance depth-2 stream across the
// e2e sweep's scale band up to n = 512 bidders / m = 16 providers.
void BM_service_throughput(State& state) {
  const std::size_t users = static_cast<std::size_t>(state.range(0));
  const std::size_t depth = static_cast<std::size_t>(state.range(1));
  constexpr std::size_t kProviders = 4, kInstances = 6;
  auto adapter = std::make_shared<core::DoubleAuctionAdapter>();
  core::AuctioneerSpec spec;
  spec.m = kProviders;
  spec.k = 1;
  spec.num_bidders = users;
  const core::DistributedAuctioneer auctioneer(spec, adapter);
  std::vector<auction::AuctionInstance> workloads;
  for (std::size_t t = 0; t < kInstances; ++t) {
    workloads.push_back(make_double_instance(
        users, kProviders, core::derive_instance_seed(5, t)));
  }
  for (auto _ : state) {
    runtime::ServiceRunConfig svc;
    svc.base.seed = 5;
    svc.instances = kInstances;
    svc.pipeline_depth = depth;
    const auto run = runtime::ServiceRuntime(svc).run(auctioneer, workloads);
    DoNotOptimize(run.auctions_per_vsec());
  }
}
TINYBENCH(BM_service_throughput)->Args({48, 1})->Args({48, 2});

void BM_service_p99(State& state) {
  const std::size_t users = static_cast<std::size_t>(state.range(0));
  const std::size_t m = static_cast<std::size_t>(state.range(1));
  constexpr std::size_t kInstances = 4;
  auto adapter = std::make_shared<core::DoubleAuctionAdapter>();
  core::AuctioneerSpec spec;
  spec.m = m;
  spec.k = (m + 1) / 2 - 1;
  spec.num_bidders = users;
  const core::DistributedAuctioneer auctioneer(spec, adapter);
  std::vector<auction::AuctionInstance> workloads;
  for (std::size_t t = 0; t < kInstances; ++t) {
    workloads.push_back(
        make_double_instance(users, m, core::derive_instance_seed(5, t)));
  }
  for (auto _ : state) {
    runtime::ServiceRunConfig svc;
    svc.base.seed = 99;
    svc.instances = kInstances;
    svc.pipeline_depth = 2;
    const auto run = runtime::ServiceRuntime(svc).run(auctioneer, workloads);
    DoNotOptimize(run.instances.size());
  }
}
TINYBENCH(BM_service_p99)
    ->Args({48, 4})
    ->Args({128, 8})
    ->Args({512, 16});

// ---------------------------------------------------------------------------

/// "speedups" JSON section from matching *_ref / *_opt result pairs.
std::string speedups_json(const std::vector<tinybench::Result>& results) {
  std::string out = "  \"speedups\": {";
  bool first = true;
  for (const auto& ref : results) {
    const std::size_t pos = ref.op.find("_ref");
    if (pos == std::string::npos) continue;
    const std::string base = ref.op.substr(0, pos);
    for (const auto& opt : results) {
      if (opt.op != base + "_opt" || opt.n != ref.n) continue;
      if (opt.ns_per_op <= 0) continue;
      char buf[128];
      std::snprintf(buf, sizeof(buf), "%s\n    \"%s/%lld\": %.2f",
                    first ? "" : ",", base.c_str(), static_cast<long long>(ref.n),
                    ref.ns_per_op / opt.ns_per_op);
      out += buf;
      first = false;
    }
  }
  out += "\n  }";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  tinybench::Options opt = tinybench::parse_args(argc, argv);
  if (opt.json_path.empty()) opt.json_path = "BENCH_dauct.json";

  const auto results = tinybench::run_all(opt);
  tinybench::print_table(results);
  if (!tinybench::write_json(results, opt.json_path, speedups_json(results))) {
    return 1;
  }
  std::printf("\nwrote %s (%zu benchmarks)\n", opt.json_path.c_str(), results.size());
  return 0;
}
