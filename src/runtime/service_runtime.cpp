#include "runtime/service_runtime.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/log.hpp"
#include "net/sim_transport.hpp"
#include "runtime/node_stack.hpp"
#include "runtime/submission_codec.hpp"
#include "serde/codec.hpp"

namespace dauct::runtime {

namespace {

/// Epoch-0 launch batch: when pipeline_depth ≥ 2 the first wave of instances
/// departs the client as ONE frame per provider carrying every instance's
/// submissions, instead of depth separate frames. Unscoped (it belongs to no
/// single instance); demultiplexed provider-side into per-instance starts.
constexpr const char* kBatchBidsTopic = "svc/bids";

/// Generation cycle length for slot prefixes when nothing needs them unique.
/// A slot's g-th and (g+4)-th tenants share a prefix — unambiguous as long
/// as no straggler frame outlives 3 full slot occupancies (~75ms of virtual
/// time against fault delays bounded in the tens of ms). The cycle is not
/// used under auth (the validator's equivocation slots are keyed by (sender,
/// topic) for the whole run, so an honest reused topic would read as
/// equivocation) nor with an amnesia crash in the plan (WAL replay routes a
/// logged record by its prefix alone, so an old generation's record must
/// never name a later tenant).
constexpr std::uint64_t kGenerationCycle = 4;

}  // namespace

double ServiceRunResult::auctions_per_vsec() const {
  if (settled_ok == 0 || makespan <= 0) return 0.0;
  return static_cast<double>(settled_ok) / sim::to_seconds(makespan);
}

ServiceRunResult ServiceRuntime::run(
    const core::DistributedAuctioneer& auctioneer,
    std::span<const auction::AuctionInstance> workloads) {
  const SimRunConfig& base = config_.base;
  const std::size_t m = auctioneer.spec().m;
  const std::size_t n = auctioneer.spec().num_bidders;
  const NodeId client = static_cast<NodeId>(m);

  const std::size_t N = std::min(config_.instances, workloads.size());
  if (N == 0) return ServiceRunResult{};
  if (N < config_.instances) {
    DAUCT_WARN("service runtime: " << config_.instances
                                   << " instances configured but only "
                                   << workloads.size() << " workloads given");
  }
  const std::size_t D = std::clamp<std::size_t>(config_.pipeline_depth, 1, N);
  // Single-instance identity path: no prefixes, no batch frames, no
  // straggler drop — the single-auction run (SimRuntime::run_distributed is
  // exactly this path).
  const bool identity = (N == 1);
  // Providers an amnesia crash hits: each gets a rebuild at its recovery
  // instant and, with wal_fault, a lying disk.
  std::vector<bool> amnesiac(m, false);
  if (base.faults) {
    for (const auto& c : base.faults->crashes) {
      if (c.mode == sim::CrashMode::kAmnesia && c.node < m) amnesiac[c.node] = true;
    }
  }
  const bool unique_generations =
      base.auth.enable ||
      std::find(amnesiac.begin(), amnesiac.end(), true) != amnesiac.end();
  const auto gen_of = [&](core::InstanceId t) {
    const std::uint64_t g = t / D;
    return unique_generations ? g : g % kGenerationCycle;
  };

  // Instance-filtered deviations, base (all-instance) ones folded in.
  std::vector<ServiceDeviation> deviations = config_.deviations;
  for (const auto& [node, strategy] : base.deviations) {
    deviations.push_back(ServiceDeviation{sim::kAnyInstance, node, strategy});
  }

  sim::Scheduler scheduler(m + 1, base.latency, base.seed, base.cost_mode);
  scheduler.set_cpu_scale(base.cpu_scale);
  if (base.faults) {
    // Compile declarative per-instance link rules into topic-prefix filters.
    // An instance-confined rule can only ever touch scoped traffic: the
    // link's rl/* control frames and the epoch-0 svc/bids batch are outside
    // every instance namespace by construction.
    sim::FaultPlan plan = *base.faults;
    const auto compile_scope = [&](std::uint64_t instance, std::string& scope) {
      if (instance == sim::kAnyInstance) return;
      if (identity || instance >= N) {
        scope = "\x01";  // matches no topic: rule is inert
      } else {
        scope = core::instance_topic_prefix(instance % D, gen_of(instance));
      }
    };
    for (auto& r : plan.links) compile_scope(r.instance, r.topic_scope);
    for (auto& c : plan.cuts) compile_scope(c.instance, c.topic_scope);
    for (auto& p : plan.partitions) compile_scope(p.instance, p.topic_scope);
    scheduler.install_fault_plan(plan);
  }

  // ONE NodeStack (runtime/node_stack.hpp) per provider serves every
  // instance: scoped topics make its dedup keys, caches, signature
  // transcripts and WAL records instance-tagged without the stack knowing
  // instances exist. Each instance's engine sits on [DeviantEndpoint →]
  // ScopedEndpoint → the stack's top: deviation shapes what the engine sends
  // *before* the signer signs it (the stolen-key equivocator). An amnesia
  // recovery (sim::CrashMode::kAmnesia) destroys one node's stack and every
  // engine bundle on it, then rebuilds them from the surviving log.
  crypto::Rng seeder(base.seed ^ 0xd15742u);
  std::shared_ptr<const net::KeyDirectory> key_dir;
  // Per node, like every other piece of mutable per-node state: provider
  // handlers run concurrently (sim::Isolation::kIsolated, below).
  std::vector<net::AuthStats> auth_stats(m);
  if (base.auth.enable) {
    key_dir = std::make_shared<net::KeyDirectory>(m, base.seed);
  }
  std::vector<NodeStack> stacks;
  stacks.reserve(m);
  // Endpoint seeds, drawn up front in node order (one draw per provider):
  // the value a rebuild must reuse for replay re-execution to be exact
  // (recorded in the WAL meta record). The SimEndpoint's own RNG is shadowed
  // by each instance's ScopedEndpoint stream (seeded identically for
  // instance 0).
  std::vector<std::uint64_t> endpoint_seeds(m);
  for (NodeId j = 0; j < m; ++j) endpoint_seeds[j] = seeder.next_u64();

  // Per-instance protocol state. On the multi-instance path a settled
  // instance's engine bundle on node j is freed by node j itself, at the
  // start of its next delivery (`to_release`); what the result and the WAL
  // snapshots still need of the engine is copied out first (`final`). Live
  // frames for a settled instance already die at routing, and a freed
  // engine takes its round watchdogs with it, so nothing can dangle. The
  // single-instance identity path keeps its bundles until the run ends. The
  // progress fields sit outside the bundle: an amnesia rebuild replaces the
  // bundle (and rebuilds freed ones, to be freed again once replayed),
  // while `reported` and the phase times survive it (only `started` is
  // re-derived by replay).
  struct EngineBundle {
    std::unique_ptr<core::ScopedEndpoint> scoped;
    std::unique_ptr<adversary::DeviantEndpoint> deviant;
    std::unique_ptr<core::ProviderEngine> engine;
  };
  /// A freed engine's last word: its outcome (nullopt: it never finished),
  /// its coin value and whether its bid agreement had completed.
  struct EngineFinal {
    std::optional<auction::AuctionOutcome> outcome;
    std::uint64_t shared_seed = 0;
    bool bids_agreed = false;
  };
  struct InstanceNode {
    EngineBundle bundle;  ///< engine null once freed
    EngineFinal final;    ///< meaningful once freed
    std::uint64_t endpoint_seed = 0;  ///< the ScopedEndpoint's RNG stream
    bool started = false;
    bool reported = false;
    std::optional<Bottom> override_abort;  ///< late batch-auth attribution
  };
  struct Instance {
    InstanceRunResult res;
    std::shared_ptr<net::ScopedTopicRegistry> topics;  ///< null = identity
    net::Topic scoped_result;
    std::vector<InstanceNode> nodes;
    detail::ResultReports reports{0, 0};  ///< the client's check
  };
  std::vector<std::unique_ptr<Instance>> insts(N);
  // Tenant of each namespace prefix. Overwritten as generations cycle; a
  // live frame for a *settled* tenant is dropped at routing, which is what
  // keeps slot reuse safe against stragglers.
  std::unordered_map<std::string, core::InstanceId> prefix_owner;
  // Per node: settled instances whose bundle the node frees at the start of
  // its next delivery (the client appends while it runs alone; the node
  // drains its own list), and its live / peak engine counts.
  std::vector<std::vector<core::InstanceId>> to_release(m);
  std::vector<std::size_t> live_engines(m, 0), peak_engines(m, 0);

  const net::Topic bids_topic(detail::kBidsTopic);
  const net::Topic result_topic(detail::kResultTopic);
  const net::Topic batch_topic(kBatchBidsTopic);

  // Durability: one WAL per node, shared by all instances (message records
  // carry scoped topics). An amnesia crash destroys a stack, never its
  // MemStorage "disk". With wal_fault, an amnesia-crashing node's disk sits
  // under a lying-disk decorator (store::FaultyStorage).
  const bool wal_on = base.wal.enable;
  std::vector<std::shared_ptr<store::FaultyStorage>> faulty_disks(wal_on ? m : 0);
  // The instance whose engine node j's latest message was dispatched to:
  // what a snapshot's started/agreed/done flags describe.
  std::vector<core::InstanceId> last_dispatched(m, 0);

  /// Node j's engine outcome for one instance, live or freed.
  const auto outcome_of = [](const InstanceNode& nd)
      -> const std::optional<auction::AuctionOutcome>& {
    return nd.bundle.engine ? nd.bundle.engine->outcome() : nd.final.outcome;
  };

  const auto snapshot_of = [&](NodeId j) {
    const InstanceNode& nd = insts[last_dispatched[j]]->nodes[j];
    const core::ProviderEngine* engine = nd.bundle.engine.get();
    return store::Snapshot{
        .started = nd.started,
        .bids_agreed = engine ? engine->agreed_bids().has_value()
                              : nd.final.bids_agreed,
        .done = outcome_of(nd).has_value()};
  };

  /// The instance a scoped topic string ("i<slot>g<gen>/…") belongs to.
  /// Nullopt: not instance traffic, or an unclaimed prefix.
  const auto owner_of = [&](const std::string& s)
      -> std::optional<core::InstanceId> {
    if (identity) return core::InstanceId{0};
    const auto slash = s.find('/');
    if (s.empty() || s[0] != 'i' || slash == std::string::npos) return std::nullopt;
    const auto it = prefix_owner.find(s.substr(0, slash + 1));
    if (it == prefix_owner.end()) return std::nullopt;
    return it->second;
  };

  /// Scoped topic → (owning instance, base topic). Nullopt: see owner_of,
  /// or a base topic no engine ever interned.
  const auto demux = [&](const net::Topic& topic)
      -> std::optional<std::pair<core::InstanceId, net::Topic>> {
    if (identity) return std::make_pair(core::InstanceId{0}, topic);
    const std::string& s = topic.str();
    const auto t = owner_of(s);
    if (!t) return std::nullopt;
    const auto b = net::Topic::lookup(std::string_view(s).substr(s.find('/') + 1));
    if (!b) return std::nullopt;
    return std::make_pair(*t, *b);
  };

  // Progress bookkeeping shared by the delivery path, the replay path, and
  // the reliability give-up path (an engine can reach done() from a
  // retransmit timer, with no delivery in flight to piggyback the result
  // report on).
  const auto note_progress = [&](core::InstanceId t, NodeId j) {
    Instance& inst = *insts[t];
    InstanceNode& nd = inst.nodes[j];
    core::ProviderEngine& engine = *nd.bundle.engine;
    sim::SimTime& ba_done = inst.res.bid_agreement_done_at[j];
    if (ba_done == 0 && engine.agreed_bids().has_value()) {
      ba_done = scheduler.now();
      stacks[j].journal_bids_agreed(*engine.agreed_bids());
    }
    if (inst.res.provider_done_at[j] == 0 && engine.done()) {
      inst.res.provider_done_at[j] = scheduler.now();
    }
    if (engine.done() && !nd.reported) {
      nd.reported = true;
      const auto& out = *engine.outcome();
      Bytes report = detail::encode_report(out);
      const crypto::Digest digest = crypto::sha256(BytesView(report));
      stacks[j].journal_outcome(out.ok(), digest);
      scheduler.send(net::Message{
          j, client, inst.scoped_result,
          detail::result_frame(std::move(report), digest,
                               j == detail::designated_reporter(t, m))});
    }
  };

  /// Engine-facing dispatch; `msg.topic` is the BASE topic.
  const auto dispatch_app = [&](core::InstanceId t, NodeId j,
                                const net::Message& msg) {
    InstanceNode& nd = insts[t]->nodes[j];
    // Freed: a late duplicate of the epoch-0 batch, the one live frame that
    // still reaches a settled instance (the validator has seen it already).
    if (!nd.bundle.engine) return;
    if (msg.topic == bids_topic) {
      // Idempotent against a (faulty) network duplicating the client batch:
      // the engine starts exactly once.
      auto subs = detail::decode_submissions(BytesView(msg.payload));
      if (subs && !nd.started) {
        nd.started = true;
        stacks[j].journal_started(msg.payload);
        nd.bundle.engine->start(
            detail::sanitize_submissions(*subs, auctioneer.spec().limits));
      }
    } else {
      nd.bundle.engine->on_message(msg);
    }
    note_progress(t, j);
  };

  /// Validator + engine dispatch — the journaled form. `in.topic` is the
  /// scoped wire topic (the signature transcript covers it); `base_topic` is
  /// its engine-facing form. An abort lands on the OWNING instance's engine
  /// — node j's other instances keep running. Replay re-enters here, so a
  /// WAL tampered with below the CRC still cannot smuggle a forged frame
  /// into a rebuilt engine.
  const auto dispatch_verified = [&](core::InstanceId t, NodeId j,
                                     const net::Message& in,
                                     const net::Topic& base_topic) {
    last_dispatched[j] = t;
    stacks[j].verify(
        in,
        [&](const net::Message& delivered) {
          if (delivered.topic == base_topic) return dispatch_app(t, j, delivered);
          net::Message app = delivered;  // payload is refcounted, not copied
          app.topic = base_topic;
          dispatch_app(t, j, app);
        },
        [&](Bottom b) {
          const auto& engine = insts[t]->nodes[j].bundle.engine;
          if (!engine) return;  // freed: nothing left to abort
          engine->abort(std::move(b));
          note_progress(t, j);
        });
  };

  /// Route one post-link frame at node j to its instance: the epoch-0 batch
  /// splits into per-instance starts, everything else demultiplexes by
  /// prefix. A LIVE frame for a settled instance is a straggler and dies
  /// here (only a late duplicate of the batch still reaches one, and a freed
  /// engine ignores it); replay delivers it (a settled instance's rebuilt
  /// engine must reach done again, or it would come back "never finished").
  /// False: nothing was dispatched.
  const auto route = [&](NodeId j, const net::Message& msg, bool live) {
    if (msg.topic == batch_topic) {
      serde::Reader r(BytesView(msg.payload));
      const std::uint64_t count = r.varint();
      if (!r.ok() || count > N) return false;
      for (std::uint64_t e = 0; e < count; ++e) {
        const std::uint64_t t = r.varint();
        Bytes body = r.bytes();
        if (!r.ok() || t >= N || !insts[t]) return false;
        const net::Message sub{msg.from, j, bids_topic,
                               SharedBytes(std::move(body))};
        dispatch_verified(t, j, sub, bids_topic);
      }
      return true;
    }
    const auto d = demux(msg.topic);
    if (!d || !insts[d->first]) return false;
    if (live && !identity && insts[d->first]->res.settled) return false;
    dispatch_verified(d->first, j, msg, d->second);
    return true;
  };

  for (NodeId j = 0; j < m; ++j) {
    stacks.emplace_back(
        j,
        [&, j] {
          return std::make_unique<net::SimEndpoint>(scheduler, j, m,
                                                    endpoint_seeds[j]);
        },
        NodeStack::Layers{
            .reliability = base.reliability,
            // A retransmit give-up names a scoped topic: the failure belongs
            // to that topic's instance alone.
            .on_give_up = [&, j](NodeId to, const net::Topic& topic,
                                 std::size_t attempts) {
              // A settled instance's engine may already be freed: its
              // give-ups are moot either way.
              const auto d = demux(topic);
              if (!d || !insts[d->first] || insts[d->first]->res.settled) return;
              insts[d->first]->nodes[j].bundle.engine->abort(Bottom{
                  AbortReason::kDeliveryFailed,
                  "provider " + std::to_string(to) + " unreachable on '" +
                      topic.str() + "' after " + std::to_string(attempts) +
                      " attempts"});
              note_progress(d->first, j);
            },
            .keys = key_dir,
            .auth = base.auth,
            .validator_seed = base.seed ^ (0xba7c4000u + j),
            .tamper = base.auth_adversary.node == j ? base.auth_adversary.mode
                                                    : adversary::AuthTamperMode::kNone,
            .auth_stats = &auth_stats[j]});
  }

  /// Instance t's engine at node j: a ScopedEndpoint (and any matching
  /// deviation) on the node's stack top, then the engine. Each node scopes
  /// its topics through its own memo: the nodes run concurrently.
  const auto build_bundle = [&](core::InstanceId t, NodeId j) {
    Instance& inst = *insts[t];
    InstanceNode& nd = inst.nodes[j];
    nd.bundle.scoped = std::make_unique<core::ScopedEndpoint>(
        stacks[j].top(),
        inst.topics
            ? std::make_shared<net::ScopedTopicRegistry>(inst.topics->prefix())
            : nullptr,
        nd.endpoint_seed);
    blocks::Endpoint* ep = nd.bundle.scoped.get();
    for (const auto& dv : deviations) {
      if (dv.node == j && dv.strategy &&
          (dv.instance == sim::kAnyInstance || dv.instance == t)) {
        nd.bundle.deviant =
            std::make_unique<adversary::DeviantEndpoint>(*ep, dv.strategy);
        ep = nd.bundle.deviant.get();
        break;
      }
    }
    const auction::Ask ask = j < workloads[t].asks.size()
                                 ? workloads[t].asks[j]
                                 : auction::Ask{j, {}, {}};
    nd.bundle.engine = auctioneer.make_engine(*ep, ask);
    peak_engines[j] = std::max(peak_engines[j], ++live_engines[j]);
  };

  /// Free node j's bundle of settled instance t, keeping the engine's last
  /// word. Runs in node j's own handler: the frees of different nodes run
  /// in parallel, off the client's serial path.
  const auto release = [&](core::InstanceId t, NodeId j) {
    InstanceNode& nd = insts[t]->nodes[j];
    const core::ProviderEngine& engine = *nd.bundle.engine;
    nd.final = EngineFinal{.outcome = engine.outcome(),
                           .shared_seed = engine.shared_seed(),
                           .bids_agreed = engine.agreed_bids().has_value()};
    EngineBundle gone = std::move(nd.bundle);  // engine first, then endpoints
    --live_engines[j];
  };

  const auto honest = adversary::honest_bidder();
  /// Instance t's client-side submissions toward every provider, drawn from
  /// the instance's private bidder stream in the single-run twin's order
  /// (provider-outer, bidder-inner, one continuous stream) — canonical
  /// whatever frame tricks follow, so a reordered or replayed injection
  /// submits byte-identical bids to its trick-free twin.
  const auto make_submissions = [&](core::InstanceId t) {
    std::vector<Bytes> per_provider(m);
    crypto::Rng bidder_rng(insts[t]->res.derived_seed ^ 0xb1dde5u);
    const auction::AuctionInstance& w = workloads[t];
    for (NodeId j = 0; j < m; ++j) {
      std::vector<std::optional<auction::Bid>> subs(n);
      for (std::size_t i = 0; i < n && i < w.bids.size(); ++i) {
        const adversary::BidderBehaviour* behaviour = honest.get();
        if (auto it = base.bidder_script.find(static_cast<BidderId>(i));
            it != base.bidder_script.end()) {
          behaviour = it->second.get();
        }
        subs[i] = behaviour->bid_for(w.bids[i], j, bidder_rng);
      }
      per_provider[j] = detail::encode_submissions(subs);
    }
    return per_provider;
  };

  /// Stand up instance t: claim its namespace and build its engine bundle
  /// on every node. Does not send — launching is the caller's move.
  const auto create_instance = [&](core::InstanceId t) {
    insts[t] = std::make_unique<Instance>();
    Instance& inst = *insts[t];
    inst.res.id = t;
    inst.res.derived_seed = core::derive_instance_seed(base.seed, t);
    if (!identity) {
      inst.res.topic_prefix = core::instance_topic_prefix(t % D, gen_of(t));
      inst.topics =
          std::make_shared<net::ScopedTopicRegistry>(inst.res.topic_prefix);
      prefix_owner[inst.res.topic_prefix] = t;
      inst.scoped_result = inst.topics->scope(result_topic);
    } else {
      inst.scoped_result = result_topic;
    }
    inst.reports = detail::ResultReports(m, detail::designated_reporter(t, m));
    inst.res.bid_agreement_done_at.assign(m, 0);
    inst.res.provider_done_at.assign(m, 0);
    inst.nodes.resize(m);
    crypto::Rng endpoint_seeder(inst.res.derived_seed ^ 0xd15742u);
    for (NodeId j = 0; j < m; ++j) {
      inst.nodes[j].endpoint_seed = endpoint_seeder.next_u64();
      build_bundle(t, j);
    }
    inst.res.launched = true;
    inst.res.launched_at = scheduler.now();
  };

  /// Send frames[j] to each provider j: injected at t = 0 (`at_start`), or
  /// departing with the client's settlement handler. Frame tricks
  /// (adversary/bidder_adversary.hpp) change only injection order/count.
  const auto send_frames = [&](const net::Topic& topic,
                               const std::vector<Bytes>& frames, bool at_start) {
    for (NodeId idx = 0; idx < m; ++idx) {
      const NodeId j =
          base.bid_frames.reorder ? static_cast<NodeId>(m - 1 - idx) : idx;
      for (int rep = 0; rep < (base.bid_frames.replay ? 2 : 1); ++rep) {
        net::Message msg{client, j, topic, SharedBytes(frames[j])};
        if (at_start) {
          scheduler.inject(sim::kSimStart, std::move(msg));
        } else {
          scheduler.send(std::move(msg));
        }
      }
    }
  };
  /// Submit instance t's bids, one frame per provider.
  const auto send_bids = [&](core::InstanceId t, bool at_start) {
    const Instance& inst = *insts[t];
    send_frames(inst.topics ? inst.topics->scope(bids_topic) : bids_topic,
                make_submissions(t), at_start);
  };

  for (NodeId j = 0; j < m; ++j) {
    stacks[j].build();
    if (wal_on) {
      std::shared_ptr<store::Storage> disk = std::make_shared<store::MemStorage>();
      if (base.wal_fault.enable && amnesiac[j]) {
        store::StorageFaultConfig fc = base.wal_fault;
        fc.seed = base.wal_fault.seed ^ (0x57a6e000u + j);  // per-node stream
        faulty_disks[j] = std::make_shared<store::FaultyStorage>(disk, fc);
        disk = faulty_disks[j];
      }
      // Fresh storage: the stack writes the meta record.
      stacks[j].open_wal(disk,
                         {.run_seed = base.seed, .node = j, .providers = m,
                          .users = n, .k = auctioneer.spec().k,
                          .endpoint_seed = endpoint_seeds[j]},
                         base.wal.snapshot_every);
    }
  }

  /// Amnesia recovery (docs/DURABILITY.md): destroy the node's memory — its
  /// stack and every instance's engine bundle on it — rebuild both over the
  /// same seeds, replay the surviving log through the real routing and
  /// dispatch path (one log serves every co-tenant instance), then sweep
  /// peers for the gap.
  const auto rebuild_node = [&](NodeId j) {
    // The process died: no timer armed by the lost state may ever run — the
    // objects behind those callbacks are about to be destroyed.
    scheduler.bump_incarnation(j);
    for (auto& up : insts) {
      if (!up) continue;
      if (up->nodes[j].bundle.engine) --live_engines[j];
      up->nodes[j].bundle = EngineBundle{};  // engines go before the stack
      up->nodes[j].started = false;  // re-derived by replay (bids are logged)
    }
    stacks[j].build();
    for (core::InstanceId t = 0; t < N; ++t) {
      if (insts[t]) build_bundle(t, j);
    }
    // Power-loss damage lands now, before the log is reopened: no appends
    // happen inside the down window (the injector drops deliveries to a down
    // node), so damaging at the rebuild instant ≡ damaging at the crash.
    if (faulty_disks[j]) faulty_disks[j]->crash();
    // A log the identity gate refuses aborts the node, as the CLI would.
    const std::string why = stacks[j].reopen_wal();
    if (!why.empty()) {
      for (core::InstanceId t = 0; t < N; ++t) {
        if (!insts[t]) continue;
        insts[t]->nodes[j].bundle.engine->abort(
            Bottom{AbortReason::kProtocolViolation, "wal recovery refused: " + why});
        note_progress(t, j);
      }
    } else {
      stacks[j].replay(
          [&, j](const net::Message& msg) { route(j, msg, /*live=*/false); },
          [&, j] { return snapshot_of(j); });
    }
    // Settled instances' rebuilt engines are freed again at the node's next
    // delivery, as after their settlement.
    to_release[j].clear();
    for (core::InstanceId t = 0; t < N && !identity; ++t) {
      if (insts[t] && insts[t]->res.settled) to_release[j].push_back(t);
    }
  };

  // A provider's handler and timers touch only node j's stack, WAL, engines
  // and per-node slots of shared tables, so providers run concurrently
  // inside a lookahead window. The client (below) writes the instance table
  // and the prefix map the providers read: it stays kShared and runs alone.
  for (NodeId j = 0; j < m; ++j) {
    scheduler.set_deliver(j, [&, j](const net::Message& raw) {
      for (const core::InstanceId t : to_release[j]) release(t, j);
      to_release[j].clear();
      stacks[j].deliver(
          raw, [&](const net::Message& msg) { return route(j, msg, /*live=*/true); },
          [&] { return snapshot_of(j); });
    }, sim::Isolation::kIsolated);
  }

  // The client settles instances and drives the pipeline: the m-th result
  // frame of instance t (one full report, m − 1 digests of it) frees its
  // slot, and instance t + depth launches in the same handler (its bids
  // depart as the handler's outbox flushes).
  sim::SimTime last_settle_at = 0;
  scheduler.set_deliver(client, [&](const net::Message& msg) {
    const auto d = demux(msg.topic);
    if (!d || d->second != result_topic) return;
    const core::InstanceId t = d->first;
    if (!insts[t]) return;
    Instance& inst = *insts[t];
    if (inst.res.settled || !inst.reports.accept(msg.from, msg.payload.view()) ||
        !inst.reports.complete()) {
      return;
    }
    // Settlement — ⊥ and divergent reports settle too: a poisoned instance
    // retires and the pipeline stays live for the rest.
    inst.res.settled = true;
    inst.res.settled_at = scheduler.now();
    inst.res.client_verdict = inst.reports.verdict();
    inst.res.client_digest = crypto::digest_hex(inst.reports.report_digest());
    last_settle_at = scheduler.now();
    if (!identity) {
      for (NodeId j = 0; j < m; ++j) to_release[j].push_back(t);
    }
    const core::InstanceId next = t + D;
    if (next < N) {
      create_instance(next);
      send_bids(next, /*at_start=*/false);
    }
  });

  const std::size_t initial = std::min(D, N);
  for (core::InstanceId t = 0; t < initial; ++t) create_instance(t);

  // Arm one rebuild per amnesia crash window, due at the recovery instant.
  // Scheduled before the first event, so its queue sequence number is lower
  // than any same-instant delivery or deferred timer: the node is whole
  // again before the world talks to it.
  if (base.faults && wal_on) {
    for (const auto& c : base.faults->crashes) {
      if (c.mode != sim::CrashMode::kAmnesia) continue;
      if (c.recover_at == sim::kSimForever || c.node >= m) continue;
      scheduler.schedule_timer(c.recover_at, c.node,
                               [&, j = c.node] { rebuild_node(j); });
    }
  }

  // Launch the first wave: instances 0..D-1 at t = 0. Two or more at once
  // batch into one svc/bids frame per provider; a single launch uses the
  // plain per-instance form (the classic client batch).
  if (initial >= 2) {
    std::vector<std::vector<Bytes>> subs(initial);
    for (core::InstanceId t = 0; t < initial; ++t) subs[t] = make_submissions(t);
    std::vector<Bytes> frames(m);
    for (NodeId j = 0; j < m; ++j) {
      serde::Writer w;
      w.varint(initial);
      for (core::InstanceId t = 0; t < initial; ++t) {
        w.varint(t);
        w.bytes(BytesView(subs[t][j]));
      }
      frames[j] = w.take();
    }
    send_frames(batch_topic, frames, /*at_start=*/true);
  } else {
    send_bids(0, /*at_start=*/true);
  }

  const bool overflow = scheduler.run_some(base.max_events);
  if (overflow) {
    DAUCT_WARN("service runtime: event budget exhausted; treating run as stalled");
  }

  // Batch verification delivers optimistically; flush what never reached a
  // full round. A failure here is late detection: it overrides whatever
  // outcome the provider computed from the forged input. It is attributed
  // by the proof's scoped topic when there is one; a proofless batch failure
  // cannot name its instance, so it lands on every instance still in flight
  // on that node (never on one that settled before the forgery could
  // matter).
  for (NodeId j = 0; j < m; ++j) {
    const std::optional<Bottom> b = stacks[j].finalize();
    if (!b) continue;
    const net::MessageValidator* v = stacks[j].validator();
    std::optional<core::InstanceId> who;
    if (identity) {
      who = core::InstanceId{0};
    } else if (v->proof()) {
      who = owner_of(v->proof()->topic);
    }
    if (who) {
      if (insts[*who]) insts[*who]->nodes[j].override_abort = *b;
    } else {
      for (auto& up : insts) {
        if (up && up->res.launched && !up->res.settled) {
          up->nodes[j].override_abort = *b;
        }
      }
    }
  }

  ServiceRunResult result;
  result.event_budget_exhausted = overflow;
  result.events_dispatched = scheduler.events_dispatched();
  result.peak_live_engines =
      *std::max_element(peak_engines.begin(), peak_engines.end());
  result.instances.reserve(N);
  bool all_settled = true;
  for (core::InstanceId t = 0; t < N; ++t) {
    if (!insts[t]) {
      // Its pipeline slot never freed: a predecessor stalled or the budget
      // ran out first. The instance never launched — ⊥ by construction.
      InstanceRunResult r;
      r.id = t;
      r.derived_seed = core::derive_instance_seed(base.seed, t);
      r.outcome = auction::AuctionOutcome(
          Bottom{overflow ? AbortReason::kEventBudgetExceeded
                          : AbortReason::kTimeout,
                 "instance " + std::to_string(t) +
                     " never launched (pipeline slot blocked)"});
      result.stalled = true;
      all_settled = false;
      result.instances.push_back(std::move(r));
      continue;
    }
    Instance& inst = *insts[t];
    inst.res.provider_outcomes.reserve(m);
    for (NodeId j = 0; j < m; ++j) {
      InstanceNode& nd = inst.nodes[j];
      if (nd.override_abort) {
        inst.res.provider_outcomes.emplace_back(*nd.override_abort);
      } else if (const auto& out = outcome_of(nd)) {
        inst.res.provider_outcomes.push_back(*out);
      } else if (overflow) {
        // Distinct from a drained-queue stall: events were still pending
        // when the budget ran out, i.e. the run was cut off, not out of
        // moves. The fuzz oracle treats this ⊥ as a liveness violation (a
        // plan that can spin past any budget must not pass as "explicit
        // abort").
        result.stalled = true;
        inst.res.provider_outcomes.emplace_back(Bottom{
            AbortReason::kEventBudgetExceeded,
            "event budget (" + std::to_string(base.max_events) +
                ") exhausted before the provider finished"});
      } else {
        result.stalled = true;
        inst.res.provider_outcomes.emplace_back(
            Bottom{AbortReason::kTimeout, "provider never finished"});
      }
    }
    inst.res.outcome =
        core::combine_outcomes(std::span(inst.res.provider_outcomes));
    if (inst.res.outcome.ok()) {
      ++result.settled_ok;
      for (NodeId j = 0; j < m; ++j) {
        const auction::AuctionOutcome& o = inst.res.provider_outcomes[j];
        if (o.ok() && o.value() == inst.res.outcome.value()) {
          const InstanceNode& nd = inst.nodes[j];
          inst.res.shared_seed = nd.bundle.engine ? nd.bundle.engine->shared_seed()
                                                  : nd.final.shared_seed;
          break;
        }
      }
    }
    if (!inst.res.settled) all_settled = false;
    result.instances.push_back(std::move(inst.res));
  }
  result.makespan = all_settled ? last_settle_at : scheduler.now();
  result.traffic = scheduler.traffic();
  if (const auto* fs = scheduler.fault_stats()) result.fault_stats = *fs;
  for (NodeId j = 0; j < m; ++j) {
    result.reliability_stats += stacks[j].reliability_stats();
    result.wal_stats += stacks[j].wal_stats();
  }
  if (wal_on) {
    for (const auto& d : faulty_disks) {
      if (!d) continue;
      result.storage_fault_stats.syncs_dropped += d->stats().syncs_dropped;
      result.storage_fault_stats.crashes += d->stats().crashes;
      result.storage_fault_stats.torn_bytes += d->stats().torn_bytes;
      result.storage_fault_stats.flipped_bytes += d->stats().flipped_bytes;
    }
  }
  if (base.auth.enable) {
    for (const auto& s : auth_stats) result.auth_stats += s;
    // Prefer a proof a receiver assembled locally (it saw both conflicting
    // frames); otherwise run the auditor sweep, which cross-references every
    // receiver's records and catches split equivocation.
    for (NodeId j = 0; j < m && !result.equivocation_proof; ++j) {
      if (stacks[j].validator()->proof()) {
        result.equivocation_proof = stacks[j].validator()->proof();
      }
    }
    if (!result.equivocation_proof) {
      std::vector<const net::MessageValidator*> vs;
      for (NodeId j = 0; j < m; ++j) vs.push_back(stacks[j].validator());
      result.equivocation_proof = net::audit_equivocation(vs, *key_dir);
    }
    if (result.equivocation_proof) {
      // A transferable proof is the strongest statement about why the
      // owning instance died: surface it as that instance's reason (the
      // engine-level mismatch it provoked stays visible in the per-provider
      // outcomes).
      const auto who = owner_of(result.equivocation_proof->topic);
      if (who && *who < result.instances.size() &&
          !result.instances[*who].outcome.ok()) {
        result.instances[*who].outcome = auction::AuctionOutcome(
            Bottom{AbortReason::kEquivocationDetected,
                   "transferable equivocation proof against provider p" +
                       std::to_string(result.equivocation_proof->signer) +
                       " on topic '" + result.equivocation_proof->topic + "'"});
      }
    }
  }
  return result;
}

}  // namespace dauct::runtime
