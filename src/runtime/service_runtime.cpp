#include "runtime/service_runtime.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/log.hpp"
#include "crypto/sha256.hpp"
#include "net/sim_transport.hpp"
#include "runtime/submission_codec.hpp"
#include "serde/auction_codec.hpp"
#include "serde/codec.hpp"

namespace dauct::runtime {

namespace {

constexpr const char* kBidsTopic = "client/bids";
constexpr const char* kResultTopic = "client/result";
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

  // The per-node stack: ONE wire endpoint, reliable link, signer, and
  // validator per provider, serving every instance. Scoped topics make the
  // link's dedup keys, the retransmit caches, the signature transcripts, and
  // the WAL records instance-tagged without any of those layers knowing
  // instances exist. The chain, outermost (engine-facing) first:
  // [DeviantEndpoint →] ScopedEndpoint → [SignerEndpoint →]
  // [AuthTamperEndpoint →] [ReliableLink →] SimEndpoint — deviation shapes
  // what the engine sends *before* the signer signs it (a byzantine node
  // signs its tampered output with its own key: the stolen-key equivocator),
  // the wire adversary injects *after* signing (it holds no key, so its
  // frames cannot verify), and the link is the last hop before the wire,
  // tracking the frames actually sent. With reliability and auth off no
  // wrapper exists.
  //
  // An amnesia recovery (sim::CrashMode::kAmnesia) destroys one node's stack
  // and every instance's engine bundle on it — its memory — and rebuilds
  // them from the surviving write-ahead log. Members are declared
  // innermost-first so destruction runs wire-facing-last.
  crypto::Rng seeder(base.seed ^ 0xd15742u);
  std::shared_ptr<const net::KeyDirectory> key_dir;
  // Per node, like every other piece of mutable per-node state: provider
  // handlers run concurrently (sim::Isolation::kIsolated, below).
  std::vector<net::AuthStats> auth_stats(m);
  if (base.auth.enable) {
    key_dir = std::make_shared<net::KeyDirectory>(m, base.seed);
  }
  struct NodeStack {
    std::unique_ptr<net::SimEndpoint> endpoint;
    std::unique_ptr<net::ReliableLink> link;
    std::unique_ptr<adversary::AuthTamperEndpoint> tamperer;
    std::unique_ptr<net::SignerEndpoint> signer;
    std::unique_ptr<net::MessageValidator> validator;
    blocks::Endpoint* top = nullptr;  ///< what instance endpoints stack on
  };
  std::vector<NodeStack> stacks(m);
  // Endpoint seeds, drawn up front in node order (one draw per provider):
  // the value a rebuild must reuse for replay re-execution to be exact
  // (recorded in the WAL meta record). The SimEndpoint's own RNG is shadowed
  // by each instance's ScopedEndpoint stream (seeded identically for
  // instance 0).
  std::vector<std::uint64_t> endpoint_seeds(m);
  for (NodeId j = 0; j < m; ++j) endpoint_seeds[j] = seeder.next_u64();

  // Per-instance protocol state. Engine bundles live until the run ends —
  // a settled instance's engines are quiescent, not destroyed, so a late
  // timer or straggler frame can never dangle. The progress fields sit
  // outside the bundle: an amnesia rebuild replaces the bundle, while
  // `reported` and the phase times survive it (only `started` is re-derived
  // by replay).
  struct EngineBundle {
    std::unique_ptr<core::ScopedEndpoint> scoped;
    std::unique_ptr<adversary::DeviantEndpoint> deviant;
    std::unique_ptr<core::ProviderEngine> engine;
  };
  struct InstanceNode {
    EngineBundle bundle;
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
    std::vector<bool> result_seen;
    std::size_t results_at_client = 0;
  };
  std::vector<std::unique_ptr<Instance>> insts(N);
  // Tenant of each namespace prefix. Overwritten as generations cycle; a
  // live frame for a *settled* tenant is dropped at routing, which is what
  // keeps slot reuse safe against stragglers.
  std::unordered_map<std::string, core::InstanceId> prefix_owner;

  const net::Topic bids_topic(kBidsTopic);
  const net::Topic result_topic(kResultTopic);
  const net::Topic batch_topic(kBatchBidsTopic);

  // Durability: one WAL per node, shared by all instances. Message records
  // carry scoped topic strings (instance-tagged); decision records append in
  // commit order across instances. The MemStorage "disks" live outside the
  // stacks: an amnesia crash destroys a stack, never its storage. Stats of
  // Wal/link objects a rebuild destroys are folded into per-node
  // accumulators so the run totals survive.
  const bool wal_on = base.wal.enable;
  std::vector<std::shared_ptr<store::MemStorage>> storages(wal_on ? m : 0);
  // Lying-disk decorators (store::FaultyStorage), armed per amnesia-crashing
  // node when wal_fault is enabled. The Wal writes through the decorator;
  // the MemStorage underneath is still the "disk" that survives the crash.
  std::vector<std::shared_ptr<store::FaultyStorage>> faulty_disks(wal_on ? m : 0);
  std::vector<std::unique_ptr<store::Wal>> wals(wal_on ? m : 0);
  // Bytes, not vector<bool> bits: nodes set their own flags concurrently.
  std::vector<std::uint8_t> replaying(m, false);
  std::vector<std::uint64_t> wal_delivered(m, 0);
  // The instance whose engine node j's latest message was dispatched to:
  // what a snapshot's started/agreed/done flags describe.
  std::vector<core::InstanceId> last_dispatched(m, 0);
  std::vector<store::WalStats> wal_stats_acc(m);
  std::vector<net::ReliabilityStats> rel_stats_acc(m);

  const auto expected_meta = [&](NodeId j) {
    store::WalMeta meta;
    meta.run_seed = base.seed;
    meta.node = j;
    meta.providers = m;
    meta.users = n;
    meta.k = auctioneer.spec().k;
    meta.endpoint_seed = endpoint_seeds[j];
    return meta;
  };

  /// Durably record a round decision — skipped during replay (the record is
  /// already in the log; the suppressed branches cannot re-fire anyway, since
  /// the phase times and `reported` survive the rebuild).
  const auto journal_decision = [&](NodeId j, store::DecisionKind kind, bool ok,
                                    const crypto::Digest& digest) {
    if (!wal_on || replaying[j]) return;
    store::Decision d;
    d.kind = kind;
    d.ok = ok;
    d.digest = digest;
    if (key_dir) {
      // Sign kind ‖ digest with the node's run key: the decision record is
      // then transferable evidence of what this provider committed to.
      Bytes msg;
      msg.reserve(1 + digest.size());
      msg.push_back(static_cast<std::uint8_t>(kind));
      msg.insert(msg.end(), digest.begin(), digest.end());
      const auto sig = crypto::ed25519::sign(key_dir->pair(j), BytesView(msg));
      d.signature.assign(sig.begin(), sig.end());
    }
    const Bytes enc = store::encode_decision(d);
    wals[j]->append(store::RecordType::kDecision, BytesView(enc));
    wals[j]->commit();
  };

  /// Write-ahead append of one post-link delivery: durable before dispatch.
  /// The logged form keeps the signature header (auth on) — replay re-runs
  /// the validator, and the link's dedup digests (computed pre-validator)
  /// line up with the restored keys.
  const auto journal_message = [&](NodeId j, const net::Message& msg) {
    if (!wal_on) return;
    wals[j]->append_message_record(msg.from, msg.topic.str(),
                                   BytesView(msg.payload));
    wals[j]->commit();
    ++wal_delivered[j];
  };

  const auto snapshot_of = [&](NodeId j, std::uint64_t delivered) {
    const InstanceNode& nd = insts[last_dispatched[j]]->nodes[j];
    store::Snapshot s;
    s.messages_delivered = delivered;
    s.started = nd.started;
    s.bids_agreed = nd.bundle.engine->agreed_bids().has_value();
    s.done = nd.bundle.engine->done();
    return s;
  };

  /// Periodic consistency checkpoint, appended *after* dispatch so the flags
  /// describe the state the preceding message records produce on replay.
  const auto maybe_snapshot = [&](NodeId j) {
    if (!wal_on || base.wal.snapshot_every == 0) return;
    if (wal_delivered[j] % base.wal.snapshot_every != 0) return;
    const Bytes enc = store::encode_snapshot(snapshot_of(j, wal_delivered[j]));
    wals[j]->append(store::RecordType::kSnapshot, BytesView(enc));
    wals[j]->commit();
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
      if (wal_on && !replaying[j]) {
        serde::Writer w;
        const auto& bids = *engine.agreed_bids();
        w.varint(bids.size());
        for (const auto& b : bids) serde::write_bid(w, b);
        const Bytes enc = w.take();
        journal_decision(j, store::DecisionKind::kBidsAgreed, true,
                         crypto::sha256(BytesView(enc)));
      }
    }
    if (inst.res.provider_done_at[j] == 0 && engine.done()) {
      inst.res.provider_done_at[j] = scheduler.now();
    }
    if (engine.done() && !nd.reported) {
      nd.reported = true;
      const auto& out = *engine.outcome();
      serde::Writer w;
      w.boolean(out.ok());
      if (out.ok()) {
        w.bytes(serde::encode_result(out.value()));
      } else {
        w.u8(static_cast<std::uint8_t>(out.bottom().reason));
      }
      Bytes payload = w.take();
      if (wal_on) {
        // The digest covers the exact report the client receives — the pin
        // the kill-restart equivalence checks compare.
        journal_decision(j, store::DecisionKind::kOutcome, out.ok(),
                         crypto::sha256(BytesView(payload)));
      }
      scheduler.send(
          net::Message{j, client, inst.scoped_result, std::move(payload)});
    }
  };

  /// Engine-facing dispatch; `msg.topic` is the BASE topic.
  const auto dispatch_app = [&](core::InstanceId t, NodeId j,
                                const net::Message& msg) {
    InstanceNode& nd = insts[t]->nodes[j];
    if (msg.topic == bids_topic) {
      // Idempotent against a (faulty) network duplicating the client batch:
      // the engine starts exactly once.
      auto subs = detail::decode_submissions(BytesView(msg.payload));
      if (subs && !nd.started) {
        nd.started = true;
        journal_decision(j, store::DecisionKind::kStarted, true,
                         net::payload_digest(msg.payload));
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
  /// — node j's other instances keep running. Replay re-enters here: a fresh
  /// validator re-verifies every logged signature, so a WAL tampered with
  /// below the CRC still cannot smuggle a forged frame into a rebuilt engine.
  const auto dispatch_verified = [&](core::InstanceId t, NodeId j,
                                     const net::Message& in,
                                     const net::Topic& base_topic) {
    last_dispatched[j] = t;
    net::Message verified;
    const net::Message* delivered = &in;
    if (net::MessageValidator* v = stacks[j].validator.get()) {
      verified = in;
      switch (v->on_deliver(verified)) {
        case net::MessageValidator::Action::kDrop:
          return;
        case net::MessageValidator::Action::kAbort:
          insts[t]->nodes[j].bundle.engine->abort(
              Bottom{v->proof() ? AbortReason::kEquivocationDetected
                                : AbortReason::kProtocolViolation,
                     v->abort_detail()});
          note_progress(t, j);
          return;
        case net::MessageValidator::Action::kDeliver:
          break;
      }
      delivered = &verified;
    }
    if (delivered->topic == base_topic) {
      dispatch_app(t, j, *delivered);
    } else {
      net::Message app = *delivered;  // payload is refcounted, not copied
      app.topic = base_topic;
      dispatch_app(t, j, app);
    }
  };

  /// Route one post-link frame at node j to its instance: the epoch-0 batch
  /// splits into per-instance starts, everything else demultiplexes by
  /// prefix. A LIVE frame for a settled instance is a straggler and dies
  /// here; replay delivers it (a settled instance's rebuilt engine must reach
  /// done again, or it would come back "never finished"). False: nothing was
  /// dispatched.
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

  const auto build_stack = [&](NodeId j) {
    NodeStack& c = stacks[j];
    c.endpoint =
        std::make_unique<net::SimEndpoint>(scheduler, j, m, endpoint_seeds[j]);
    blocks::Endpoint* ep = c.endpoint.get();
    if (base.reliability.enable) {
      c.link = std::make_unique<net::ReliableLink>(*ep, base.reliability);
      ep = c.link.get();
      // A retransmit give-up names a scoped topic: the failure belongs to
      // that topic's instance alone.
      c.link->set_on_give_up([&, j](NodeId to, const net::Topic& topic,
                                    std::size_t attempts) {
        const auto d = demux(topic);
        if (!d || !insts[d->first] || insts[d->first]->res.settled) return;
        insts[d->first]->nodes[j].bundle.engine->abort(Bottom{
            AbortReason::kDeliveryFailed,
            "provider " + std::to_string(to) + " unreachable on '" +
                topic.str() + "' after " + std::to_string(attempts) +
                " attempts"});
        note_progress(d->first, j);
      });
    }
    if (base.auth.enable) {
      if (base.auth_adversary.node == j &&
          base.auth_adversary.mode != adversary::AuthTamperMode::kNone) {
        c.tamperer = std::make_unique<adversary::AuthTamperEndpoint>(
            *ep, base.auth_adversary.mode);
        ep = c.tamperer.get();
      }
      c.signer = std::make_unique<net::SignerEndpoint>(*ep, key_dir, &auth_stats[j]);
      ep = c.signer.get();
      c.validator = std::make_unique<net::MessageValidator>(
          j, key_dir, base.auth, base.seed ^ (0xba7c4000u + j), &auth_stats[j]);
    }
    c.top = ep;
  };

  /// Instance t's engine at node j: a ScopedEndpoint (and any matching
  /// deviation) on the node's stack top, then the engine. Each node scopes
  /// its topics through its own memo: the nodes run concurrently.
  const auto build_bundle = [&](core::InstanceId t, NodeId j) {
    Instance& inst = *insts[t];
    InstanceNode& nd = inst.nodes[j];
    nd.bundle.scoped = std::make_unique<core::ScopedEndpoint>(
        *stacks[j].top,
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
    inst.result_seen.assign(m, false);
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

  /// Submit instance t's bids, one frame per provider. `at_start` injects at
  /// t = 0 (initial wave); otherwise the send happens inside the client's
  /// settlement handler and departs with it.
  const auto send_bids = [&](core::InstanceId t, bool at_start) {
    Instance& inst = *insts[t];
    auto per_provider = make_submissions(t);
    const net::Topic topic =
        inst.topics ? inst.topics->scope(bids_topic) : bids_topic;
    // Frame tricks (adversary/bidder_adversary.hpp): submissions above were
    // drawn in canonical order, so only the injection order/count changes.
    for (NodeId idx = 0; idx < m; ++idx) {
      const NodeId j =
          base.bid_frames.reorder ? static_cast<NodeId>(m - 1 - idx) : idx;
      const int copies = base.bid_frames.replay ? 2 : 1;
      for (int rep = 0; rep < copies; ++rep) {
        net::Message msg{client, j, topic, SharedBytes(per_provider[j])};
        if (at_start) {
          scheduler.inject(sim::kSimStart, std::move(msg));
        } else {
          scheduler.send(std::move(msg));
        }
      }
    }
  };

  const auto wal_sink = [&](NodeId j) -> std::shared_ptr<store::Storage> {
    if (faulty_disks[j]) return faulty_disks[j];
    return storages[j];
  };
  for (NodeId j = 0; j < m; ++j) {
    build_stack(j);
    if (wal_on) {
      storages[j] = std::make_shared<store::MemStorage>();
      if (base.wal_fault.enable && amnesiac[j]) {
        store::StorageFaultConfig fc = base.wal_fault;
        fc.seed = base.wal_fault.seed ^ (0x57a6e000u + j);  // per-node stream
        faulty_disks[j] = std::make_shared<store::FaultyStorage>(storages[j], fc);
      }
      wals[j] = std::make_unique<store::Wal>(wal_sink(j));
      wals[j]->open();  // fresh storage: nothing to scan
      const Bytes enc = store::encode_meta(expected_meta(j));
      wals[j]->append(store::RecordType::kMeta, BytesView(enc));
      wals[j]->commit();
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
    if (stacks[j].link) rel_stats_acc[j] += stacks[j].link->stats();
    wal_stats_acc[j] += wals[j]->stats();
    for (auto& up : insts) {
      if (!up) continue;
      up->nodes[j].bundle = EngineBundle{};  // engines go before the stack
      up->nodes[j].started = false;  // re-derived by replay (bids are logged)
    }
    stacks[j] = NodeStack{};
    build_stack(j);
    for (core::InstanceId t = 0; t < N; ++t) {
      if (insts[t]) build_bundle(t, j);
    }
    // Power-loss damage lands now, before the log is reopened: no appends
    // happen inside the down window (the injector drops deliveries to a down
    // node), so damaging at the rebuild instant ≡ damaging at the crash.
    if (faulty_disks[j]) faulty_disks[j]->crash();
    wals[j] = std::make_unique<store::Wal>(wal_sink(j));
    const store::WalScan scan = wals[j]->open();
    // Identity gate: a log that does not name this exact run and node is
    // foreign state — replaying it would silently diverge. Cannot happen
    // in-sim (this run wrote it), but recovery refuses exactly like the CLI.
    std::string why;
    bool meta_ok = false;
    if (!scan.records.empty() &&
        scan.records.front().type == store::RecordType::kMeta) {
      if (const auto meta = store::decode_meta(BytesView(scan.records.front().payload))) {
        meta_ok = store::meta_matches(*meta, expected_meta(j), &why);
      } else {
        why = "meta record undecodable";
      }
    } else {
      why = "no meta record";
    }
    if (!meta_ok) {
      for (core::InstanceId t = 0; t < N; ++t) {
        if (!insts[t]) continue;
        insts[t]->nodes[j].bundle.engine->abort(
            Bottom{AbortReason::kProtocolViolation, "wal recovery refused: " + why});
        note_progress(t, j);
      }
      return;
    }
    replaying[j] = true;
    std::uint64_t replayed = 0;
    for (std::size_t i = 1; i < scan.records.size(); ++i) {
      const store::WalRecord& rec = scan.records[i];
      if (rec.type == store::RecordType::kMessage) {
        auto lm = store::decode_message(BytesView(rec.payload));
        if (!lm) continue;  // framing passed CRC but the payload is malformed
        net::Message msg{lm->from, j, net::Topic(lm->topic),
                         SharedBytes(std::move(lm->payload))};
        // Dedup key first: post-replay wire copies of an already-consumed
        // message (peer retransmits, rejoin answers) must be suppressed, not
        // double-delivered to the rebuilt engine.
        if (stacks[j].link) stacks[j].link->restore_delivered(msg);
        ++replayed;
        ++wals[j]->stats().messages_replayed;
        route(j, msg, /*live=*/false);
      } else if (rec.type == store::RecordType::kSnapshot) {
        const auto s = store::decode_snapshot(BytesView(rec.payload));
        if (!s) continue;
        ++wals[j]->stats().snapshots_checked;
        if (*s != snapshot_of(j, replayed)) {
          ++wals[j]->stats().snapshot_mismatches;
          DAUCT_WARN("wal replay: snapshot checkpoint mismatch at node "
                     << j << " after " << replayed << " messages");
        }
      }
      // Decision records are durable commitments, not replay inputs.
    }
    wal_delivered[j] = replayed;
    replaying[j] = false;
    // Close the gap: ask every peer to re-send its cached frames for this
    // node. Everything already consumed pre-crash dedups against the keys
    // restored above; what the node never saw finally arrives.
    if (stacks[j].link) stacks[j].link->request_rejoin();
  };

  // A provider's handler and timers touch only node j's stack, WAL, engines
  // and per-node slots of shared tables, so providers run concurrently
  // inside a lookahead window. The client (below) writes the instance table
  // and the prefix map the providers read: it stays kShared and runs alone.
  for (NodeId j = 0; j < m; ++j) {
    scheduler.set_deliver(j, [&, j](const net::Message& raw) {
      // The reliable link consumes its control traffic (acks, re-requests)
      // and retransmitted duplicates before the engine can misread them,
      // and strips its wire header (piggybacked ack vectors) in place — the
      // copy is an alias (refcounted payload), not a byte copy.
      net::Message unwrapped;
      const net::Message* carried = &raw;
      if (net::ReliableLink* link = stacks[j].link.get()) {
        unwrapped = raw;
        if (!link->on_deliver(unwrapped)) return;
        carried = &unwrapped;
      }
      // Write-ahead: the delivery is durable before the engine sees it, so
      // a crash between the two replays it instead of losing it.
      journal_message(j, *carried);
      if (route(j, *carried, /*live=*/true)) maybe_snapshot(j);
    }, sim::Isolation::kIsolated);
  }

  // The client settles instances and drives the pipeline: the m-th result
  // report of instance t frees its slot, and instance t + depth launches in
  // the same handler (its bids depart as the handler's outbox flushes).
  sim::SimTime last_settle_at = 0;
  scheduler.set_deliver(client, [&](const net::Message& msg) {
    const auto d = demux(msg.topic);
    if (!d || d->second != result_topic || msg.from >= m) return;
    const core::InstanceId t = d->first;
    if (!insts[t]) return;
    Instance& inst = *insts[t];
    // One result per provider (duplicate-safe).
    if (inst.res.settled || inst.result_seen[msg.from]) return;
    inst.result_seen[msg.from] = true;
    if (++inst.results_at_client < m) return;
    // Settlement — ⊥ reports settle too: a poisoned instance retires and
    // the pipeline stays live for the rest.
    inst.res.settled = true;
    inst.res.settled_at = scheduler.now();
    last_settle_at = scheduler.now();
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
    for (NodeId idx = 0; idx < m; ++idx) {
      const NodeId j =
          base.bid_frames.reorder ? static_cast<NodeId>(m - 1 - idx) : idx;
      serde::Writer w;
      w.varint(initial);
      for (core::InstanceId t = 0; t < initial; ++t) {
        w.varint(t);
        w.bytes(BytesView(subs[t][j]));
      }
      const Bytes frame = w.take();
      const int copies = base.bid_frames.replay ? 2 : 1;
      for (int rep = 0; rep < copies; ++rep) {
        scheduler.inject(sim::kSimStart,
                         net::Message{client, j, batch_topic, frame});
      }
    }
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
    net::MessageValidator* v = stacks[j].validator.get();
    if (!v || v->finalize() != net::MessageValidator::Action::kAbort) continue;
    const Bottom b{v->proof() ? AbortReason::kEquivocationDetected
                              : AbortReason::kProtocolViolation,
                   v->abort_detail()};
    std::optional<core::InstanceId> who;
    if (identity) {
      who = core::InstanceId{0};
    } else if (v->proof()) {
      who = owner_of(v->proof()->topic);
    }
    if (who) {
      if (insts[*who]) insts[*who]->nodes[j].override_abort = b;
    } else {
      for (auto& up : insts) {
        if (up && up->res.launched && !up->res.settled) {
          up->nodes[j].override_abort = b;
        }
      }
    }
  }

  ServiceRunResult result;
  result.event_budget_exhausted = overflow;
  result.events_dispatched = scheduler.events_dispatched();
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
      } else if (nd.bundle.engine->done()) {
        inst.res.provider_outcomes.push_back(*nd.bundle.engine->outcome());
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
          inst.res.shared_seed = inst.nodes[j].bundle.engine->shared_seed();
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
    result.reliability_stats += rel_stats_acc[j];
    if (stacks[j].link) result.reliability_stats += stacks[j].link->stats();
  }
  if (wal_on) {
    for (NodeId j = 0; j < m; ++j) {
      result.wal_stats += wal_stats_acc[j];
      result.wal_stats += wals[j]->stats();
    }
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
      if (stacks[j].validator && stacks[j].validator->proof()) {
        result.equivocation_proof = stacks[j].validator->proof();
      }
    }
    if (!result.equivocation_proof) {
      std::vector<const net::MessageValidator*> vs;
      for (NodeId j = 0; j < m; ++j) {
        if (stacks[j].validator) vs.push_back(stacks[j].validator.get());
      }
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
