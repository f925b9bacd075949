#include "runtime/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>

#include "auction/workload.hpp"
#include "core/adapters.hpp"
#include "core/service_plane.hpp"
#include "crypto/sha256.hpp"
#include "serde/auction_codec.hpp"
#include "serde/csv.hpp"

namespace dauct::runtime {

namespace {

using serde::Emit;

/// Node field: a provider index, "client" (= providers, the client node of
/// the sim deployment), or "any" (wildcard, link rules only).
std::optional<NodeId> to_node(const std::string& s, std::size_t providers) {
  if (s == "any" || s == "*") return kNoNode;
  if (s == "client") return static_cast<NodeId>(providers);
  const auto v = serde::parse_u64(s);
  if (!v || *v >= kNoNode) return std::nullopt;
  return static_cast<NodeId>(*v);
}

std::string node_name(NodeId n, std::size_t providers) {
  if (n == kNoNode) return "any";
  if (n == static_cast<NodeId>(providers)) return "client";
  return std::to_string(n);
}

/// A node key; only [link] filters accept the "any" wildcard.
template <class Rec>
serde::IniKey<Rec, Scenario> node_key(const char* name, NodeId Rec::*field,
                                      Emit emit, bool any = false) {
  return serde::IniTable<Rec, Scenario>::custom(
      name, field,
      [any](const std::string& s, const Scenario& sc) {
        const auto n = to_node(s, sc.providers);
        return n && (any || *n != kNoNode) ? n : std::nullopt;
      },
      [](NodeId n, const Scenario& sc) { return node_name(n, sc.providers); },
      emit);
}

/// Comma-separated concrete nodes ([partition] group).
std::optional<std::vector<NodeId>> to_group(const std::string& s,
                                            const Scenario& sc) {
  std::vector<NodeId> group;
  std::istringstream in(s);
  for (std::string item; std::getline(in, item, ',');) {
    const std::size_t a = item.find_first_not_of(' ');
    const std::string word =
        a == std::string::npos ? "" : item.substr(a, item.find_last_not_of(' ') - a + 1);
    const auto n = to_node(word, sc.providers);
    if (!n || *n == kNoNode) return std::nullopt;
    group.push_back(*n);
  }
  if (group.empty()) return std::nullopt;
  return group;
}

std::string group_name(const std::vector<NodeId>& group, const Scenario& sc) {
  std::string out;
  for (NodeId n : group) out += (out.empty() ? "" : ", ") + node_name(n, sc.providers);
  return out;
}

// --- Run helpers -----------------------------------------------------------

sim::LatencyModel latency_by_name(const std::string& name) {
  if (name == "zero") return sim::LatencyModel::zero();
  if (name == "lan") return sim::LatencyModel::lan();
  return sim::LatencyModel::community();
}

std::shared_ptr<adversary::DeviationStrategy> make_strategy(
    const DeviationSpec& dev, std::vector<NodeId> coalition) {
  if (dev.strategy == "honest") return adversary::honest_provider();
  if (dev.strategy == "corrupt-coin-reveal") return adversary::corrupt_coin_reveal();
  if (dev.strategy == "equivocate-votes") return adversary::equivocate_votes();
  if (dev.strategy == "misvote") return adversary::misvote();
  if (dev.strategy == "forge-task-results") {
    return adversary::forge_task_results(std::move(coalition));
  }
  if (dev.strategy == "forge-output-digest") {
    return adversary::forge_output_digest(std::move(coalition));
  }
  if (dev.strategy == "selective-silence") {
    return adversary::selective_silence(std::move(coalition));
  }
  if (dev.strategy == "misreport-ask") return adversary::misreport_ask(dev.fake_cost);
  return nullptr;  // unreachable: names validated at parse time
}

std::string digest_of(const SimRunResult& run) {
  if (!run.global_outcome.ok()) return std::string();
  const Bytes enc = serde::encode_result(run.global_outcome.value());
  return crypto::digest_hex(crypto::sha256(BytesView(enc)));
}

/// Per-instance result digest — the value compared against the instance's
/// single-run twin's digest_of().
std::string digest_of_instance(const InstanceRunResult& inst) {
  if (!inst.outcome.ok()) return std::string();
  const Bytes enc = serde::encode_result(inst.outcome.value());
  return crypto::digest_hex(crypto::sha256(BytesView(enc)));
}

/// Service-run digest: sha256 over the concatenated per-instance result
/// encodings; "" when any instance is ⊥ (mirrors digest_of's ⊥ rule).
std::string digest_of_service(const ServiceRunResult& s) {
  Bytes all;
  for (const auto& inst : s.instances) {
    if (!inst.outcome.ok()) return std::string();
    const Bytes enc = serde::encode_result(inst.outcome.value());
    all.insert(all.end(), enc.begin(), enc.end());
  }
  return crypto::digest_hex(crypto::sha256(BytesView(all)));
}

/// Aggregate a service run into the single-run result shape so every
/// [expect] key keeps its meaning: global outcome ok iff ALL instances
/// cleared (else the first ⊥ — its reason drives abort_reason); the shared
/// run stats carry over as they are.
SimRunResult aggregate_service(const ServiceRunResult& s) {
  SimRunResult r;
  static_cast<RunStats&>(r) = s;
  r.global_outcome =
      s.instances.empty()
          ? auction::AuctionOutcome(Bottom{AbortReason::kTimeout,
                                           "service run produced no instances"})
          : s.instances.front().outcome;
  for (const auto& inst : s.instances) {
    if (!inst.outcome.ok()) {
      r.global_outcome = inst.outcome;
      break;
    }
  }
  return r;
}

}  // namespace

std::string instance_result_digest(const InstanceRunResult& inst) {
  return digest_of_instance(inst);
}

const std::vector<std::string>& deviation_strategy_names() {
  static const std::vector<std::string> names = {
      "honest",           "corrupt-coin-reveal", "equivocate-votes",
      "misvote",          "forge-task-results",  "forge-output-digest",
      "selective-silence", "misreport-ask",
  };
  return names;
}

const serde::IniSchema<Scenario>& scenario_schema() {
  using adversary::AuthAdversaryConfig;
  using adversary::BidFrameAdversary;
  using net::AuthConfig;
  using net::ReliabilityConfig;
  using sim::CrashEvent;
  using sim::FaultPlan;
  using sim::LinkCut;
  using sim::LinkFault;
  using sim::Partition;
  using Run = serde::IniTable<Scenario, Scenario>;
  using Fault = serde::IniTable<FaultPlan, Scenario>;
  using Link = serde::IniTable<LinkFault, Scenario>;
  using Cut = serde::IniTable<LinkCut, Scenario>;
  using Part = serde::IniTable<Partition, Scenario>;
  using Crash = serde::IniTable<CrashEvent, Scenario>;
  using Rel = serde::IniTable<ReliabilityConfig, Scenario>;
  using Auth = serde::IniTable<AuthConfig, Scenario>;
  using AuthAdv = serde::IniTable<AuthAdversaryConfig, Scenario>;
  using Dev = serde::IniTable<DeviationSpec, Scenario>;
  using Bidder = serde::IniTable<BidderSpec, Scenario>;
  using Frames = serde::IniTable<BidFrameAdversary, Scenario>;
  using Expect = serde::IniTable<ScenarioExpect, Scenario>;
  constexpr Emit changed = Emit::kChanged;
  constexpr Emit always = Emit::kAlways;
  constexpr Emit required = Emit::kRequired;
  constexpr std::uint64_t kLast = sim::kAnyInstance - 1;  // instance= bound
  const auto whole = [](auto& sc) -> auto& { return sc; };

  // Rows and sections are in emission and parse order (a file may list
  // sections in any order). Tuning knobs on a disabled layer would silently do
  // nothing, so each is gated on its layer's switch; round_timeout_ms = 0
  // ("watchdogs off") is inert.
  static const serde::IniSchema<Scenario> schema({
      Run::section("scenario", whole,
                   {Run::text("name", &Scenario::name),
                    Run::text("description", &Scenario::description)}),
      // Before every section that names nodes: "client" is node m.
      Run::section(
          "run", whole,
          {Run::one_of("auction", &Scenario::auction, {"double", "standard"}),
           Run::u64("users", &Scenario::users, always, 1),
           Run::u64("providers", &Scenario::providers, always, 1),
           Run::u64("k", &Scenario::k, always),
           // (0, 1), open: the closed range between the neighbouring doubles.
           Run::ranged("epsilon", &Scenario::epsilon, serde::parse_f64,
                       serde::format_f64, std::nextafter(0.0, 1.0),
                       std::nextafter(1.0, 0.0), changed),
           Run::u64("seed", &Scenario::seed, always),
           Run::one_of("latency", &Scenario::latency, {"zero", "lan", "community"}),
           Run::u64("max_events", &Scenario::max_events, changed, 1)},
          {.present = [](const Scenario&) { return true; }}),
      Run::section("service", whole,
                   {Run::u64("instances", &Scenario::instances, always, 1),
                    Run::u64("pipeline_depth", &Scenario::pipeline_depth, changed, 1)}),
      Fault::section("fault", &Scenario::faults,
                     {Fault::u64("seed", &FaultPlan::seed, always)},
                     {.present = [](const FaultPlan& f) { return !f.empty(); }}),
      Link::section("link", [](auto& sc) -> auto& { return sc.faults.links; },
                    {node_key("from", &LinkFault::from, changed, true),
                     node_key("to", &LinkFault::to, changed, true),
                     Link::boolean("symmetric", &LinkFault::symmetric),
                     Link::probability("drop", &LinkFault::drop),
                     Link::probability("duplicate", &LinkFault::duplicate),
                     Link::time_ms("delay_ms", &LinkFault::extra_delay),
                     Link::time_ms("jitter_ms", &LinkFault::jitter),
                     Link::time_ms("from_ms", &LinkFault::active_from),
                     Link::time_ms("until_ms", &LinkFault::active_until),
                     Link::u64("instance", &LinkFault::instance, changed, 0, kLast)}),
      Cut::section("cut", [](auto& sc) -> auto& { return sc.faults.cuts; },
                   {node_key("a", &LinkCut::a, required),
                    node_key("b", &LinkCut::b, required),
                    Cut::time_ms("from_ms", &LinkCut::from),
                    Cut::time_ms("until_ms", &LinkCut::until),
                    Cut::u64("instance", &LinkCut::instance, changed, 0, kLast)}),
      Part::section(
          "partition", [](auto& sc) -> auto& { return sc.faults.partitions; },
          {Part::custom("group", &Partition::group, to_group, group_name, required),
           Part::time_ms("from_ms", &Partition::from),
           Part::time_ms("until_ms", &Partition::until),
           Part::u64("instance", &Partition::instance, changed, 0, kLast)}),
      Crash::section(
          "crash", [](auto& sc) -> auto& { return sc.faults.crashes; },
          {node_key("node", &CrashEvent::node, required),
           Crash::time_ms("at_ms", &CrashEvent::at),
           Crash::time_ms("recover_ms", &CrashEvent::recover_at),
           Crash::one_of("mode", &CrashEvent::mode, {"recover", "amnesia"})},
          {.check = [](const CrashEvent& c) -> const char* {
            return c.mode == sim::CrashMode::kAmnesia &&
                           c.recover_at == sim::kSimForever
                       ? "[crash] mode=amnesia needs recover_ms (a node that "
                         "never restarts has nothing to recover)"
                       : nullptr;
          }}),
      Rel::section(
          "reliability", &Scenario::reliability,
          {Rel::boolean("enable", &ReliabilityConfig::enable, always),
           Rel::time_ms("retransmit_delay_ms", &ReliabilityConfig::retransmit_delay, 1)
               .knob("enable"),
           Rel::u64("max_retries", &ReliabilityConfig::max_retries).knob("enable"),
           Rel::time_ms("round_timeout_ms", &ReliabilityConfig::round_timeout)
               .knob("enable", "0")}),
      Run::section(
          "wal", whole,
          {Run::boolean("enable", [](auto& sc) -> auto& { return sc.wal.enable; },
                        always),
           Run::u64("snapshot_every",
                    [](auto& sc) -> auto& { return sc.wal.snapshot_every; })
               .knob("enable"),
           Run::boolean("corrupt", [](auto& sc) -> auto& { return sc.wal_fault.enable; })
               .knob("enable", "false"),
           Run::u64("corrupt_seed", [](auto& sc) -> auto& { return sc.wal_fault.seed; })
               .knob("corrupt"),
           Run::probability("sync_drop",
                            [](auto& sc) -> auto& { return sc.wal_fault.sync_drop; })
               .knob("corrupt"),
           Run::probability("torn", [](auto& sc) -> auto& { return sc.wal_fault.torn; })
               .knob("corrupt"),
           Run::probability("flip", [](auto& sc) -> auto& { return sc.wal_fault.flip; })
               .knob("corrupt")},
          {.check = [](const Scenario& sc) -> const char* {
            return sc.wal_fault.torn + sc.wal_fault.flip > 1.0
                       ? "[wal] torn + flip must not exceed 1 (a crash draws "
                         "one damage mode)"
                       : nullptr;
          }}),
      Auth::section("auth", &Scenario::auth,
                    {Auth::boolean("enable", &AuthConfig::enable, always),
                     Auth::boolean("batch", &AuthConfig::batch_verify)
                         .knob("enable", "false")}),
      AuthAdv::section("auth_adversary", &Scenario::auth_adversary,
                       {node_key("node", &AuthAdversaryConfig::node, required),
                        AuthAdv::one_of("mode", &AuthAdversaryConfig::mode,
                                        {"", "forge", "replay"}, required)}),
      Dev::section(
          "deviation", &Scenario::deviations,
          {node_key("node", &DeviationSpec::node, required),
           Dev::one_of("strategy", &DeviationSpec::strategy,
                       deviation_strategy_names(), required),
           Dev::custom(
               "fake_cost", &DeviationSpec::fake_cost,
               [](const std::string& s, const Scenario&) {
                 return serde::parse_money(s);
               },
               [](const Money& v, const Scenario&) { return v.str(); }),
           Dev::u64("instance", &DeviationSpec::instance, changed, 0, kLast)}),
      Bidder::section("bidder", &Scenario::bidders,
                      {Bidder::u64("bidder", &BidderSpec::bidder, required, 0,
                                   std::numeric_limits<BidderId>::max()),
                       Bidder::one_of("behaviour", &BidderSpec::behaviour,
                                      adversary::bidder_behaviour_names(), required)}),
      Frames::section(
          "bid_frames", &Scenario::bid_frames,
          {Frames::boolean("replay", &BidFrameAdversary::replay),
           Frames::boolean("reorder", &BidFrameAdversary::reorder)},
          {.check = [](const BidFrameAdversary& b) -> const char* {
            return b.any() ? nullptr
                           : "[bid_frames] needs replay=true or reorder=true";
          }}),
      Expect::section(
          "expect", &Scenario::expect,
          {Expect::one_of("outcome", &ScenarioExpect::outcome, {"", "ok", "bottom"}),
           Expect::boolean("stalled", &ScenarioExpect::stalled),
           Expect::boolean("matches_clean", &ScenarioExpect::matches_clean),
           Expect::text("abort_reason", &ScenarioExpect::abort_reason),
           Expect::u64("min_faults", &ScenarioExpect::min_faults),
           Expect::u64("min_auth_rejects", &ScenarioExpect::min_auth_rejects),
           Expect::boolean("equivocation_proof", &ScenarioExpect::equivocation_proof),
           Expect::u64("min_instances_ok", &ScenarioExpect::min_instances_ok),
           Expect::boolean("instances_match_twins",
                           &ScenarioExpect::instances_match_twins)}),
  });
  return schema;
}

namespace {

/// Rules that relate several sections (each section's own rules live in its
/// table): "" or the first violation.
std::string validate(const Scenario& sc) {
  const std::string m = std::to_string(sc.providers);
  if (sc.providers <= 2 * sc.k) {
    return "[run] requires providers > 2k (m=" + m + ", k=" + std::to_string(sc.k) + ")";
  }
  for (const auto& dev : sc.deviations) {
    if (dev.node >= sc.providers) {
      return "[deviation] node " + std::to_string(dev.node) +
             " is not a provider (m=" + m + ")";
    }
  }
  if (sc.auth_adversary.mode != adversary::AuthTamperMode::kNone) {
    if (!sc.auth.enable) {
      return "[auth_adversary] requires [auth] enable=true (without the "
             "signing layer there is nothing to forge or replay against)";
    }
    if (sc.auth_adversary.node >= sc.providers) {
      return "[auth_adversary] node " + std::to_string(sc.auth_adversary.node) +
             " is not a provider (m=" + m + ")";
    }
  }
  if (sc.expect.min_auth_rejects && !sc.auth.enable) {
    return "[expect] min_auth_rejects requires [auth] enable=true";
  }
  if (sc.expect.equivocation_proof.value_or(false) && !sc.auth.enable) {
    return "[expect] equivocation_proof=true requires [auth] enable=true";
  }
  // The records fault and deviation sections add: the nodes each names and
  // its instance filter. Every concrete node must exist in the deployment
  // (providers 0..m-1 plus the client node m) — a typo'd id would otherwise
  // parse fine and silently never fire, turning the scenario into a no-op.
  struct Ref {
    const char* section;
    std::vector<NodeId> nodes;
    std::uint64_t instance;
  };
  std::vector<Ref> refs;
  for (const auto& r : sc.faults.links) refs.push_back({"link", {r.from, r.to}, r.instance});
  for (const auto& c : sc.faults.cuts) refs.push_back({"cut", {c.a, c.b}, c.instance});
  for (const auto& p : sc.faults.partitions) {
    refs.push_back({"partition", p.group, p.instance});
  }
  for (const auto& c : sc.faults.crashes) {
    refs.push_back({"crash", {c.node}, sim::kAnyInstance});
  }
  for (const auto& dev : sc.deviations) refs.push_back({"deviation", {}, dev.instance});
  for (const Ref& ref : refs) {
    for (NodeId n : ref.nodes) {
      if (n == kNoNode || n <= sc.providers) continue;
      return std::string("[") + ref.section + "] node " + std::to_string(n) +
             " does not exist (providers 0.." + std::to_string(sc.providers - 1) +
             ", client = " + m + ")";
    }
  }
  // Amnesia recovery replays durable state and closes the gap over the
  // reliability layer's re-request path: without both, the "recovered" node
  // would silently come back empty — a config mistake, not a request.
  const bool any_amnesia = std::any_of(
      sc.faults.crashes.begin(), sc.faults.crashes.end(),
      [](const sim::CrashEvent& c) { return c.mode == sim::CrashMode::kAmnesia; });
  if (any_amnesia && !sc.wal.enable) {
    return "[crash] mode=amnesia requires [wal] enable=true (there is no "
           "durable state to recover from)";
  }
  if (any_amnesia && !sc.reliability.enable) {
    return "[crash] mode=amnesia requires [reliability] enable=true (the "
           "rejoin sweep runs over the re-request path)";
  }
  // [service] consistency. Instance filters and instance-level expectations
  // only mean something when more than one instance runs; a depth above the
  // instance count could never fill its pipeline.
  const bool service = sc.instances > 1;
  const std::string instances = std::to_string(sc.instances);
  if (sc.pipeline_depth > sc.instances) {
    return "[service] pipeline_depth " + std::to_string(sc.pipeline_depth) +
           " exceeds instances " + instances;
  }
  for (const Ref& ref : refs) {
    const std::string section = ref.section;
    if (ref.instance == sim::kAnyInstance) continue;
    if (!service) return "[" + section + "] instance= requires [service] instances > 1";
    if (ref.instance >= sc.instances) {
      return "[" + section + "] instance " + std::to_string(ref.instance) +
             " does not exist (instances = " + instances + ")";
    }
  }
  // [bidder] sanity: the id must be one of the scenario's users, and two
  // sections naming the same bidder would silently shadow each other.
  std::set<BidderId> seen;
  for (const auto& b : sc.bidders) {
    const std::string id = "[bidder] bidder " + std::to_string(b.bidder);
    if (b.bidder >= sc.users) {
      return id + " does not exist (users = " + std::to_string(sc.users) + ")";
    }
    if (!seen.insert(b.bidder).second) {
      return id + " appears in more than one [bidder] section";
    }
  }
  // [wal] corrupt damages the live tail at an amnesia crash; without one it
  // would never fire — a config mistake, not a request.
  if (sc.wal_fault.enable && !any_amnesia) {
    return "[wal] corrupt=true requires a [crash] with mode=amnesia (the "
           "lying disk only damages the tail at an amnesia crash)";
  }
  if (!service && sc.expect.min_instances_ok) {
    return "[expect] min_instances_ok requires [service] instances > 1";
  }
  if (!service && sc.expect.instances_match_twins) {
    return "[expect] instances_match_twins requires [service] instances > 1";
  }
  if (sc.expect.min_instances_ok.value_or(0) > sc.instances) {
    return "[expect] min_instances_ok " +
           std::to_string(*sc.expect.min_instances_ok) +
           " exceeds [service] instances " + instances;
  }
  return std::string();
}

}  // namespace

std::string Scenario::to_scn() const { return scenario_schema().emit(*this); }

ScenarioParse parse_scenario(std::string_view text) {
  Scenario sc;
  std::string error = scenario_schema().parse(text, sc);
  if (error.empty()) error = validate(sc);
  if (!error.empty()) return {std::nullopt, std::move(error)};
  return {std::move(sc), std::string()};
}

ScenarioRun run_scenario(const Scenario& scenario, bool force_clean_twin) {
  ScenarioRun out;

  const auto gen_instance = [&](std::uint64_t seed) {
    crypto::Rng rng(seed);
    if (scenario.auction == "standard") {
      return auction::generate(
          auction::standard_auction_workload(scenario.users, scenario.providers),
          rng);
    }
    return auction::generate(
        auction::double_auction_workload(scenario.users, scenario.providers), rng);
  };
  std::shared_ptr<core::AuctionAdapter> adapter;
  if (scenario.auction == "standard") {
    auction::StandardAuctionParams params;
    params.epsilon = scenario.epsilon;
    adapter = std::make_shared<core::StandardAuctionAdapter>(params);
  } else {
    adapter = std::make_shared<core::DoubleAuctionAdapter>();
  }
  // One workload per instance, each from the seed its single-run twin would
  // use — instance 0 (and every non-[service] run) keeps the scenario seed.
  const bool service = scenario.instances > 1;
  std::vector<auction::AuctionInstance> workloads;
  workloads.reserve(service ? scenario.instances : 1);
  for (std::size_t i = 0; i < (service ? scenario.instances : 1); ++i) {
    workloads.push_back(
        gen_instance(core::derive_instance_seed(scenario.seed, i)));
  }
  const auction::AuctionInstance& instance = workloads.front();

  core::AuctioneerSpec spec;
  spec.m = scenario.providers;
  spec.k = scenario.k;
  spec.num_bidders = instance.bids.size();
  std::unique_ptr<core::DistributedAuctioneer> auctioneer;
  try {
    auctioneer = std::make_unique<core::DistributedAuctioneer>(spec, adapter);
  } catch (const std::invalid_argument& e) {
    out.failures.push_back(std::string("invalid auctioneer spec: ") + e.what());
    return out;
  }

  runtime::SimRunConfig cfg;
  cfg.seed = scenario.seed;
  cfg.latency = latency_by_name(scenario.latency);
  cfg.cost_mode = sim::CostMode::kZero;  // the run is a pure function of the file
  cfg.max_events = scenario.max_events;
  cfg.faults = scenario.faults;
  cfg.reliability = scenario.reliability;
  cfg.wal = scenario.wal;
  cfg.auth = scenario.auth;
  cfg.auth_adversary = scenario.auth_adversary;
  cfg.bid_frames = scenario.bid_frames;
  cfg.wal_fault = scenario.wal_fault;
  for (const auto& b : scenario.bidders) {
    cfg.bidder_script[b.bidder] =
        adversary::bidder_behaviour_by_name(b.behaviour, scenario.providers);
  }
  std::vector<NodeId> coalition;
  for (const auto& dev : scenario.deviations) coalition.push_back(dev.node);
  for (const auto& dev : scenario.deviations) {
    cfg.deviations[dev.node] = make_strategy(dev, coalition);
  }

  const ScenarioExpect& exp = scenario.expect;
  if (service) {
    ServiceRunConfig svc;
    svc.base = cfg;
    svc.base.deviations.clear();  // carried as ServiceDeviations instead
    svc.instances = scenario.instances;
    svc.pipeline_depth = scenario.pipeline_depth;
    for (const auto& dev : scenario.deviations) {
      svc.deviations.push_back(ServiceDeviation{
          dev.instance, dev.node, make_strategy(dev, coalition)});
    }
    out.service = ServiceRuntime(svc).run(*auctioneer, workloads);
    out.run = aggregate_service(*out.service);
    out.result_digest = digest_of_service(*out.service);
    if (exp.matches_clean.has_value() || force_clean_twin) {
      ServiceRunConfig clean_svc = svc;
      clean_svc.base.faults.reset();
      clean_svc.deviations.clear();
      clean_svc.base.auth_adversary = {};  // keeps auth (and wal), loses the attacker
      clean_svc.base.bid_frames = {};      // frame tricks are faults too
      clean_svc.base.wal_fault = {};       // ...and so is the lying disk
      ServiceRunResult clean = ServiceRuntime(clean_svc).run(*auctioneer, workloads);
      out.clean_digest = digest_of_service(clean);
      out.clean = aggregate_service(clean);
      out.clean_service = std::move(clean);
    }
  } else {
    SimRuntime rt(cfg);
    out.run = rt.run_distributed(*auctioneer, instance);
    out.result_digest = digest_of(out.run);
    if (exp.matches_clean.has_value() || force_clean_twin) {
      SimRunConfig clean_cfg = cfg;
      clean_cfg.faults.reset();
      clean_cfg.deviations.clear();
      clean_cfg.auth_adversary = {};  // the twin keeps auth (and wal), loses the attacker
      clean_cfg.bid_frames = {};      // frame tricks are faults too
      clean_cfg.wal_fault = {};       // ...and so is the lying disk
      out.clean = SimRuntime(clean_cfg).run_distributed(*auctioneer, instance);
      out.clean_digest = digest_of(*out.clean);
    }
  }

  // --- Expectation verdicts ---
  const auto& run = out.run;
  if (exp.outcome == ScenarioExpect::Outcome::kOk && !run.global_outcome.ok()) {
    out.failures.push_back(
        "expected outcome=ok, got ⊥ (" +
        std::string(abort_reason_name(run.global_outcome.bottom().reason)) + ")");
  }
  if (exp.outcome == ScenarioExpect::Outcome::kBottom && run.global_outcome.ok()) {
    out.failures.push_back("expected outcome=bottom, run reached (x, p⃗)");
  }
  if (exp.stalled && *exp.stalled != run.stalled) {
    out.failures.push_back(std::string("expected stalled=") +
                           (*exp.stalled ? "true" : "false") + ", run " +
                           (run.stalled ? "stalled" : "completed"));
  }
  if (exp.matches_clean) {
    const bool both_ok = run.global_outcome.ok() && out.clean->global_outcome.ok();
    const bool match = both_ok && out.result_digest == out.clean_digest;
    if (*exp.matches_clean && !match) {
      out.failures.push_back(
          "expected the fault-free result, got " +
          (run.global_outcome.ok() ? "digest " + out.result_digest
                                   : std::string("⊥")) +
          " vs clean " + (out.clean->global_outcome.ok() ? out.clean_digest
                                                         : std::string("⊥")));
    }
    if (!*exp.matches_clean && match) {
      out.failures.push_back("expected a diverging result, got the clean one");
    }
  }
  if (exp.abort_reason) {
    if (run.global_outcome.ok()) {
      out.failures.push_back("expected abort_reason=" + *exp.abort_reason +
                             ", run reached (x, p⃗)");
    } else if (abort_reason_name(run.global_outcome.bottom().reason) !=
               *exp.abort_reason) {
      out.failures.push_back(
          "expected abort_reason=" + *exp.abort_reason + ", got " +
          abort_reason_name(run.global_outcome.bottom().reason));
    }
  }
  if (exp.min_faults) {
    const std::uint64_t injected =
        run.fault_stats.total_dropped() + run.fault_stats.duplicated +
        run.fault_stats.delayed;
    if (injected < *exp.min_faults) {
      out.failures.push_back("expected min_faults=" +
                             std::to_string(*exp.min_faults) + ", injector saw " +
                             std::to_string(injected));
    }
  }
  if (exp.min_auth_rejects) {
    const std::uint64_t rejects = run.auth_stats.rejected_bad_sig +
                                  run.auth_stats.rejected_malformed +
                                  run.auth_stats.replays_dropped;
    if (rejects < *exp.min_auth_rejects) {
      out.failures.push_back(
          "expected min_auth_rejects=" + std::to_string(*exp.min_auth_rejects) +
          ", validators rejected " + std::to_string(rejects));
    }
  }
  if (exp.equivocation_proof) {
    if (*exp.equivocation_proof != run.equivocation_proof.has_value()) {
      out.failures.push_back(std::string("expected equivocation_proof=") +
                             (*exp.equivocation_proof ? "true" : "false") +
                             ", run " +
                             (run.equivocation_proof ? "produced one"
                                                     : "produced none"));
    } else if (run.equivocation_proof) {
      // A proof is only as good as its independent verification: re-derive
      // the run's key directory and check it with the public key alone.
      const net::KeyDirectory keys(scenario.providers, scenario.seed);
      if (run.equivocation_proof->signer >= keys.size() ||
          !net::verify_equivocation_proof(
              *run.equivocation_proof,
              keys.public_key(run.equivocation_proof->signer))) {
        out.failures.push_back(
            "equivocation proof failed independent verification");
      }
    }
  }
  if (exp.min_instances_ok && out.service &&
      out.service->settled_ok < *exp.min_instances_ok) {
    out.failures.push_back(
        "expected min_instances_ok=" + std::to_string(*exp.min_instances_ok) +
        ", only " + std::to_string(out.service->settled_ok) + " of " +
        std::to_string(out.service->instances.size()) + " instances cleared");
  }
  if (exp.instances_match_twins && out.service) {
    // Every instance that cleared must reproduce its single-run twin: a
    // standalone run at the derived seed with the same transport layers and
    // no faults. ⊥ instances are exempt (the faults that poisoned them are
    // exactly what the scenario injected).
    bool all_match = true;
    std::string detail;
    for (const auto& inst : out.service->instances) {
      if (!inst.outcome.ok()) continue;
      SimRunConfig twin_cfg = cfg;
      twin_cfg.seed = inst.derived_seed;
      twin_cfg.faults.reset();
      twin_cfg.deviations.clear();
      twin_cfg.auth_adversary = {};
      twin_cfg.bid_frames = {};
      twin_cfg.wal_fault = {};
      const SimRunResult twin =
          SimRuntime(twin_cfg).run_distributed(*auctioneer, workloads[inst.id]);
      if (digest_of(twin) != digest_of_instance(inst)) {
        all_match = false;
        detail = "instance " + std::to_string(inst.id) + " diverged from its twin";
        break;
      }
    }
    if (*exp.instances_match_twins && !all_match) {
      out.failures.push_back("expected instances_match_twins=true: " + detail);
    }
    if (!*exp.instances_match_twins && all_match) {
      out.failures.push_back(
          "expected instances_match_twins=false, every cleared instance "
          "matched its twin");
    }
  }
  return out;
}

}  // namespace dauct::runtime
