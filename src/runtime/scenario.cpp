#include "runtime/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <set>

#include "auction/workload.hpp"
#include "core/adapters.hpp"
#include "core/service_plane.hpp"
#include "crypto/sha256.hpp"
#include "serde/auction_codec.hpp"
#include "serde/csv.hpp"
#include "serde/ini.hpp"
#include "serde/ini_values.hpp"

namespace dauct::runtime {

namespace {

// --- Typed value parsing ---------------------------------------------------
// Scalar grammar lives in serde/ini_values.hpp (shared with the fuzz-bounds
// parser and the to_scn emitter); these aliases keep the section schemas
// below readable.

const auto& to_u64 = serde::parse_u64;
const auto& to_double = serde::parse_f64;
const auto& to_bool = serde::parse_bool_word;
const auto& to_time_ms = serde::parse_time_ms;
const auto& to_probability = serde::parse_probability;

/// Node field: a provider index, "client" (= providers, the client node of
/// the sim deployment), or "any" (wildcard, link rules only).
std::optional<NodeId> to_node(const std::string& s, std::size_t providers) {
  if (s == "any" || s == "*") return kNoNode;
  if (s == "client") return static_cast<NodeId>(providers);
  const auto v = to_u64(s);
  if (!v || *v >= kNoNode) return std::nullopt;
  return static_cast<NodeId>(*v);
}

// --- Section schemas -------------------------------------------------------

struct ParseCtx {
  Scenario sc;
  std::string error;  ///< first error; parsing stops

  bool fail(std::size_t line, const std::string& what) {
    if (error.empty()) error = "line " + std::to_string(line) + ": " + what;
    return false;
  }
  bool bad_value(const serde::IniKeyValue& kv) {
    return fail(kv.line, "bad value for '" + kv.key + "': '" + kv.value + "'");
  }
  bool unknown_key(const std::string& section, const serde::IniKeyValue& kv) {
    return fail(kv.line, "unknown key '" + kv.key + "' in [" + section + "]");
  }
};

bool parse_scenario_section(ParseCtx& ctx, const serde::IniSection& sec) {
  for (const auto& kv : sec.entries) {
    if (kv.key == "name") ctx.sc.name = kv.value;
    else if (kv.key == "description") ctx.sc.description = kv.value;
    else return ctx.unknown_key("scenario", kv);
  }
  return true;
}

bool parse_run_section(ParseCtx& ctx, const serde::IniSection& sec) {
  for (const auto& kv : sec.entries) {
    if (kv.key == "auction") {
      if (kv.value != "double" && kv.value != "standard") return ctx.bad_value(kv);
      ctx.sc.auction = kv.value;
    } else if (kv.key == "users") {
      const auto v = to_u64(kv.value);
      if (!v || *v == 0) return ctx.bad_value(kv);
      ctx.sc.users = static_cast<std::size_t>(*v);
    } else if (kv.key == "providers") {
      const auto v = to_u64(kv.value);
      if (!v || *v == 0) return ctx.bad_value(kv);
      ctx.sc.providers = static_cast<std::size_t>(*v);
    } else if (kv.key == "k") {
      const auto v = to_u64(kv.value);
      if (!v) return ctx.bad_value(kv);
      ctx.sc.k = static_cast<std::size_t>(*v);
    } else if (kv.key == "epsilon") {
      const auto v = to_double(kv.value);
      if (!v || *v <= 0 || *v >= 1) return ctx.bad_value(kv);
      ctx.sc.epsilon = *v;
    } else if (kv.key == "seed") {
      const auto v = to_u64(kv.value);
      if (!v) return ctx.bad_value(kv);
      ctx.sc.seed = *v;
    } else if (kv.key == "latency") {
      if (kv.value != "zero" && kv.value != "lan" && kv.value != "community") {
        return ctx.bad_value(kv);
      }
      ctx.sc.latency = kv.value;
    } else if (kv.key == "max_events") {
      const auto v = to_u64(kv.value);
      if (!v || *v == 0) return ctx.bad_value(kv);
      ctx.sc.max_events = *v;
    } else {
      return ctx.unknown_key("run", kv);
    }
  }
  return true;
}

bool parse_fault_section(ParseCtx& ctx, const serde::IniSection& sec) {
  for (const auto& kv : sec.entries) {
    if (kv.key == "seed") {
      const auto v = to_u64(kv.value);
      if (!v) return ctx.bad_value(kv);
      ctx.sc.faults.seed = *v;
    } else {
      return ctx.unknown_key("fault", kv);
    }
  }
  return true;
}

bool parse_link_section(ParseCtx& ctx, const serde::IniSection& sec) {
  sim::LinkFault rule;
  for (const auto& kv : sec.entries) {
    if (kv.key == "from" || kv.key == "to") {
      const auto v = to_node(kv.value, ctx.sc.providers);
      if (!v) return ctx.bad_value(kv);
      (kv.key == "from" ? rule.from : rule.to) = *v;
    } else if (kv.key == "symmetric") {
      const auto v = to_bool(kv.value);
      if (!v) return ctx.bad_value(kv);
      rule.symmetric = *v;
    } else if (kv.key == "drop" || kv.key == "duplicate") {
      const auto v = to_probability(kv.value);
      if (!v) return ctx.bad_value(kv);
      (kv.key == "drop" ? rule.drop : rule.duplicate) = *v;
    } else if (kv.key == "delay_ms" || kv.key == "jitter_ms" ||
               kv.key == "from_ms" || kv.key == "until_ms") {
      const auto v = to_time_ms(kv.value);
      if (!v) return ctx.bad_value(kv);
      if (kv.key == "delay_ms") rule.extra_delay = *v;
      else if (kv.key == "jitter_ms") rule.jitter = *v;
      else if (kv.key == "from_ms") rule.active_from = *v;
      else rule.active_until = *v;
    } else if (kv.key == "instance") {
      const auto v = to_u64(kv.value);
      if (!v || *v == sim::kAnyInstance) return ctx.bad_value(kv);
      rule.instance = *v;
    } else {
      return ctx.unknown_key("link", kv);
    }
  }
  ctx.sc.faults.links.push_back(rule);
  return true;
}

bool parse_cut_section(ParseCtx& ctx, const serde::IniSection& sec) {
  sim::LinkCut cut;
  for (const auto& kv : sec.entries) {
    if (kv.key == "a" || kv.key == "b") {
      const auto v = to_node(kv.value, ctx.sc.providers);
      if (!v || *v == kNoNode) return ctx.bad_value(kv);
      (kv.key == "a" ? cut.a : cut.b) = *v;
    } else if (kv.key == "from_ms" || kv.key == "until_ms") {
      const auto v = to_time_ms(kv.value);
      if (!v) return ctx.bad_value(kv);
      (kv.key == "from_ms" ? cut.from : cut.until) = *v;
    } else if (kv.key == "instance") {
      const auto v = to_u64(kv.value);
      if (!v || *v == sim::kAnyInstance) return ctx.bad_value(kv);
      cut.instance = *v;
    } else {
      return ctx.unknown_key("cut", kv);
    }
  }
  if (cut.a == kNoNode || cut.b == kNoNode) {
    return ctx.fail(sec.line, "[cut] needs both endpoints 'a' and 'b'");
  }
  ctx.sc.faults.cuts.push_back(cut);
  return true;
}

bool parse_partition_section(ParseCtx& ctx, const serde::IniSection& sec) {
  sim::Partition part;
  for (const auto& kv : sec.entries) {
    if (kv.key == "group") {
      std::string_view rest = kv.value;
      while (!rest.empty()) {
        const std::size_t comma = rest.find(',');
        std::string item(rest.substr(0, comma));
        rest.remove_prefix(comma == std::string_view::npos ? rest.size() : comma + 1);
        while (!item.empty() && item.front() == ' ') item.erase(item.begin());
        while (!item.empty() && item.back() == ' ') item.pop_back();
        const auto v = to_node(item, ctx.sc.providers);
        if (!v || *v == kNoNode) return ctx.bad_value(kv);
        part.group.push_back(*v);
      }
      if (part.group.empty()) return ctx.bad_value(kv);
    } else if (kv.key == "from_ms" || kv.key == "until_ms") {
      const auto v = to_time_ms(kv.value);
      if (!v) return ctx.bad_value(kv);
      (kv.key == "from_ms" ? part.from : part.until) = *v;
    } else if (kv.key == "instance") {
      const auto v = to_u64(kv.value);
      if (!v || *v == sim::kAnyInstance) return ctx.bad_value(kv);
      part.instance = *v;
    } else {
      return ctx.unknown_key("partition", kv);
    }
  }
  if (part.group.empty()) {
    return ctx.fail(sec.line, "[partition] needs a 'group'");
  }
  ctx.sc.faults.partitions.push_back(std::move(part));
  return true;
}

bool parse_crash_section(ParseCtx& ctx, const serde::IniSection& sec) {
  sim::CrashEvent crash;
  bool have_node = false;
  for (const auto& kv : sec.entries) {
    if (kv.key == "node") {
      const auto v = to_node(kv.value, ctx.sc.providers);
      if (!v || *v == kNoNode) return ctx.bad_value(kv);
      crash.node = *v;
      have_node = true;
    } else if (kv.key == "at_ms" || kv.key == "recover_ms") {
      const auto v = to_time_ms(kv.value);
      if (!v) return ctx.bad_value(kv);
      (kv.key == "at_ms" ? crash.at : crash.recover_at) = *v;
    } else if (kv.key == "mode") {
      if (kv.value == "recover") crash.mode = sim::CrashMode::kRecover;
      else if (kv.value == "amnesia") crash.mode = sim::CrashMode::kAmnesia;
      else return ctx.bad_value(kv);
    } else {
      return ctx.unknown_key("crash", kv);
    }
  }
  if (!have_node) return ctx.fail(sec.line, "[crash] needs a 'node'");
  if (crash.mode == sim::CrashMode::kAmnesia &&
      crash.recover_at == sim::kSimForever) {
    return ctx.fail(sec.line,
                    "[crash] mode=amnesia needs recover_ms (a node that never "
                    "restarts has nothing to recover)");
  }
  ctx.sc.faults.crashes.push_back(crash);
  return true;
}

bool parse_reliability_section(ParseCtx& ctx, const serde::IniSection& sec) {
  bool knobs = false;  // any key besides enable
  for (const auto& kv : sec.entries) {
    if (kv.key == "enable") {
      const auto v = to_bool(kv.value);
      if (!v) return ctx.bad_value(kv);
      ctx.sc.reliability.enable = *v;
    } else if (kv.key == "retransmit_delay_ms") {
      const auto v = to_time_ms(kv.value);
      if (!v || *v == 0) return ctx.bad_value(kv);  // 0 would retransmit in a spin
      ctx.sc.reliability.retransmit_delay = *v;
      knobs = true;
    } else if (kv.key == "max_retries") {
      const auto v = to_u64(kv.value);
      if (!v) return ctx.bad_value(kv);
      ctx.sc.reliability.max_retries = static_cast<std::size_t>(*v);
      knobs = true;
    } else if (kv.key == "round_timeout_ms") {
      const auto v = to_time_ms(kv.value);  // 0 = watchdogs off
      if (!v) return ctx.bad_value(kv);
      ctx.sc.reliability.round_timeout = *v;
      // 0 is the documented "watchdogs off" value — consistent with a
      // disabled layer, so it does not count as a dangling knob.
      knobs = knobs || *v != 0;
    } else if (kv.key == "piggyback_acks") {
      const auto v = to_bool(kv.value);
      if (!v) return ctx.bad_value(kv);
      ctx.sc.reliability.piggyback_acks = *v;
      // true is the default — only turning the optimization *off* counts as
      // a knob worth failing fast over on a disabled layer.
      knobs = knobs || !*v;
    } else {
      return ctx.unknown_key("reliability", kv);
    }
  }
  // Tuning knobs on a disabled layer would silently do nothing (no link is
  // constructed): that is a config mistake, not a request — fail fast.
  if (knobs && !ctx.sc.reliability.enable) {
    return ctx.fail(sec.line,
                    "[reliability] sets tuning knobs without enable=true; "
                    "they would silently do nothing");
  }
  return true;
}

bool parse_wal_section(ParseCtx& ctx, const serde::IniSection& sec) {
  bool knobs = false;         // any key besides enable
  bool corrupt_knobs = false; // any corrupt sub-knob besides corrupt itself
  for (const auto& kv : sec.entries) {
    if (kv.key == "enable") {
      const auto v = to_bool(kv.value);
      if (!v) return ctx.bad_value(kv);
      ctx.sc.wal.enable = *v;
    } else if (kv.key == "snapshot_every") {
      const auto v = to_u64(kv.value);  // 0 = no snapshots (documented)
      if (!v) return ctx.bad_value(kv);
      ctx.sc.wal.snapshot_every = static_cast<std::size_t>(*v);
      knobs = true;
    } else if (kv.key == "corrupt") {
      const auto v = to_bool(kv.value);
      if (!v) return ctx.bad_value(kv);
      ctx.sc.wal_fault.enable = *v;
      knobs = knobs || *v;
    } else if (kv.key == "corrupt_seed") {
      const auto v = to_u64(kv.value);
      if (!v) return ctx.bad_value(kv);
      ctx.sc.wal_fault.seed = *v;
      knobs = corrupt_knobs = true;
    } else if (kv.key == "sync_drop" || kv.key == "torn" || kv.key == "flip") {
      const auto v = to_probability(kv.value);
      if (!v) return ctx.bad_value(kv);
      if (kv.key == "sync_drop") ctx.sc.wal_fault.sync_drop = *v;
      else if (kv.key == "torn") ctx.sc.wal_fault.torn = *v;
      else ctx.sc.wal_fault.flip = *v;
      knobs = corrupt_knobs = true;
    } else {
      return ctx.unknown_key("wal", kv);
    }
  }
  // Same fail-fast contract as [reliability]: tuning knobs on a disabled
  // layer would silently do nothing (no WAL is constructed).
  if (knobs && !ctx.sc.wal.enable) {
    return ctx.fail(sec.line,
                    "[wal] sets tuning knobs without enable=true; they would "
                    "silently do nothing");
  }
  if (corrupt_knobs && !ctx.sc.wal_fault.enable) {
    return ctx.fail(sec.line,
                    "[wal] sets corrupt knobs without corrupt=true; they "
                    "would silently do nothing");
  }
  if (ctx.sc.wal_fault.torn + ctx.sc.wal_fault.flip > 1.0) {
    return ctx.fail(sec.line,
                    "[wal] torn + flip must not exceed 1 (a crash draws one "
                    "damage mode)");
  }
  return true;
}

bool parse_bidder_section(ParseCtx& ctx, const serde::IniSection& sec) {
  BidderSpec spec;
  bool have_bidder = false;
  for (const auto& kv : sec.entries) {
    if (kv.key == "bidder") {
      const auto v = to_u64(kv.value);
      if (!v) return ctx.bad_value(kv);
      spec.bidder = static_cast<BidderId>(*v);
      have_bidder = true;
    } else if (kv.key == "behaviour") {
      const auto& names = adversary::bidder_behaviour_names();
      if (std::find(names.begin(), names.end(), kv.value) == names.end()) {
        return ctx.fail(kv.line, "unknown bidder behaviour '" + kv.value + "'");
      }
      spec.behaviour = kv.value;
    } else {
      return ctx.unknown_key("bidder", kv);
    }
  }
  if (!have_bidder || spec.behaviour.empty()) {
    return ctx.fail(sec.line, "[bidder] needs 'bidder' and 'behaviour'");
  }
  ctx.sc.bidders.push_back(std::move(spec));
  return true;
}

bool parse_bid_frames_section(ParseCtx& ctx, const serde::IniSection& sec) {
  for (const auto& kv : sec.entries) {
    if (kv.key == "replay" || kv.key == "reorder") {
      const auto v = to_bool(kv.value);
      if (!v) return ctx.bad_value(kv);
      (kv.key == "replay" ? ctx.sc.bid_frames.replay
                          : ctx.sc.bid_frames.reorder) = *v;
    } else {
      return ctx.unknown_key("bid_frames", kv);
    }
  }
  // A no-trick section would silently do nothing — config mistake, fail fast.
  if (!ctx.sc.bid_frames.any()) {
    return ctx.fail(sec.line,
                    "[bid_frames] needs replay=true or reorder=true");
  }
  return true;
}

bool parse_auth_section(ParseCtx& ctx, const serde::IniSection& sec) {
  for (const auto& kv : sec.entries) {
    if (kv.key == "enable") {
      const auto v = to_bool(kv.value);
      if (!v) return ctx.bad_value(kv);
      ctx.sc.auth.enable = *v;
    } else if (kv.key == "batch") {
      const auto v = to_bool(kv.value);
      if (!v) return ctx.bad_value(kv);
      ctx.sc.auth.batch_verify = *v;
    } else {
      return ctx.unknown_key("auth", kv);
    }
  }
  // Same fail-fast contract as [reliability]: a batch knob on a disabled
  // layer would silently do nothing.
  if (ctx.sc.auth.batch_verify && !ctx.sc.auth.enable) {
    return ctx.fail(sec.line,
                    "[auth] sets batch without enable=true; it would "
                    "silently do nothing");
  }
  return true;
}

bool parse_auth_adversary_section(ParseCtx& ctx, const serde::IniSection& sec) {
  for (const auto& kv : sec.entries) {
    if (kv.key == "node") {
      const auto v = to_node(kv.value, ctx.sc.providers);
      if (!v || *v == kNoNode) return ctx.bad_value(kv);
      ctx.sc.auth_adversary.node = *v;
    } else if (kv.key == "mode") {
      if (kv.value == "forge") {
        ctx.sc.auth_adversary.mode = adversary::AuthTamperMode::kForge;
      } else if (kv.value == "replay") {
        ctx.sc.auth_adversary.mode = adversary::AuthTamperMode::kReplay;
      } else {
        return ctx.bad_value(kv);
      }
    } else {
      return ctx.unknown_key("auth_adversary", kv);
    }
  }
  if (ctx.sc.auth_adversary.node == kNoNode ||
      ctx.sc.auth_adversary.mode == adversary::AuthTamperMode::kNone) {
    return ctx.fail(sec.line, "[auth_adversary] needs 'node' and 'mode'");
  }
  return true;
}

bool parse_deviation_section(ParseCtx& ctx, const serde::IniSection& sec) {
  DeviationSpec dev;
  for (const auto& kv : sec.entries) {
    if (kv.key == "node") {
      const auto v = to_node(kv.value, ctx.sc.providers);
      if (!v || *v == kNoNode) return ctx.bad_value(kv);
      dev.node = *v;
    } else if (kv.key == "strategy") {
      const auto& names = deviation_strategy_names();
      if (std::find(names.begin(), names.end(), kv.value) == names.end()) {
        return ctx.fail(kv.line, "unknown strategy '" + kv.value + "'");
      }
      dev.strategy = kv.value;
    } else if (kv.key == "fake_cost") {
      const auto v = serde::parse_money(kv.value);
      if (!v) return ctx.bad_value(kv);
      dev.fake_cost = *v;
    } else if (kv.key == "instance") {
      const auto v = to_u64(kv.value);
      if (!v || *v == sim::kAnyInstance) return ctx.bad_value(kv);
      dev.instance = *v;
    } else {
      return ctx.unknown_key("deviation", kv);
    }
  }
  if (dev.node == kNoNode || dev.strategy.empty()) {
    return ctx.fail(sec.line, "[deviation] needs 'node' and 'strategy'");
  }
  ctx.sc.deviations.push_back(std::move(dev));
  return true;
}

bool parse_service_section(ParseCtx& ctx, const serde::IniSection& sec) {
  for (const auto& kv : sec.entries) {
    if (kv.key == "instances") {
      const auto v = to_u64(kv.value);
      if (!v || *v == 0) return ctx.bad_value(kv);
      ctx.sc.instances = static_cast<std::size_t>(*v);
    } else if (kv.key == "pipeline_depth") {
      const auto v = to_u64(kv.value);
      if (!v || *v == 0) return ctx.bad_value(kv);
      ctx.sc.pipeline_depth = static_cast<std::size_t>(*v);
    } else {
      return ctx.unknown_key("service", kv);
    }
  }
  return true;
}

bool parse_expect_section(ParseCtx& ctx, const serde::IniSection& sec) {
  for (const auto& kv : sec.entries) {
    if (kv.key == "outcome") {
      if (kv.value == "ok") ctx.sc.expect.outcome = ScenarioExpect::Outcome::kOk;
      else if (kv.value == "bottom") ctx.sc.expect.outcome = ScenarioExpect::Outcome::kBottom;
      else return ctx.bad_value(kv);
    } else if (kv.key == "stalled" || kv.key == "matches_clean") {
      const auto v = to_bool(kv.value);
      if (!v) return ctx.bad_value(kv);
      (kv.key == "stalled" ? ctx.sc.expect.stalled : ctx.sc.expect.matches_clean) = *v;
    } else if (kv.key == "abort_reason") {
      ctx.sc.expect.abort_reason = kv.value;
    } else if (kv.key == "min_faults") {
      const auto v = to_u64(kv.value);
      if (!v) return ctx.bad_value(kv);
      ctx.sc.expect.min_faults = *v;
    } else if (kv.key == "min_auth_rejects") {
      const auto v = to_u64(kv.value);
      if (!v) return ctx.bad_value(kv);
      ctx.sc.expect.min_auth_rejects = *v;
    } else if (kv.key == "equivocation_proof") {
      const auto v = to_bool(kv.value);
      if (!v) return ctx.bad_value(kv);
      ctx.sc.expect.equivocation_proof = *v;
    } else if (kv.key == "min_instances_ok") {
      const auto v = to_u64(kv.value);
      if (!v) return ctx.bad_value(kv);
      ctx.sc.expect.min_instances_ok = *v;
    } else if (kv.key == "instances_match_twins") {
      const auto v = to_bool(kv.value);
      if (!v) return ctx.bad_value(kv);
      ctx.sc.expect.instances_match_twins = *v;
    } else {
      return ctx.unknown_key("expect", kv);
    }
  }
  return true;
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
      "forge-task-results", "forge-output-digest", "selective-silence",
      "misreport-ask",
  };
  return names;
}

std::string Scenario::to_scn() const {
  // Emission rules that make to_scn a fixpoint of parse ∘ to_scn:
  //  * keys whose value equals the parsed default are omitted;
  //  * scalars use the canonical serde/ini_values.hpp formatters;
  //  * sections appear in a fixed order (the parser accepts any order).
  const Scenario defaults;
  std::string out;
  const auto node_str = [this](NodeId n) -> std::string {
    if (n == kNoNode) return "any";
    if (n == static_cast<NodeId>(providers)) return "client";
    return std::to_string(n);
  };
  const auto kv = [&out](const char* key, const std::string& value) {
    out += key;
    out += " = ";
    out += value;
    out += "\n";
  };
  const auto time_kv = [&](const char* key, sim::SimTime v, sim::SimTime dflt) {
    if (v != dflt) kv(key, serde::format_time_ms(v));
  };

  if (!name.empty() || !description.empty()) {
    out += "[scenario]\n";
    if (!name.empty()) kv("name", name);
    if (!description.empty()) kv("description", description);
    out += "\n";
  }

  out += "[run]\n";
  if (auction != defaults.auction) kv("auction", auction);
  kv("users", std::to_string(users));
  kv("providers", std::to_string(providers));
  kv("k", std::to_string(k));
  if (epsilon != defaults.epsilon) kv("epsilon", serde::format_f64(epsilon));
  kv("seed", std::to_string(seed));
  if (latency != defaults.latency) kv("latency", latency);
  if (max_events != defaults.max_events) {
    kv("max_events", std::to_string(max_events));
  }

  if (instances != defaults.instances ||
      pipeline_depth != defaults.pipeline_depth) {
    out += "\n[service]\n";
    kv("instances", std::to_string(instances));
    if (pipeline_depth != defaults.pipeline_depth) {
      kv("pipeline_depth", std::to_string(pipeline_depth));
    }
  }

  if (!faults.empty() || faults.seed != defaults.faults.seed) {
    out += "\n[fault]\n";
    kv("seed", std::to_string(faults.seed));
  }
  for (const auto& r : faults.links) {
    const sim::LinkFault d;
    out += "\n[link]\n";
    if (r.from != kNoNode) kv("from", node_str(r.from));
    if (r.to != kNoNode) kv("to", node_str(r.to));
    if (r.symmetric != d.symmetric) kv("symmetric", r.symmetric ? "true" : "false");
    if (r.drop != 0.0) kv("drop", serde::format_f64(r.drop));
    if (r.duplicate != 0.0) kv("duplicate", serde::format_f64(r.duplicate));
    time_kv("delay_ms", r.extra_delay, 0);
    time_kv("jitter_ms", r.jitter, 0);
    time_kv("from_ms", r.active_from, sim::kSimStart);
    time_kv("until_ms", r.active_until, sim::kSimForever);
    if (r.instance != sim::kAnyInstance) {
      kv("instance", std::to_string(r.instance));
    }
  }
  for (const auto& c : faults.cuts) {
    out += "\n[cut]\n";
    kv("a", node_str(c.a));
    kv("b", node_str(c.b));
    time_kv("from_ms", c.from, sim::kSimStart);
    time_kv("until_ms", c.until, sim::kSimForever);
    if (c.instance != sim::kAnyInstance) {
      kv("instance", std::to_string(c.instance));
    }
  }
  for (const auto& p : faults.partitions) {
    out += "\n[partition]\n";
    std::string group;
    for (NodeId n : p.group) {
      if (!group.empty()) group += ", ";
      group += node_str(n);
    }
    kv("group", group);
    time_kv("from_ms", p.from, sim::kSimStart);
    time_kv("until_ms", p.until, sim::kSimForever);
    if (p.instance != sim::kAnyInstance) {
      kv("instance", std::to_string(p.instance));
    }
  }
  for (const auto& c : faults.crashes) {
    out += "\n[crash]\n";
    kv("node", node_str(c.node));
    time_kv("at_ms", c.at, sim::kSimStart);
    time_kv("recover_ms", c.recover_at, sim::kSimForever);
    if (c.mode == sim::CrashMode::kAmnesia) kv("mode", "amnesia");
  }

  if (reliability.enable) {
    const net::ReliabilityConfig d;
    out += "\n[reliability]\n";
    kv("enable", "true");
    time_kv("retransmit_delay_ms", reliability.retransmit_delay, d.retransmit_delay);
    if (reliability.max_retries != d.max_retries) {
      kv("max_retries", std::to_string(reliability.max_retries));
    }
    time_kv("round_timeout_ms", reliability.round_timeout, d.round_timeout);
    if (reliability.piggyback_acks != d.piggyback_acks) {
      kv("piggyback_acks", reliability.piggyback_acks ? "true" : "false");
    }
  }
  if (wal.enable) {
    const store::WalConfig d;
    const store::StorageFaultConfig fd;
    out += "\n[wal]\n";
    kv("enable", "true");
    if (wal.snapshot_every != d.snapshot_every) {
      kv("snapshot_every", std::to_string(wal.snapshot_every));
    }
    if (wal_fault.enable) {
      kv("corrupt", "true");
      if (wal_fault.seed != fd.seed) {
        kv("corrupt_seed", std::to_string(wal_fault.seed));
      }
      if (wal_fault.sync_drop != 0.0) {
        kv("sync_drop", serde::format_f64(wal_fault.sync_drop));
      }
      if (wal_fault.torn != 0.0) kv("torn", serde::format_f64(wal_fault.torn));
      if (wal_fault.flip != 0.0) kv("flip", serde::format_f64(wal_fault.flip));
    }
  }
  if (auth.enable) {
    out += "\n[auth]\n";
    kv("enable", "true");
    if (auth.batch_verify) kv("batch", "true");
  }
  if (auth_adversary.mode != adversary::AuthTamperMode::kNone) {
    out += "\n[auth_adversary]\n";
    kv("node", node_str(auth_adversary.node));
    kv("mode", auth_adversary.mode == adversary::AuthTamperMode::kForge
                   ? "forge"
                   : "replay");
  }
  for (const auto& dev : deviations) {
    out += "\n[deviation]\n";
    kv("node", node_str(dev.node));
    kv("strategy", dev.strategy);
    if (dev.fake_cost != kZeroMoney) kv("fake_cost", dev.fake_cost.str());
    if (dev.instance != sim::kAnyInstance) {
      kv("instance", std::to_string(dev.instance));
    }
  }
  for (const auto& b : bidders) {
    out += "\n[bidder]\n";
    kv("bidder", std::to_string(b.bidder));
    kv("behaviour", b.behaviour);
  }
  if (bid_frames.any()) {
    out += "\n[bid_frames]\n";
    if (bid_frames.replay) kv("replay", "true");
    if (bid_frames.reorder) kv("reorder", "true");
  }

  std::string exp;
  const auto exp_kv = [&exp](const char* key, const std::string& value) {
    exp += key;
    exp += " = ";
    exp += value;
    exp += "\n";
  };
  if (expect.outcome != ScenarioExpect::Outcome::kUnspecified) {
    exp_kv("outcome",
           expect.outcome == ScenarioExpect::Outcome::kOk ? "ok" : "bottom");
  }
  if (expect.stalled) exp_kv("stalled", *expect.stalled ? "true" : "false");
  if (expect.matches_clean) {
    exp_kv("matches_clean", *expect.matches_clean ? "true" : "false");
  }
  if (expect.abort_reason) exp_kv("abort_reason", *expect.abort_reason);
  if (expect.min_faults) exp_kv("min_faults", std::to_string(*expect.min_faults));
  if (expect.min_auth_rejects) {
    exp_kv("min_auth_rejects", std::to_string(*expect.min_auth_rejects));
  }
  if (expect.equivocation_proof) {
    exp_kv("equivocation_proof", *expect.equivocation_proof ? "true" : "false");
  }
  if (expect.min_instances_ok) {
    exp_kv("min_instances_ok", std::to_string(*expect.min_instances_ok));
  }
  if (expect.instances_match_twins) {
    exp_kv("instances_match_twins",
           *expect.instances_match_twins ? "true" : "false");
  }
  if (!exp.empty()) {
    out += "\n[expect]\n";
    out += exp;
  }
  return out;
}

ScenarioParse parse_scenario(std::string_view text) {
  const serde::IniResult ini = serde::parse_ini(text);
  if (!ini.ok()) return {std::nullopt, ini.error};

  // Two passes: [run] first (node fields like "client" and validation need
  // the provider count), then everything else in file order.
  ParseCtx ctx;
  for (const auto& sec : ini.doc->sections) {
    if (sec.name == "run" && !parse_run_section(ctx, sec)) {
      return {std::nullopt, ctx.error};
    }
  }
  for (const auto& sec : ini.doc->sections) {
    bool ok = true;
    if (sec.name == "run") continue;
    else if (sec.name == "scenario") ok = parse_scenario_section(ctx, sec);
    else if (sec.name == "fault") ok = parse_fault_section(ctx, sec);
    else if (sec.name == "link") ok = parse_link_section(ctx, sec);
    else if (sec.name == "cut") ok = parse_cut_section(ctx, sec);
    else if (sec.name == "partition") ok = parse_partition_section(ctx, sec);
    else if (sec.name == "crash") ok = parse_crash_section(ctx, sec);
    else if (sec.name == "reliability") ok = parse_reliability_section(ctx, sec);
    else if (sec.name == "wal") ok = parse_wal_section(ctx, sec);
    else if (sec.name == "auth") ok = parse_auth_section(ctx, sec);
    else if (sec.name == "auth_adversary") ok = parse_auth_adversary_section(ctx, sec);
    else if (sec.name == "deviation") ok = parse_deviation_section(ctx, sec);
    else if (sec.name == "bidder") ok = parse_bidder_section(ctx, sec);
    else if (sec.name == "bid_frames") ok = parse_bid_frames_section(ctx, sec);
    else if (sec.name == "service") ok = parse_service_section(ctx, sec);
    else if (sec.name == "expect") ok = parse_expect_section(ctx, sec);
    else {
      ctx.fail(sec.line, sec.name.empty()
                             ? "keys before any [section] header"
                             : "unknown section [" + sec.name + "]");
      ok = false;
    }
    if (!ok) return {std::nullopt, ctx.error};
  }

  if (ctx.sc.providers <= 2 * ctx.sc.k) {
    return {std::nullopt, "[run] requires providers > 2k (m=" +
                              std::to_string(ctx.sc.providers) +
                              ", k=" + std::to_string(ctx.sc.k) + ")"};
  }
  for (const auto& dev : ctx.sc.deviations) {
    if (dev.node >= ctx.sc.providers) {
      return {std::nullopt, "[deviation] node " + std::to_string(dev.node) +
                                " is not a provider (m=" +
                                std::to_string(ctx.sc.providers) + ")"};
    }
  }
  if (ctx.sc.auth_adversary.mode != adversary::AuthTamperMode::kNone) {
    if (!ctx.sc.auth.enable) {
      return {std::nullopt,
              "[auth_adversary] requires [auth] enable=true (without the "
              "signing layer there is nothing to forge or replay against)"};
    }
    if (ctx.sc.auth_adversary.node >= ctx.sc.providers) {
      return {std::nullopt, "[auth_adversary] node " +
                                std::to_string(ctx.sc.auth_adversary.node) +
                                " is not a provider (m=" +
                                std::to_string(ctx.sc.providers) + ")"};
    }
  }
  if (ctx.sc.expect.min_auth_rejects && !ctx.sc.auth.enable) {
    return {std::nullopt,
            "[expect] min_auth_rejects requires [auth] enable=true"};
  }
  if (ctx.sc.expect.equivocation_proof && *ctx.sc.expect.equivocation_proof &&
      !ctx.sc.auth.enable) {
    return {std::nullopt,
            "[expect] equivocation_proof=true requires [auth] enable=true"};
  }
  // Every concrete node a fault section names must exist in the deployment
  // (providers 0..m-1 plus the client node m) — a typo'd id would otherwise
  // parse fine and silently never fire, turning the scenario into a no-op.
  // (Appends, not one operator+ chain: GCC 12's -Wrestrict misfires on the
  // chained form under -O2.)
  const auto check_node = [&](NodeId n, const char* section)
      -> std::optional<std::string> {
    if (n == kNoNode || n <= ctx.sc.providers) return std::nullopt;
    std::string err = "[";
    err += section;
    err += "] node ";
    err += std::to_string(n);
    err += " does not exist (providers 0..";
    err += std::to_string(ctx.sc.providers - 1);
    err += ", client = ";
    err += std::to_string(ctx.sc.providers);
    err += ")";
    return err;
  };
  for (const auto& r : ctx.sc.faults.links) {
    for (NodeId n : {r.from, r.to}) {
      if (auto err = check_node(n, "link")) return {std::nullopt, *err};
    }
  }
  for (const auto& c : ctx.sc.faults.cuts) {
    for (NodeId n : {c.a, c.b}) {
      if (auto err = check_node(n, "cut")) return {std::nullopt, *err};
    }
  }
  for (const auto& p : ctx.sc.faults.partitions) {
    for (NodeId n : p.group) {
      if (auto err = check_node(n, "partition")) return {std::nullopt, *err};
    }
  }
  for (const auto& c : ctx.sc.faults.crashes) {
    if (auto err = check_node(c.node, "crash")) return {std::nullopt, *err};
  }
  // Amnesia recovery replays durable state and closes the gap over the
  // reliability layer's re-request path: without both, the "recovered" node
  // would silently come back empty — a config mistake, not a request.
  for (const auto& c : ctx.sc.faults.crashes) {
    if (c.mode != sim::CrashMode::kAmnesia) continue;
    if (!ctx.sc.wal.enable) {
      return {std::nullopt,
              "[crash] mode=amnesia requires [wal] enable=true (there is no "
              "durable state to recover from)"};
    }
    if (!ctx.sc.reliability.enable) {
      return {std::nullopt,
              "[crash] mode=amnesia requires [reliability] enable=true (the "
              "rejoin sweep runs over the re-request path)"};
    }
  }
  // [service] consistency. Instance filters and instance-level expectations
  // only mean something when more than one instance runs; a depth above the
  // instance count could never fill its pipeline.
  const bool service = ctx.sc.instances > 1;
  if (ctx.sc.pipeline_depth > ctx.sc.instances) {
    return {std::nullopt,
            "[service] pipeline_depth " + std::to_string(ctx.sc.pipeline_depth) +
                " exceeds instances " + std::to_string(ctx.sc.instances)};
  }
  for (const auto& r : ctx.sc.faults.links) {
    if (r.instance == sim::kAnyInstance) continue;
    if (!service) {
      return {std::nullopt,
              "[link] instance= requires [service] instances > 1"};
    }
    if (r.instance >= ctx.sc.instances) {
      return {std::nullopt, "[link] instance " + std::to_string(r.instance) +
                                " does not exist (instances = " +
                                std::to_string(ctx.sc.instances) + ")"};
    }
  }
  for (const auto& c : ctx.sc.faults.cuts) {
    if (c.instance == sim::kAnyInstance) continue;
    if (!service) {
      return {std::nullopt, "[cut] instance= requires [service] instances > 1"};
    }
    if (c.instance >= ctx.sc.instances) {
      return {std::nullopt, "[cut] instance " + std::to_string(c.instance) +
                                " does not exist (instances = " +
                                std::to_string(ctx.sc.instances) + ")"};
    }
  }
  for (const auto& p : ctx.sc.faults.partitions) {
    if (p.instance == sim::kAnyInstance) continue;
    if (!service) {
      return {std::nullopt,
              "[partition] instance= requires [service] instances > 1"};
    }
    if (p.instance >= ctx.sc.instances) {
      return {std::nullopt, "[partition] instance " +
                                std::to_string(p.instance) +
                                " does not exist (instances = " +
                                std::to_string(ctx.sc.instances) + ")"};
    }
  }
  for (const auto& dev : ctx.sc.deviations) {
    if (dev.instance == sim::kAnyInstance) continue;
    if (!service) {
      return {std::nullopt,
              "[deviation] instance= requires [service] instances > 1"};
    }
    if (dev.instance >= ctx.sc.instances) {
      return {std::nullopt, "[deviation] instance " +
                                std::to_string(dev.instance) +
                                " does not exist (instances = " +
                                std::to_string(ctx.sc.instances) + ")"};
    }
  }
  // [bidder] sanity: the id must be one of the scenario's users, and two
  // sections naming the same bidder would silently shadow each other.
  {
    std::set<BidderId> seen;
    for (const auto& b : ctx.sc.bidders) {
      if (b.bidder >= ctx.sc.users) {
        return {std::nullopt, "[bidder] bidder " + std::to_string(b.bidder) +
                                  " does not exist (users = " +
                                  std::to_string(ctx.sc.users) + ")"};
      }
      if (!seen.insert(b.bidder).second) {
        return {std::nullopt, "[bidder] bidder " + std::to_string(b.bidder) +
                                  " appears in more than one [bidder] section"};
      }
    }
  }
  // [wal] corrupt damages the live tail at an amnesia crash; without one it
  // would never fire — a config mistake, not a request. (enable=true is
  // already enforced section-locally.)
  if (ctx.sc.wal_fault.enable &&
      std::none_of(ctx.sc.faults.crashes.begin(), ctx.sc.faults.crashes.end(),
                   [](const sim::CrashEvent& c) {
                     return c.mode == sim::CrashMode::kAmnesia;
                   })) {
    return {std::nullopt,
            "[wal] corrupt=true requires a [crash] with mode=amnesia (the "
            "lying disk only damages the tail at an amnesia crash)"};
  }
  if (!service && ctx.sc.expect.min_instances_ok) {
    return {std::nullopt,
            "[expect] min_instances_ok requires [service] instances > 1"};
  }
  if (!service && ctx.sc.expect.instances_match_twins) {
    return {std::nullopt,
            "[expect] instances_match_twins requires [service] instances > 1"};
  }
  if (service && ctx.sc.expect.min_instances_ok &&
      *ctx.sc.expect.min_instances_ok > ctx.sc.instances) {
    return {std::nullopt,
            "[expect] min_instances_ok " +
                std::to_string(*ctx.sc.expect.min_instances_ok) +
                " exceeds [service] instances " +
                std::to_string(ctx.sc.instances)};
  }
  return {std::move(ctx.sc), std::string()};
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
