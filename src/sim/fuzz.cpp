#include "sim/fuzz.hpp"

#include <algorithm>
#include <cmath>

#include "serde/ini.hpp"
#include "serde/ini_values.hpp"

namespace dauct::sim {

namespace {

/// Everything a single case draws from: one Rng plus grid-snapping helpers.
/// All sampled scalars land on coarse grids (microseconds, 1e-4 probability
/// steps) so emitted .scn text is short and the minimizer's scalar-shrinking
/// steps move through the same value space the generator samples from.
struct Sampler {
  crypto::Rng rng;

  explicit Sampler(std::uint64_t seed) : rng(seed) {}

  bool coin(double p) { return rng.next_double() < p; }

  /// Uniform in [lo, hi] (inclusive). Requires lo <= hi.
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) {
    return lo + rng.next_below(hi - lo + 1);
  }

  /// Uniform probability in (0, max] on a 1e-4 grid; 0 when max rounds to
  /// nothing (the caller treats that effect as unavailable).
  double rate(double max) {
    const std::uint64_t steps = static_cast<std::uint64_t>(std::llround(max * 1e4));
    if (steps == 0) return 0.0;
    return static_cast<double>(1 + rng.next_below(steps)) * 1e-4;
  }

  /// Uniform time in [0, max] on a microsecond grid.
  SimTime time_to(SimTime max) {
    if (max <= 0) return 0;
    return static_cast<SimTime>(
               rng.next_below(static_cast<std::uint64_t>(max / 1000) + 1)) *
           1000;
  }

  /// Uniform time in (lo, hi] on a microsecond grid; requires lo < hi.
  SimTime time_after(SimTime lo, SimTime hi) {
    const std::uint64_t slots = static_cast<std::uint64_t>((hi - lo) / 1000);
    if (slots == 0) return hi;
    return lo + static_cast<SimTime>(1 + rng.next_below(slots)) * 1000;
  }

  /// Remove and return a uniformly chosen element of `pool`.
  NodeId draw(std::vector<NodeId>& pool) {
    const std::size_t i =
        static_cast<std::size_t>(rng.next_below(pool.size()));
    const NodeId picked = pool[i];
    pool[i] = pool.back();
    pool.pop_back();
    return picked;
  }
};

std::vector<std::string> split_words(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) comma = s.size();
    std::string word = s.substr(start, comma - start);
    const auto a = word.find_first_not_of(" \t");
    if (a == std::string::npos) {
      word.clear();
    } else {
      const auto b = word.find_last_not_of(" \t");
      word = word.substr(a, b - a + 1);
    }
    if (!word.empty()) out.push_back(std::move(word));
    start = comma + 1;
  }
  return out;
}

std::string line_err(std::size_t line, const std::string& what) {
  return "line " + std::to_string(line) + ": " + what;
}

}  // namespace

FuzzBoundsParse parse_fuzz_bounds(std::string_view text) {
  FuzzBoundsParse out;
  const serde::IniResult ini = serde::parse_ini(text);
  if (!ini.ok()) {
    out.error = ini.error;
    return out;
  }
  FuzzBounds b;
  bool latencies_set = false, strategies_set = false, bidders_set = false;
  for (const serde::IniSection& sec : ini.doc->sections) {
    if (sec.name.empty() && sec.entries.empty()) continue;
    const bool shape = sec.name == "shape";
    const bool faults = sec.name == "faults";
    const bool knobs = sec.name == "knobs";
    if (!shape && !faults && !knobs) {
      out.error = line_err(sec.line, "unknown section [" + sec.name + "]");
      return out;
    }
    for (const serde::IniKeyValue& kv : sec.entries) {
      // One flat dispatch with per-key section checks beats three near-copies
      // of the same loop; the grammar is small enough to read linearly.
      const auto u64 = [&](std::size_t& field) -> bool {
        const auto v = serde::parse_u64(kv.value);
        if (!v) return false;
        field = static_cast<std::size_t>(*v);
        return true;
      };
      const auto prob = [&](double& field) -> bool {
        const auto v = serde::parse_probability(kv.value);
        if (!v) return false;
        field = *v;
        return true;
      };
      const auto time = [&](SimTime& field) -> bool {
        const auto v = serde::parse_time_ms(kv.value);
        if (!v) return false;
        field = *v;
        return true;
      };
      bool good = true;
      if (shape && kv.key == "min_users") good = u64(b.min_users);
      else if (shape && kv.key == "max_users") good = u64(b.max_users);
      else if (shape && kv.key == "min_providers") good = u64(b.min_providers);
      else if (shape && kv.key == "max_providers") good = u64(b.max_providers);
      else if (shape && kv.key == "latencies") {
        b.latencies = split_words(kv.value);
        latencies_set = true;
      } else if (shape && kv.key == "max_events") {
        const auto v = serde::parse_u64(kv.value);
        good = v.has_value() && *v > 0;
        if (good) b.max_events = *v;
      } else if (faults && kv.key == "max_link_rules") good = u64(b.max_link_rules);
      else if (faults && kv.key == "max_drop") good = prob(b.max_drop);
      else if (faults && kv.key == "max_duplicate") good = prob(b.max_duplicate);
      else if (faults && kv.key == "max_delay") good = time(b.max_delay);
      else if (faults && kv.key == "max_jitter") good = time(b.max_jitter);
      else if (faults && kv.key == "max_cuts") good = u64(b.max_cuts);
      else if (faults && kv.key == "max_partitions") good = u64(b.max_partitions);
      else if (faults && kv.key == "max_crashes") good = u64(b.max_crashes);
      else if (faults && kv.key == "allow_crash_recover") {
        const auto v = serde::parse_bool_word(kv.value);
        good = v.has_value();
        if (good) b.allow_crash_recover = *v;
      } else if (faults && kv.key == "allow_amnesia") {
        const auto v = serde::parse_bool_word(kv.value);
        good = v.has_value();
        if (good) b.allow_amnesia = *v;
      } else if (faults && kv.key == "horizon") good = time(b.horizon);
      else if (shape && kv.key == "max_instances") good = u64(b.max_instances);
      else if (shape && kv.key == "max_pipeline_depth")
        good = u64(b.max_pipeline_depth);
      else if (knobs && kv.key == "p_reliability") good = prob(b.p_reliability);
      else if (knobs && kv.key == "p_wal") good = prob(b.p_wal);
      else if (knobs && kv.key == "p_auth") good = prob(b.p_auth);
      else if (knobs && kv.key == "p_auth_batch") good = prob(b.p_auth_batch);
      else if (knobs && kv.key == "p_auth_adversary") good = prob(b.p_auth_adversary);
      else if (knobs && kv.key == "p_deviation") good = prob(b.p_deviation);
      else if (knobs && kv.key == "p_service") good = prob(b.p_service);
      else if (knobs && kv.key == "p_instance_scope") good = prob(b.p_instance_scope);
      else if (knobs && kv.key == "p_bidder_adversary")
        good = prob(b.p_bidder_adversary);
      else if (knobs && kv.key == "p_wal_corrupt") good = prob(b.p_wal_corrupt);
      else if (knobs && kv.key == "bidder_behaviours") {
        // Like strategies: names are validated downstream by the scenario
        // parser (adversary::bidder_behaviour_by_name); here non-emptiness.
        b.bidder_behaviours = split_words(kv.value);
        bidders_set = true;
      } else if (knobs && kv.key == "strategies") {
        // Names are validated downstream by the scenario parser (the
        // deviation registry lives above this layer); here only non-emptiness.
        b.strategies = split_words(kv.value);
        strategies_set = true;
      } else {
        out.error = line_err(
            kv.line, "unknown key '" + kv.key + "' in [" + sec.name + "]");
        return out;
      }
      if (!good) {
        out.error = line_err(
            kv.line, "malformed value for '" + kv.key + "': " + kv.value);
        return out;
      }
    }
  }
  // Cross-field consistency: a bounds file that can generate nothing (or
  // invalid run shapes) is an error here, not a crash mid-stream.
  if (b.min_users == 0 || b.min_users > b.max_users) {
    out.error = "inconsistent users range [" + std::to_string(b.min_users) +
                ", " + std::to_string(b.max_users) + "]";
    return out;
  }
  if (b.min_providers < 3 || b.min_providers > b.max_providers) {
    out.error = "inconsistent providers range [" +
                std::to_string(b.min_providers) + ", " +
                std::to_string(b.max_providers) + "] (need min >= 3: k >= 1 "
                "requires m > 2k)";
    return out;
  }
  if (latencies_set) {
    if (b.latencies.empty()) {
      out.error = "latencies must name at least one model";
      return out;
    }
    for (const std::string& l : b.latencies) {
      if (l != "zero" && l != "lan" && l != "community") {
        out.error = "unknown latency model '" + l + "'";
        return out;
      }
    }
  }
  if (strategies_set && b.strategies.empty()) {
    out.error = "strategies must name at least one deviation strategy";
    return out;
  }
  if (bidders_set && b.bidder_behaviours.empty()) {
    out.error = "bidder_behaviours must name at least one behaviour";
    return out;
  }
  if (b.horizon <= 0) {
    out.error = "horizon must be positive";
    return out;
  }
  if (b.max_instances < 2) {
    out.error = "max_instances must be >= 2 (a service case multiplexes at "
                "least two auctions; set p_service = 0 to disable)";
    return out;
  }
  if (b.max_pipeline_depth == 0) {
    out.error = "max_pipeline_depth must be positive";
    return out;
  }
  out.bounds = std::move(b);
  return out;
}

PlanFuzzer::PlanFuzzer(FuzzBounds bounds, std::uint64_t seed)
    : bounds_(std::move(bounds)), seed_(seed), stream_(seed) {}

FuzzCase PlanFuzzer::next() {
  const std::uint64_t case_seed = stream_.next_u64();
  return generate(next_index_++, case_seed);
}

FuzzCase PlanFuzzer::nth(std::uint64_t index) const {
  // The stream generator is only ever asked for one u64 per case, so
  // replaying case `index` costs index+1 draws — no case contents are
  // regenerated.
  crypto::Rng stream(seed_);
  std::uint64_t case_seed = 0;
  for (std::uint64_t i = 0; i <= index; ++i) case_seed = stream.next_u64();
  return generate(index, case_seed);
}

FuzzCase PlanFuzzer::generate(std::uint64_t index,
                              std::uint64_t case_seed) const {
  const FuzzBounds& b = bounds_;
  Sampler s(case_seed);
  FuzzCase c;
  c.index = index;
  c.case_seed = case_seed;

  // --- run shape ---
  c.users = static_cast<std::size_t>(s.range(b.min_users, b.max_users));
  c.providers =
      static_cast<std::size_t>(s.range(b.min_providers, b.max_providers));
  // The scenario parser enforces m > 2k; sample k over the full valid range
  // so the fuzzer covers both tight (k = 1) and generous budgets.
  const std::size_t k_max = (c.providers - 1) / 2;
  c.k = static_cast<std::size_t>(s.range(1, k_max));
  c.run_seed = s.rng.next_u64();
  c.latency = b.latencies[s.rng.next_below(b.latencies.size())];
  c.max_events = b.max_events;
  // NodeIds in the deployment: providers 0..m-1, then ONE client node (all
  // users' bids flow through it) — not one node per user.
  const std::size_t n = c.providers + 1;

  // --- link rules ---
  c.faults.seed = s.rng.next_u64();
  // Effects whose bound is zero are unavailable; a rule always gets at least
  // one available effect, so no all-zero no-op clauses are generated (they
  // would only pad minimization).
  std::vector<int> effects;  // 0 drop, 1 duplicate, 2 delay/jitter
  if (std::llround(b.max_drop * 1e4) > 0) effects.push_back(0);
  if (std::llround(b.max_duplicate * 1e4) > 0) effects.push_back(1);
  if (b.max_delay >= 1000 || b.max_jitter >= 1000) effects.push_back(2);
  const std::size_t n_rules =
      effects.empty() ? 0 : s.rng.next_below(b.max_link_rules + 1);
  for (std::size_t i = 0; i < n_rules; ++i) {
    LinkFault f;
    if (s.coin(0.5)) f.from = static_cast<NodeId>(s.rng.next_below(n));
    if (s.coin(0.5)) f.to = static_cast<NodeId>(s.rng.next_below(n));
    f.symmetric = s.coin(0.5);
    // Pick a non-empty subset of the available effects.
    bool any = false;
    while (!any) {
      for (const int e : effects) {
        if (!s.coin(0.5)) continue;
        any = true;
        if (e == 0) f.drop = s.rate(b.max_drop);
        if (e == 1) f.duplicate = s.rate(b.max_duplicate);
        if (e == 2) {
          f.extra_delay = s.time_to(b.max_delay);
          f.jitter = s.time_to(b.max_jitter);
          if (f.extra_delay == 0 && f.jitter == 0) any = f.drop > 0 || f.duplicate > 0;
        }
      }
    }
    // Half the rules are active for the whole run, half in a strict
    // sub-window of the horizon.
    if (s.coin(0.5)) {
      f.active_from = s.time_to(b.horizon - 1000);
      f.active_until = s.time_after(f.active_from, b.horizon);
    }
    c.faults.links.push_back(f);
  }

  // --- cuts ---
  const std::size_t n_cuts = s.rng.next_below(b.max_cuts + 1);
  for (std::size_t i = 0; i < n_cuts && n >= 2; ++i) {
    LinkCut cut;
    cut.a = static_cast<NodeId>(s.rng.next_below(n));
    do {
      cut.b = static_cast<NodeId>(s.rng.next_below(n));
    } while (cut.b == cut.a);
    cut.from = s.time_to(b.horizon - 1000);
    // Healing and permanent cuts are both interesting: a permanent cut of a
    // needed link must end in an explicit ⊥ (timeout / delivery-failed),
    // never a budget blow-up — the round watchdogs and retransmit chains are
    // finite by construction.
    if (s.coin(0.5)) cut.until = s.time_after(cut.from, b.horizon);
    c.faults.cuts.push_back(cut);
  }

  // --- partitions ---
  const std::size_t n_parts = s.rng.next_below(b.max_partitions + 1);
  for (std::size_t i = 0; i < n_parts && n >= 2; ++i) {
    Partition p;
    // A non-empty proper subset: draw a size, then distinct members.
    const std::size_t size = static_cast<std::size_t>(s.range(1, n - 1));
    std::vector<NodeId> pool(n);
    for (std::size_t j = 0; j < n; ++j) pool[j] = static_cast<NodeId>(j);
    for (std::size_t j = 0; j < size; ++j) p.group.push_back(s.draw(pool));
    std::sort(p.group.begin(), p.group.end());
    p.from = s.time_to(b.horizon - 1000);
    if (s.coin(0.5)) p.until = s.time_after(p.from, b.horizon);
    c.faults.partitions.push_back(p);
  }

  // --- k-budgeted adversaries: crashes, wire tampering, deviations ---
  // Crashed, tampered, and deviant providers are drawn from one pool without
  // replacement and their total never exceeds k (file comment in fuzz.hpp).
  std::vector<NodeId> providers(c.providers);
  for (std::size_t j = 0; j < c.providers; ++j)
    providers[j] = static_cast<NodeId>(j);
  std::size_t budget = c.k;

  const std::size_t n_crash =
      s.rng.next_below(std::min(b.max_crashes, budget) + 1);
  for (std::size_t i = 0; i < n_crash; ++i) {
    CrashEvent crash;
    crash.node = s.draw(providers);
    crash.at = s.time_to(b.horizon - 1000);
    if (b.allow_crash_recover && s.coin(0.5))
      crash.recover_at = s.time_after(crash.at, b.horizon);
    c.faults.crashes.push_back(crash);
    --budget;
  }

  // --- reliability layer ---
  c.reliability = s.coin(b.p_reliability);
  if (c.reliability) {
    // The give-up horizon delay·(2^retries − 1) must comfortably exceed the
    // worst latency model's RTT (community: ~5 ms + jitter), or a FAULT-FREE
    // run aborts delivery-failed before the first ack can arrive — the
    // fuzzer's own first 1000-plan run found exactly that with 1 ms × 2
    // retries. Floor: 4 ms × (2^4 − 1) = 60 ms.
    c.retransmit_delay = static_cast<SimTime>(s.range(4, 12)) * 1'000'000;
    c.max_retries = static_cast<std::size_t>(s.range(4, 8));
    c.round_timeout =
        s.coin(0.5) ? 0 : static_cast<SimTime>(s.range(4, 16)) * 1'000'000;
    c.piggyback_acks = s.coin(0.5);
  }

  // --- durability layer ---
  c.wal = s.coin(b.p_wal);
  if (c.wal) {
    // Snapshot cadence sweeps from every-message (1) to rarely (16); the
    // checkpoints must agree at any cadence, so the cadence is fuzzed too.
    c.wal_snapshot_every = static_cast<std::size_t>(s.range(1, 16));
  }
  // Amnesia needs a log to replay and the rejoin sweep to close the gap, so
  // the mode is a post-pass over the recovering crashes once both layer
  // coins are known (crashes are drawn before the layers above).
  if (b.allow_amnesia && c.wal && c.reliability) {
    for (CrashEvent& crash : c.faults.crashes) {
      if (crash.recover_at != kSimForever && s.coin(0.5))
        crash.mode = CrashMode::kAmnesia;
    }
  }

  // --- auth layer + wire adversary ---
  c.auth = s.coin(b.p_auth);
  if (c.auth) {
    c.auth_batch = s.coin(b.p_auth_batch);
    if (budget > 0 && s.coin(b.p_auth_adversary)) {
      c.auth_adversary_node = s.draw(providers);
      c.auth_adversary_mode = s.coin(0.5) ? "forge" : "replay";
      --budget;
    }
  }

  // --- byzantine deviations ---
  if (budget > 0 && !b.strategies.empty() && s.coin(b.p_deviation)) {
    const std::size_t n_dev = static_cast<std::size_t>(s.range(1, budget));
    for (std::size_t i = 0; i < n_dev; ++i) {
      FuzzCase::Deviation d;
      d.node = s.draw(providers);
      d.strategy = b.strategies[s.rng.next_below(b.strategies.size())];
      c.deviations.push_back(d);
    }
  }

  // --- service plane ---
  // New axes only ever *append* draws after the pre-existing ones, so every
  // field drawn above is identical at the same (seed, index) across fuzzer
  // versions that share the draw prefix.
  if (s.coin(b.p_service)) {
    c.instances = static_cast<std::size_t>(s.range(2, b.max_instances));
    c.pipeline_depth = static_cast<std::size_t>(
        s.range(1, std::min(b.max_pipeline_depth, c.instances)));
    // --- instance-scoped fault rules ---
    // Confine a coin's worth of rules to one auction instance's topic
    // namespace; the service runtime compiles instance → topic_scope. The
    // faulted instance must then ⊥ (or survive) alone while co-tenant
    // instances sharing the ReliableLink/signer must still match their
    // standalone twins — the per-instance oracle checks exactly that.
    const auto scoped = [&]() -> std::uint64_t {
      return s.rng.next_below(c.instances);
    };
    for (LinkFault& f : c.faults.links)
      if (s.coin(b.p_instance_scope)) f.instance = scoped();
    for (LinkCut& cut : c.faults.cuts)
      if (s.coin(b.p_instance_scope)) cut.instance = scoped();
    for (Partition& p : c.faults.partitions)
      if (s.coin(b.p_instance_scope)) p.instance = scoped();
    for (FuzzCase::Deviation& d : c.deviations)
      if (s.coin(b.p_instance_scope)) d.instance = scoped();
  }

  // --- bidder-side adversaries ---
  // Bidders are not providers: no k budget — however many misbehave, the
  // honest providers' agreement must exclude their bids or ⊥ explicitly.
  if (!b.bidder_behaviours.empty() && s.coin(b.p_bidder_adversary)) {
    std::vector<NodeId> bidder_pool(c.users);
    for (std::size_t j = 0; j < c.users; ++j)
      bidder_pool[j] = static_cast<NodeId>(j);
    const std::size_t n_bad = static_cast<std::size_t>(
        s.range(1, std::min<std::size_t>(3, c.users)));
    for (std::size_t i = 0; i < n_bad; ++i) {
      FuzzCase::BidderAdversary bad;
      bad.bidder = static_cast<BidderId>(s.draw(bidder_pool));
      bad.behaviour =
          b.bidder_behaviours[s.rng.next_below(b.bidder_behaviours.size())];
      c.bidder_adversaries.push_back(bad);
    }
    std::sort(c.bidder_adversaries.begin(), c.bidder_adversaries.end(),
              [](const auto& x, const auto& y) { return x.bidder < y.bidder; });
    c.bid_replay = s.coin(0.3);
    c.bid_reorder = s.coin(0.3);
  }

  // --- in-flight WAL corruption ---
  // Only meaningful when an amnesia crash was drawn above: recovery then
  // replays from a live tail FaultyStorage damaged at the crash instant.
  const bool any_amnesia = std::any_of(
      c.faults.crashes.begin(), c.faults.crashes.end(),
      [](const CrashEvent& cr) { return cr.mode == CrashMode::kAmnesia; });
  if (any_amnesia && s.coin(b.p_wal_corrupt)) {
    c.wal_corrupt = true;
    c.wal_fault_seed = s.rng.next_u64();
    c.wal_sync_drop = s.rate(0.9);
    // torn + flip ≤ 1 by construction: crash() draws one damage mode.
    c.wal_torn = s.rate(0.6);
    c.wal_flip = s.rate(0.4);
  }
  return c;
}

}  // namespace dauct::sim
