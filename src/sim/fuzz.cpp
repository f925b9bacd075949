#include "sim/fuzz.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

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

/// Comma-separated words, blanks trimmed, empty words dropped.
std::vector<std::string> split_words(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream in(s);
  for (std::string word; std::getline(in, word, ',');) {
    const auto a = word.find_first_not_of(" \t");
    if (a == std::string::npos) continue;
    out.push_back(word.substr(a, word.find_last_not_of(" \t") - a + 1));
  }
  return out;
}

}  // namespace

const serde::IniSchema<FuzzBounds>& fuzz_bounds_schema() {
  using T = serde::IniTable<FuzzBounds, FuzzBounds>;
  const auto whole = [](auto& b) -> auto& { return b; };
  // Names are validated downstream by the scenario parser (the deviation and
  // bidder registries live above this layer); here only non-emptiness.
  const auto words = [](const char* name, std::vector<std::string> FuzzBounds::*field) {
    return T::custom(
        name, field,
        [](const std::string& s, const FuzzBounds&) { return std::optional(split_words(s)); },
        [](const std::vector<std::string>& v, const FuzzBounds&) {
          std::string out;
          for (const std::string& w : v) out += (out.empty() ? "" : ", ") + w;
          return out;
        });
  };
  static const serde::IniSchema<FuzzBounds> schema({
      T::section("shape", whole,
                 {T::u64("min_users", &FuzzBounds::min_users),
                  T::u64("max_users", &FuzzBounds::max_users),
                  T::u64("min_providers", &FuzzBounds::min_providers),
                  T::u64("max_providers", &FuzzBounds::max_providers),
                  words("latencies", &FuzzBounds::latencies),
                  T::u64("max_events", &FuzzBounds::max_events, serde::Emit::kChanged, 1),
                  T::u64("max_instances", &FuzzBounds::max_instances),
                  T::u64("max_pipeline_depth", &FuzzBounds::max_pipeline_depth)}),
      T::section("faults", whole,
                 {T::u64("max_link_rules", &FuzzBounds::max_link_rules),
                  T::probability("max_drop", &FuzzBounds::max_drop),
                  T::probability("max_duplicate", &FuzzBounds::max_duplicate),
                  T::time_ms("max_delay", &FuzzBounds::max_delay),
                  T::time_ms("max_jitter", &FuzzBounds::max_jitter),
                  T::u64("max_cuts", &FuzzBounds::max_cuts),
                  T::u64("max_partitions", &FuzzBounds::max_partitions),
                  T::u64("max_crashes", &FuzzBounds::max_crashes),
                  T::boolean("allow_crash_recover", &FuzzBounds::allow_crash_recover),
                  T::boolean("allow_amnesia", &FuzzBounds::allow_amnesia),
                  T::time_ms("horizon", &FuzzBounds::horizon)}),
      T::section("knobs", whole,
                 {T::probability("p_reliability", &FuzzBounds::p_reliability),
                  T::probability("p_wal", &FuzzBounds::p_wal),
                  T::probability("p_auth", &FuzzBounds::p_auth),
                  T::probability("p_auth_batch", &FuzzBounds::p_auth_batch),
                  T::probability("p_auth_adversary", &FuzzBounds::p_auth_adversary),
                  T::probability("p_deviation", &FuzzBounds::p_deviation),
                  T::probability("p_service", &FuzzBounds::p_service),
                  T::probability("p_instance_scope", &FuzzBounds::p_instance_scope),
                  T::probability("p_bidder_adversary", &FuzzBounds::p_bidder_adversary),
                  T::probability("p_wal_corrupt", &FuzzBounds::p_wal_corrupt),
                  words("bidder_behaviours", &FuzzBounds::bidder_behaviours),
                  words("strategies", &FuzzBounds::strategies)}),
  });
  return schema;
}

FuzzBoundsParse parse_fuzz_bounds(std::string_view text) {
  FuzzBoundsParse out;
  FuzzBounds b;
  out.error = fuzz_bounds_schema().parse(text, b);
  if (!out.error.empty()) return out;
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
  if (b.strategies.empty()) {
    out.error = "strategies must name at least one deviation strategy";
    return out;
  }
  if (b.bidder_behaviours.empty()) {
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
  // A misvoting provider's forged vote counts like any vote. Where an
  // equivocating bidder splits the honest votes on its slot, that one vote
  // can tip the slot's majority: a different agreed bid, but a legitimate
  // one (validity covers only bidders that sent every provider the same
  // bid), which the matches-clean oracle would misreport, as it would
  // misreport-ask. So a case with a misvote draws no equivocating bidder.
  std::vector<std::string> behaviours = b.bidder_behaviours;
  if (std::any_of(c.deviations.begin(), c.deviations.end(),
                  [](const FuzzCase::Deviation& d) { return d.strategy == "misvote"; })) {
    std::erase(behaviours, "equivocate");
  }
  if (!behaviours.empty() && s.coin(b.p_bidder_adversary)) {
    std::vector<NodeId> bidder_pool(c.users);
    for (std::size_t j = 0; j < c.users; ++j)
      bidder_pool[j] = static_cast<NodeId>(j);
    const std::size_t n_bad = static_cast<std::size_t>(
        s.range(1, std::min<std::size_t>(3, c.users)));
    for (std::size_t i = 0; i < n_bad; ++i) {
      FuzzCase::BidderAdversary bad;
      bad.bidder = static_cast<BidderId>(s.draw(bidder_pool));
      bad.behaviour = behaviours[s.rng.next_below(behaviours.size())];
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
