// Fault-injection scenario subsystem tests.
//
// Three layers of guarantees:
//  * parsing — the INI reader and the strict .scn schema (unknown keys and
//    malformed values are errors, not silent defaults);
//  * determinism — same seed + same plan ⇒ byte-identical outcome digest,
//    makespan, traffic and fault counters; an installed zero-rate plan is
//    bit-identical to no plan at all (pinned against the pre-refactor golden
//    fingerprints shared with fanout_test.cpp);
//  * the shipped library — every scenarios/*.scn parses, runs, and satisfies
//    its own [expect] section (the same check CI's scenario-matrix step runs
//    through dauct_cli --scenario).
#include <gtest/gtest.h>

#include <filesystem>
#include <iterator>

#include "core/adapters.hpp"
#include "crypto/sha256.hpp"
#include "runtime/scenario.hpp"
#include "serde/auction_codec.hpp"
#include "serde/ini.hpp"
#include "test_util.hpp"

namespace dauct {
namespace {

// ---------------------------------------------------------------------------
// INI reader
// ---------------------------------------------------------------------------

TEST(Ini, SectionsKeysCommentsAndRepeats) {
  const auto r = serde::parse_ini(
      "# leading comment\n"
      "[alpha]\n"
      "key = value with spaces\n"
      "n=42\n"
      "; semicolon comment\n"
      "\n"
      "[beta]\n"
      "x = 1\n"
      "[alpha]\n"
      "x = 2\n");
  ASSERT_TRUE(r.ok()) << r.error;
  ASSERT_EQ(r.doc->sections.size(), 3u);  // repeated [alpha] = two entries
  EXPECT_EQ(r.doc->sections[0].name, "alpha");
  EXPECT_EQ(*r.doc->sections[0].get("key"), "value with spaces");
  EXPECT_EQ(*r.doc->sections[0].get("n"), "42");
  EXPECT_EQ(r.doc->sections[2].name, "alpha");
  EXPECT_EQ(*r.doc->sections[2].get("x"), "2");
  EXPECT_FALSE(r.doc->sections[0].get("missing").has_value());
}

TEST(Ini, ErrorsCarryLineNumbers) {
  const auto bad_line = serde::parse_ini("[ok]\nkey_without_equals\n");
  ASSERT_FALSE(bad_line.ok());
  EXPECT_NE(bad_line.error.find("line 2"), std::string::npos);

  const auto bad_header = serde::parse_ini("[unclosed\n");
  ASSERT_FALSE(bad_header.ok());
  EXPECT_NE(bad_header.error.find("line 1"), std::string::npos);

  const auto empty_key = serde::parse_ini("[s]\n= value\n");
  EXPECT_FALSE(empty_key.ok());
}

// ---------------------------------------------------------------------------
// Scenario schema
// ---------------------------------------------------------------------------

constexpr const char* kScenarioText = R"(
[scenario]
name = unit
description = schema coverage

[run]
auction = double
users = 12
providers = 5
k = 2
seed = 7
latency = community

[fault]
seed = 99

[link]
from = 0
to = 2
drop = 0.25
duplicate = 0.1
delay_ms = 1.5
jitter_ms = 0.5
from_ms = 2
until_ms = 20

[cut]
a = 1
b = 3
from_ms = 5
until_ms = 6

[partition]
group = 0, 1
from_ms = 0
until_ms = 2

[crash]
node = 4
at_ms = 10
recover_ms = 12

[deviation]
node = 2
strategy = equivocate-votes

[expect]
outcome = bottom
stalled = true
min_faults = 1
)";

TEST(ScenarioParse, FullSchemaRoundTrip) {
  const auto p = runtime::parse_scenario(kScenarioText);
  ASSERT_TRUE(p.ok()) << p.error;
  const runtime::Scenario& sc = *p.scenario;
  EXPECT_EQ(sc.name, "unit");
  EXPECT_EQ(sc.users, 12u);
  EXPECT_EQ(sc.providers, 5u);
  EXPECT_EQ(sc.k, 2u);
  EXPECT_EQ(sc.seed, 7u);
  EXPECT_EQ(sc.faults.seed, 99u);

  ASSERT_EQ(sc.faults.links.size(), 1u);
  const sim::LinkFault& link = sc.faults.links[0];
  EXPECT_EQ(link.from, 0u);
  EXPECT_EQ(link.to, 2u);
  EXPECT_DOUBLE_EQ(link.drop, 0.25);
  EXPECT_DOUBLE_EQ(link.duplicate, 0.1);
  EXPECT_EQ(link.extra_delay, sim::from_micros(1500));
  EXPECT_EQ(link.jitter, sim::from_micros(500));
  EXPECT_EQ(link.active_from, sim::from_millis(2));
  EXPECT_EQ(link.active_until, sim::from_millis(20));

  ASSERT_EQ(sc.faults.cuts.size(), 1u);
  EXPECT_EQ(sc.faults.cuts[0].a, 1u);
  EXPECT_EQ(sc.faults.cuts[0].b, 3u);
  ASSERT_EQ(sc.faults.partitions.size(), 1u);
  EXPECT_EQ(sc.faults.partitions[0].group, (std::vector<NodeId>{0, 1}));
  ASSERT_EQ(sc.faults.crashes.size(), 1u);
  EXPECT_EQ(sc.faults.crashes[0].node, 4u);
  EXPECT_EQ(sc.faults.crashes[0].at, sim::from_millis(10));
  EXPECT_EQ(sc.faults.crashes[0].recover_at, sim::from_millis(12));

  ASSERT_EQ(sc.deviations.size(), 1u);
  EXPECT_EQ(sc.deviations[0].node, 2u);
  EXPECT_EQ(sc.deviations[0].strategy, "equivocate-votes");

  EXPECT_EQ(sc.expect.outcome, runtime::ScenarioExpect::Outcome::kBottom);
  EXPECT_EQ(sc.expect.stalled, std::optional<bool>(true));
  EXPECT_EQ(sc.expect.min_faults, std::optional<std::uint64_t>(1));
}

TEST(ScenarioParse, StrictnessRejectsTypos) {
  // Unknown key in a known section.
  EXPECT_FALSE(runtime::parse_scenario("[run]\nuserz = 10\n").ok());
  // Unknown section.
  EXPECT_FALSE(runtime::parse_scenario("[lnik]\ndrop = 0.5\n").ok());
  // Probability out of range.
  EXPECT_FALSE(runtime::parse_scenario("[link]\ndrop = 1.5\n").ok());
  // Unknown deviation strategy.
  EXPECT_FALSE(
      runtime::parse_scenario("[deviation]\nnode = 1\nstrategy = lie-a-lot\n").ok());
  // Inconsistent spec: m ≤ 2k.
  EXPECT_FALSE(runtime::parse_scenario("[run]\nproviders = 4\nk = 2\n").ok());
  // Deviant node outside the provider range.
  EXPECT_FALSE(runtime::parse_scenario(
                   "[run]\nproviders = 5\nk = 1\n"
                   "[deviation]\nnode = 7\nstrategy = equivocate-votes\n")
                   .ok());
  // Keys before any section header.
  EXPECT_FALSE(runtime::parse_scenario("users = 10\n").ok());
  // Fault-section node beyond the deployment (providers 0..4, client = 5):
  // a typo'd id must be an error, not a rule that silently never fires.
  EXPECT_FALSE(runtime::parse_scenario(
                   "[run]\nproviders = 5\nk = 1\n[crash]\nnode = 7\nat_ms = 1\n")
                   .ok());
  EXPECT_FALSE(runtime::parse_scenario(
                   "[run]\nproviders = 5\nk = 1\n[partition]\ngroup = 0, 9\n")
                   .ok());
}

TEST(ScenarioParse, ReliabilitySectionRoundTrip) {
  const auto p = runtime::parse_scenario(
      "[run]\nproviders = 5\nk = 1\n"
      "[reliability]\nenable = true\nretransmit_delay_ms = 2.5\n"
      "max_retries = 4\nround_timeout_ms = 9\n");
  ASSERT_TRUE(p.ok()) << p.error;
  const net::ReliabilityConfig& r = p.scenario->reliability;
  EXPECT_TRUE(r.enable);
  EXPECT_EQ(r.retransmit_delay, sim::from_micros(2500));
  EXPECT_EQ(r.max_retries, 4u);
  EXPECT_EQ(r.round_timeout, sim::from_millis(9));
  // Defaults when the section is absent: disabled.
  const auto q = runtime::parse_scenario("[run]\nproviders = 5\nk = 1\n");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(q.scenario->reliability.enable);
}

TEST(ScenarioParse, ReliabilityStrictness) {
  // Unknown key.
  EXPECT_FALSE(runtime::parse_scenario("[reliability]\nretries = 3\n").ok());
  // Malformed bool.
  EXPECT_FALSE(runtime::parse_scenario("[reliability]\nenable = maybe\n").ok());
  // A zero retransmit delay would respin the timer wheel; rejected.
  EXPECT_FALSE(
      runtime::parse_scenario("[reliability]\nretransmit_delay_ms = 0\n").ok());
  // round_timeout_ms = 0 is the documented "watchdogs off" value.
  EXPECT_TRUE(
      runtime::parse_scenario("[run]\nproviders = 5\nk = 1\n"
                              "[reliability]\nround_timeout_ms = 0\n")
          .ok());
  // Tuning knobs without enable=true would silently do nothing: rejected.
  const auto dangling =
      runtime::parse_scenario("[run]\nproviders = 5\nk = 1\n"
                              "[reliability]\nround_timeout_ms = 9\n");
  EXPECT_FALSE(dangling.ok());
  EXPECT_NE(dangling.error.find("enable"), std::string::npos);
  EXPECT_FALSE(runtime::parse_scenario("[run]\nproviders = 5\nk = 1\n"
                                       "[reliability]\nmax_retries = 3\n")
                   .ok());
}

TEST(ScenarioParse, AbsurdTimesClampToForever) {
  const auto p = runtime::parse_scenario(
      "[run]\nproviders = 5\nk = 1\n"
      "[crash]\nnode = 1\nat_ms = 1\nrecover_ms = 99999999999999999\n");
  ASSERT_TRUE(p.ok()) << p.error;
  EXPECT_EQ(p.scenario->faults.crashes[0].recover_at, sim::kSimForever);
}

TEST(ScenarioParse, ClientAndWildcardNodeNames) {
  const auto p = runtime::parse_scenario(
      "[run]\nproviders = 5\nk = 1\n"
      "[link]\nfrom = client\nto = any\ndrop = 0.5\n");
  ASSERT_TRUE(p.ok()) << p.error;
  EXPECT_EQ(p.scenario->faults.links[0].from, 5u);  // client = node m
  EXPECT_EQ(p.scenario->faults.links[0].to, kNoNode);
}

TEST(ScenarioParse, MaxEventsKey) {
  const auto p = runtime::parse_scenario(
      "[run]\nproviders = 5\nk = 1\nmax_events = 123456\n");
  ASSERT_TRUE(p.ok()) << p.error;
  EXPECT_EQ(p.scenario->max_events, 123'456u);
  // Absent: the generous default budget.
  const auto q = runtime::parse_scenario("[run]\nproviders = 5\nk = 1\n");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.scenario->max_events, runtime::Scenario{}.max_events);
  // Zero would make every run ⊥ event-budget-exceeded: rejected.
  EXPECT_FALSE(
      runtime::parse_scenario("[run]\nproviders = 5\nk = 1\nmax_events = 0\n")
          .ok());
}

// ---------------------------------------------------------------------------
// The .scn emitter (to_scn)
// ---------------------------------------------------------------------------

std::vector<std::filesystem::path> scenario_files();  // defined below

TEST(ScenarioEmit, ToScnIsAFixpointOfParseOverTheFullSchema) {
  // One pass through parse ∘ to_scn canonicalizes formatting (key order,
  // float grammar); from then on the text must be stable: parse(to_scn(x))
  // emits byte-identical text, and the reparse carries the same semantics.
  const auto p1 = runtime::parse_scenario(kScenarioText);
  ASSERT_TRUE(p1.ok()) << p1.error;
  const std::string text2 = p1.scenario->to_scn();
  const auto p2 = runtime::parse_scenario(text2);
  ASSERT_TRUE(p2.ok()) << p2.error << "\n--- emitted ---\n" << text2;
  EXPECT_EQ(p2.scenario->to_scn(), text2);

  // Spot-check the semantics survived the trip.
  EXPECT_EQ(p2.scenario->users, p1.scenario->users);
  EXPECT_EQ(p2.scenario->k, p1.scenario->k);
  ASSERT_EQ(p2.scenario->faults.links.size(), 1u);
  EXPECT_DOUBLE_EQ(p2.scenario->faults.links[0].drop, 0.25);
  EXPECT_EQ(p2.scenario->faults.links[0].active_until, sim::from_millis(20));
  ASSERT_EQ(p2.scenario->deviations.size(), 1u);
  EXPECT_EQ(p2.scenario->deviations[0].strategy, "equivocate-votes");
  EXPECT_EQ(p2.scenario->expect.outcome,
            runtime::ScenarioExpect::Outcome::kBottom);
}

TEST(ScenarioEmit, EveryShippedScenarioRoundTripsThroughToScn) {
  for (const auto& path : scenario_files()) {
    SCOPED_TRACE(path.filename().string());
    const auto text = testutil::slurp_file(path);
    ASSERT_TRUE(text.has_value());
    const auto p1 = runtime::parse_scenario(*text);
    ASSERT_TRUE(p1.ok()) << p1.error;
    const std::string text2 = p1.scenario->to_scn();
    const auto p2 = runtime::parse_scenario(text2);
    ASSERT_TRUE(p2.ok()) << p2.error << "\n--- emitted ---\n" << text2;
    EXPECT_EQ(p2.scenario->to_scn(), text2) << "to_scn is not a fixpoint";
  }
}

TEST(ScenarioEmit, ReparsedScenarioRunsIdenticallyToTheOriginal) {
  // The emitter must not change what a scenario *does*: same outcome digest,
  // makespan, and traffic on both sides of the round-trip. One representative
  // (faulty, reliability-on) scenario keeps this fast.
  const auto text = testutil::slurp_file(
      std::filesystem::path(DAUCT_SCENARIO_DIR) / "dup_storm.scn");
  ASSERT_TRUE(text.has_value());
  const auto p1 = runtime::parse_scenario(*text);
  ASSERT_TRUE(p1.ok()) << p1.error;
  const auto p2 = runtime::parse_scenario(p1.scenario->to_scn());
  ASSERT_TRUE(p2.ok()) << p2.error;

  const auto a = runtime::run_scenario(*p1.scenario);
  const auto b = runtime::run_scenario(*p2.scenario);
  EXPECT_EQ(a.result_digest, b.result_digest);
  EXPECT_EQ(a.run.makespan, b.run.makespan);
  EXPECT_EQ(a.run.traffic.messages, b.run.traffic.messages);
  EXPECT_EQ(a.run.traffic.bytes, b.run.traffic.bytes);
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

runtime::SimRunResult run_golden(const testutil::GoldenRun& g,
                                 std::optional<sim::FaultPlan> faults) {
  core::AuctioneerSpec spec;
  spec.m = g.m;
  spec.k = g.k;
  spec.num_bidders = g.n;
  std::shared_ptr<core::AuctionAdapter> adapter;
  if (g.standard) {
    auction::StandardAuctionParams p;
    p.epsilon = 0.25;
    adapter = std::make_shared<core::StandardAuctionAdapter>(p);
  } else {
    adapter = std::make_shared<core::DoubleAuctionAdapter>();
  }
  const core::DistributedAuctioneer auctioneer(spec, adapter);
  const auto inst = testutil::make_instance(g.n, g.m, g.seed, g.standard);
  runtime::SimRunConfig cfg;
  cfg.seed = g.seed;
  cfg.faults = std::move(faults);
  return runtime::SimRuntime(cfg).run_distributed(auctioneer, inst);
}

/// A plan full of rules that can never fire: zero rates, a cut and a
/// partition whose windows are empty, a crash in the unreachable future.
sim::FaultPlan zero_effect_plan() {
  sim::FaultPlan plan;
  plan.seed = 12345;
  sim::LinkFault rule;  // matches everything, does nothing
  plan.links.push_back(rule);
  sim::LinkCut cut;
  cut.a = 0;
  cut.b = 1;
  cut.from = sim::from_millis(5);
  cut.until = sim::from_millis(5);
  plan.cuts.push_back(cut);
  sim::Partition part;
  part.group = {0};
  part.from = sim::from_millis(3);
  part.until = sim::from_millis(3);
  plan.partitions.push_back(part);
  plan.crashes.push_back(
      sim::CrashEvent{0, sim::kSimForever - 1, sim::kSimForever});
  return plan;
}

TEST(ScenarioDeterminism, ZeroRatePlanIsBitIdenticalToNoPlan) {
  for (const testutil::GoldenRun& g : testutil::kGoldenRuns) {
    SCOPED_TRACE("n=" + std::to_string(g.n) + " m=" + std::to_string(g.m) +
                 " seed=" + std::to_string(g.seed));
    const auto run = run_golden(g, zero_effect_plan());
    ASSERT_TRUE(run.global_outcome.ok());
    const Bytes enc = serde::encode_result(run.global_outcome.value());
    EXPECT_EQ(crypto::digest_hex(crypto::sha256(BytesView(enc))), g.result_sha256);
    EXPECT_EQ(run.makespan, static_cast<sim::SimTime>(g.makespan));
    EXPECT_EQ(run.traffic.messages, g.messages);
    EXPECT_EQ(run.traffic.bytes, g.bytes);
    EXPECT_EQ(run.fault_stats.total_dropped(), 0u);
    EXPECT_EQ(run.fault_stats.duplicated, 0u);
    EXPECT_EQ(run.fault_stats.delayed, 0u);
  }
}

sim::FaultPlan lossy_plan(std::uint64_t seed) {
  sim::FaultPlan plan;
  plan.seed = seed;
  sim::LinkFault rule;
  rule.drop = 0.1;
  rule.duplicate = 0.05;
  rule.extra_delay = sim::from_micros(200);
  rule.jitter = sim::from_micros(700);
  plan.links.push_back(rule);
  plan.crashes.push_back(sim::CrashEvent{2, sim::from_millis(9)});
  return plan;
}

TEST(ScenarioDeterminism, SameSeedSamePlanSameBytes) {
  const testutil::GoldenRun& g = testutil::kGoldenRuns[1];
  const auto a = run_golden(g, lossy_plan(42));
  const auto b = run_golden(g, lossy_plan(42));

  // Faulty runs of this severity stall; equality must hold for the whole
  // observable fingerprint either way.
  EXPECT_EQ(a.global_outcome.ok(), b.global_outcome.ok());
  if (a.global_outcome.ok()) {
    EXPECT_EQ(serde::encode_result(a.global_outcome.value()),
              serde::encode_result(b.global_outcome.value()));
  } else {
    EXPECT_EQ(a.global_outcome.bottom().reason, b.global_outcome.bottom().reason);
  }
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.traffic.messages, b.traffic.messages);
  EXPECT_EQ(a.traffic.bytes, b.traffic.bytes);
  EXPECT_EQ(a.fault_stats.link_dropped, b.fault_stats.link_dropped);
  EXPECT_EQ(a.fault_stats.crash_dropped, b.fault_stats.crash_dropped);
  EXPECT_EQ(a.fault_stats.duplicated, b.fault_stats.duplicated);
  EXPECT_EQ(a.fault_stats.delayed, b.fault_stats.delayed);
}

TEST(ScenarioDeterminism, FaultSeedChangesTheFaultStreamOnly) {
  const testutil::GoldenRun& g = testutil::kGoldenRuns[1];
  const auto a = run_golden(g, lossy_plan(42));
  const auto b = run_golden(g, lossy_plan(43));
  // Different fault seeds make different drop decisions — the runs diverge
  // somewhere (traffic, stats, or outcome). This is a smoke check that the
  // fault RNG is actually consulted.
  const bool identical = a.traffic.messages == b.traffic.messages &&
                         a.fault_stats.link_dropped == b.fault_stats.link_dropped &&
                         a.fault_stats.duplicated == b.fault_stats.duplicated &&
                         a.makespan == b.makespan;
  EXPECT_FALSE(identical);
}

TEST(ScenarioDeterminism, DelayOnlyPlanPreservesTheResult) {
  const testutil::GoldenRun& g = testutil::kGoldenRuns[1];
  sim::FaultPlan plan;
  plan.seed = 9;
  sim::LinkFault rule;
  rule.extra_delay = sim::from_millis(3);
  rule.jitter = sim::from_millis(2);
  plan.links.push_back(rule);

  const auto clean = run_golden(g, std::nullopt);
  const auto slow = run_golden(g, plan);
  ASSERT_TRUE(clean.global_outcome.ok());
  ASSERT_TRUE(slow.global_outcome.ok());
  // Delays reorder deliveries but rounds are content-addressed: the decided
  // result is identical; only the makespan moves.
  EXPECT_EQ(serde::encode_result(clean.global_outcome.value()),
            serde::encode_result(slow.global_outcome.value()));
  EXPECT_GT(slow.makespan, clean.makespan);
  EXPECT_GT(slow.fault_stats.delayed, 0u);
}

// ---------------------------------------------------------------------------
// Crash semantics
// ---------------------------------------------------------------------------

TEST(ScenarioCrash, CrashAfterDecisionPreservesOutcome) {
  // Providers on this instance decide by ~22 ms; the client collects by
  // ~25 ms. Crashing k=2 providers in between must not disturb the outcome.
  const testutil::GoldenRun& g = testutil::kGoldenRuns[1];
  sim::FaultPlan plan;
  plan.crashes.push_back(sim::CrashEvent{1, sim::from_millis(23)});
  plan.crashes.push_back(sim::CrashEvent{3, sim::from_millis(23)});
  const auto run = run_golden(g, plan);
  ASSERT_TRUE(run.global_outcome.ok());
  const Bytes enc = serde::encode_result(run.global_outcome.value());
  EXPECT_EQ(crypto::digest_hex(crypto::sha256(BytesView(enc))), g.result_sha256);
  EXPECT_FALSE(run.stalled);
}

TEST(ScenarioCrash, CrashMidRoundStallsToBottom) {
  const testutil::GoldenRun& g = testutil::kGoldenRuns[1];
  sim::FaultPlan plan;
  plan.crashes.push_back(sim::CrashEvent{1, sim::from_millis(8)});
  const auto run = run_golden(g, plan);
  EXPECT_TRUE(run.stalled);
  ASSERT_FALSE(run.global_outcome.ok());
  EXPECT_EQ(run.global_outcome.bottom().reason, AbortReason::kTimeout);
  EXPECT_GT(run.fault_stats.crash_dropped, 0u);
}

TEST(ScenarioCrash, CrashRecoverInQuietWindowIsInvisible) {
  // Down from 0.5 ms to 2 ms: the client batches are still in flight
  // (community base latency is 2.5 ms), so the node misses nothing and the
  // run reproduces the golden fingerprint exactly.
  const testutil::GoldenRun& g = testutil::kGoldenRuns[1];
  sim::FaultPlan plan;
  plan.crashes.push_back(
      sim::CrashEvent{1, sim::from_micros(500), sim::from_millis(2)});
  const auto run = run_golden(g, plan);
  ASSERT_TRUE(run.global_outcome.ok());
  const Bytes enc = serde::encode_result(run.global_outcome.value());
  EXPECT_EQ(crypto::digest_hex(crypto::sha256(BytesView(enc))), g.result_sha256);
  EXPECT_EQ(run.makespan, static_cast<sim::SimTime>(g.makespan));
  EXPECT_EQ(run.fault_stats.crash_dropped, 0u);
}

// ---------------------------------------------------------------------------
// The shipped scenario library
// ---------------------------------------------------------------------------

std::vector<std::filesystem::path> scenario_files() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(DAUCT_SCENARIO_DIR)) {
    if (entry.path().extension() == ".scn") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(ScenarioLibrary, EveryShippedScenarioParsesRunsAndSelfChecks) {
  const auto files = scenario_files();
  ASSERT_GE(files.size(), 12u) << "the scenario library shrank below spec";
  std::vector<std::string> names;
  for (const auto& path : files) {
    SCOPED_TRACE(path.filename().string());
    const auto text = testutil::slurp_file(path);
    ASSERT_TRUE(text.has_value());
    const auto parsed = runtime::parse_scenario(*text);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    EXPECT_FALSE(parsed.scenario->name.empty()) << "scenario without a name";
    names.push_back(parsed.scenario->name);
    const auto run = runtime::run_scenario(*parsed.scenario);
    for (const auto& failure : run.failures) ADD_FAILURE() << failure;
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end())
      << "duplicate scenario names";
}

/// One shipped scenario's observable run, recorded when the single-auction
/// and service runtimes were still two separate implementations. Every
/// field is pinned exactly: the merge onto one simulated runtime must not
/// move a result byte, a virtual instant, a frame, an event, a WAL record, a
/// retransmit, a signature, or a verification.
struct ScenarioFingerprint {
  const char* file;
  const char* result_sha256;  ///< "" when the run ends in ⊥
  std::int64_t makespan;
  std::uint64_t messages, bytes, events;
  std::uint64_t wal_records, wal_bytes;
  std::uint64_t retransmits, signed_sends;
  std::uint64_t verified;  ///< signatures checked, eagerly or in a batch
};

constexpr ScenarioFingerprint kScenarioFingerprints[] = {
    {"amnesia_beyond_k.scn",
     "4533406cdccb450819482cdbdedaaf6b9634158650e8f6fcd5aa18d146fb5e5d",
     54291050, 499, 52640, 1046, 220, 21745, 26, 0, 0},
    {"auth_forged_frame.scn",
     "4533406cdccb450819482cdbdedaaf6b9634158650e8f6fcd5aa18d146fb5e5d",
     25175098, 220, 39995, 220, 0, 0, 0, 35, 175},
    {"auth_replayed_round.scn",
     "4533406cdccb450819482cdbdedaaf6b9634158650e8f6fcd5aa18d146fb5e5d",
     25242756, 215, 39350, 215, 0, 0, 0, 35, 175},
    {"auth_stolen_key.scn",
     "",
     13116905, 110, 23625, 110, 0, 0, 0, 24, 100},
    {"beyond_k.scn",
     "",
     12716503, 90, 14530, 90, 0, 0, 0, 0, 0},
    {"bidder_adversary_replay.scn",
     "5753a88188e069bb29854472fa7c5841baa7c31a497fdf712763511dc9ff75d8",
     23224735, 72, 7344, 72, 0, 0, 0, 0, 0},
    {"byzantine_echo.scn",
     "",
     12754748, 110, 17125, 110, 0, 0, 0, 0, 0},
    {"clean.scn",
     "4533406cdccb450819482cdbdedaaf6b9634158650e8f6fcd5aa18d146fb5e5d",
     25214028, 185, 22520, 185, 0, 0, 0, 0, 0},
    {"dup_storm.scn",
     "c177b1d45156bce029fded7ef8f1904755669db505152eca59301afc4d822fe7",
     25635224, 360, 38050, 823, 0, 0, 0, 0, 0},
    {"dup_storm_legacy.scn",
     "",
     10539819, 90, 14270, 104, 0, 0, 0, 0, 0},
    {"flaky_provider.scn",
     "368b37bd280db1853216186dc97d795433405f7bbfb83eb6839ef50ee403cdf1",
     40223359, 381, 43148, 787, 0, 0, 14, 0, 0},
    {"k_crash.scn",
     "4533406cdccb450819482cdbdedaaf6b9634158650e8f6fcd5aa18d146fb5e5d",
     25214028, 185, 22520, 185, 0, 0, 0, 0, 0},
    {"kill_restart.scn",
     "4533406cdccb450819482cdbdedaaf6b9634158650e8f6fcd5aa18d146fb5e5d",
     33875682, 392, 40821, 833, 220, 21745, 10, 0, 0},
    {"lossy_extreme.scn",
     "",
     40025683, 888, 87606, 1268, 0, 0, 243, 0, 0},
    {"lossy_lan.scn",
     "a5923131da9c9439f5a51150baf49aa4d099bb5e85a57f1ec85b8d44c3f8856f",
     5678102, 1146, 230858, 2358, 0, 0, 25, 0, 0},
    {"multi_instance_clean.scn",
     "721ae4a1bdd4802872cb7b9c168dd6c77a49fa1ec9b5eda0e5b14107f8145b1c",
     49898848, 273, 34029, 273, 0, 0, 0, 0, 0},
    {"multi_instance_faulty.scn",
     "",
     113195971, 471, 50612, 1009, 0, 0, 20, 0, 0},
    {"partition_heal.scn",
     "4533406cdccb450819482cdbdedaaf6b9634158650e8f6fcd5aa18d146fb5e5d",
     25214028, 185, 22520, 185, 0, 0, 0, 0, 0},
    {"partition_stall.scn",
     "",
     6779738, 35, 6155, 21, 0, 0, 0, 0, 0},
    {"slow_wan.scn",
     "873e3ae0fbb2930a4d23e2a14af830c31abee325b48ad3fac89ff4ede2cc8f95",
     74108722, 185, 25520, 185, 0, 0, 0, 0, 0},
    {"wal_torn_tail.scn",
     "4533406cdccb450819482cdbdedaaf6b9634158650e8f6fcd5aa18d146fb5e5d",
     33875682, 392, 40821, 833, 222, 22297, 10, 0, 0},
    // Added with service-mode amnesia recovery (no earlier value exists).
    {"service_amnesia.scn",
     "bc0a75069e83d4f56198fe00b229ca484c2ae5259857c41d2653561c32ab357f",
     58040481, 1679, 175306, 3512, 865, 89660, 28, 0, 0},
};

TEST(ScenarioLibrary, EveryShippedScenarioReproducesItsPinnedFingerprint) {
  const auto files = scenario_files();
  std::size_t pinned = 0;
  for (const auto& path : files) {
    const std::string file = path.filename().string();
    SCOPED_TRACE(file);
    const auto text = testutil::slurp_file(path);
    ASSERT_TRUE(text.has_value());
    const auto parsed = runtime::parse_scenario(*text);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    const auto out = runtime::run_scenario(*parsed.scenario);
    const auto& r = out.run;
    const ScenarioFingerprint got{
        file.c_str(),          out.result_digest.c_str(),
        r.makespan,            r.traffic.messages,
        r.traffic.bytes,       r.events_dispatched,
        r.wal_stats.records_appended, r.wal_stats.bytes_appended,
        r.reliability_stats.retransmits, r.auth_stats.signed_sends,
        r.auth_stats.verified_eager + r.auth_stats.verified_batched};
    const std::string row =
        std::string("{\"") + got.file + "\", \"" + got.result_sha256 + "\", " +
        std::to_string(got.makespan) + ", " + std::to_string(got.messages) +
        ", " + std::to_string(got.bytes) + ", " + std::to_string(got.events) +
        ", " + std::to_string(got.wal_records) + ", " +
        std::to_string(got.wal_bytes) + ", " + std::to_string(got.retransmits) +
        ", " + std::to_string(got.signed_sends) + ", " +
        std::to_string(got.verified) + "},";
    const ScenarioFingerprint* want = nullptr;
    for (const auto& f : kScenarioFingerprints) {
      if (file == f.file) want = &f;
    }
    if (!want) {
      ADD_FAILURE() << "no pinned fingerprint; this run is:\n" << row;
      continue;
    }
    ++pinned;
    EXPECT_EQ(out.result_digest, want->result_sha256) << row;
    EXPECT_EQ(got.makespan, want->makespan) << row;
    EXPECT_EQ(got.messages, want->messages) << row;
    EXPECT_EQ(got.bytes, want->bytes) << row;
    EXPECT_EQ(got.events, want->events) << row;
    EXPECT_EQ(got.wal_records, want->wal_records) << row;
    EXPECT_EQ(got.wal_bytes, want->wal_bytes) << row;
    EXPECT_EQ(got.retransmits, want->retransmits) << row;
    EXPECT_EQ(got.signed_sends, want->signed_sends) << row;
    EXPECT_EQ(got.verified, want->verified) << row;
  }
  EXPECT_EQ(pinned, std::size(kScenarioFingerprints))
      << "a pinned scenario file is missing from the library";
}

TEST(ScenarioLibrary, CleanScenarioReproducesTheGoldenFingerprint) {
  // scenarios/clean.scn runs the kGoldenRuns[1] instance with an (empty)
  // fault plan *installed* — pinning that hook-but-no-faults equals the
  // pre-fault-subsystem implementation byte for byte.
  const testutil::GoldenRun& g = testutil::kGoldenRuns[1];
  const auto text =
      testutil::slurp_file(std::filesystem::path(DAUCT_SCENARIO_DIR) / "clean.scn");
  ASSERT_TRUE(text.has_value());
  const auto parsed = runtime::parse_scenario(*text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_EQ(parsed.scenario->users, g.n);
  ASSERT_EQ(parsed.scenario->providers, g.m);
  ASSERT_EQ(parsed.scenario->seed, g.seed);
  const auto run = runtime::run_scenario(*parsed.scenario);
  EXPECT_TRUE(run.ok());
  EXPECT_EQ(run.result_digest, g.result_sha256);
  EXPECT_EQ(run.run.makespan, static_cast<sim::SimTime>(g.makespan));
  EXPECT_EQ(run.run.traffic.messages, g.messages);
  EXPECT_EQ(run.run.traffic.bytes, g.bytes);
}

TEST(ScenarioLibrary, LossyLanCompletesUnderReliabilityWithAPinnedDigest) {
  // The flipped flagship: 2% loss, n=64 m=9, reliability on. The run must
  // complete with exactly the fault-free result; the digest is pinned so a
  // reliability-layer regression that still "completes" (with the wrong
  // bytes, or by luckily dodging the faults) cannot slip through.
  const auto text = testutil::slurp_file(
      std::filesystem::path(DAUCT_SCENARIO_DIR) / "lossy_lan.scn");
  ASSERT_TRUE(text.has_value());
  const auto parsed = runtime::parse_scenario(*text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_TRUE(parsed.scenario->reliability.enable);
  const auto run = runtime::run_scenario(*parsed.scenario);
  EXPECT_TRUE(run.ok());
  EXPECT_EQ(run.result_digest,
            "a5923131da9c9439f5a51150baf49aa4d099bb5e85a57f1ec85b8d44c3f8856f");
  EXPECT_EQ(run.result_digest, run.clean_digest);
  EXPECT_GT(run.run.fault_stats.link_dropped, 0u);
  EXPECT_GT(run.run.reliability_stats.retransmits, 0u);
  EXPECT_EQ(run.run.reliability_stats.give_ups, 0u);
}

TEST(ScenarioLibrary, DupStormPairPinsTheMigration) {
  // The same 15%-duplication fault plan, twice: reliability off must keep
  // the historical equivocation-⊥ reading (dup_storm_legacy), reliability on
  // must dedup below the collectors and complete (dup_storm).
  const auto read = [&](const char* name) {
    const auto text =
        testutil::slurp_file(std::filesystem::path(DAUCT_SCENARIO_DIR) / name);
    EXPECT_TRUE(text.has_value());
    const auto parsed = runtime::parse_scenario(*text);
    EXPECT_TRUE(parsed.ok()) << parsed.error;
    return *parsed.scenario;
  };
  const runtime::Scenario legacy = read("dup_storm_legacy.scn");
  const runtime::Scenario migrated = read("dup_storm.scn");
  ASSERT_FALSE(legacy.reliability.enable);
  ASSERT_TRUE(migrated.reliability.enable);
  ASSERT_EQ(legacy.seed, migrated.seed);
  ASSERT_EQ(legacy.faults.seed, migrated.faults.seed);

  const auto off = runtime::run_scenario(legacy);
  EXPECT_TRUE(off.ok());
  EXPECT_FALSE(off.run.global_outcome.ok());

  const auto on = runtime::run_scenario(migrated);
  EXPECT_TRUE(on.ok());
  ASSERT_TRUE(on.run.global_outcome.ok());
  EXPECT_EQ(on.result_digest, on.clean_digest);
  EXPECT_GT(on.run.reliability_stats.duplicates_suppressed, 0u);
}

TEST(ScenarioLibrary, BidderAdversaryReproActuallyBendsTheMarket) {
  // bidder_adversary_replay.scn must not pass vacuously: the bidder scripts
  // have to really change the outcome relative to an all-honest market (the
  // exclusions are the auction's defined result for those users), while the
  // frame tricks stay invisible — the run still matches its clean twin,
  // which keeps the scripts and drops only replay/reorder.
  const auto text = testutil::slurp_file(std::filesystem::path(DAUCT_SCENARIO_DIR) /
                                         "bidder_adversary_replay.scn");
  ASSERT_TRUE(text.has_value());
  const auto parsed = runtime::parse_scenario(*text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_EQ(parsed.scenario->bidders.size(), 2u);
  ASSERT_TRUE(parsed.scenario->bid_frames.any());

  const auto run = runtime::run_scenario(*parsed.scenario);
  EXPECT_TRUE(run.ok());
  ASSERT_TRUE(run.run.global_outcome.ok());
  EXPECT_EQ(run.result_digest, run.clean_digest);

  runtime::Scenario honest = *parsed.scenario;
  honest.bidders.clear();
  honest.bid_frames = {};
  honest.expect = {};
  const auto honest_run = runtime::run_scenario(honest);
  ASSERT_TRUE(honest_run.run.global_outcome.ok());
  EXPECT_NE(honest_run.result_digest, run.result_digest)
      << "the adversarial bidders were absorbed without any market effect — "
         "the scenario no longer exercises the bidder-adversary axis";
}

TEST(ScenarioLibrary, WalTornTailReproReallyDamagesTheLog) {
  // wal_torn_tail.scn recovery must come off a genuinely damaged live tail:
  // the lying disk has to drop at least one fsync and apply crash damage,
  // or the scenario degenerates into plain kill_restart.
  const auto text = testutil::slurp_file(std::filesystem::path(DAUCT_SCENARIO_DIR) /
                                         "wal_torn_tail.scn");
  ASSERT_TRUE(text.has_value());
  const auto parsed = runtime::parse_scenario(*text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_TRUE(parsed.scenario->wal_fault.enable);

  const auto run = runtime::run_scenario(*parsed.scenario);
  EXPECT_TRUE(run.ok());
  ASSERT_TRUE(run.run.global_outcome.ok());
  EXPECT_EQ(run.result_digest, run.clean_digest);

  const auto& sf = run.run.storage_fault_stats;
  EXPECT_EQ(sf.crashes, 1u);  // the decorator saw the amnesia instant
  EXPECT_GT(sf.syncs_dropped, 0u) << "no fsync ever lied";
  EXPECT_GT(sf.torn_bytes + sf.flipped_bytes, 0u)
      << "the crash damaged nothing — the torn-tail path went unexercised";
  // Recovery noticed: the reopened log truncated the damaged tail.
  EXPECT_GT(run.run.wal_stats.truncated_bytes, 0u);
}

}  // namespace
}  // namespace dauct
