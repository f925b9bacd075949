// Fault-injection scenario subsystem tests.
//
// Three layers of guarantees:
//  * parsing — the INI reader and the strict .scn schema (unknown keys and
//    malformed values are errors, not silent defaults), the emitter's
//    round trip of every key, and docs/SCENARIOS.md against the key tables;
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
#include <map>
#include <set>
#include <sstream>

#include "core/adapters.hpp"
#include "crypto/sha256.hpp"
#include "runtime/scenario.hpp"
#include "runtime/submission_codec.hpp"
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
  const auto& alpha = r.doc->sections[0].entries;
  ASSERT_EQ(alpha.size(), 2u);
  EXPECT_EQ(alpha[0].key, "key");
  EXPECT_EQ(alpha[0].value, "value with spaces");
  EXPECT_EQ(alpha[1].key, "n");
  EXPECT_EQ(alpha[1].value, "42");
  EXPECT_EQ(r.doc->sections[2].name, "alpha");
  ASSERT_EQ(r.doc->sections[2].entries.size(), 1u);
  EXPECT_EQ(r.doc->sections[2].entries[0].key, "x");
  EXPECT_EQ(r.doc->sections[2].entries[0].value, "2");
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
  // One row per rejection the parser makes: the text, the line the error
  // names (0 = a cross-section rule, reported without a line) and a
  // substring of the message.
  struct Row {
    std::string text;
    std::size_t line;
    const char* what;
  };
  const std::string m5 = "[run]\nproviders = 5\nk = 1\n";  // lines 1-3
  const std::string durable =
      m5 + "[wal]\nenable = true\n[reliability]\nenable = true\n";  // 4-7
  const std::vector<Row> rows = {
      // Unknown keys, sections and keys before any section.
      {"[run]\nuserz = 10\n", 2, "unknown key 'userz' in [run]"},
      {"[lnik]\ndrop = 0.5\n", 1, "unknown section [lnik]"},
      {"users = 10\n", 1, "keys before any [section] header"},
      // Malformed or out-of-range values.
      {"[run]\nusers = 0\n", 2, "bad value for 'users'"},
      {"[run]\nproviders = 0\n", 2, "bad value for 'providers'"},
      {"[run]\nk = -1\n", 2, "bad value for 'k'"},
      {"[run]\nepsilon = 0\n", 2, "bad value for 'epsilon'"},
      {"[run]\nepsilon = 1\n", 2, "bad value for 'epsilon'"},
      {"[run]\nauction = dutch\n", 2, "bad value for 'auction'"},
      {"[run]\nlatency = warp\n", 2, "bad value for 'latency'"},
      {"[run]\nmax_events = 0\n", 2, "bad value for 'max_events'"},
      {"[fault]\nseed = x\n", 2, "bad value for 'seed'"},
      {"[link]\ndrop = 1.5\n", 2, "bad value for 'drop'"},
      {"[link]\nsymmetric = maybe\n", 2, "bad value for 'symmetric'"},
      {"[link]\ndelay_ms = -1\n", 2, "bad value for 'delay_ms'"},
      {"[link]\nfrom = 4294967295\n", 2, "bad value for 'from'"},
      {"[link]\ninstance = 18446744073709551615\n", 2, "bad value for 'instance'"},
      {"[cut]\na = 0\nb = 1\ninstance = 18446744073709551615\n", 4,
       "bad value for 'instance'"},
      {"[partition]\ngroup = 0\ninstance = 18446744073709551615\n", 3,
       "bad value for 'instance'"},
      {"[deviation]\nnode = 1\nstrategy = honest\n"
       "instance = 18446744073709551615\n",
       4, "bad value for 'instance'"},
      {"[cut]\na = any\nb = 1\n", 2, "bad value for 'a'"},
      {"[partition]\ngroup = 0, any\n", 2, "bad value for 'group'"},
      {"[partition]\ngroup = 0,,1\n", 2, "bad value for 'group'"},
      {"[crash]\nnode = any\n", 2, "bad value for 'node'"},
      {"[crash]\nnode = 1\nmode = zombie\n", 3, "bad value for 'mode'"},
      {"[deviation]\nnode = any\nstrategy = honest\n", 2, "bad value for 'node'"},
      {"[deviation]\nnode = 1\nstrategy = lie-a-lot\n", 3, "lie-a-lot"},
      {"[deviation]\nnode = 1\nstrategy = misreport-ask\nfake_cost = lots\n", 4,
       "bad value for 'fake_cost'"},
      {"[bidder]\nbidder = 1\nbehaviour = sneaky\n", 3, "sneaky"},
      {"[bidder]\nbidder = 4294967297\nbehaviour = equivocate\n", 2,
       "bad value for 'bidder'"},
      {"[auth_adversary]\nnode = any\nmode = forge\n", 2, "bad value for 'node'"},
      {"[auth_adversary]\nnode = 1\nmode = sneak\n", 3, "bad value for 'mode'"},
      {"[reliability]\nretransmit_delay_ms = 0\n", 2,
       "bad value for 'retransmit_delay_ms'"},
      {"[wal]\nsnapshot_every = -1\n", 2, "bad value for 'snapshot_every'"},
      {"[service]\ninstances = 0\n", 2, "bad value for 'instances'"},
      {"[service]\npipeline_depth = 0\n", 2, "bad value for 'pipeline_depth'"},
      {"[expect]\noutcome = maybe\n", 2, "bad value for 'outcome'"},
      {"[expect]\nmin_faults = few\n", 2, "bad value for 'min_faults'"},
      // Section-local rules, reported at the section header.
      {"[crash]\nat_ms = 1\n", 1, "[crash] needs"},
      {"[cut]\na = 1\n", 1, "[cut] needs"},
      {"[partition]\nfrom_ms = 1\n", 1, "[partition] needs"},
      {"[bidder]\nbidder = 1\n", 1, "[bidder] needs"},
      {"[auth_adversary]\nnode = 1\n", 1, "[auth_adversary] needs"},
      {"[deviation]\nnode = 1\n", 1, "[deviation] needs"},
      {durable + "[crash]\nnode = 1\nat_ms = 1\nmode = amnesia\n", 8,
       "mode=amnesia needs recover_ms"},
      {"[reliability]\nmax_retries = 3\n", 1, "without enable=true"},
      {"[reliability]\nretransmit_delay_ms = 8\n", 1, "without enable=true"},
      {"[reliability]\nround_timeout_ms = 9\n", 1, "without enable=true"},
      {"[wal]\nsnapshot_every = 4\n", 1, "without enable=true"},
      {"[wal]\ncorrupt = true\n", 1, "without enable=true"},
      {"[wal]\ntorn = 0.1\n", 1, "without enable=true"},
      {"[wal]\nenable = true\ntorn = 0.1\n", 1, "without corrupt=true"},
      {"[wal]\nenable = true\ncorrupt = false\ncorrupt_seed = 3\n", 1,
       "without corrupt=true"},
      {"[wal]\nenable = true\ncorrupt = true\ntorn = 0.6\nflip = 0.6\n", 1,
       "torn + flip must not exceed 1"},
      {"[auth]\nbatch = true\n", 1, "without enable=true"},
      {"[bid_frames]\n", 1, "[bid_frames] needs replay=true or reorder=true"},
      {"[bid_frames]\nreplay = false\n", 1, "[bid_frames] needs"},
      // Cross-section rules (no line: they relate several sections).
      {"[run]\nproviders = 4\nk = 2\n", 0, "requires providers > 2k"},
      {m5 + "[deviation]\nnode = 7\nstrategy = equivocate-votes\n", 0,
       "[deviation] node 7 is not a provider"},
      {m5 + "[crash]\nnode = 7\nat_ms = 1\n", 0, "[crash] node 7 does not exist"},
      {m5 + "[partition]\ngroup = 0, 9\n", 0, "[partition] node 9 does not exist"},
      {m5 + "[link]\nfrom = 6\n", 0, "[link] node 6 does not exist"},
      {m5 + "[cut]\na = 0\nb = 6\n", 0, "[cut] node 6 does not exist"},
      {m5 + "[auth_adversary]\nnode = 1\nmode = forge\n", 0,
       "[auth_adversary] requires [auth] enable=true"},
      {m5 + "[auth]\nenable = true\n[auth_adversary]\nnode = 5\nmode = replay\n",
       0, "[auth_adversary] node 5 is not a provider"},
      {m5 + "[expect]\nmin_auth_rejects = 1\n", 0,
       "min_auth_rejects requires [auth] enable=true"},
      {m5 + "[expect]\nequivocation_proof = true\n", 0,
       "equivocation_proof=true requires [auth] enable=true"},
      {m5 + "[crash]\nnode = 1\nat_ms = 1\nrecover_ms = 2\nmode = amnesia\n", 0,
       "mode=amnesia requires [wal] enable=true"},
      {m5 + "[wal]\nenable = true\n[crash]\nnode = 1\nat_ms = 1\nrecover_ms = 2\n"
            "mode = amnesia\n",
       0, "mode=amnesia requires [reliability] enable=true"},
      {m5 + "[service]\ninstances = 2\npipeline_depth = 3\n", 0,
       "pipeline_depth 3 exceeds instances 2"},
      {m5 + "[link]\ninstance = 0\n", 0, "[link] instance= requires [service]"},
      {m5 + "[cut]\na = 0\nb = 1\ninstance = 0\n", 0,
       "[cut] instance= requires [service]"},
      {m5 + "[partition]\ngroup = 0\ninstance = 0\n", 0,
       "[partition] instance= requires [service]"},
      {m5 + "[deviation]\nnode = 1\nstrategy = honest\ninstance = 0\n", 0,
       "[deviation] instance= requires [service]"},
      {m5 + "[service]\ninstances = 2\n[link]\ninstance = 2\n", 0,
       "[link] instance 2 does not exist"},
      {m5 + "[service]\ninstances = 2\n[deviation]\nnode = 1\nstrategy = honest\n"
            "instance = 5\n",
       0, "[deviation] instance 5 does not exist"},
      {m5 + "[bidder]\nbidder = 99\nbehaviour = silent\n", 0,
       "[bidder] bidder 99 does not exist"},
      {m5 + "[bidder]\nbidder = 1\nbehaviour = silent\n"
            "[bidder]\nbidder = 1\nbehaviour = malformed\n",
       0, "appears in more than one [bidder] section"},
      {m5 + "[wal]\nenable = true\ncorrupt = true\n", 0,
       "requires a [crash] with mode=amnesia"},
      {m5 + "[expect]\nmin_instances_ok = 1\n", 0,
       "min_instances_ok requires [service] instances > 1"},
      {m5 + "[expect]\ninstances_match_twins = true\n", 0,
       "instances_match_twins requires [service] instances > 1"},
      {m5 + "[service]\ninstances = 2\n[expect]\nmin_instances_ok = 3\n", 0,
       "min_instances_ok 3 exceeds [service] instances 2"},
      // A key repeated in one section, or a second copy of a section that
      // does not repeat, would silently shadow the first: rejected at the
      // repeat.
      {"[run]\nusers = 4\nusers = 5\n", 3,
       "key 'users' repeated in [run] (first at line 2)"},
      {"[link]\ndrop = 0.1\ndrop = 0.2\n", 3, "key 'drop' repeated in [link]"},
      {"[crash]\nnode = 1\nnode = 2\n", 3, "key 'node' repeated in [crash]"},
      {m5 + "[run]\nseed = 2\n", 4, "section [run] repeated (first at line 1)"},
      {"[scenario]\nname = a\n[scenario]\nname = b\n", 3, "section [scenario] repeated"},
      {"[fault]\nseed = 2\n[fault]\nseed = 3\n", 3, "section [fault] repeated"},
      {"[reliability]\nenable = true\n[reliability]\nenable = true\n", 3,
       "section [reliability] repeated"},
      {"[wal]\nenable = true\n[wal]\nenable = false\n", 3, "section [wal] repeated"},
      {"[auth]\nenable = true\n[auth]\nenable = true\n", 3, "section [auth] repeated"},
      {"[auth_adversary]\nnode = 1\nmode = forge\n"
       "[auth_adversary]\nnode = 2\nmode = forge\n",
       4, "section [auth_adversary] repeated"},
      {"[bid_frames]\nreplay = true\n[bid_frames]\nreorder = true\n", 3,
       "section [bid_frames] repeated"},
      {"[service]\ninstances = 2\n[service]\ninstances = 3\n", 3,
       "section [service] repeated"},
      {"[expect]\nstalled = true\n[expect]\nstalled = false\n", 3,
       "section [expect] repeated"},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.text);
    const auto p = runtime::parse_scenario(row.text);
    ASSERT_FALSE(p.ok());
    if (row.line > 0) {
      EXPECT_EQ(p.error.rfind("line " + std::to_string(row.line) + ": ", 0), 0u)
          << p.error;
    } else {
      EXPECT_NE(p.error.rfind("line ", 0), 0u) << p.error;
    }
    EXPECT_NE(p.error.find(row.what), std::string::npos) << p.error;
  }
  // The inert spellings stay legal: they switch nothing on.
  for (const char* ok_text : {
           "[reliability]\nround_timeout_ms = 0\n",
           "[wal]\ncorrupt = false\n", "[auth]\nbatch = false\n",
           "[expect]\nequivocation_proof = false\n"}) {
    SCOPED_TRACE(ok_text);
    const auto p = runtime::parse_scenario(m5 + ok_text);
    EXPECT_TRUE(p.ok()) << p.error;
  }
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

// Every key of every section set away from its default (and every
// repeatable section present once), so to_scn must write all of them.
constexpr const char* kEveryKeyText = R"(
[scenario]
name = every-key
description = every key away from its default

[run]
auction = standard
users = 9
providers = 7
k = 2
epsilon = 0.25
seed = 11
latency = lan
max_events = 777777

[service]
instances = 3
pipeline_depth = 2

[fault]
seed = 5

[link]
from = 1
to = client
symmetric = false
drop = 0.125
duplicate = 0.0625
delay_ms = 1.5
jitter_ms = 0.25
from_ms = 2
until_ms = 40
instance = 1

[cut]
a = 2
b = 3
from_ms = 1
until_ms = 9
instance = 2

[partition]
group = 0, 4
from_ms = 3
until_ms = 8
instance = 0

[crash]
node = 5
at_ms = 4
recover_ms = 30
mode = amnesia

[reliability]
enable = true
retransmit_delay_ms = 3
max_retries = 9
round_timeout_ms = 0

[wal]
enable = true
snapshot_every = 3
corrupt = true
corrupt_seed = 17
sync_drop = 0.5
torn = 0.25
flip = 0.5

[auth]
enable = true
batch = true

[auth_adversary]
node = 6
mode = replay

[deviation]
node = 1
strategy = misreport-ask
fake_cost = 12.5
instance = 1

[bidder]
bidder = 3
behaviour = equivocate

[bid_frames]
replay = true
reorder = true

[expect]
outcome = bottom
stalled = true
matches_clean = false
abort_reason = timeout
min_faults = 2
min_auth_rejects = 1
equivocation_proof = true
min_instances_ok = 1
instances_match_twins = false
)";

/// Section name → the keys a .scn text sets in it.
std::map<std::string, std::set<std::string>> keys_set_in(const std::string& text) {
  const auto ini = serde::parse_ini(text);
  EXPECT_TRUE(ini.ok()) << ini.error;
  std::map<std::string, std::set<std::string>> out;
  for (const auto& sec : ini.doc->sections) {
    for (const auto& kv : sec.entries) out[sec.name].insert(kv.key);
  }
  return out;
}

TEST(ScenarioEmit, EveryKeySurvivesTheRoundTrip) {
  // to_scn omits default-valued keys, so a key the emitter dropped would
  // re-parse as its default on both passes and leave to_scn a fixpoint.
  // The schema's full dump (every key, defaults included) of parse(x) and
  // of parse(to_scn(parse(x))) must therefore agree, key by key.
  const auto& schema = runtime::scenario_schema();
  const auto every = runtime::parse_scenario(kEveryKeyText);
  ASSERT_TRUE(every.ok()) << every.error;
  // The test text really moves every table key off its default: to_scn,
  // which writes only such keys (and required ones), names all of them.
  const auto emitted = keys_set_in(every.scenario->to_scn());
  for (const auto& sec : schema.sections) {
    for (const auto& key : sec.keys) {
      EXPECT_TRUE(emitted.count(sec.name) && emitted.at(sec.name).count(key))
          << "[" << sec.name << "] " << key << " is at its default";
    }
  }
  std::vector<std::pair<std::string, std::string>> texts = {
      {"every-key text", kEveryKeyText}};
  for (const auto& path : scenario_files()) {
    texts.emplace_back(path.filename().string(), *testutil::slurp_file(path));
  }
  for (const auto& [name, text] : texts) {
    SCOPED_TRACE(name);
    const auto p1 = runtime::parse_scenario(text);
    ASSERT_TRUE(p1.ok()) << p1.error;
    const auto p2 = runtime::parse_scenario(p1.scenario->to_scn());
    ASSERT_TRUE(p2.ok()) << p2.error;
    EXPECT_EQ(schema.emit(*p2.scenario, true), schema.emit(*p1.scenario, true));
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
/// retransmit, a signature, or a verification. The other fields were
/// re-pinned when bid agreement moved to 32-byte digest votes, and makespan,
/// bytes and events again when all but one provider began reporting the
/// result as its digest (service_amnesia's crash window moved then, so its
/// every field moved). Every field but the fault-free runs' message counts
/// moved when Money and ids became varints on the wire: result digests
/// re-encode the same outcomes, frames land earlier, and the crash windows
/// of both service_amnesia files moved with them.
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
     "ed13a6accc961c1cd9ea3f4bb7a7f0dc1a326765124cde193f28017e07d25288",
     53833725, 492, 28156, 672, 220, 15135, 7, 0, 0},
    {"auth_forged_frame.scn",
     "ed13a6accc961c1cd9ea3f4bb7a7f0dc1a326765124cde193f28017e07d25288",
     23954226, 220, 30653, 220, 0, 0, 0, 35, 175},
    {"auth_replayed_round.scn",
     "ed13a6accc961c1cd9ea3f4bb7a7f0dc1a326765124cde193f28017e07d25288",
     24228597, 215, 30008, 215, 0, 0, 0, 35, 175},
    {"auth_stolen_key.scn",
     "",
     12059601, 110, 14815, 110, 0, 0, 0, 24, 100},
    {"beyond_k.scn",
     "",
     12026673, 90, 7950, 90, 0, 0, 0, 0, 0},
    {"bidder_adversary_replay.scn",
     "feb0b98e76b8bba41b6d929a5b07d60e6019407545fbcf144c4bf963fddab8ed",
     22683938, 72, 4970, 72, 0, 0, 0, 0, 0},
    {"bidder_equivocation.scn",
     "d8b3ea0d9f73715fb3aaa36ea4c042e06a3a33bc5765ef49c018d7628bf31a80",
     30883785, 235, 28313, 235, 0, 0, 0, 0, 0},
    {"byzantine_echo.scn",
     "",
     11819036, 110, 8315, 110, 0, 0, 0, 0, 0},
    {"clean.scn",
     "ed13a6accc961c1cd9ea3f4bb7a7f0dc1a326765124cde193f28017e07d25288",
     24232473, 185, 14343, 185, 0, 0, 0, 0, 0},
    {"dup_storm.scn",
     "f413bc7af954eaba344ff990ca81f5abc9e83c7b1454049c38d9f589424dab26",
     24223522, 355, 19488, 533, 0, 0, 0, 0, 0},
    {"dup_storm_legacy.scn",
     "",
     10934998, 95, 6360, 110, 0, 0, 0, 0, 0},
    {"flaky_provider.scn",
     "659491633cc3cb687ab87dc9f1bdb7a4dbdc5986a8a341a522a89574963ef7bf",
     36418598, 363, 20940, 513, 0, 0, 17, 0, 0},
    {"k_crash.scn",
     "ed13a6accc961c1cd9ea3f4bb7a7f0dc1a326765124cde193f28017e07d25288",
     24232473, 185, 14343, 185, 0, 0, 0, 0, 0},
    {"kill_restart.scn",
     "ed13a6accc961c1cd9ea3f4bb7a7f0dc1a326765124cde193f28017e07d25288",
     31951481, 403, 23199, 564, 220, 15135, 5, 0, 0},
    {"lossy_extreme.scn",
     "",
     37803613, 520, 31783, 584, 0, 0, 128, 0, 0},
    {"lossy_lan.scn",
     "dae619bf78e1682b985ffdebf2f7600153d71a7b43a2d3d055da38bf1cec0cdb",
     2876070, 1148, 78246, 1403, 0, 0, 25, 0, 0},
    {"multi_instance_clean.scn",
     "66274f454b8162ded43a56143f089f92e45ea4b4e03e3ca5a6cc86362e0959c5",
     47878060, 273, 20699, 273, 0, 0, 0, 0, 0},
    {"multi_instance_faulty.scn",
     "",
     119607513, 470, 26845, 654, 0, 0, 20, 0, 0},
    {"partition_heal.scn",
     "ed13a6accc961c1cd9ea3f4bb7a7f0dc1a326765124cde193f28017e07d25288",
     24232473, 185, 14343, 185, 0, 0, 0, 0, 0},
    {"partition_stall.scn",
     "",
     6259767, 35, 1905, 21, 0, 0, 0, 0, 0},
    {"service_amnesia.scn",
     "7c36363a60c2c0f54b51265ce8439e9086228aca354feccc390437b054f6615e",
     50683347, 1627, 94419, 2035, 865, 63160, 2, 0, 0},
    {"service_amnesia_bid_lost.scn",
     "",
     231441783, 1379, 70573, 1883, 540, 36941, 0, 0, 0},
    {"slow_wan.scn",
     "da14c2d7a33d0241d1da9eaf2346ef90a4985c6f4efebecf1d9a9d6f11fdc350",
     72950665, 185, 14541, 185, 0, 0, 0, 0, 0},
    {"split_digest_vote.scn",
     "611f0399c646e83d7c1d7118d8b8136d2a92cf7e4c64418df737dda61332e150",
     30622096, 235, 28342, 235, 0, 0, 0, 0, 0},
    {"wal_torn_tail.scn",
     "ed13a6accc961c1cd9ea3f4bb7a7f0dc1a326765124cde193f28017e07d25288",
     32068393, 402, 23176, 562, 221, 15189, 5, 0, 0},
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

// The client's check of the result frames (the designated provider's full
// report, every other provider's digest of it) reads ok exactly when the
// providers' outcomes combine to ok: on every golden run and on every
// instance of every shipped scenario, ⊥ and stalled runs included.
TEST(ScenarioLibrary, ClientVerdictOkMatchesTheCombinedOutcomeOk) {
  const auto agreed = [](runtime::ReportVerdict v) {
    return v == runtime::ReportVerdict::kAgreed;
  };
  for (const testutil::GoldenRun& g : testutil::kGoldenRuns) {
    SCOPED_TRACE("golden n=" + std::to_string(g.n) + " seed=" + std::to_string(g.seed));
    const auto run = run_golden(g, std::nullopt);
    ASSERT_TRUE(run.global_outcome.ok());
    EXPECT_TRUE(agreed(run.client_verdict));
    const Bytes report = runtime::detail::encode_report(run.global_outcome);
    EXPECT_EQ(run.client_digest, crypto::digest_hex(crypto::sha256(BytesView(report))));
  }
  for (const auto& path : scenario_files()) {
    SCOPED_TRACE(path.filename().string());
    const auto text = testutil::slurp_file(path);
    ASSERT_TRUE(text.has_value());
    const auto parsed = runtime::parse_scenario(*text);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    const auto out = runtime::run_scenario(*parsed.scenario);
    if (!out.service) {
      EXPECT_EQ(agreed(out.run.client_verdict), out.run.global_outcome.ok());
      continue;
    }
    for (const runtime::InstanceRunResult& inst : out.service->instances) {
      SCOPED_TRACE("instance " + std::to_string(inst.id));
      EXPECT_EQ(agreed(inst.client_verdict), inst.outcome.ok());
    }
  }
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

TEST(ScenarioLibrary, LossyExtremeEndsInADeliveryFailedGiveUp) {
  // lossy_extreme.scn's [expect] abort_reason is the reason of provider 0,
  // which combine_outcomes reports; which provider gives up first depends on
  // retransmit timing. Whichever does, the ⊥ must originate in a give-up:
  // some provider aborts with delivery-failed and the links count give-ups.
  const auto text = testutil::slurp_file(
      std::filesystem::path(DAUCT_SCENARIO_DIR) / "lossy_extreme.scn");
  ASSERT_TRUE(text.has_value());
  const auto parsed = runtime::parse_scenario(*text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const auto run = runtime::run_scenario(*parsed.scenario);
  EXPECT_TRUE(run.ok());
  ASSERT_TRUE(run.run.global_outcome.is_bottom());
  EXPECT_TRUE(std::any_of(
      run.run.provider_outcomes.begin(), run.run.provider_outcomes.end(),
      [](const auction::AuctionOutcome& o) {
        return o.is_bottom() && o.bottom().reason == AbortReason::kDeliveryFailed;
      }))
      << "no provider's ⊥ came from a give-up";
  EXPECT_GT(run.run.reliability_stats.give_ups, 0u);
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
            "dae619bf78e1682b985ffdebf2f7600153d71a7b43a2d3d055da38bf1cec0cdb");
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

// ---------------------------------------------------------------------------
// docs/SCENARIOS.md lists exactly the key tables
// ---------------------------------------------------------------------------

TEST(ScenarioDocs, KeyTablesMatchTheReference) {
  // Like cli_test's --help check: a key added to a table without a line in
  // the reference (or documented but gone from the table) fails here. The
  // documented keys of a section are the backticked names in the first
  // column of the "| key |" tables under its ### `[section]` heading.
  const auto md = testutil::slurp_file(std::filesystem::path(DAUCT_DOCS_DIR) /
                                       "SCENARIOS.md");
  ASSERT_TRUE(md.has_value());
  std::map<std::string, std::set<std::string>> documented;
  std::string section;
  bool key_table = false;
  std::istringstream in(*md);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("#", 0) == 0) {
      section = line.rfind("### `[", 0) == 0 ? line.substr(6, line.find("]`") - 6) : "";
      key_table = false;
      if (!section.empty()) documented[section];
    } else if (line.rfind("| key |", 0) == 0) {
      key_table = true;
    } else if (line.rfind("|", 0) != 0) {
      key_table = false;
    } else if (key_table && !section.empty()) {
      const std::string cell = line.substr(1, line.find('|', 1) - 1);
      for (std::size_t a = cell.find('`'); a != std::string::npos;) {
        const std::size_t b = cell.find('`', a + 1);
        documented[section].insert(cell.substr(a + 1, b - a - 1));
        a = cell.find('`', b + 1);
      }
    }
  }
  std::map<std::string, std::set<std::string>> tables;
  for (const auto& sec : runtime::scenario_schema().sections) {
    tables[sec.name].insert(sec.keys.begin(), sec.keys.end());
  }
  EXPECT_EQ(documented, tables);
}

}  // namespace
}  // namespace dauct
