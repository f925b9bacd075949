// Fault-plan fuzzer tests (sim/fuzz.hpp + runtime/fuzz_harness.hpp).
//
// Four layers of guarantees:
//  * generator — the case stream is a pure function of the seed (pinned as
//    byte-identical .scn text), nth() replays any case standalone, every
//    sampled case respects the declared bounds (including the k budget), and
//    every case's scenario parses back through the strict .scn parser;
//  * oracle — a clean case passes, a result-bending deviation is caught as
//    wrong-result, a starved event budget is caught as budget-exceeded (and
//    distinguished from the clean twin failing);
//  * minimizer — an injected known-bad oracle is reduced to exactly its
//    triggering clauses, the verdict is preserved at every step, and the
//    minimizer is idempotent;
//  * bounds files — the strict INI parser accepts overrides and rejects
//    unknown keys and inconsistent ranges.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>

#include "runtime/fuzz_harness.hpp"
#include "sim/fuzz.hpp"

namespace dauct {
namespace {

using runtime::FuzzVerdict;
using runtime::Scenario;
using sim::FuzzBounds;
using sim::FuzzCase;
using sim::PlanFuzzer;

std::string scn_of(const FuzzCase& c) {
  return runtime::scenario_from_case(c).to_scn();
}

// ---------------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------------

TEST(PlanFuzzer, SameSeedYieldsByteIdenticalCaseStream) {
  PlanFuzzer a(FuzzBounds{}, 42);
  PlanFuzzer b(FuzzBounds{}, 42);
  for (int i = 0; i < 25; ++i) {
    EXPECT_EQ(scn_of(a.next()), scn_of(b.next())) << "stream diverged at " << i;
  }
  // And a different seed diverges somewhere early (overwhelming probability:
  // every case embeds its own 64-bit run seed).
  PlanFuzzer c(FuzzBounds{}, 43);
  PlanFuzzer d(FuzzBounds{}, 42);
  bool differs = false;
  for (int i = 0; i < 5 && !differs; ++i) differs = scn_of(c.next()) != scn_of(d.next());
  EXPECT_TRUE(differs);
}

TEST(PlanFuzzer, NthReplaysAnyCaseWithoutItsPredecessors) {
  PlanFuzzer stream(FuzzBounds{}, 7);
  std::vector<std::string> generated;
  for (int i = 0; i < 10; ++i) generated.push_back(scn_of(stream.next()));
  const PlanFuzzer replay(FuzzBounds{}, 7);
  EXPECT_EQ(scn_of(replay.nth(9)), generated[9]);
  EXPECT_EQ(scn_of(replay.nth(0)), generated[0]);
  EXPECT_EQ(scn_of(replay.nth(4)), generated[4]);
}

TEST(PlanFuzzer, EveryCaseRespectsTheDeclaredBounds) {
  const FuzzBounds b;
  PlanFuzzer fuzzer(b, 3);
  for (int i = 0; i < 200; ++i) {
    const FuzzCase c = fuzzer.next();
    SCOPED_TRACE("case " + std::to_string(c.index));
    EXPECT_GE(c.users, b.min_users);
    EXPECT_LE(c.users, b.max_users);
    EXPECT_GE(c.providers, b.min_providers);
    EXPECT_LE(c.providers, b.max_providers);
    EXPECT_GE(c.k, 1u);
    EXPECT_GT(c.providers, 2 * c.k) << "m > 2k violated";
    EXPECT_LE(c.faults.links.size(), b.max_link_rules);
    for (const sim::LinkFault& f : c.faults.links) {
      EXPECT_LE(f.drop, b.max_drop);
      EXPECT_LE(f.duplicate, b.max_duplicate);
      EXPECT_LE(f.extra_delay, b.max_delay);
      EXPECT_LE(f.jitter, b.max_jitter);
      EXPECT_TRUE(f.drop > 0 || f.duplicate > 0 || f.extra_delay > 0 ||
                  f.jitter > 0)
          << "no-op link rule generated";
      EXPECT_LT(f.active_from, f.active_until);
    }
    EXPECT_LE(c.faults.cuts.size(), b.max_cuts);
    EXPECT_LE(c.faults.partitions.size(), b.max_partitions);
    EXPECT_LE(c.faults.crashes.size(), b.max_crashes);

    // The k budget: crashed + deviant + wire-tampered providers are distinct
    // and total at most k; crashes hit providers only.
    std::set<NodeId> adversarial;
    for (const sim::CrashEvent& cr : c.faults.crashes) {
      EXPECT_LT(cr.node, c.providers) << "crashed a client";
      EXPECT_LT(cr.at, cr.recover_at);
      EXPECT_TRUE(adversarial.insert(cr.node).second) << "node hit twice";
      if (cr.mode == sim::CrashMode::kAmnesia) {
        // Amnesia needs a log to replay and the rejoin sweep to close the
        // gap — the generator must never emit it without both layers.
        EXPECT_TRUE(c.wal) << "amnesia without a WAL";
        EXPECT_TRUE(c.reliability) << "amnesia without the rejoin path";
        EXPECT_NE(cr.recover_at, sim::kSimForever)
            << "amnesia on a crash-stop node";
      }
    }
    if (c.wal) {
      EXPECT_GE(c.wal_snapshot_every, 1u);
      EXPECT_LE(c.wal_snapshot_every, 16u);
    }
    for (const FuzzCase::Deviation& d : c.deviations) {
      EXPECT_LT(d.node, c.providers);
      EXPECT_TRUE(adversarial.insert(d.node).second) << "node hit twice";
      EXPECT_TRUE(std::find(b.strategies.begin(), b.strategies.end(),
                            d.strategy) != b.strategies.end());
      EXPECT_NE(d.strategy, "misreport-ask")
          << "input manipulation must stay out of the fuzz pool";
    }
    if (c.auth_adversary_node != kNoNode) {
      EXPECT_TRUE(c.auth) << "wire adversary without the signing layer";
      EXPECT_LT(c.auth_adversary_node, c.providers);
      EXPECT_TRUE(adversarial.insert(c.auth_adversary_node).second);
    }
    EXPECT_LE(adversarial.size(), c.k) << "k budget exceeded";

    // Service-plane draws: a service case stays inside the declared caps.
    if (c.instances > 1) {
      EXPECT_LE(c.instances, b.max_instances);
      EXPECT_GE(c.pipeline_depth, 1u);
      EXPECT_LE(c.pipeline_depth, std::min(b.max_pipeline_depth, c.instances));
    } else {
      EXPECT_EQ(c.instances, 1u);
      EXPECT_EQ(c.pipeline_depth, 1u);
    }

    // Instance-scoped rules: a drawn filter names a real instance of a
    // service case — and only service cases may carry one at all.
    const auto check_scope = [&](std::uint64_t instance, const char* kind) {
      if (instance == sim::kAnyInstance) return;
      EXPECT_GT(c.instances, 1u) << kind << " instance filter without service";
      EXPECT_LT(instance, c.instances) << kind << " filter names a dead instance";
    };
    for (const sim::LinkFault& f : c.faults.links) check_scope(f.instance, "link");
    for (const sim::LinkCut& cut : c.faults.cuts) check_scope(cut.instance, "cut");
    for (const sim::Partition& p : c.faults.partitions) {
      check_scope(p.instance, "partition");
    }
    for (const FuzzCase::Deviation& d : c.deviations) {
      check_scope(d.instance, "deviation");
    }

    // Bidder adversaries: distinct real bidders, behaviours from the pool,
    // bounded count. (Bidders spend no k budget — they are users, and
    // Definition 1 already excludes their bids from the honest agreement.)
    EXPECT_LE(c.bidder_adversaries.size(),
              std::min<std::size_t>(3, c.users));
    std::set<BidderId> bad_bidders;
    for (const FuzzCase::BidderAdversary& a : c.bidder_adversaries) {
      EXPECT_LT(a.bidder, c.users);
      EXPECT_TRUE(bad_bidders.insert(a.bidder).second) << "bidder drawn twice";
      EXPECT_TRUE(std::find(b.bidder_behaviours.begin(),
                            b.bidder_behaviours.end(),
                            a.behaviour) != b.bidder_behaviours.end())
          << "behaviour '" << a.behaviour << "' not in the declared pool";
    }
    if (c.bidder_adversaries.empty()) {
      EXPECT_FALSE(c.bid_replay) << "frame tricks without a bidder adversary";
      EXPECT_FALSE(c.bid_reorder);
    }

    // In-flight WAL corruption arms only over a live WAL with an amnesia
    // crash to damage at, and its one-draw damage split stays a probability.
    if (c.wal_corrupt) {
      EXPECT_TRUE(c.wal) << "corrupt WAL without a WAL";
      EXPECT_TRUE(std::any_of(c.faults.crashes.begin(), c.faults.crashes.end(),
                              [](const sim::CrashEvent& cr) {
                                return cr.mode == sim::CrashMode::kAmnesia;
                              }))
          << "corrupt WAL with no amnesia crash to damage";
      EXPECT_LE(c.wal_torn + c.wal_flip, 1.0);
      EXPECT_GE(c.wal_sync_drop, 0.0);
      EXPECT_LE(c.wal_sync_drop, 0.9);
    }
  }
}

TEST(PlanFuzzer, ServiceCasesAppearAndMapOntoTheScenario) {
  // Coverage sanity at default bounds (p_service = 0.35): both service and
  // single-run cases must appear, and scenario_from_case must carry the
  // knobs through verbatim.
  PlanFuzzer fuzzer(FuzzBounds{}, 23);
  int service = 0, single = 0;
  for (int i = 0; i < 100; ++i) {
    const FuzzCase c = fuzzer.next();
    const Scenario sc = runtime::scenario_from_case(c);
    EXPECT_EQ(sc.instances, c.instances);
    EXPECT_EQ(sc.pipeline_depth, c.pipeline_depth);
    c.instances > 1 ? ++service : ++single;
  }
  EXPECT_GT(service, 0) << "p_service = 0.35 produced no service case in 100";
  EXPECT_GT(single, 0);

  // p_service = 0 eliminates them; p_service = 1 forces them (the checked-in
  // CI shard bounds file relies on this).
  FuzzBounds off;
  off.p_service = 0.0;
  PlanFuzzer none(off, 23);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(none.next().instances, 1u);
  FuzzBounds on;
  on.p_service = 1.0;
  PlanFuzzer all(on, 23);
  for (int i = 0; i < 50; ++i) EXPECT_GT(all.next().instances, 1u);
}

TEST(PlanFuzzer, AmnesiaCrashesActuallyAppearInTheStream) {
  // Coverage sanity: at default bounds the stream must contain amnesia-mode
  // crashes (p_wal · p_reliability · the recover coin make them common
  // enough that 300 cases without one means the post-pass is dead code),
  // service cases included — and turning allow_amnesia off must eliminate
  // them entirely.
  PlanFuzzer fuzzer(FuzzBounds{}, 17);
  int amnesia = 0;
  for (int i = 0; i < 300; ++i) {
    for (const sim::CrashEvent& cr : fuzzer.next().faults.crashes) {
      if (cr.mode == sim::CrashMode::kAmnesia) ++amnesia;
    }
  }
  EXPECT_GT(amnesia, 0);

  FuzzBounds off;
  off.allow_amnesia = false;
  PlanFuzzer plain(off, 17);
  for (int i = 0; i < 300; ++i) {
    for (const sim::CrashEvent& cr : plain.next().faults.crashes) {
      EXPECT_EQ(cr.mode, sim::CrashMode::kRecover);
    }
  }

  // Service cases keep theirs too (one WAL replays every co-tenant
  // instance), each inside a scenario the strict parser accepts.
  FuzzBounds service;
  service.p_service = 1.0;
  PlanFuzzer multi(service, 17);
  int service_amnesia = 0;
  for (int i = 0; i < 200; ++i) {
    const FuzzCase c = multi.next();
    ASSERT_GT(c.instances, 1u);
    if (std::none_of(c.faults.crashes.begin(), c.faults.crashes.end(),
                     [](const sim::CrashEvent& cr) {
                       return cr.mode == sim::CrashMode::kAmnesia;
                     })) {
      continue;
    }
    ++service_amnesia;
    const auto parsed = runtime::parse_scenario(scn_of(c));
    EXPECT_TRUE(parsed.ok()) << "case " << c.index << ": " << parsed.error;
  }
  EXPECT_GT(service_amnesia, 0) << "200 service cases without one amnesia crash";
}

/// Bounds that force every new adversarial axis on, so a short stream is
/// guaranteed to exercise them (the checked-in CI shard bounds file mirrors
/// this shape).
FuzzBounds adversary_bounds() {
  FuzzBounds b;
  b.p_service = 0.5;
  b.p_instance_scope = 1.0;
  b.p_bidder_adversary = 1.0;
  b.p_wal_corrupt = 1.0;
  return b;
}

TEST(PlanFuzzer, AdversaryAxesActuallyAppearInTheStream) {
  // Coverage sanity: with the axes forced on, a short stream must contain
  // bidder adversaries, frame tricks, instance-scoped rules, and corrupt-WAL
  // cases — and scenario_from_case must carry each through verbatim.
  PlanFuzzer fuzzer(adversary_bounds(), 29);
  int bidders = 0, tricks = 0, scoped = 0, corrupt = 0;
  for (int i = 0; i < 150; ++i) {
    const FuzzCase c = fuzzer.next();
    const Scenario sc = runtime::scenario_from_case(c);
    ASSERT_EQ(sc.bidders.size(), c.bidder_adversaries.size());
    for (std::size_t j = 0; j < sc.bidders.size(); ++j) {
      EXPECT_EQ(sc.bidders[j].bidder, c.bidder_adversaries[j].bidder);
      EXPECT_EQ(sc.bidders[j].behaviour, c.bidder_adversaries[j].behaviour);
    }
    EXPECT_EQ(sc.bid_frames.replay, c.bid_replay);
    EXPECT_EQ(sc.bid_frames.reorder, c.bid_reorder);
    EXPECT_EQ(sc.wal_fault.enable, c.wal_corrupt);
    if (c.wal_corrupt) {
      EXPECT_EQ(sc.wal_fault.seed, c.wal_fault_seed);
      EXPECT_EQ(sc.wal_fault.sync_drop, c.wal_sync_drop);
      EXPECT_EQ(sc.wal_fault.torn, c.wal_torn);
      EXPECT_EQ(sc.wal_fault.flip, c.wal_flip);
    }
    if (!c.bidder_adversaries.empty()) ++bidders;
    if (c.bid_replay || c.bid_reorder) ++tricks;
    if (c.wal_corrupt) ++corrupt;
    for (const sim::LinkFault& f : c.faults.links) {
      if (f.instance != sim::kAnyInstance) ++scoped;
    }
    for (const sim::LinkCut& cut : c.faults.cuts) {
      if (cut.instance != sim::kAnyInstance) ++scoped;
    }
  }
  EXPECT_GT(bidders, 0) << "p_bidder_adversary = 1 produced no adversary";
  EXPECT_GT(tricks, 0) << "frame tricks never drawn";
  EXPECT_GT(scoped, 0) << "p_instance_scope = 1 produced no scoped rule";
  EXPECT_GT(corrupt, 0) << "p_wal_corrupt = 1 produced no corrupt-WAL case";

  // And zeroing the axes eliminates them (the default-shard contract).
  FuzzBounds off;
  off.p_instance_scope = 0.0;
  off.p_bidder_adversary = 0.0;
  off.p_wal_corrupt = 0.0;
  PlanFuzzer none(off, 29);
  for (int i = 0; i < 100; ++i) {
    const FuzzCase c = none.next();
    EXPECT_TRUE(c.bidder_adversaries.empty());
    EXPECT_FALSE(c.bid_replay);
    EXPECT_FALSE(c.bid_reorder);
    EXPECT_FALSE(c.wal_corrupt);
    for (const sim::LinkFault& f : c.faults.links) {
      EXPECT_EQ(f.instance, sim::kAnyInstance);
    }
  }
}

TEST(PlanFuzzer, EveryGeneratedScenarioSurvivesTheStrictScnParser) {
  PlanFuzzer fuzzer(FuzzBounds{}, 11);
  for (int i = 0; i < 100; ++i) {
    const FuzzCase c = fuzzer.next();
    const std::string text = scn_of(c);
    const runtime::ScenarioParse parsed = runtime::parse_scenario(text);
    ASSERT_TRUE(parsed.ok()) << "case " << c.index << ": " << parsed.error
                             << "\n--- emitted .scn ---\n" << text;
    // And the round-trip is a fixpoint: emit(parse(emit(x))) == emit(x).
    EXPECT_EQ(parsed.scenario->to_scn(), text) << "case " << c.index;
  }
  // Same fixpoint with every adversarial axis forced on, so the [bidder],
  // [bid_frames], [wal] corrupt and instance= emissions all round-trip.
  PlanFuzzer adv(adversary_bounds(), 11);
  for (int i = 0; i < 100; ++i) {
    const FuzzCase c = adv.next();
    const std::string text = scn_of(c);
    const runtime::ScenarioParse parsed = runtime::parse_scenario(text);
    ASSERT_TRUE(parsed.ok()) << "adversary case " << c.index << ": "
                             << parsed.error << "\n--- emitted .scn ---\n"
                             << text;
    EXPECT_EQ(parsed.scenario->to_scn(), text) << "adversary case " << c.index;
  }
}

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

/// A small fast scenario (zero latency, no faults) the oracle tests mutate.
Scenario base_scenario() {
  Scenario sc;
  sc.name = "fuzz-oracle-base";
  sc.users = 6;
  sc.providers = 3;
  sc.k = 1;
  sc.seed = 5;
  sc.latency = "zero";
  return sc;
}

TEST(FuzzOracle, CleanCasePasses) {
  const runtime::FuzzReport report = runtime::run_oracle(base_scenario());
  EXPECT_EQ(report.verdict, FuzzVerdict::kPass) << report.detail;
}

TEST(FuzzOracle, ResultBendingDeviationIsCaughtAsWrongResult) {
  // misreport-ask is deliberately excluded from the fuzz strategy pool
  // because it legitimately completes ok with a different result — which is
  // exactly what makes it the perfect probe that the matches-clean oracle
  // would catch a silent wrong result.
  Scenario sc = base_scenario();
  sc.deviations.push_back(runtime::DeviationSpec{
      0, "misreport-ask", Money::from_units(1'000'000)});
  const runtime::FuzzReport report = runtime::run_oracle(sc);
  EXPECT_EQ(report.verdict, FuzzVerdict::kWrongResult) << report.detail;
}

TEST(FuzzOracle, StarvedEventBudgetIsCaughtAsBudgetExceeded) {
  // Position the budget between the clean run's appetite and the faulty
  // run's: heavy duplication makes the faulty run strictly hungrier.
  Scenario sc = base_scenario();
  sim::LinkFault rule;
  rule.duplicate = 1.0;
  sc.faults.links.push_back(rule);

  const runtime::ScenarioRun wide = runtime::run_scenario(sc, true);
  ASSERT_TRUE(wide.clean.has_value());
  const std::uint64_t clean_events = wide.clean->events_dispatched;
  const std::uint64_t faulty_events = wide.run.events_dispatched;
  ASSERT_GT(faulty_events, clean_events) << "duplication added no events?";

  sc.max_events = clean_events + (faulty_events - clean_events) / 2;
  const runtime::FuzzReport report = runtime::run_oracle(sc);
  EXPECT_EQ(report.verdict, FuzzVerdict::kBudgetExceeded) << report.detail;

  // Starve the clean twin too: that must be classified as the harness's own
  // failure, never as a protocol liveness finding.
  sc.max_events = clean_events / 2;
  const runtime::FuzzReport starved = runtime::run_oracle(sc);
  EXPECT_EQ(starved.verdict, FuzzVerdict::kCleanFailed) << starved.detail;
}

TEST(FuzzOracle, SmallDefaultBoundsSweepIsViolationFree) {
  // A miniature of the CI smoke shard: the first few default-bounds cases
  // must all pass the oracle (violations at default bounds are shipped as
  // pinned repro scenarios, not left latent).
  PlanFuzzer fuzzer(FuzzBounds{}, 1);
  for (int i = 0; i < 4; ++i) {
    const FuzzCase c = fuzzer.next();
    const runtime::FuzzReport report =
        runtime::run_oracle(runtime::scenario_from_case(c));
    EXPECT_EQ(report.verdict, FuzzVerdict::kPass)
        << "case " << c.index << " (seed " << c.case_seed
        << "): " << runtime::fuzz_verdict_name(report.verdict) << " — "
        << report.detail;
  }
}

// ---------------------------------------------------------------------------
// Minimizer
// ---------------------------------------------------------------------------

/// Known-bad oracle: "fails" iff the plan still contains a crash of provider
/// 0 AND at least one cut. Everything else in the plan is noise the
/// minimizer must strip.
FuzzVerdict crash0_and_cut_oracle(const Scenario& sc) {
  bool crash0 = false;
  for (const sim::CrashEvent& cr : sc.faults.crashes) {
    if (cr.node == 0) crash0 = true;
  }
  return crash0 && !sc.faults.cuts.empty() ? FuzzVerdict::kWrongResult
                                           : FuzzVerdict::kPass;
}

Scenario noisy_scenario() {
  Scenario sc = base_scenario();
  sc.faults.crashes.push_back(sim::CrashEvent{0, sim::from_millis(10)});
  sc.faults.crashes.push_back(sim::CrashEvent{1, sim::from_millis(20)});
  sc.faults.cuts.push_back(
      sim::LinkCut{2, 5, sim::from_millis(1), sim::from_millis(9)});
  sc.faults.cuts.push_back(sim::LinkCut{0, 1, sim::from_millis(3)});
  sim::LinkFault noise;
  noise.drop = 0.2;
  sc.faults.links.push_back(noise);
  sc.faults.partitions.push_back(
      sim::Partition{{0, 1}, sim::from_millis(2), sim::from_millis(4)});
  sc.deviations.push_back(runtime::DeviationSpec{2, "selective-silence"});
  return sc;
}

TEST(FuzzMinimizer, InjectedBadOracleIsReducedToItsTriggeringClauses) {
  const Scenario failing = noisy_scenario();
  ASSERT_EQ(crash0_and_cut_oracle(failing), FuzzVerdict::kWrongResult);

  const runtime::MinimizeResult min = runtime::minimize(
      failing, FuzzVerdict::kWrongResult, crash0_and_cut_oracle);

  // Locally minimal: exactly the crash-of-0 and one cut survive (≤ 3 active
  // fault clauses, per the acceptance bar; here it is exactly 2).
  EXPECT_EQ(min.scenario.faults.crashes.size(), 1u);
  EXPECT_EQ(min.scenario.faults.crashes[0].node, 0u);
  EXPECT_EQ(min.scenario.faults.cuts.size(), 1u);
  EXPECT_TRUE(min.scenario.faults.links.empty());
  EXPECT_TRUE(min.scenario.faults.partitions.empty());
  EXPECT_TRUE(min.scenario.deviations.empty());
  EXPECT_EQ(min.removed, 5u);
  EXPECT_GT(min.probes, 0u);

  // Soundness: the minimized plan still fails with the same verdict.
  EXPECT_EQ(crash0_and_cut_oracle(min.scenario), FuzzVerdict::kWrongResult);

  // Scalar shrinking ran too: the surviving crash instant was halved to the
  // grid floor and the cut window widened to the whole-run default.
  EXPECT_EQ(min.scenario.faults.crashes[0].at, 0);
  EXPECT_EQ(min.scenario.faults.cuts[0].from, sim::kSimStart);
  EXPECT_EQ(min.scenario.faults.cuts[0].until, sim::kSimForever);
}

TEST(FuzzMinimizer, AmnesiaModeIsShrunkWhenTheFailureDoesNotNeedIt) {
  // The known-bad oracle only looks at "a crash of node 0 exists"; the
  // amnesia mode (and the WAL layer under it) is noise the scalar shrinker
  // must strip — and widening recover_at to forever must reset the mode too,
  // or the emitted repro would fail the .scn validator (mode=amnesia needs
  // recover_ms).
  const auto crash0_oracle = [](const Scenario& sc) {
    for (const sim::CrashEvent& cr : sc.faults.crashes) {
      if (cr.node == 0) return FuzzVerdict::kWrongResult;
    }
    return FuzzVerdict::kPass;
  };
  Scenario sc = base_scenario();
  sc.reliability.enable = true;
  sc.wal.enable = true;
  sim::CrashEvent crash{0, sim::from_millis(10)};
  crash.recover_at = sim::from_millis(30);
  crash.mode = sim::CrashMode::kAmnesia;
  sc.faults.crashes.push_back(crash);

  const runtime::MinimizeResult min =
      runtime::minimize(sc, FuzzVerdict::kWrongResult, crash0_oracle);
  ASSERT_EQ(min.scenario.faults.crashes.size(), 1u);
  EXPECT_EQ(min.scenario.faults.crashes[0].mode, sim::CrashMode::kRecover);
  EXPECT_EQ(min.scenario.faults.crashes[0].recover_at, sim::kSimForever);

  // The emitted repro survives the strict parser (the validator would reject
  // a leftover mode=amnesia without recover_ms).
  const runtime::ScenarioParse parsed =
      runtime::parse_scenario(min.scenario.to_scn());
  ASSERT_TRUE(parsed.ok()) << parsed.error;
}

TEST(FuzzMinimizer, BidderAndFrameClausesAreRemovableNoise) {
  // Known-bad oracle keyed on "a crash of node 0 exists": the bidder
  // adversaries, both frame tricks, and the corrupt-WAL knob are all noise
  // the new clause pool must strip — and dropping the amnesia crash's mode
  // must drop the lying disk with it (it has no crash left to arm at).
  const auto crash0_oracle = [](const Scenario& sc) {
    for (const sim::CrashEvent& cr : sc.faults.crashes) {
      if (cr.node == 0) return FuzzVerdict::kWrongResult;
    }
    return FuzzVerdict::kPass;
  };
  Scenario sc = base_scenario();
  sc.reliability.enable = true;
  sc.wal.enable = true;
  sim::CrashEvent crash{0, sim::from_millis(10)};
  crash.recover_at = sim::from_millis(30);
  crash.mode = sim::CrashMode::kAmnesia;
  sc.faults.crashes.push_back(crash);
  sc.bidders.push_back(runtime::BidderSpec{1, "malformed"});
  sc.bidders.push_back(runtime::BidderSpec{3, "silent"});
  sc.bid_frames.replay = true;
  sc.bid_frames.reorder = true;
  sc.wal_fault.enable = true;
  sc.wal_fault.sync_drop = 0.5;
  sc.wal_fault.torn = 0.5;

  const runtime::MinimizeResult min =
      runtime::minimize(sc, FuzzVerdict::kWrongResult, crash0_oracle);
  EXPECT_TRUE(min.scenario.bidders.empty());
  EXPECT_FALSE(min.scenario.bid_frames.replay);
  EXPECT_FALSE(min.scenario.bid_frames.reorder);
  EXPECT_FALSE(min.scenario.wal_fault.enable);
  ASSERT_EQ(min.scenario.faults.crashes.size(), 1u);
  EXPECT_EQ(min.scenario.faults.crashes[0].mode, sim::CrashMode::kRecover);

  // The emitted repro survives the strict parser (a leftover corrupt knob
  // without an amnesia crash would be rejected).
  const runtime::ScenarioParse parsed =
      runtime::parse_scenario(min.scenario.to_scn());
  ASSERT_TRUE(parsed.ok()) << parsed.error;
}

TEST(FuzzMinimizer, TriggeringBidderClauseSurvivesMinimization) {
  // Dual of the noise test: when the failure IS a bidder clause, ddmin must
  // keep exactly that clause and drop the co-drawn fault noise.
  const auto malformed_oracle = [](const Scenario& sc) {
    for (const runtime::BidderSpec& b : sc.bidders) {
      if (b.behaviour == "malformed") return FuzzVerdict::kWrongResult;
    }
    return FuzzVerdict::kPass;
  };
  Scenario sc = base_scenario();
  sc.bidders.push_back(runtime::BidderSpec{1, "silent"});
  sc.bidders.push_back(runtime::BidderSpec{2, "malformed"});
  sc.bid_frames.reorder = true;
  sc.faults.cuts.push_back(sim::LinkCut{0, 1});
  sim::LinkFault noise;
  noise.drop = 0.2;
  sc.faults.links.push_back(noise);

  const runtime::MinimizeResult min =
      runtime::minimize(sc, FuzzVerdict::kWrongResult, malformed_oracle);
  ASSERT_EQ(min.scenario.bidders.size(), 1u);
  EXPECT_EQ(min.scenario.bidders[0].behaviour, "malformed");
  EXPECT_FALSE(min.scenario.bid_frames.reorder);
  EXPECT_TRUE(min.scenario.faults.cuts.empty());
  EXPECT_TRUE(min.scenario.faults.links.empty());
  EXPECT_EQ(malformed_oracle(min.scenario), FuzzVerdict::kWrongResult);
}

TEST(FuzzMinimizer, InstanceFiltersGeneralizeAwayWhenUnneeded) {
  // A cut confined to instance 1 where the injected failure doesn't care
  // about the confinement: the shrinker must widen the filter back to
  // every-instance (and may shrink the service shape toward the floor).
  const auto any_cut_oracle = [](const Scenario& sc) {
    return sc.faults.cuts.empty() ? FuzzVerdict::kPass
                                  : FuzzVerdict::kWrongResult;
  };
  Scenario sc = base_scenario();
  sc.instances = 3;
  sc.pipeline_depth = 2;
  sim::LinkCut cut{0, 1};
  cut.instance = 1;
  sc.faults.cuts.push_back(cut);

  const runtime::MinimizeResult min =
      runtime::minimize(sc, FuzzVerdict::kWrongResult, any_cut_oracle);
  ASSERT_EQ(min.scenario.faults.cuts.size(), 1u);
  EXPECT_EQ(min.scenario.faults.cuts[0].instance, sim::kAnyInstance);
  EXPECT_LE(min.scenario.instances, 2u);
  EXPECT_EQ(min.scenario.pipeline_depth, 1u);
  const runtime::ScenarioParse parsed =
      runtime::parse_scenario(min.scenario.to_scn());
  ASSERT_TRUE(parsed.ok()) << parsed.error;
}

TEST(FuzzMinimizer, MinimizationIsIdempotent) {
  const runtime::MinimizeResult once = runtime::minimize(
      noisy_scenario(), FuzzVerdict::kWrongResult, crash0_and_cut_oracle);
  const runtime::MinimizeResult twice = runtime::minimize(
      once.scenario, FuzzVerdict::kWrongResult, crash0_and_cut_oracle);
  EXPECT_EQ(twice.scenario.to_scn(), once.scenario.to_scn());
  EXPECT_EQ(twice.removed, 0u);
}

TEST(FuzzMinimizer, VerdictMismatchIsNeverAccepted) {
  // An oracle whose verdict *changes* (rather than passes) when a clause is
  // removed: the minimizer must keep the clause — reproducing a different
  // failure is not reproducing the failure.
  const auto shifting = [](const Scenario& sc) {
    if (!sc.faults.crashes.empty() && !sc.faults.cuts.empty())
      return FuzzVerdict::kWrongResult;
    if (!sc.faults.crashes.empty()) return FuzzVerdict::kBudgetExceeded;
    return FuzzVerdict::kPass;
  };
  Scenario sc = base_scenario();
  sc.faults.crashes.push_back(sim::CrashEvent{1, 0});
  sc.faults.cuts.push_back(sim::LinkCut{0, 1});
  const runtime::MinimizeResult min =
      runtime::minimize(sc, FuzzVerdict::kWrongResult, shifting);
  EXPECT_EQ(min.scenario.faults.crashes.size(), 1u);
  EXPECT_EQ(min.scenario.faults.cuts.size(), 1u);
  EXPECT_EQ(shifting(min.scenario), FuzzVerdict::kWrongResult);
}

TEST(FuzzMinimizer, PinnedExpectationsMakeTheReproSelfChecking) {
  // pin_expectations on a wrong-result report writes the observed mismatch
  // into [expect]; running the pinned scenario then passes exactly while the
  // violation reproduces.
  Scenario sc = base_scenario();
  sc.deviations.push_back(runtime::DeviationSpec{
      0, "misreport-ask", Money::from_units(1'000'000)});
  const runtime::FuzzReport report = runtime::run_oracle(sc);
  ASSERT_EQ(report.verdict, FuzzVerdict::kWrongResult);

  runtime::pin_expectations(sc, report);
  EXPECT_EQ(sc.expect.outcome, runtime::ScenarioExpect::Outcome::kOk);
  ASSERT_TRUE(sc.expect.matches_clean.has_value());
  EXPECT_FALSE(*sc.expect.matches_clean);

  const runtime::ScenarioRun rerun = runtime::run_scenario(sc);
  EXPECT_TRUE(rerun.ok()) << (rerun.failures.empty() ? "" : rerun.failures[0]);

  // The pinned text round-trips through the strict parser unchanged.
  const runtime::ScenarioParse parsed = runtime::parse_scenario(sc.to_scn());
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.scenario->to_scn(), sc.to_scn());
}

// ---------------------------------------------------------------------------
// Bounds files
// ---------------------------------------------------------------------------

TEST(FuzzBoundsFile, OverridesParseAndApply) {
  const sim::FuzzBoundsParse parsed = sim::parse_fuzz_bounds(R"(
[shape]
min_users = 4
max_users = 8
min_providers = 3
max_providers = 5
latencies = zero, lan
max_events = 500000
max_instances = 4
max_pipeline_depth = 3

[faults]
max_link_rules = 1
max_drop = 0.5
max_delay = 2.5
max_crashes = 1
allow_crash_recover = false
allow_amnesia = false
horizon = 80

[knobs]
p_reliability = 1
p_wal = 0.25
p_deviation = 0
p_service = 0.75
strategies = selective-silence
)");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const FuzzBounds& b = *parsed.bounds;
  EXPECT_EQ(b.min_users, 4u);
  EXPECT_EQ(b.max_users, 8u);
  EXPECT_EQ(b.latencies, (std::vector<std::string>{"zero", "lan"}));
  EXPECT_EQ(b.max_events, 500'000u);
  EXPECT_EQ(b.max_link_rules, 1u);
  EXPECT_DOUBLE_EQ(b.max_drop, 0.5);
  EXPECT_EQ(b.max_delay, sim::from_micros(2'500));
  EXPECT_FALSE(b.allow_crash_recover);
  EXPECT_FALSE(b.allow_amnesia);
  EXPECT_EQ(b.horizon, sim::from_millis(80));
  EXPECT_DOUBLE_EQ(b.p_reliability, 1.0);
  EXPECT_DOUBLE_EQ(b.p_wal, 0.25);
  EXPECT_EQ(b.strategies, (std::vector<std::string>{"selective-silence"}));
  EXPECT_EQ(b.max_instances, 4u);
  EXPECT_EQ(b.max_pipeline_depth, 3u);
  EXPECT_DOUBLE_EQ(b.p_service, 0.75);
  // Untouched keys keep their defaults.
  EXPECT_DOUBLE_EQ(b.max_duplicate, FuzzBounds{}.max_duplicate);
}

TEST(FuzzBoundsFile, RejectsUnknownKeysAndInconsistentRanges) {
  EXPECT_FALSE(sim::parse_fuzz_bounds("[shape]\nmax_wombats = 3\n").ok());
  EXPECT_FALSE(sim::parse_fuzz_bounds("[wombats]\n").ok());
  EXPECT_FALSE(sim::parse_fuzz_bounds("[shape]\nmax_drop = 0.1\n").ok())
      << "a [faults] key must not be accepted under [shape]";
  EXPECT_FALSE(
      sim::parse_fuzz_bounds("[shape]\nmin_users = 9\nmax_users = 3\n").ok());
  EXPECT_FALSE(sim::parse_fuzz_bounds("[shape]\nmin_providers = 2\n").ok())
      << "m >= 3 is required for k >= 1";
  EXPECT_FALSE(sim::parse_fuzz_bounds("[faults]\nmax_drop = 1.5\n").ok());
  EXPECT_FALSE(sim::parse_fuzz_bounds("[faults]\nhorizon = 0\n").ok());
  EXPECT_FALSE(sim::parse_fuzz_bounds("[shape]\nlatencies = warp\n").ok());
  EXPECT_FALSE(sim::parse_fuzz_bounds("[knobs]\np_auth = nope\n").ok());
  EXPECT_FALSE(sim::parse_fuzz_bounds("[shape]\np_wal = 0.5\n").ok())
      << "a [knobs] key must not be accepted under [shape]";
  EXPECT_FALSE(sim::parse_fuzz_bounds("[knobs]\nallow_amnesia = true\n").ok())
      << "a [faults] key must not be accepted under [knobs]";
  EXPECT_FALSE(sim::parse_fuzz_bounds("[shape]\nmax_instances = 1\n").ok())
      << "a service case multiplexes at least two auctions";
  EXPECT_FALSE(sim::parse_fuzz_bounds("[shape]\nmax_pipeline_depth = 0\n").ok());
  EXPECT_FALSE(sim::parse_fuzz_bounds("[knobs]\nmax_instances = 3\n").ok())
      << "a [shape] key must not be accepted under [knobs]";
  // The empty text is the default bounds.
  EXPECT_TRUE(sim::parse_fuzz_bounds("").ok());
}

}  // namespace
}  // namespace dauct
