#include "runtime/fuzz_harness.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "serde/ini_values.hpp"

namespace dauct::runtime {

namespace {

/// The removable fault clauses of a scenario, flattened into one index
/// space for ddmin: [links | cuts | partitions | crashes | deviations |
/// auth_adversary | bidders | bid_replay | bid_reorder | wal_fault]. New
/// clause kinds append AFTER the existing ones so old minimizations keep
/// their index meaning. The order is load-bearing only for determinism.
struct ClausePool {
  std::vector<sim::LinkFault> links;
  std::vector<sim::LinkCut> cuts;
  std::vector<sim::Partition> partitions;
  std::vector<sim::CrashEvent> crashes;
  std::vector<DeviationSpec> deviations;
  bool has_adversary = false;
  adversary::AuthAdversaryConfig adversary;
  std::vector<BidderSpec> bidders;
  bool has_replay = false;
  bool has_reorder = false;
  bool has_wal_fault = false;
  store::StorageFaultConfig wal_fault;

  explicit ClausePool(const Scenario& sc)
      : links(sc.faults.links),
        cuts(sc.faults.cuts),
        partitions(sc.faults.partitions),
        crashes(sc.faults.crashes),
        deviations(sc.deviations),
        has_adversary(sc.auth_adversary.node != kNoNode),
        adversary(sc.auth_adversary),
        bidders(sc.bidders),
        has_replay(sc.bid_frames.replay),
        has_reorder(sc.bid_frames.reorder),
        has_wal_fault(sc.wal_fault.enable),
        wal_fault(sc.wal_fault) {}

  std::size_t size() const {
    return links.size() + cuts.size() + partitions.size() + crashes.size() +
           deviations.size() + (has_adversary ? 1 : 0) + bidders.size() +
           (has_replay ? 1 : 0) + (has_reorder ? 1 : 0) +
           (has_wal_fault ? 1 : 0);
  }

  /// `base` with only the clauses named by `keep` (sorted indices).
  Scenario apply(const Scenario& base, const std::vector<std::size_t>& keep) const {
    Scenario sc = base;
    sc.faults.links.clear();
    sc.faults.cuts.clear();
    sc.faults.partitions.clear();
    sc.faults.crashes.clear();
    sc.deviations.clear();
    sc.auth_adversary = {};
    sc.bidders.clear();
    sc.bid_frames = {};
    sc.wal_fault = {};
    for (std::size_t i : keep) {
      if (i < links.size()) {
        sc.faults.links.push_back(links[i]);
        continue;
      }
      i -= links.size();
      if (i < cuts.size()) {
        sc.faults.cuts.push_back(cuts[i]);
        continue;
      }
      i -= cuts.size();
      if (i < partitions.size()) {
        sc.faults.partitions.push_back(partitions[i]);
        continue;
      }
      i -= partitions.size();
      if (i < crashes.size()) {
        sc.faults.crashes.push_back(crashes[i]);
        continue;
      }
      i -= crashes.size();
      if (i < deviations.size()) {
        sc.deviations.push_back(deviations[i]);
        continue;
      }
      i -= deviations.size();
      if (has_adversary && i == 0) {
        sc.auth_adversary = adversary;
        continue;
      }
      i -= has_adversary ? 1 : 0;
      if (i < bidders.size()) {
        sc.bidders.push_back(bidders[i]);
        continue;
      }
      i -= bidders.size();
      if (has_replay && i == 0) {
        sc.bid_frames.replay = true;
        continue;
      }
      i -= has_replay ? 1 : 0;
      if (has_reorder && i == 0) {
        sc.bid_frames.reorder = true;
        continue;
      }
      sc.wal_fault = wal_fault;
    }
    // Parse-validity invariant: the lying disk only arms at an amnesia
    // crash, so if ddmin dropped the last amnesia crash (but kept the
    // wal_fault clause) the knob is dead weight — clear it.
    if (sc.wal_fault.enable &&
        std::none_of(sc.faults.crashes.begin(), sc.faults.crashes.end(),
                     [](const sim::CrashEvent& c) {
                       return c.mode == sim::CrashMode::kAmnesia;
                     })) {
      sc.wal_fault = {};
    }
    return sc;
  }
};

/// Textbook ddmin (Zeller & Hildebrandt) over clause indices: returns a
/// 1-minimal subset for which `fails` still holds. `fails` must hold for the
/// full set on entry.
std::vector<std::size_t> ddmin(std::size_t n_clauses,
                               const std::function<bool(const std::vector<std::size_t>&)>& fails) {
  std::vector<std::size_t> cx(n_clauses);
  for (std::size_t i = 0; i < n_clauses; ++i) cx[i] = i;
  // The empty plan is a legal candidate too (the "violation" may not need
  // any clause at all — the injected-oracle tests rely on this floor).
  if (fails({})) return {};
  std::size_t granularity = 2;
  while (cx.size() >= 2) {
    const std::size_t chunk = (cx.size() + granularity - 1) / granularity;
    bool reduced = false;
    // Subsets first: can the failure live in one chunk alone?
    for (std::size_t start = 0; start < cx.size() && !reduced; start += chunk) {
      const std::size_t end = std::min(start + chunk, cx.size());
      std::vector<std::size_t> subset(cx.begin() + start, cx.begin() + end);
      if (subset.size() < cx.size() && fails(subset)) {
        cx = std::move(subset);
        granularity = 2;
        reduced = true;
      }
    }
    // Complements: can one chunk be dropped?
    for (std::size_t start = 0; start < cx.size() && !reduced; start += chunk) {
      const std::size_t end = std::min(start + chunk, cx.size());
      std::vector<std::size_t> rest;
      rest.reserve(cx.size() - (end - start));
      rest.insert(rest.end(), cx.begin(), cx.begin() + start);
      rest.insert(rest.end(), cx.begin() + end, cx.end());
      if (!rest.empty() && rest.size() < cx.size() && fails(rest)) {
        cx = std::move(rest);
        granularity = std::max<std::size_t>(granularity - 1, 2);
        reduced = true;
      }
    }
    if (!reduced) {
      if (granularity >= cx.size()) break;
      granularity = std::min(cx.size(), granularity * 2);
    }
  }
  return cx;
}

/// Snap-halve a probability on the generator's 1e-4 grid; 0 when already at
/// the floor (the caller skips the candidate — clause removal, not rate
/// zeroing, is how a clause dies).
double halve_rate(double v) {
  const long long steps = std::llround(v * 1e4);
  if (steps <= 1) return 0.0;
  return static_cast<double>(steps / 2) * 1e-4;
}

/// Snap-halve a time on the microsecond grid.
sim::SimTime halve_time(sim::SimTime v) {
  if (v < 2000) return 0;
  return (v / 2) / 1000 * 1000;
}

}  // namespace

const char* fuzz_verdict_name(FuzzVerdict v) {
  switch (v) {
    case FuzzVerdict::kPass: return "pass";
    case FuzzVerdict::kCleanFailed: return "clean-failed";
    case FuzzVerdict::kWrongResult: return "wrong-result";
    case FuzzVerdict::kBudgetExceeded: return "budget-exceeded";
  }
  return "?";
}

Scenario scenario_from_case(const sim::FuzzCase& c) {
  Scenario sc;
  sc.name = "fuzz-" + std::to_string(c.case_seed) + "-" + std::to_string(c.index);
  sc.description = "generated by dauct_fuzz (case seed " +
                   std::to_string(c.case_seed) + ", stream index " +
                   std::to_string(c.index) + ")";
  sc.users = c.users;
  sc.providers = c.providers;
  sc.k = c.k;
  sc.seed = c.run_seed;
  sc.latency = c.latency;
  sc.max_events = c.max_events;
  sc.faults = c.faults;
  sc.reliability.enable = c.reliability;
  if (c.reliability) {
    sc.reliability.retransmit_delay = c.retransmit_delay;
    sc.reliability.max_retries = c.max_retries;
    sc.reliability.round_timeout = c.round_timeout;
  }
  sc.wal.enable = c.wal;
  if (c.wal) sc.wal.snapshot_every = c.wal_snapshot_every;
  sc.auth.enable = c.auth;
  sc.auth.batch_verify = c.auth && c.auth_batch;
  if (c.auth && c.auth_adversary_node != kNoNode) {
    sc.auth_adversary.node = c.auth_adversary_node;
    sc.auth_adversary.mode = c.auth_adversary_mode == "forge"
                                 ? adversary::AuthTamperMode::kForge
                                 : adversary::AuthTamperMode::kReplay;
  }
  for (const sim::FuzzCase::Deviation& d : c.deviations) {
    sc.deviations.push_back(DeviationSpec{d.node, d.strategy, kZeroMoney, d.instance});
  }
  for (const sim::FuzzCase::BidderAdversary& a : c.bidder_adversaries) {
    sc.bidders.push_back(BidderSpec{a.bidder, a.behaviour});
  }
  sc.bid_frames.replay = c.bid_replay;
  sc.bid_frames.reorder = c.bid_reorder;
  if (c.wal_corrupt) {
    sc.wal_fault.enable = true;
    sc.wal_fault.seed = c.wal_fault_seed;
    sc.wal_fault.sync_drop = c.wal_sync_drop;
    sc.wal_fault.torn = c.wal_torn;
    sc.wal_fault.flip = c.wal_flip;
  }
  sc.instances = c.instances;
  sc.pipeline_depth = c.pipeline_depth;
  return sc;
}

FuzzReport run_oracle(const Scenario& sc) {
  FuzzReport report;
  report.run = run_scenario(sc, /*force_clean_twin=*/true);
  const ScenarioRun& r = report.run;
  if (!r.clean || !r.clean->global_outcome.ok() || r.clean->stalled ||
      r.clean->event_budget_exhausted) {
    report.verdict = FuzzVerdict::kCleanFailed;
    report.detail =
        !r.clean ? "clean twin did not run"
                 : "clean twin failed: " +
                       (r.clean->global_outcome.ok()
                            ? std::string("stalled")
                            : std::string(abort_reason_name(
                                  r.clean->global_outcome.bottom().reason)));
    return report;
  }
  if (r.run.event_budget_exhausted) {
    report.verdict = FuzzVerdict::kBudgetExceeded;
    report.detail = "event budget exhausted with events still queued";
    return report;
  }
  // [service]: per-instance verdicts, swept even when the aggregate is ⊥ —
  // an aggregate ⊥ (digest "") must not mask a silently-wrong surviving
  // instance. Each cleared instance must hit the clean twin's SAME-instance
  // digest; a ⊥ instance is an allowed explicit abort.
  if (r.service && r.clean_service) {
    for (std::size_t i = 0; i < r.service->instances.size(); ++i) {
      const InstanceRunResult& inst = r.service->instances[i];
      FuzzReport::InstanceVerdict iv;
      iv.id = inst.id;
      if (!inst.outcome.ok()) {
        iv.detail = std::string("explicit bottom: ") +
                    abort_reason_name(inst.outcome.bottom().reason);
      } else if (i >= r.clean_service->instances.size()) {
        iv.verdict = FuzzVerdict::kCleanFailed;
        iv.detail = "clean twin never launched this instance";
      } else {
        const std::string faulty = instance_result_digest(inst);
        const std::string clean =
            instance_result_digest(r.clean_service->instances[i]);
        if (faulty != clean) {
          iv.verdict = FuzzVerdict::kWrongResult;
          iv.detail = "instance " + std::to_string(inst.id) +
                      " cleared with digest " + faulty + " != clean " + clean;
        } else {
          iv.detail = "ok, matches clean instance (" + faulty + ")";
        }
      }
      report.instance_verdicts.push_back(std::move(iv));
    }
    for (const auto& iv : report.instance_verdicts) {
      if (fuzz_violation(iv.verdict)) {
        report.verdict = iv.verdict;
        report.detail = iv.detail;
        return report;
      }
    }
  }
  if (r.run.global_outcome.ok()) {
    if (r.result_digest != r.clean_digest) {
      report.verdict = FuzzVerdict::kWrongResult;
      report.detail = "completed ok with digest " + r.result_digest +
                      " != clean " + r.clean_digest;
      return report;
    }
    report.verdict = FuzzVerdict::kPass;
    report.detail = "ok, matches clean (" + r.result_digest + ")";
    return report;
  }
  report.verdict = FuzzVerdict::kPass;
  report.detail = std::string("explicit bottom: ") +
                  abort_reason_name(r.run.global_outcome.bottom().reason);
  return report;
}

FuzzVerdict default_oracle(const Scenario& sc) { return run_oracle(sc).verdict; }

MinimizeResult minimize(const Scenario& failing, FuzzVerdict verdict,
                        const FuzzOracle& oracle) {
  MinimizeResult out;
  const ClausePool pool(failing);
  const auto fails = [&](const std::vector<std::size_t>& keep) {
    ++out.probes;
    return oracle(pool.apply(failing, keep)) == verdict;
  };
  const std::vector<std::size_t> kept = ddmin(pool.size(), fails);
  out.removed = pool.size() - kept.size();
  Scenario sc = pool.apply(failing, kept);

  // Scalar shrinking to a fixpoint: each accepted step strictly reduces a
  // clause scalar (or widens a window to the default full-run form), so the
  // loop terminates and re-running minimize() on its own output is a no-op
  // (idempotence, pinned by tests/fuzz_test.cpp).
  const auto probe = [&](const Scenario& candidate) {
    ++out.probes;
    return oracle(candidate) == verdict;
  };
  const auto try_step = [&](Scenario& current, const std::function<void(Scenario&)>& step) {
    Scenario candidate = current;
    step(candidate);
    if (probe(candidate)) {
      current = std::move(candidate);
      return true;
    }
    return false;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < sc.faults.links.size(); ++i) {
      // A copy, not a reference: a step that sticks move-assigns `sc`,
      // which frees the vector a reference would point into.
      const sim::LinkFault f = sc.faults.links[i];
      // Instance filters generalize away first: a rule that still fails when
      // applied to EVERY instance shouldn't carry the narrowing.
      if (f.instance != sim::kAnyInstance) {
        changed |= try_step(sc, [i](Scenario& s) {
          s.faults.links[i].instance = sim::kAnyInstance;
        });
      }
      if (f.active_from != sim::kSimStart || f.active_until != sim::kSimForever) {
        changed |= try_step(sc, [i](Scenario& s) {
          s.faults.links[i].active_from = sim::kSimStart;
          s.faults.links[i].active_until = sim::kSimForever;
        });
      }
      if (halve_rate(f.drop) > 0.0) {
        changed |= try_step(sc, [i](Scenario& s) {
          s.faults.links[i].drop = halve_rate(s.faults.links[i].drop);
        });
      }
      if (halve_rate(f.duplicate) > 0.0) {
        changed |= try_step(sc, [i](Scenario& s) {
          s.faults.links[i].duplicate = halve_rate(s.faults.links[i].duplicate);
        });
      }
      if (f.extra_delay > 0) {
        changed |= try_step(sc, [i](Scenario& s) {
          s.faults.links[i].extra_delay = halve_time(s.faults.links[i].extra_delay);
        });
      }
      if (f.jitter > 0) {
        changed |= try_step(sc, [i](Scenario& s) {
          s.faults.links[i].jitter = halve_time(s.faults.links[i].jitter);
        });
      }
    }
    for (std::size_t i = 0; i < sc.faults.cuts.size(); ++i) {
      const sim::LinkCut cut = sc.faults.cuts[i];  // copy: see links above
      if (cut.instance != sim::kAnyInstance) {
        changed |= try_step(sc, [i](Scenario& s) {
          s.faults.cuts[i].instance = sim::kAnyInstance;
        });
      }
      if (cut.from != sim::kSimStart || cut.until != sim::kSimForever) {
        changed |= try_step(sc, [i](Scenario& s) {
          s.faults.cuts[i].from = sim::kSimStart;
          s.faults.cuts[i].until = sim::kSimForever;
        });
      }
    }
    for (std::size_t i = 0; i < sc.faults.partitions.size(); ++i) {
      const sim::Partition p = sc.faults.partitions[i];  // copy: see links above
      if (p.instance != sim::kAnyInstance) {
        changed |= try_step(sc, [i](Scenario& s) {
          s.faults.partitions[i].instance = sim::kAnyInstance;
        });
      }
      if (p.from != sim::kSimStart || p.until != sim::kSimForever) {
        changed |= try_step(sc, [i](Scenario& s) {
          s.faults.partitions[i].from = sim::kSimStart;
          s.faults.partitions[i].until = sim::kSimForever;
        });
      }
    }
    for (std::size_t i = 0; i < sc.deviations.size(); ++i) {
      if (sc.deviations[i].instance != sim::kAnyInstance) {
        changed |= try_step(sc, [i](Scenario& s) {
          s.deviations[i].instance = sim::kAnyInstance;
        });
      }
    }
    for (std::size_t i = 0; i < sc.faults.crashes.size(); ++i) {
      const sim::CrashEvent crash = sc.faults.crashes[i];  // copy: see links above
      // Simplify amnesia to plain crash-recover first: if the failure
      // survives without the WAL-replay machinery, the repro shouldn't
      // drag it in. (When the step retires the last amnesia crash, the
      // lying disk has no crash to arm at — drop it with the mode, so the
      // candidate stays parse-valid.)
      const auto clear_dead_wal_fault = [](Scenario& s) {
        if (s.wal_fault.enable &&
            std::none_of(s.faults.crashes.begin(), s.faults.crashes.end(),
                         [](const sim::CrashEvent& c) {
                           return c.mode == sim::CrashMode::kAmnesia;
                         })) {
          s.wal_fault = {};
        }
      };
      if (crash.mode == sim::CrashMode::kAmnesia) {
        changed |= try_step(sc, [i, &clear_dead_wal_fault](Scenario& s) {
          s.faults.crashes[i].mode = sim::CrashMode::kRecover;
          clear_dead_wal_fault(s);
        });
      }
      if (crash.recover_at != sim::kSimForever) {
        // A crash that never recovers cannot be amnesia (the .scn validator
        // rejects mode=amnesia without recover_ms), so widening the down
        // window to forever resets the mode too.
        changed |= try_step(sc, [i, &clear_dead_wal_fault](Scenario& s) {
          s.faults.crashes[i].recover_at = sim::kSimForever;
          s.faults.crashes[i].mode = sim::CrashMode::kRecover;
          clear_dead_wal_fault(s);
        });
      }
      if (crash.at > 0) {
        changed |= try_step(sc, [i](Scenario& s) {
          s.faults.crashes[i].at = halve_time(s.faults.crashes[i].at);
        });
      }
    }
    // Lying-disk knobs shrink like link rates: halve on the 1e-4 grid.
    if (sc.wal_fault.enable) {
      for (double store::StorageFaultConfig::*knob :
           {&store::StorageFaultConfig::sync_drop,
            &store::StorageFaultConfig::torn, &store::StorageFaultConfig::flip}) {
        if (halve_rate(sc.wal_fault.*knob) > 0.0) {
          changed |= try_step(sc, [knob](Scenario& s) {
            s.wal_fault.*knob = halve_rate(s.wal_fault.*knob);
          });
        }
      }
    }
    // [service] shape shrinks toward the single-run floor: halve the
    // instance count (clamped so every surviving instance filter and the
    // pipeline depth stay valid), then the depth toward 1.
    if (sc.instances > 1) {
      std::uint64_t floor_needed = 0;  // smallest count the filters allow
      for (const auto& r : sc.faults.links) {
        if (r.instance != sim::kAnyInstance) {
          floor_needed = std::max(floor_needed, r.instance + 1);
        }
      }
      for (const auto& c : sc.faults.cuts) {
        if (c.instance != sim::kAnyInstance) {
          floor_needed = std::max(floor_needed, c.instance + 1);
        }
      }
      for (const auto& p : sc.faults.partitions) {
        if (p.instance != sim::kAnyInstance) {
          floor_needed = std::max(floor_needed, p.instance + 1);
        }
      }
      for (const auto& d : sc.deviations) {
        if (d.instance != sim::kAnyInstance) {
          floor_needed = std::max(floor_needed, d.instance + 1);
        }
      }
      const std::size_t target = std::max<std::size_t>(
          {static_cast<std::size_t>(floor_needed), sc.pipeline_depth,
           sc.instances / 2, 2});
      if (target < sc.instances) {
        changed |= try_step(sc, [target](Scenario& s) {
          s.instances = target;
        });
      }
      if (sc.pipeline_depth > 1) {
        changed |= try_step(sc, [](Scenario& s) {
          s.pipeline_depth = std::max<std::size_t>(1, s.pipeline_depth / 2);
        });
      }
    }
  }
  out.scenario = std::move(sc);
  return out;
}

void pin_expectations(Scenario& sc, const FuzzReport& report) {
  ScenarioExpect exp;  // start from scratch: only the oracle's observations
  const SimRunResult& run = report.run.run;
  if (run.global_outcome.ok()) {
    exp.outcome = ScenarioExpect::Outcome::kOk;
    // The violation IS the mismatch: pin it so the repro self-checks.
    exp.matches_clean = report.run.result_digest == report.run.clean_digest;
  } else {
    exp.outcome = ScenarioExpect::Outcome::kBottom;
    exp.abort_reason = abort_reason_name(run.global_outcome.bottom().reason);
  }
  sc.expect = exp;
}

}  // namespace dauct::runtime
