// dauct_fuzz — adversarial fault-plan fuzzer for the distributed auctioneer.
//
// Samples random fault plans (plus reliability/auth/deviation knobs) within
// declared bounds, runs each through the deterministic scenario runtime next
// to its fault-free twin, and checks the paper's safety claim: the run
// matches the clean outcome or aborts with an explicit ⊥ — never a silently
// different result, never a runaway event stream. Violations are minimized
// with delta debugging and written as committable, self-checking .scn repros.
//
// Examples:
//   dauct_fuzz --plans 1000 --seed 7
//   dauct_fuzz --plans 200 --seed 1 --minimize --out repros
//   dauct_fuzz --plans 1 --seed 7 --index 41      # replay one reported case
//
// Exit codes mirror dauct_cli --scenario: 0 all plans pass, 1 usage or file
// error, 3 at least one violation. Full workflow: docs/FUZZING.md.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "runtime/fuzz_harness.hpp"
#include "sim/fuzz.hpp"

namespace {

using namespace dauct;

struct Options {
  std::uint64_t plans = 100;
  std::uint64_t seed = 1;
  std::uint64_t index = 0;      // first stream index to run
  std::string bounds_file;
  std::string out_dir;          // empty: don't write repro files
  std::string near_miss_log;    // empty: don't write the per-shard log
  std::uint64_t near_miss_probes = 2;  // follow-up plans per near-miss
  bool minimize = false;
  bool help = false;
};

void print_usage() {
  std::printf(R"(usage: dauct_fuzz [options]

fuzzing:
  --plans N         number of fault plans to generate and check (default 100)
  --seed S          fuzzer stream seed; same seed => same plans (default 1)
  --index I         start at stream index I instead of 0 (replay a reported
                    case with --index I --plans 1)
  --bounds FILE     sampling bounds, INI-style ([shape] [faults] [knobs];
                    key reference in docs/FUZZING.md); default bounds if omitted

on violation:
  --minimize        delta-debug each violating plan to a local minimum that
                    still fails with the same verdict before reporting it
  --out DIR         write each violation as a self-checking .scn repro into
                    DIR (pinned [expect]; replay with dauct_cli --scenario)

near-miss guidance:
  --near-miss-log FILE    append one line per near-miss (a passing plan that
                          came within 10%% of its event budget, or whose
                          reliability layer gave a chain up) — the per-shard
                          log CI uploads; format in docs/FUZZING.md
  --near-miss-probes N    follow-up plans sampled per near-miss from a seed
                          derived from the near-miss case (deterministic and
                          replayable: each probe prints its own --seed).
                          0 disables probing (default 2)

  --help            this text

exit codes: 0 all plans pass, 1 usage/file error, 3 at least one violation.
)");
}

bool parse_args(int argc, char** argv, Options& opt) {
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = nullptr;
    if (arg == "--help" || arg == "-h") {
      opt.help = true;
    } else if (arg == "--minimize") {
      opt.minimize = true;
    } else if (arg == "--plans") {
      if (!(v = need_value(i))) return false;
      opt.plans = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seed") {
      if (!(v = need_value(i))) return false;
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--index") {
      if (!(v = need_value(i))) return false;
      opt.index = std::strtoull(v, nullptr, 10);
    } else if (arg == "--bounds") {
      if (!(v = need_value(i))) return false;
      opt.bounds_file = v;
    } else if (arg == "--out") {
      if (!(v = need_value(i))) return false;
      opt.out_dir = v;
    } else if (arg == "--near-miss-log") {
      if (!(v = need_value(i))) return false;
      opt.near_miss_log = v;
    } else if (arg == "--near-miss-probes") {
      if (!(v = need_value(i))) return false;
      opt.near_miss_probes = std::strtoull(v, nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown option: %s (try --help)\n", arg.c_str());
      return false;
    }
  }
  return true;
}

int fail(const std::string& message) {
  std::fprintf(stderr, "dauct_fuzz: %s\n", message.c_str());
  return 1;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << text;
  return static_cast<bool>(out);
}

/// Pin the scenario's observed behavior and write it as DIR/NAME.scn.
/// Returns the path ("" on write failure, reported by the caller).
std::string emit_repro(const Options& opt, runtime::Scenario sc,
                       const std::string& name) {
  const runtime::FuzzReport fresh = runtime::run_oracle(sc);
  runtime::pin_expectations(sc, fresh);
  sc.name = name;
  const std::string path = opt.out_dir + "/" + name + ".scn";
  if (!write_file(path, sc.to_scn())) return std::string();
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return 1;
  if (opt.help) {
    print_usage();
    return 0;
  }

  sim::FuzzBounds bounds;
  if (!opt.bounds_file.empty()) {
    std::ifstream in(opt.bounds_file, std::ios::binary);
    if (!in) return fail("cannot read " + opt.bounds_file);
    std::ostringstream ss;
    ss << in.rdbuf();
    const sim::FuzzBoundsParse parsed = sim::parse_fuzz_bounds(ss.str());
    if (!parsed.ok()) return fail(opt.bounds_file + ": " + parsed.error);
    bounds = *parsed.bounds;
  }

  const sim::PlanFuzzer fuzzer(bounds, opt.seed);
  std::printf("# dauct_fuzz: %llu plan(s), stream seed %llu, from index %llu%s\n",
              static_cast<unsigned long long>(opt.plans),
              static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(opt.index),
              opt.bounds_file.empty() ? " (default bounds)" : "");

  std::uint64_t violations = 0;
  std::uint64_t near_misses = 0;
  std::uint64_t probes_run = 0;
  std::ofstream nm_log;
  if (!opt.near_miss_log.empty()) {
    nm_log.open(opt.near_miss_log, std::ios::binary | std::ios::app);
    if (!nm_log) return fail("cannot write " + opt.near_miss_log);
  }

  // Report one violating case: replay line, optional repro, optional ddmin.
  // Shared by primary plans and near-miss probes — `stream_seed` names
  // whichever stream the case came from, so the replay line always works.
  // Returns false on a file-write failure (fatal).
  const auto report_violation = [&](const sim::FuzzCase& c,
                                    std::uint64_t stream_seed,
                                    std::uint64_t index,
                                    const runtime::Scenario& sc,
                                    const runtime::FuzzReport& report) {
    ++violations;
    std::printf("VIOLATION at index %llu (case seed %llu): %s — %s\n",
                static_cast<unsigned long long>(index),
                static_cast<unsigned long long>(c.case_seed),
                runtime::fuzz_verdict_name(report.verdict),
                report.detail.c_str());
    std::printf("  replay: dauct_fuzz --seed %llu --index %llu --plans 1%s%s\n",
                static_cast<unsigned long long>(stream_seed),
                static_cast<unsigned long long>(index),
                opt.bounds_file.empty() ? "" : " --bounds ",
                opt.bounds_file.c_str());

    const std::string base =
        "fuzz-" + std::to_string(c.case_seed) + "-" + std::to_string(index);
    if (!opt.out_dir.empty()) {
      const std::string path = emit_repro(opt, sc, base);
      if (path.empty()) return false;
      std::printf("  repro: dauct_cli --scenario %s\n", path.c_str());
    }
    if (opt.minimize) {
      const runtime::MinimizeResult min =
          runtime::minimize(sc, report.verdict, runtime::default_oracle);
      std::printf("  minimized: %zu clause(s) removed in %zu probe(s); "
                  "%zu link rule(s), %zu cut(s), %zu partition(s), "
                  "%zu crash(es), %zu deviation(s), %zu bidder(s) remain\n",
                  min.removed, min.probes, min.scenario.faults.links.size(),
                  min.scenario.faults.cuts.size(),
                  min.scenario.faults.partitions.size(),
                  min.scenario.faults.crashes.size(),
                  min.scenario.deviations.size(), min.scenario.bidders.size());
      if (!opt.out_dir.empty()) {
        const std::string path = emit_repro(opt, min.scenario, base + "-min");
        if (path.empty()) return false;
        std::printf("  minimized repro: dauct_cli --scenario %s\n", path.c_str());
      }
    }
    return true;
  };

  // A near-miss is a PASSING plan that ended within 10% of its event budget,
  // or whose reliability layer gave a retransmit chain up — the bounds
  // regions where the next violation usually lives. Each one is logged, and
  // the sampler is biased toward the region by running follow-up plans from
  // a stream seed derived from the near-miss case (pure function of the
  // case, so the bias is reproducible shard-by-shard).
  const auto near_miss_kind =
      [](const runtime::Scenario& sc,
         const runtime::FuzzReport& report) -> const char* {
    const auto& run = report.run.run;
    if (!run.event_budget_exhausted &&
        run.events_dispatched * 10 >= sc.max_events * 9) {
      return "event-budget";
    }
    if (run.reliability_stats.give_ups > 0) return "give-up";
    return nullptr;
  };

  for (std::uint64_t i = 0; i < opt.plans; ++i) {
    const std::uint64_t index = opt.index + i;
    const sim::FuzzCase c = fuzzer.nth(index);
    const runtime::Scenario sc = runtime::scenario_from_case(c);
    const runtime::FuzzReport report = runtime::run_oracle(sc);
    if (runtime::fuzz_violation(report.verdict)) {
      if (!report_violation(c, opt.seed, index, sc, report)) {
        return fail("cannot write repro under " + opt.out_dir);
      }
      continue;
    }

    const char* kind = near_miss_kind(sc, report);
    if (!kind) continue;
    ++near_misses;
    const std::uint64_t probe_seed =
        c.case_seed * 0x9e3779b97f4a7c15ULL + 0x6ea5;
    std::printf("# near-miss at index %llu: %s (events %llu/%llu, give-ups "
                "%llu) -> probe seed %llu\n",
                static_cast<unsigned long long>(index), kind,
                static_cast<unsigned long long>(report.run.run.events_dispatched),
                static_cast<unsigned long long>(sc.max_events),
                static_cast<unsigned long long>(
                    report.run.run.reliability_stats.give_ups),
                static_cast<unsigned long long>(probe_seed));
    if (nm_log.is_open()) {
      nm_log << "near-miss seed=" << opt.seed << " index=" << index
             << " kind=" << kind
             << " events=" << report.run.run.events_dispatched << "/"
             << sc.max_events
             << " give_ups=" << report.run.run.reliability_stats.give_ups
             << " probe_seed=" << probe_seed
             << " probes=" << opt.near_miss_probes << "\n";
      nm_log.flush();
    }
    // Focused follow-up: a short derived stream next to the near-miss.
    // Every probe is a first-class case — same oracle, same repro path —
    // and its replay line uses the derived seed, so CI output is actionable.
    const sim::PlanFuzzer probe_fuzzer(bounds, probe_seed);
    for (std::uint64_t p = 0; p < opt.near_miss_probes; ++p) {
      ++probes_run;
      const sim::FuzzCase pc = probe_fuzzer.nth(p);
      const runtime::Scenario psc = runtime::scenario_from_case(pc);
      const runtime::FuzzReport preport = runtime::run_oracle(psc);
      if (runtime::fuzz_violation(preport.verdict) &&
          !report_violation(pc, probe_seed, p, psc, preport)) {
        return fail("cannot write repro under " + opt.out_dir);
      }
    }
  }

  std::printf("# %llu plan(s) checked (+%llu near-miss probe(s), %llu "
              "near-miss(es)), %llu violation(s)\n",
              static_cast<unsigned long long>(opt.plans),
              static_cast<unsigned long long>(probes_run),
              static_cast<unsigned long long>(near_misses),
              static_cast<unsigned long long>(violations));
  return violations == 0 ? 0 : 3;
}
