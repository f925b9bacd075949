// dauct_cli smoke tests: drive the real binary (path baked in by CMake as
// DAUCT_CLI_PATH) through its user-facing surface.
//
// The --help sync test is the enforcement half of a documentation contract:
// every flag parse_args() understands must appear in the usage text (adding
// a flag without documenting it fails here; kKnownFlags is the review
// checklist — keep it in lockstep with parse_args and the README table).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <string>

namespace {

struct CommandResult {
  int exit_code = -1;
  std::string output;  ///< stdout + stderr, interleaved
};

CommandResult run_binary(const char* binary, const std::string& args) {
  const std::string cmd = std::string(binary) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  CommandResult result;
  std::array<char, 4096> buf;
  std::size_t n = 0;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    result.output.append(buf.data(), n);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

CommandResult run_command(const std::string& args) {
  return run_binary(DAUCT_CLI_PATH, args);
}

CommandResult run_fuzz(const std::string& args) {
  return run_binary(DAUCT_FUZZ_PATH, args);
}

// Every flag the CLI parses. Mirrors parse_args() in tools/dauct_cli.cpp.
constexpr const char* kKnownFlags[] = {
    "--auction",  "--users",   "--providers", "--seed",     "--bids",
    "--asks",     "--k",       "--epsilon",   "--mode",     "--centralized",
    "--runtime",  "--latency", "--trace",     "--scenario", "--csv",
    "--reliable", "--retransmit-delay-ms",    "--max-retries",
    "--round-timeout-ms",      "--auth",      "--auth-batch",
    "--tcp-node", "--base-port",              "--wal-dir",
    "--crash-after",            "--instances", "--pipeline-depth",
    "--help",
};

TEST(Cli, HelpMentionsEveryParsedFlag) {
  const auto r = run_command("--help");
  EXPECT_EQ(r.exit_code, 0);
  for (const char* flag : kKnownFlags) {
    EXPECT_NE(r.output.find(flag), std::string::npos)
        << "flag " << flag << " is parsed but undocumented in --help";
  }
}

TEST(Cli, UnknownFlagFailsAndPointsAtHelp) {
  const auto r = run_command("--no-such-flag");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("--help"), std::string::npos);
}

TEST(Cli, MissingFlagValueFails) {
  const auto r = run_command("--users");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("missing value"), std::string::npos);
}

TEST(Cli, UnknownAgreementModeFails) {
  // perbit (one message flow per bit) was removed; docs/ARCHITECTURE.md
  // records what it cost.
  for (const char* mode : {"perbit", "bogus"}) {
    const auto r = run_command(std::string("--users 6 --providers 3 --mode ") + mode);
    EXPECT_EQ(r.exit_code, 1) << mode << ": " << r.output;
    EXPECT_NE(r.output.find("unknown --mode"), std::string::npos) << r.output;
  }
  const auto bits = run_command("--users 6 --providers 3 --mode bits");
  EXPECT_EQ(bits.exit_code, 0) << bits.output;
}

TEST(Cli, SmallDistributedRunSucceeds) {
  const auto r = run_command(
      "--auction double --users 8 --providers 3 --k 1 --latency zero --seed 3");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("distributed auctioneer"), std::string::npos);
  EXPECT_NE(r.output.find("totals:"), std::string::npos);
}

TEST(Cli, ReliableRunSucceedsAndPrintsCounters) {
  const auto r = run_command(
      "--auction double --users 8 --providers 3 --k 1 --latency zero --seed 3 "
      "--reliable --retransmit-delay-ms 4 --max-retries 3 --round-timeout-ms 8");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("reliability:"), std::string::npos);
  EXPECT_NE(r.output.find("retransmits"), std::string::npos);
  EXPECT_NE(r.output.find("give-ups"), std::string::npos);
}

TEST(Cli, AuthRunSucceedsAndPrintsCounters) {
  const auto r = run_command(
      "--auction double --users 8 --providers 3 --k 1 --latency zero --seed 3 "
      "--auth");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("auth:"), std::string::npos);
  EXPECT_NE(r.output.find("signed"), std::string::npos);
  EXPECT_NE(r.output.find("verified"), std::string::npos);
  const auto batch = run_command(
      "--auction double --users 8 --providers 3 --k 1 --latency zero --seed 3 "
      "--auth-batch");
  EXPECT_EQ(batch.exit_code, 0) << batch.output;
  EXPECT_NE(batch.output.find("batches"), std::string::npos);
}

TEST(Cli, ServicePlaneRunPrintsPerInstanceReport) {
  const auto r = run_command(
      "--auction double --users 8 --providers 3 --k 1 --seed 3 "
      "--instances 3 --pipeline-depth 2");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("service plane"), std::string::npos);
  EXPECT_NE(r.output.find("instance 0"), std::string::npos);
  EXPECT_NE(r.output.find("instance 2"), std::string::npos);
  EXPECT_NE(r.output.find("3/3 instances ok"), std::string::npos);
  EXPECT_NE(r.output.find("auctions/vsec"), std::string::npos);
}

TEST(Cli, ServicePlaneFlagValidation) {
  const auto depth = run_command("--instances 2 --pipeline-depth 3");
  EXPECT_EQ(depth.exit_code, 1);
  EXPECT_NE(depth.output.find("--pipeline-depth must not exceed"),
            std::string::npos);
  const auto zero = run_command("--instances 0");
  EXPECT_EQ(zero.exit_code, 1);
  EXPECT_NE(zero.output.find("positive integer"), std::string::npos);
  const auto central = run_command("--instances 2 --centralized");
  EXPECT_EQ(central.exit_code, 1) << central.output;
  EXPECT_NE(central.output.find("--centralized"), std::string::npos);
  // Sim-only: the service plane needs virtual-time pipelining.
  const auto threaded = run_command(
      "--runtime thread --instances 2 --users 6 --providers 3");
  EXPECT_EQ(threaded.exit_code, 1) << threaded.output;
  EXPECT_NE(threaded.output.find("requires --runtime sim"), std::string::npos);
}

// Satellite bugfix: sim-only layers on timerless runtimes must fail fast
// instead of silently no-opping (round watchdogs simply would not run).
TEST(Cli, SimOnlyFlagsRejectedOnThreadAndTcpRuntimes) {
  for (const char* rt : {"thread", "tcp"}) {
    const auto reliable = run_command(std::string("--runtime ") + rt +
                                      " --reliable --users 6 --providers 3");
    EXPECT_EQ(reliable.exit_code, 1) << reliable.output;
    EXPECT_NE(reliable.output.find("requires --runtime sim"), std::string::npos)
        << reliable.output;
    const auto timeout = run_command(std::string("--runtime ") + rt +
                                     " --round-timeout-ms 8 --users 6 --providers 3");
    EXPECT_EQ(timeout.exit_code, 1) << timeout.output;
    EXPECT_NE(timeout.output.find("--round-timeout-ms"), std::string::npos);
    const auto auth = run_command(std::string("--runtime ") + rt +
                                  " --auth --users 6 --providers 3");
    EXPECT_EQ(auth.exit_code, 1) << auth.output;
    EXPECT_NE(auth.output.find("requires --runtime sim"), std::string::npos);
  }
}

TEST(Cli, ZeroRetransmitDelayIsRejectedLikeTheScenarioParser) {
  const auto r = run_command("--reliable --retransmit-delay-ms 0");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("must be > 0"), std::string::npos);
  const auto neg = run_command("--reliable --round-timeout-ms -3");
  EXPECT_EQ(neg.exit_code, 1);
  EXPECT_NE(neg.output.find("must be >= 0"), std::string::npos);
  const auto retr = run_command("--reliable --max-retries -1");
  EXPECT_EQ(retr.exit_code, 1);
  EXPECT_NE(retr.output.find("non-negative integer"), std::string::npos);
}

TEST(Cli, TimerFlagsAreParsedWholeAndFinite) {
  // strtod alone read "abc" as 0 (silently turning the watchdogs off),
  // passed inf/nan to a SimTime cast, and let a sub-ns delay truncate to a
  // 0 ns floor. Each must now exit 1 with a one-line message.
  for (const char* bad : {"abc", "8x", "", "inf", "nan", "-inf", "1e-7", "-1"}) {
    const auto r = run_command(std::string("--reliable --retransmit-delay-ms '") + bad + "'");
    EXPECT_EQ(r.exit_code, 1) << bad << ": " << r.output;
    EXPECT_NE(r.output.find("--retransmit-delay-ms must be > 0"), std::string::npos) << bad;
    EXPECT_EQ(r.output.find('\n'), r.output.size() - 1) << bad << ": " << r.output;
  }
  for (const char* bad : {"abc", "12ms", "", "inf", "nan", "-inf", "-0.5"}) {
    const auto r = run_command(std::string("--reliable --round-timeout-ms '") + bad + "'");
    EXPECT_EQ(r.exit_code, 1) << bad << ": " << r.output;
    EXPECT_NE(r.output.find("--round-timeout-ms must be >= 0"), std::string::npos) << bad;
    EXPECT_EQ(r.output.find('\n'), r.output.size() - 1) << bad << ": " << r.output;
  }
  // The smallest accepted delay is 1 ns after conversion (a run on a 1 ns
  // floor gives up at once and ends in ⊥, exit 2 — but it parses); 0 still
  // turns the watchdogs off.
  const auto tiny = run_command("--reliable --users 6 --providers 3 --retransmit-delay-ms 1e-6");
  EXPECT_NE(tiny.exit_code, 1) << tiny.output;
  EXPECT_EQ(tiny.output.find("must be"), std::string::npos) << tiny.output;
  const auto ok = run_command(
      "--reliable --users 6 --providers 3 --retransmit-delay-ms 0.5 --round-timeout-ms 0");
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
}

TEST(Cli, IntegerFlagsAreParsedWholeAndInRange) {
  // strtoul alone ran "--k abc" as k = 0, "--providers 4x" as m = 4, and
  // wrapped "--base-port 70000" into a uint16_t. Each bad value must exit 1
  // with one line that names the flag. No huge --users value is run: a
  // valid one would allocate that many bidders.
  const struct {
    const char* flag;
    const char* value;
  } bad[] = {
      {"--users", "abc"},      {"--users", "0"},        {"--users", "-3"},
      {"--users", "12x"},      {"--users", "4294967296"},
      {"--providers", "4x"},   {"--providers", "0"},    {"--providers", "+5"},
      {"--k", "abc"},          {"--k", "-1"},           {"--k", "1.5"},
      {"--seed", "x7"},        {"--seed", ""},          {"--seed", " 7"},
      {"--seed", "18446744073709551616"},
      {"--base-port", "70000"}, {"--base-port", "65536"}, {"--base-port", "-1"},
      {"--crash-after", "0"},  {"--instances", "2x"},   {"--pipeline-depth", "0"},
  };
  for (const auto& b : bad) {
    const auto r = run_command(std::string(b.flag) + " '" + b.value + "'");
    EXPECT_EQ(r.exit_code, 1) << b.flag << " " << b.value << ": " << r.output;
    EXPECT_EQ(r.output.find(std::string(b.flag) + " must be"), 0u)
        << b.flag << " " << b.value << ": " << r.output;
    EXPECT_EQ(r.output.find('\n'), r.output.size() - 1) << r.output;
  }
  const auto ok = run_command("--users 6 --providers 3 --k 1 --seed 18446744073709551615");
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
  const auto port = run_command("--base-port 65535 --users 6 --providers 3");
  EXPECT_EQ(port.exit_code, 0) << port.output;
  // A cluster's ports are base + j and base + m for the client: they must
  // all fit, or they would wrap to low ports. Rejected before any socket.
  const auto wrap =
      run_command("--runtime tcp --tcp-node client --base-port 65533 --providers 3 --users 6");
  EXPECT_EQ(wrap.exit_code, 1) << wrap.output;
  EXPECT_NE(wrap.output.find("leaves no room"), std::string::npos) << wrap.output;
}

TEST(Cli, EpsilonOutsideUnitIntervalIsRejectedLikeTheScenarioParser) {
  for (const char* eps : {"0", "-0.1", "1", "1.5", "abc", "0.1x", "nan"}) {
    const auto r = run_command(std::string("--auction standard --epsilon ") + eps);
    EXPECT_EQ(r.exit_code, 1) << eps << ": " << r.output;
    EXPECT_NE(r.output.find("--epsilon must be a number in (0, 1)"), std::string::npos) << eps;
  }
  const auto ok = run_command("--auction standard --users 12 --providers 4 --epsilon 0.5");
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
}

TEST(Cli, ReliableScenarioPrintsCountersNextToFaults) {
  const auto r = run_command(std::string("--scenario ") + DAUCT_SCENARIO_DIR +
                             "/dup_storm.scn");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("faults injected"), std::string::npos);
  EXPECT_NE(r.output.find("duplicates suppressed"), std::string::npos);
  EXPECT_NE(r.output.find("expectations: PASS"), std::string::npos);
}

TEST(Cli, ScenarioRunsAndSelfChecks) {
  const auto r = run_command(std::string("--scenario ") + DAUCT_SCENARIO_DIR +
                             "/clean.scn");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("expectations: PASS"), std::string::npos);
  EXPECT_NE(r.output.find("faults injected"), std::string::npos);
}

TEST(Cli, ScenarioWithMissingFileFails) {
  const auto r = run_command("--scenario /nonexistent/nope.scn");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("cannot read"), std::string::npos);
}

TEST(Cli, FailingScenarioPrintsSeedAndOneLineReproCommand) {
  // A clean run pinned to the wrong expectation: the failure report must
  // carry everything needed to rerun the case — the fault-plan seed and the
  // exact repro command line.
  const std::string path = testing::TempDir() + "/expect_fails.scn";
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("[run]\nusers = 6\nproviders = 3\nk = 1\nseed = 5\nlatency = zero\n"
        "[fault]\nseed = 77\n"
        "[expect]\noutcome = bottom\n",
        f);
  fclose(f);
  const auto r = run_command("--scenario " + path);
  EXPECT_EQ(r.exit_code, 3) << r.output;
  EXPECT_NE(r.output.find("expectation FAILED"), std::string::npos);
  EXPECT_NE(r.output.find("fault-plan seed: 77"), std::string::npos);
  EXPECT_NE(r.output.find("repro: dauct_cli --scenario " + path),
            std::string::npos);
  remove(path.c_str());
}

TEST(Cli, ScenarioParseErrorIsReportedWithLine) {
  const std::string path = testing::TempDir() + "/bad_scenario.scn";
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("[run]\nusers = twelve\n", f);
  fclose(f);
  const auto r = run_command("--scenario " + path);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("line 2"), std::string::npos);
  remove(path.c_str());
}

// ---------------------------------------------------------------------------
// dauct_fuzz (DAUCT_FUZZ_PATH) — the fault-plan fuzzer's CLI surface
// ---------------------------------------------------------------------------

// Every flag dauct_fuzz parses. Mirrors parse_args() in tools/dauct_fuzz.cpp.
constexpr const char* kKnownFuzzFlags[] = {
    "--plans", "--seed", "--index", "--bounds", "--minimize", "--out",
    "--near-miss-log", "--near-miss-probes", "--help",
};

TEST(Fuzz, HelpMentionsEveryParsedFlag) {
  const auto r = run_fuzz("--help");
  EXPECT_EQ(r.exit_code, 0);
  for (const char* flag : kKnownFuzzFlags) {
    EXPECT_NE(r.output.find(flag), std::string::npos)
        << "flag " << flag << " is parsed but undocumented in --help";
  }
}

TEST(Fuzz, UnknownFlagAndMissingValueFail) {
  EXPECT_EQ(run_fuzz("--no-such-flag").exit_code, 1);
  EXPECT_EQ(run_fuzz("--plans").exit_code, 1);
  EXPECT_EQ(run_fuzz("--bounds /nonexistent/b.ini").exit_code, 1);
}

TEST(Fuzz, IntegerFlagsAreParsedWholeAndInRange) {
  // "--plans abc" used to check 0 plans and exit 0, so a typo in a fuzz
  // shard passed vacuously; "--seed x7" ran seed 0.
  const struct {
    const char* flag;
    const char* value;
  } bad[] = {
      {"--plans", "abc"}, {"--plans", "0"},  {"--plans", "5x"},  {"--plans", "-1"},
      {"--seed", "x7"},   {"--seed", "7x"},  {"--seed", ""},     {"--index", "-2"},
      {"--index", "1.0"}, {"--near-miss-probes", "two"},
  };
  for (const auto& b : bad) {
    const auto r = run_fuzz(std::string(b.flag) + " '" + b.value + "'");
    EXPECT_EQ(r.exit_code, 1) << b.flag << " " << b.value << ": " << r.output;
    EXPECT_EQ(r.output.find(std::string(b.flag) + " must be"), 0u)
        << b.flag << " " << b.value << ": " << r.output;
    EXPECT_EQ(r.output.find('\n'), r.output.size() - 1) << r.output;
  }
  const auto ok = run_fuzz("--plans 1 --seed 7 --index 3 --near-miss-probes 0");
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
  EXPECT_NE(ok.output.find("1 plan(s) checked"), std::string::npos) << ok.output;
}

TEST(Fuzz, SmallFixedSeedRunPassesCleanly) {
  const auto r = run_fuzz("--plans 5 --seed 1");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("5 plan(s) checked"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("0 violation(s)"), std::string::npos) << r.output;
}

TEST(Fuzz, BadBoundsFileIsRejectedWithItsLine) {
  const std::string path = testing::TempDir() + "/bad_bounds.ini";
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("[faults]\nmax_drop = 1.5\n", f);
  fclose(f);
  const auto r = run_fuzz("--plans 1 --bounds " + path);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("line 2"), std::string::npos) << r.output;
  remove(path.c_str());
}

}  // namespace
