// dauct_bench: end-to-end benchmark of the distributed auctioneer.
//
// One process, one thread, one closed-loop client: the next auction starts
// only after the previous one settled (on lossy_stream the client keeps a
// depth-2 pipeline of one stream). Every input comes from --seed; the
// runtimes receive only the generated auction instances. All runs use
// CostMode::kMeasured, the paper's makespan model (community-mesh latency
// plus each node's measured handler CPU), so virtual latencies include the
// host's real compute.
//
// Usage:
//   dauct_bench --workload=NAME --seed=S [--seconds=T] [--trace]
//               [--trace-json=PATH] [--json=PATH] [--quick]
//
// Prints one `name value unit` line per metric, then, as the last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}. Without --trace
// the metrics are the end-to-end ones; --trace makes a separate,
// instrumented run that reports the per-layer ones (and writes its spans as
// Chrome trace-event JSON to --trace-json). --json writes the same metrics
// with the host header, the input of compare.py. --quick runs 3 auctions
// (a 3-instance stream) for smoke tests. Exit 1 on a wrong result (the
// result line still prints, with "correct": false and no metrics), 2 on bad
// usage.
//
// Workloads, metrics, bounds and the layer → end-to-end map: README.md.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "auction/workload.hpp"
#include "bench_stats.hpp"
#include "core/adapters.hpp"
#include "core/centralized_auctioneer.hpp"
#include "core/distributed_auctioneer.hpp"
#include "core/service_plane.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/sha256.hpp"
#include "net/auth.hpp"
#include "runtime/service_runtime.hpp"
#include "runtime/sim_runtime.hpp"
#include "serde/auction_codec.hpp"
#include "store/wal.hpp"

namespace {

using namespace dauct;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Optional transport layers stacked under the protocol engines.
struct Stack {
  bool reliability = false;
  bool auth = false;  ///< ed25519 signing with batch verification
  bool wal = false;
};

struct Workload {
  std::string_view name;
  std::size_t n, m, k;  ///< bidders, providers, coalition bound
  bool vcg;             ///< standard (VCG) auction; otherwise the double auction
  Stack stack;
  bool lossy;           ///< loss + jitter on provider↔provider links
  std::size_t stream;   ///< instances per service-plane stream; 0 = single auctions
  /// ReliableLink retransmit delay; the round watchdog gets 1.5× of it.
  /// 0 keeps ReliabilityConfig's 8 ms / 12 ms.
  std::int64_t timer_ms = 0;
};

// Each workload stresses different layers; README.md records why each was
// chosen and which layer metrics it should move.
constexpr Workload kWorkloads[] = {
    // Fig. 4: messaging-dominated (scheduler, blocks, consensus, serde).
    {"fig4_double", 512, 8, 3, false, {}, false, 0},
    // Fig. 5: compute-dominated (solver, p = 4 parallel payment tasks).
    {"fig5_vcg", 50, 8, 1, true, {}, false, 0},
    // Trust-less deployment stack on a loss-free mesh (ed25519-dominated).
    // Signed handlers run for milliseconds, so the default 8 ms timer fires
    // on acks that are merely queued behind them: traffic then doubles and
    // flips with host speed. 50 ms timers keep it a property of the code.
    {"secure_federation", 48, 4, 1, false, {true, true, true}, false, 0, 50},
    // Service plane at pipeline depth 2 with real provider-link loss.
    {"lossy_stream", 128, 8, 3, false, {true, false, true}, true, 100},
};

constexpr double kVcgEpsilon = 0.06;
constexpr std::size_t kPipelineDepth = 2;
constexpr double kProviderLinkLoss = 0.02;
constexpr sim::SimTime kProviderLinkJitter = sim::from_millis(1);

/// Set-ups per run: at least this many, for at least this long; setup_s is
/// their median.
constexpr std::size_t kSetups = 7;
constexpr double kSetupSeconds = 1.0;
/// Warm-up auctions run on inputs from this fixed seed, not from --seed, so
/// setup_s measures the same work on every run.
constexpr std::uint64_t kSetupSeed = 0x5e7u;
/// Seeds of the layer ladder: the seeds of the run's first auctions.
constexpr std::size_t kLadderSeeds = 20;
/// Traced runs report means, not tails, so they need fewer auctions.
constexpr std::size_t kMinTracedAuctions = 20;
/// No new unit starts this long after process start, whatever the sample
/// count, so every run ends well inside three minutes.
constexpr double kHardStopS = 120;
/// Quick (smoke) runs: auctions, or instances of the single stream.
constexpr std::size_t kQuickAuctions = 3;

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool quick = false;
  std::string json_path;
  std::string trace_json_path;
};

std::size_t ladder_seeds(const Options& opt) { return opt.quick ? 2 : kLadderSeeds; }

std::shared_ptr<const core::AuctionAdapter> make_adapter(const Workload& w) {
  if (w.vcg) {
    auction::StandardAuctionParams params;
    params.epsilon = kVcgEpsilon;
    return std::make_shared<core::StandardAuctionAdapter>(params);
  }
  return std::make_shared<core::DoubleAuctionAdapter>();
}

std::unique_ptr<core::DistributedAuctioneer> make_auctioneer(
    const Workload& w, std::shared_ptr<const core::AuctionAdapter> adapter) {
  core::AuctioneerSpec spec;
  spec.m = w.m;
  spec.k = w.k;
  spec.num_bidders = w.n;
  return std::make_unique<core::DistributedAuctioneer>(spec, std::move(adapter));
}

auction::AuctionInstance make_instance(const Workload& w, std::uint64_t seed) {
  crypto::Rng rng(seed);
  return auction::generate(w.vcg ? auction::standard_auction_workload(w.n, w.m)
                                 : auction::double_auction_workload(w.n, w.m),
                           rng);
}

/// Loss and jitter on every provider↔provider link. Client links stay
/// clean: the bid and report hops are not under ReliableLink, so one lost
/// bid batch or result report stalls its instance for good.
sim::FaultPlan provider_loss_plan(std::size_t m, std::uint64_t seed) {
  sim::FaultPlan plan;
  plan.seed = seed;
  for (NodeId a = 0; a < m; ++a) {
    for (NodeId b = a + 1; b < m; ++b) {
      sim::LinkFault rule;
      rule.from = a;
      rule.to = b;
      rule.drop = kProviderLinkLoss;
      rule.jitter = kProviderLinkJitter;
      plan.links.push_back(rule);
    }
  }
  return plan;
}

runtime::SimRunConfig sim_config(const Workload& w, Stack stack, std::uint64_t seed) {
  runtime::SimRunConfig cfg;
  cfg.cost_mode = sim::CostMode::kMeasured;
  cfg.seed = seed;
  cfg.reliability.enable = stack.reliability;
  if (w.timer_ms != 0) {
    cfg.reliability.retransmit_delay = sim::from_millis(w.timer_ms);
    cfg.reliability.round_timeout = sim::from_millis(w.timer_ms * 3 / 2);
  }
  cfg.auth.enable = stack.auth;
  cfg.auth.batch_verify = stack.auth;
  cfg.wal.enable = stack.wal;
  // Loss is only survivable with the reliability layer; the ladder's plain
  // step therefore runs on a clean mesh.
  if (w.lossy && stack.reliability) cfg.faults = provider_loss_plan(w.m, seed);
  return cfg;
}

// ---------------------------------------------------------------------------
// Correctness gate
// ---------------------------------------------------------------------------

/// Every auction of the run passes through here. A ⊥, a stall or an
/// unsettled instance counts as failed; a wrong result stops the run.
class Gate {
 public:
  Gate(const Workload& w, std::shared_ptr<const core::AuctionAdapter> reference)
      : vcg_(w.vcg), reference_(std::move(reference)) {}

  /// True when the auction cleared with a correct result.
  bool check(const auction::AuctionInstance& instance,
             std::span<const auction::AuctionOutcome> outcomes, bool settled) {
    ++attempted_;
    const auction::AuctionResult* agreed = nullptr;
    bool all_ok = settled && !outcomes.empty();
    for (const auto& o : outcomes) {
      if (!o.ok()) {
        all_ok = false;
      } else if (agreed == nullptr) {
        agreed = &o.value();
      } else if (!(o.value() == *agreed)) {
        return flag("providers output different results");
      }
    }
    if (agreed != nullptr) {
      if (!auction::is_feasible(instance, agreed->allocation)) {
        return flag("infeasible allocation");
      }
      // A VCG run cannot be compared: its shared seed (the common coin) is
      // not reported by distributed runs.
      if (!vcg_ && !(*agreed == reference_->run_centralized(instance, 0))) {
        return flag("result differs from the centralized double auction");
      }
    }
    if (!all_ok) ++failed_;
    return all_ok;
  }

  bool flag(std::string what) {
    if (wrong_.empty()) wrong_ = std::move(what);
    return false;
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::string& wrong() const { return wrong_; }

 private:
  bool vcg_;
  std::shared_ptr<const core::AuctionAdapter> reference_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::string wrong_;  ///< first wrong result; empty = all correct so far
};

// ---------------------------------------------------------------------------
// Tracing: spans from the bench's side of each layer boundary
// ---------------------------------------------------------------------------

enum TaskKind { kAllocate, kPayments, kAssemble, kTaskKinds };

TaskKind task_kind(std::string_view task_name) {
  if (task_name.find("/payments/") != std::string_view::npos) return kPayments;
  if (task_name.ends_with("/assemble")) return kAssemble;
  // standard/allocate, and double-auction/run, which clears the whole market.
  return kAllocate;
}

struct TaskTotals {
  double seconds[kTaskKinds] = {};
  std::uint64_t count = 0;

  double total_s() const {
    return seconds[kAllocate] + seconds[kPayments] + seconds[kAssemble];
  }
};

/// Spans kept in memory and written as Chrome trace-event JSON at exit
/// (chrome://tracing and Perfetto open it). Spans of one auction share its id.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  void span(std::string name, std::uint64_t auction, Clock::time_point start,
            Clock::time_point end) {
    spans_.push_back({std::move(name), auction, start - origin_, end - start});
  }

  void task(TaskKind kind, const std::string& name, Clock::time_point start,
            Clock::time_point end) {
    tasks.seconds[kind] += seconds_between(start, end);
    ++tasks.count;
    span(name, auction, start, end);
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    const char* sep = "\n";
    for (const Span& s : spans_) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                    "\"args\": {\"auction\": %llu}}",
                    std::chrono::duration<double, std::micro>(s.start).count(),
                    std::chrono::duration<double, std::micro>(s.dur).count(),
                    static_cast<unsigned long long>(s.auction));
      out << sep << "{\"name\": \"" << s.name << "\", " << buf;
      sep = ",\n";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

  std::uint64_t auction = 0;  ///< id stamped on task spans
  TaskTotals tasks;

 private:
  struct Span {
    std::string name;
    std::uint64_t auction;
    Clock::duration start, dur;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// The real adapter with each TaskSpec::compute wrapped in a span, so task
/// time is measured where the work happens without touching the program.
class TimedAdapter final : public core::AuctionAdapter {
 public:
  TimedAdapter(std::shared_ptr<const core::AuctionAdapter> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(&tracer) {}

  std::string name() const override { return inner_->name(); }

  core::TaskGraph build(std::size_t num_bidders, std::size_t m,
                        std::size_t k) const override {
    const core::TaskGraph graph = inner_->build(num_bidders, m, k);
    core::TaskGraph timed;
    for (core::TaskSpec spec : graph.tasks()) {
      spec.compute = [fn = std::move(spec.compute), tracer = tracer_,
                      kind = task_kind(spec.name), name = spec.name](
                         const std::vector<Bytes>& deps, const core::TaskContext& ctx) {
        const auto start = Clock::now();
        Bytes out = fn(deps, ctx);
        tracer->task(kind, name, start, Clock::now());
        return out;
      };
      timed.add_task(std::move(spec));
    }
    return timed;
  }

  auction::AuctionResult run_centralized(const auction::AuctionInstance& instance,
                                         std::uint64_t seed) const override {
    return inner_->run_centralized(instance, seed);
  }

 private:
  std::shared_ptr<const core::AuctionAdapter> inner_;
  Tracer* tracer_;
};

// ---------------------------------------------------------------------------
// Units: one timed call into a runtime — one auction, or one stream
// ---------------------------------------------------------------------------

/// What one or more runtime calls did, summed.
struct Counters {
  double wall_s = 0;           ///< host time inside the runtime calls
  double makespan_s = 0;       ///< virtual
  double settle_span_s = 0;    ///< Σ launch→settle spans of cleared auctions
  double bid_agreement_s = 0;  ///< phase ends (single auctions)
  double provider_s = 0;
  double events = 0, messages = 0, bytes = 0, dropped = 0;
  net::ReliabilityStats rel;
  net::AuthStats auth;
  store::WalStats wal;

  template <class Run>
  explicit Counters(const Run& run, double wall)
      : wall_s(wall),
        makespan_s(sim::to_seconds(run.makespan)),
        events(static_cast<double>(run.events_dispatched)),
        messages(static_cast<double>(run.traffic.messages)),
        bytes(static_cast<double>(run.traffic.bytes)),
        dropped(static_cast<double>(run.fault_stats.total_dropped())),
        rel(run.reliability_stats),
        auth(run.auth_stats),
        wal(run.wal_stats) {}
  Counters() = default;

  Counters& operator+=(const Counters& o) {
    wall_s += o.wall_s;
    makespan_s += o.makespan_s;
    settle_span_s += o.settle_span_s;
    bid_agreement_s += o.bid_agreement_s;
    provider_s += o.provider_s;
    events += o.events;
    messages += o.messages;
    bytes += o.bytes;
    dropped += o.dropped;
    rel += o.rel;
    auth += o.auth;
    wal += o.wal;
    return *this;
  }
};

struct UnitRun {
  Clock::time_point start, end;  ///< around the runtime call only
  std::size_t attempted = 0, cleared = 0;
  std::vector<double> latency_ms;  ///< client-observed, per cleared auction
  Counters c;
  std::optional<auction::AuctionResult> first_result;  ///< auction / instance 0
};

UnitRun run_single(const Workload& w, const core::DistributedAuctioneer& auctioneer,
                   Stack stack, std::uint64_t seed, Gate& gate) {
  const auto instance = make_instance(w, seed);
  runtime::SimRuntime runtime(sim_config(w, stack, seed));
  UnitRun u;
  u.start = Clock::now();
  const auto run = runtime.run_distributed(auctioneer, instance);
  u.end = Clock::now();
  u.attempted = 1;
  u.c = Counters(run, seconds_between(u.start, u.end));
  u.c.bid_agreement_s = sim::to_seconds(run.bid_agreement_makespan());
  u.c.provider_s = sim::to_seconds(run.provider_makespan());
  if (gate.check(instance, run.provider_outcomes, !run.stalled)) {
    u.cleared = 1;
    u.latency_ms.push_back(sim::to_millis(run.makespan));
    u.c.settle_span_s = u.c.makespan_s;
    u.first_result = run.global_outcome.value();
  }
  return u;
}

/// A service-plane stream; instance i runs on inputs derived like its
/// standalone twin's (core::derive_instance_seed).
UnitRun run_stream(const Workload& w, const core::DistributedAuctioneer& auctioneer,
                   Stack stack, std::uint64_t seed, std::size_t instances,
                   std::size_t depth, Gate& gate) {
  std::vector<auction::AuctionInstance> inputs;
  for (std::size_t i = 0; i < instances; ++i) {
    inputs.push_back(make_instance(w, core::derive_instance_seed(seed, i)));
  }
  runtime::ServiceRunConfig svc;
  svc.base = sim_config(w, stack, seed);
  svc.instances = instances;
  svc.pipeline_depth = depth;
  runtime::ServiceRuntime runtime(svc);
  UnitRun u;
  u.start = Clock::now();
  const auto run = runtime.run(auctioneer, inputs);
  u.end = Clock::now();
  u.c = Counters(run, seconds_between(u.start, u.end));
  for (const auto& inst : run.instances) {
    ++u.attempted;
    if (!gate.check(inputs[inst.id], inst.provider_outcomes, inst.settled)) continue;
    ++u.cleared;
    const sim::SimTime span = inst.settled_at - inst.launched_at;
    u.latency_ms.push_back(sim::to_millis(span));
    u.c.settle_span_s += sim::to_seconds(span);
    if (inst.id == 0) u.first_result = inst.outcome.value();
  }
  return u;
}

UnitRun run_unit(const Workload& w, const core::DistributedAuctioneer& auctioneer,
                 std::uint64_t seed, std::size_t stream_size, Gate& gate) {
  if (w.stream == 0) return run_single(w, auctioneer, w.stack, seed, gate);
  return run_stream(w, auctioneer, w.stack, seed, stream_size, kPipelineDepth, gate);
}

/// A loop's units summed, plus each unit's throughput: its median is
/// reported, so a burst of host noise moves a few units instead of the
/// result. Nothing else is kept per unit, so memory barely grows with the
/// number of auctions a run fits in.
struct Totals {
  std::size_t attempted = 0, cleared = 0;
  std::vector<double> latency_ms;
  std::vector<double> unit_auctions_per_s;  ///< cleared / wall
  Counters sum;
  std::optional<auction::AuctionResult> first_result;  ///< unit 0's

  void add(const UnitRun& u) {
    if (unit_auctions_per_s.empty()) first_result = u.first_result;
    attempted += u.attempted;
    cleared += u.cleared;
    latency_ms.insert(latency_ms.end(), u.latency_ms.begin(), u.latency_ms.end());
    unit_auctions_per_s.push_back(static_cast<double>(u.cleared) / u.c.wall_s);
    sum += u.c;
  }
};

/// The closed loop: unit i runs on seed derive_instance_seed(run seed, i)
/// until --seconds have passed and `min_samples` latencies were taken.
Totals measure(const Workload& w, const core::DistributedAuctioneer& auctioneer,
               const Options& opt, std::size_t min_samples, Clock::time_point process_start,
               Gate& gate, Tracer* tracer) {
  Totals t;
  const auto start = Clock::now();
  for (std::size_t i = 0; gate.wrong().empty(); ++i) {
    const auto now = Clock::now();
    const bool done = opt.quick ? i == (w.stream ? 1 : kQuickAuctions)
                                : (seconds_between(start, now) >= opt.seconds &&
                                   t.latency_ms.size() >= min_samples) ||
                                      seconds_between(process_start, now) >= kHardStopS;
    if (done) break;
    if (tracer != nullptr) tracer->auction = i;
    const UnitRun u = run_unit(w, auctioneer, core::derive_instance_seed(opt.seed, i),
                               opt.quick ? kQuickAuctions : w.stream, gate);
    if (tracer != nullptr) tracer->span(w.stream ? "stream" : "auction", i, u.start, u.end);
    t.add(u);
  }
  return t;
}

/// Builds the market (adapter and auctioneer) and runs one discarded
/// warm-up auction, repeatedly (kSetups, kSetupSeconds). setup_s is the
/// median; the last auctioneer is the one measured.
struct Setup {
  double setup_s = 0;
  std::unique_ptr<core::DistributedAuctioneer> auctioneer;
};

Setup set_up(const Workload& w, const Options& opt, Gate& gate) {
  Setup s;
  std::vector<double> times;
  const auto first = Clock::now();
  for (std::size_t r = 0; gate.wrong().empty(); ++r) {
    const bool done = opt.quick ? r == 1
                                : r >= kSetups &&
                                      seconds_between(first, Clock::now()) >= kSetupSeconds;
    if (done) break;
    const auto start = Clock::now();
    s.auctioneer = make_auctioneer(w, make_adapter(w));
    run_unit(w, *s.auctioneer, core::derive_instance_seed(kSetupSeed, r), kPipelineDepth,
             gate);
    times.push_back(seconds_between(start, Clock::now()));
  }
  s.setup_s = bench::median(times);
  return s;
}

/// Stream 0's instance 0 must equal a standalone run of its twin.
void check_twin(const Workload& w, const core::DistributedAuctioneer& auctioneer,
                const Options& opt, const Totals& t, Gate& gate) {
  if (w.stream == 0 || !t.first_result) return;
  const UnitRun twin = run_single(w, auctioneer, w.stack,
                                  core::derive_instance_seed(opt.seed, 0), gate);
  if (twin.first_result && !(*twin.first_result == *t.first_result)) {
    gate.flag("stream instance 0 differs from its standalone twin");
  }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  std::optional<double> value;  ///< nullopt: too few samples to report
  const char* unit;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::optional<double> latency_percentile(const std::vector<double>& xs, double p) {
  if (xs.empty()) return std::nullopt;
  return p == 50 ? std::optional(bench::median(xs)) : bench::tail_percentile(xs, p);
}

std::vector<Metric> end_to_end_metrics(const Totals& t, double setup_s) {
  const double attempted = static_cast<double>(t.attempted);
  return {
      {"latency_p50_ms", latency_percentile(t.latency_ms, 50), "ms"},
      {"latency_p90_ms", latency_percentile(t.latency_ms, 90), "ms"},
      {"auctions_per_s", bench::median(t.unit_auctions_per_s), "1/s"},
      {"auctions_per_vs", static_cast<double>(t.cleared) / t.sum.makespan_s, "1/vs"},
      {"wire_kb_per_auction", t.sum.bytes / 1024.0 / attempted, "KiB"},
      {"settled_ratio", static_cast<double>(t.cleared) / attempted, "ratio"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
}

/// Median wall time of `f` over `reps` calls, in microseconds.
template <class F>
double median_us(std::size_t reps, F&& f) {
  std::vector<double> us;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    f(r);
    us.push_back(seconds_between(start, Clock::now()) * 1e6);
  }
  return bench::median(us);
}

volatile std::uint8_t g_sink = 0;  ///< keeps micro-measured results alive

/// Micro costs of the layers in the workload's stack; a layer the workload
/// does not use does no work here and reports 0.
struct LayerMicro {
  double sign_us = 0, verify_us = 0, verify_batch_us_per_sig = 0;
  double sha256_mb_per_s = 0, wal_append_commit_us = 0, encode_instance_us = 0;
};

LayerMicro measure_layer_micro(const Workload& w, const Options& opt) {
  LayerMicro lm;
  const std::size_t reps = opt.quick ? 3 : 20;
  const Bytes mib(1 << 20, 0x5a);
  lm.sha256_mb_per_s = static_cast<double>(mib.size()) /
                       median_us(reps, [&](std::size_t) {
                         g_sink = crypto::sha256(BytesView(mib))[0];
                       });
  const auto instance = make_instance(w, opt.seed);
  lm.encode_instance_us = median_us(reps, [&](std::size_t) {
    g_sink = serde::encode_instance(instance)[0];
  });
  if (w.stack.auth) {
    constexpr std::size_t kBatch = 4;  // one round at m = 4
    const net::KeyDirectory keys(kBatch, opt.seed);
    std::vector<crypto::Digest> transcripts;
    std::vector<crypto::ed25519::Signature> sigs;
    for (std::size_t i = 0; i < reps; ++i) {
      const Bytes payload(256, static_cast<std::uint8_t>(i));
      transcripts.push_back(net::auth_transcript(static_cast<NodeId>(i % kBatch),
                                                 "ba/vb/v", BytesView(payload)));
    }
    lm.sign_us = median_us(reps, [&](std::size_t i) {
      sigs.push_back(crypto::ed25519::sign(keys.pair(static_cast<NodeId>(i % kBatch)),
                                           BytesView(transcripts[i])));
    });
    lm.verify_us = median_us(reps, [&](std::size_t i) {
      g_sink = crypto::ed25519::verify(keys.public_key(static_cast<NodeId>(i % kBatch)),
                                       BytesView(transcripts[i]), sigs[i]);
    });
    std::vector<crypto::ed25519::BatchItem> batch;
    for (std::size_t i = 0; i < kBatch; ++i) {
      batch.push_back({&keys.public_key(static_cast<NodeId>(i)),
                       BytesView(transcripts[i]), &sigs[i]});
    }
    crypto::Rng rng(opt.seed);
    lm.verify_batch_us_per_sig =
        median_us(reps, [&](std::size_t) {
          g_sink = crypto::ed25519::verify_batch(batch, rng);
        }) /
        kBatch;
  }
  if (w.stack.wal) {
    store::Wal wal(std::make_shared<store::MemStorage>());
    wal.open();
    const Bytes record(256, 0xa5);
    lm.wal_append_commit_us = median_us(reps * 10, [&](std::size_t) {
      wal.append_message_record(1, "blk/bids", BytesView(record));
      g_sink = wal.commit();
    });
  }
  return lm;
}

/// The layer ladder: the same seeds rerun as plain, then with each layer of
/// the workload's stack added in the stated order (reliability, auth, WAL),
/// then through the service plane with one instance. A layer's marginal is
/// the mean wall-time difference to the step below it; layers outside the
/// workload's stack get no step and a marginal of 0.
struct Ladder {
  double plain_ms = 0;                        ///< mean wall per auction, plain
  std::map<std::string, double> marginal_ms;  ///< per step, vs the step below
  Counters full;                   ///< the step with the workload's whole stack
  std::vector<double> latency_ms;  ///< of that step

  double marginal(const std::string& step) const {
    const auto it = marginal_ms.find(step);
    return it == marginal_ms.end() ? 0.0 : it->second;
  }
};

struct LadderStep {
  std::string name;
  Stack stack;
};

std::vector<LadderStep> ladder_steps(const Workload& w) {
  std::vector<LadderStep> steps = {{"plain", {}}};
  Stack s;
  if (w.stack.reliability) {
    s.reliability = true;
    steps.push_back({"reliability", s});
  }
  if (w.stack.auth) {
    s.auth = true;
    steps.push_back({"auth", s});
  }
  if (w.stack.wal) {
    s.wal = true;
    steps.push_back({"wal", s});
  }
  return steps;
}

Ladder run_ladder(const Workload& w, const core::DistributedAuctioneer& auctioneer,
                  const Options& opt, Gate& gate, Tracer& tracer) {
  Ladder l;
  const std::size_t seeds = ladder_seeds(opt);
  const auto steps = ladder_steps(w);
  double below_ms = 0;
  const auto run_step = [&](const std::string& name, auto&& run_one) {
    double wall = 0;
    for (std::size_t i = 0; i < seeds && gate.wrong().empty(); ++i) {
      const UnitRun u = run_one(core::derive_instance_seed(opt.seed, i));
      tracer.span("ladder/" + name, i, u.start, u.end);
      wall += u.c.wall_s;
      if (name == steps.back().name) {
        l.full += u.c;
        l.latency_ms.insert(l.latency_ms.end(), u.latency_ms.begin(), u.latency_ms.end());
      }
    }
    const double ms = wall * 1e3 / static_cast<double>(seeds);
    if (name == "plain") {
      l.plain_ms = ms;
    } else {
      l.marginal_ms[name] = ms - below_ms;
    }
    below_ms = ms;
  };
  for (const LadderStep& step : steps) {
    run_step(step.name, [&](std::uint64_t seed) {
      return run_single(w, auctioneer, step.stack, seed, gate);
    });
  }
  run_step("service_n1", [&](std::uint64_t seed) {
    return run_stream(w, auctioneer, w.stack, seed, 1, 1, gate);
  });
  return l;
}

/// The trusted single-node auctioneer on the ladder's inputs.
std::vector<double> central_latency_ms(const Workload& w, const Options& opt, Gate& gate) {
  const core::CentralizedAuctioneer central(make_adapter(w));
  std::vector<double> ms;
  for (std::size_t i = 0; i < ladder_seeds(opt) && gate.wrong().empty(); ++i) {
    const std::uint64_t seed = core::derive_instance_seed(opt.seed, i);
    const auto instance = make_instance(w, seed);
    const auto run =
        runtime::SimRuntime(sim_config(w, {}, seed)).run_centralized(central, instance);
    if (gate.check(instance, run.provider_outcomes, !run.stalled)) {
      ms.push_back(sim::to_millis(run.makespan));
    }
  }
  return ms;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::vector<Metric> per_layer_metrics(const Totals& t, const TaskTotals& tasks,
                                      const Ladder& l,
                                      const std::vector<double>& central_ms,
                                      const LayerMicro& lm) {
  const Counters& c = t.sum;
  const double a = static_cast<double>(t.attempted);
  const auto per_auction = [a](auto x) { return static_cast<double>(x) / a; };
  const double tracked = static_cast<double>(c.rel.tracked);
  const double retx = static_cast<double>(c.rel.retransmits);
  const double signs = static_cast<double>(c.auth.signed_sends);
  const double batched = static_cast<double>(c.auth.verified_batched);
  const std::optional<double> central_p50 = latency_percentile(central_ms, 50);
  std::optional<double> overhead;
  if (central_p50 && !l.latency_ms.empty()) {
    overhead = bench::median(l.latency_ms) / *central_p50;
  }
  const Counters& f = l.full;
  return {
      {"sim.events_per_auction", per_auction(c.events), "count"},
      {"sim.ns_per_event", ratio(c.wall_s * 1e9, c.events), "ns"},
      {"sim.fault.dropped_per_auction", per_auction(c.dropped), "count"},
      {"net.msgs_per_auction", per_auction(c.messages), "count"},
      {"net.rel.tracked_per_auction", per_auction(tracked), "count"},
      {"net.rel.acks_per_auction", per_auction(c.rel.acks_sent + c.rel.acks_piggybacked),
       "count"},
      {"net.rel.retransmits_per_auction", per_auction(retx), "count"},
      {"net.rel.spurious_retx_per_auction", per_auction(std::max(0.0, retx - c.dropped)),
       "count"},
      {"net.rel.useful_ratio", ratio(tracked, tracked + retx), "ratio"},
      {"net.rel.give_ups", static_cast<double>(c.rel.give_ups), "count"},
      {"net.rel.marginal_ms", l.marginal("reliability"), "ms"},
      {"net.auth.signs_per_auction", per_auction(signs), "count"},
      {"net.auth.sign_reuse_ratio",
       ratio(static_cast<double>(c.auth.signed_reuses),
             signs + static_cast<double>(c.auth.signed_reuses)),
       "ratio"},
      {"net.auth.verifies_per_auction", per_auction(c.auth.verified_eager + batched),
       "count"},
      {"net.auth.sigs_per_batch", ratio(batched, static_cast<double>(c.auth.batches)),
       "count"},
      {"net.auth.marginal_ms", l.marginal("auth"), "ms"},
      {"crypto.ed25519.sign_us", lm.sign_us, "us"},
      {"crypto.ed25519.verify_us", lm.verify_us, "us"},
      {"crypto.ed25519.verify_batch_us_per_sig", lm.verify_batch_us_per_sig, "us"},
      {"crypto.sha256.mb_per_s", lm.sha256_mb_per_s, "MB/s"},
      {"store.wal.records_per_auction", per_auction(c.wal.records_appended), "count"},
      {"store.wal.kb_per_auction", per_auction(c.wal.bytes_appended) / 1024.0, "KiB"},
      {"store.wal.commits_per_auction", per_auction(c.wal.commits), "count"},
      {"store.wal.append_commit_us", lm.wal_append_commit_us, "us"},
      {"store.wal.marginal_ms", l.marginal("wal"), "ms"},
      {"auction.task_ms_per_auction", per_auction(tasks.total_s() * 1e3), "ms"},
      {"auction.task_share", ratio(tasks.total_s(), c.wall_s), "ratio"},
      {"auction.allocate_ms_per_auction", per_auction(tasks.seconds[kAllocate] * 1e3), "ms"},
      {"auction.payments_ms_per_auction", per_auction(tasks.seconds[kPayments] * 1e3), "ms"},
      {"auction.assemble_ms_per_auction", per_auction(tasks.seconds[kAssemble] * 1e3), "ms"},
      {"core.tasks_per_auction", per_auction(tasks.count), "count"},
      {"serde.encode_instance_us", lm.encode_instance_us, "us"},
      {"runtime.bid_agreement_share", ratio(f.bid_agreement_s, f.makespan_s), "ratio"},
      {"runtime.allocation_share", ratio(f.provider_s - f.bid_agreement_s, f.makespan_s),
       "ratio"},
      {"runtime.report_share", ratio(f.makespan_s - f.provider_s, f.makespan_s), "ratio"},
      {"runtime.service.overlap", ratio(c.settle_span_s, c.makespan_s), "ratio"},
      {"runtime.service.marginal_ms", l.marginal("service_n1"), "ms"},
      {"runtime.ladder_plain_ms", l.plain_ms, "ms"},
      {"runtime.central_latency_p50_ms", central_p50, "ms"},
      {"runtime.distribution_overhead_x", overhead, "x"},
      {"trace.auctions_per_s", bench::median(t.unit_auctions_per_s), "1/s"},
  };
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string number(const std::optional<double>& v) {
  if (!v) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", *v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

std::string result_json(const Gate& gate, const std::vector<Metric>& metrics) {
  return "{\"correct\": " + std::string(gate.wrong().empty() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(gate.attempted()) +
         ", \"failed\": " + std::to_string(gate.failed()) +
         ", \"metrics\": " + metrics_json(metrics) + "}";
}

bool write_record(const Options& opt, const Gate& gate, const Totals& t,
                  const std::vector<Metric>& metrics) {
  std::ofstream out(opt.json_path);
  out << "{\"host\": " << bench::host_json() << ",\n \"workload\": \""
      << opt.workload->name << "\", \"seed\": " << opt.seed
      << ", \"seconds\": " << number(opt.seconds)
      << ", \"trace\": " << (opt.trace ? "true" : "false")
      << ",\n \"latency_samples\": " << t.latency_ms.size();
  if (!t.latency_ms.empty()) {
    const auto q = bench::quartiles(t.latency_ms);
    out << ", \"latency_quartiles_ms\": [" << number(q.q1) << ", " << number(q.median)
        << ", " << number(q.q3) << "]";
  }
  if (const double p = bench::highest_supported_percentile(t.latency_ms.size()); p > 0) {
    out << ", \"latency_tail_ms\": {\"percentile\": " << number(p)
        << ", \"value\": " << number(bench::percentile(t.latency_ms, p)) << "}";
  }
  out << ",\n \"result\": " << result_json(gate, metrics) << "}\n";
  return static_cast<bool>(out);
}

void usage() {
  std::fprintf(stderr,
               "usage: dauct_bench --workload=NAME --seed=S [--seconds=T] [--trace]\n"
               "                   [--trace-json=PATH] [--json=PATH] [--quick]\n"
               "workloads:");
  for (const Workload& w : kWorkloads) {
    std::fprintf(stderr, " %.*s", int(w.name.size()), w.name.data());
  }
  std::fprintf(stderr, "\n");
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&](std::string_view key) -> std::optional<std::string> {
      if (!arg.starts_with(key) || arg.size() <= key.size()) return std::nullopt;
      return std::string(arg.substr(key.size()));
    };
    char* end = nullptr;
    if (auto v = value("--workload=")) {
      for (const Workload& w : kWorkloads) {
        if (w.name == *v) opt.workload = &w;
      }
      if (opt.workload == nullptr) {
        std::fprintf(stderr, "dauct_bench: unknown workload '%s'\n", v->c_str());
        return false;
      }
    } else if (auto v = value("--seed=")) {
      opt.seed = std::strtoull(v->c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (auto v = value("--seconds=")) {
      opt.seconds = std::strtod(v->c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0)) return false;
    } else if (auto v = value("--json=")) {
      opt.json_path = *v;
    } else if (auto v = value("--trace-json=")) {
      opt.trace_json_path = *v;
    } else if (arg == "--trace") {
      opt.trace = true;
    } else if (arg == "--quick") {
      opt.quick = true;
    } else {
      std::fprintf(stderr, "dauct_bench: unknown argument '%s'\n", argv[i]);
      return false;
    }
  }
  return opt.workload != nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    usage();
    return 2;
  }
  const Workload& w = *opt.workload;
  Gate gate(w, make_adapter(w));
  const Setup setup = set_up(w, opt, gate);

  // A wrong result stops every loop and reports no metrics.
  Totals totals;
  std::vector<Metric> metrics;
  if (!opt.trace) {
    totals = measure(w, *setup.auctioneer, opt, bench::min_samples_for(90), process_start,
                     gate, nullptr);
    check_twin(w, *setup.auctioneer, opt, totals, gate);
    if (gate.wrong().empty()) metrics = end_to_end_metrics(totals, setup.setup_s);
  } else {
    Tracer tracer(process_start);
    const auto timed = make_auctioneer(
        w, std::make_shared<TimedAdapter>(setup.auctioneer->adapter_ptr(), tracer));
    totals = measure(w, *timed, opt, kMinTracedAuctions, process_start, gate, &tracer);
    check_twin(w, *setup.auctioneer, opt, totals, gate);
    // The ladder runs the untimed market, so its walls carry no span cost.
    const Ladder ladder = run_ladder(w, *setup.auctioneer, opt, gate, tracer);
    const auto central_ms = central_latency_ms(w, opt, gate);
    if (gate.wrong().empty()) {
      metrics = per_layer_metrics(totals, tracer.tasks, ladder, central_ms,
                                  measure_layer_micro(w, opt));
    }
    if (!opt.trace_json_path.empty() && !tracer.write(opt.trace_json_path)) {
      std::fprintf(stderr, "dauct_bench: cannot write %s\n", opt.trace_json_path.c_str());
    }
  }

  if (!gate.wrong().empty()) {
    std::fprintf(stderr, "dauct_bench: WRONG RESULT on %.*s: %s\n", int(w.name.size()),
                 w.name.data(), gate.wrong().c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("%s %s %s\n", m.name.c_str(), number(m.value).c_str(), m.unit);
  }
  std::printf("%s\n", result_json(gate, metrics).c_str());
  if (!opt.json_path.empty() && !write_record(opt, gate, totals, metrics)) {
    std::fprintf(stderr, "dauct_bench: cannot write %s\n", opt.json_path.c_str());
    return 1;
  }
  return gate.wrong().empty() ? 0 : 1;
}
