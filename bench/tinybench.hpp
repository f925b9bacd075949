// tinybench: a minimal, self-contained timing harness (vendored).
//
// Replaces the previous optional dependency on system google-benchmark so the
// crypto/serde microbenches and the perf suite always build. Deliberately a
// small subset of the google-benchmark API shape:
//
//   void BM_Thing(tinybench::State& state) {
//     for (auto _ : state) DoNotOptimize(work(state.range(0)));
//     state.SetBytesProcessed(state.iterations() * state.range(0));
//   }
//   TINYBENCH(BM_Thing)->Arg(64)->Arg(4096);
//   TINYBENCH_MAIN
//
// Each registered (benchmark, arg) pair is run with geometrically growing
// iteration counts until the timed loop exceeds --min-time-ms (default 50),
// then reported as ns/op plus throughput (bytes/s when SetBytesProcessed was
// called, ops/s otherwise) and any named counters the body set
// (`state.counters["cells"] = …`, reported as given, e.g. work per op).
// Results can be dumped as JSON (--json=PATH) in the BENCH_dauct.json
// trajectory format: one record per run with op / n / ns_per_op /
// throughput fields, plus a "counters" object when the body set any.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace dauct::tinybench {

/// Defeat dead-code elimination of a benchmarked value (GCC/Clang).
template <class T>
inline void DoNotOptimize(T const& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}
template <class T>
inline void DoNotOptimize(T& value) {
  asm volatile("" : "+m,r"(value) : : "memory");
}

/// Iteration state handed to the benchmark body. `for (auto _ : state)` runs
/// the timed loop; the clock starts at the first iteration check and stops at
/// the last, so setup before the loop is not billed.
class State {
 public:
  State(std::uint64_t max_iters, std::vector<std::int64_t> args)
      : max_iters_(max_iters), args_(std::move(args)) {}

  /// Value yielded per iteration. The user-provided destructor makes the
  /// conventional `for (auto _ : state)` loop variable count as used, so
  /// -Wunused-variable / -Wunused-but-set-variable stay quiet.
  struct Tick {
    Tick() {}
    ~Tick() {}
  };
  struct iterator {
    State* st;
    bool operator!=(const iterator&) { return st->keep_running(); }
    iterator& operator++() { return *this; }
    Tick operator*() const { return {}; }
  };
  iterator begin() { return {this}; }
  iterator end() { return {this}; }

  /// The i-th Arg of this run (0 when the benchmark was registered without
  /// args).
  std::int64_t range(std::size_t i = 0) const {
    return i < args_.size() ? args_[i] : 0;
  }

  /// Completed iterations (call after the loop).
  std::uint64_t iterations() const { return count_; }

  /// Declare how many payload bytes the whole run processed; switches the
  /// reported throughput from ops/s to bytes/s.
  void SetBytesProcessed(std::int64_t bytes) { bytes_processed_ = bytes; }

  double elapsed_ns() const {
    return std::chrono::duration<double, std::nano>(finish_ - start_).count();
  }
  std::int64_t bytes_processed() const { return bytes_processed_; }

  /// Named values reported next to the timing, as set (the last run of the
  /// body wins).
  std::map<std::string, double> counters;

 private:
  bool keep_running() {
    if (count_ == 0) start_ = std::chrono::steady_clock::now();
    if (count_ < max_iters_) {
      ++count_;
      return true;
    }
    finish_ = std::chrono::steady_clock::now();
    return false;
  }

  std::uint64_t max_iters_;
  std::uint64_t count_ = 0;
  std::vector<std::int64_t> args_;
  std::int64_t bytes_processed_ = 0;
  std::chrono::steady_clock::time_point start_{};
  std::chrono::steady_clock::time_point finish_{};
};

using BenchFn = void (*)(State&);

/// One registered benchmark; Arg() appends an additional run configuration.
class Benchmark {
 public:
  Benchmark(std::string name, BenchFn fn) : name_(std::move(name)), fn_(fn) {}

  Benchmark* Arg(std::int64_t a) {
    arg_sets_.push_back({a});
    return this;
  }
  Benchmark* Args(std::vector<std::int64_t> as) {
    arg_sets_.push_back(std::move(as));
    return this;
  }

  const std::string& name() const { return name_; }
  BenchFn fn() const { return fn_; }
  /// Run configurations; a benchmark without Arg() runs once with no args.
  std::vector<std::vector<std::int64_t>> runs() const {
    return arg_sets_.empty() ? std::vector<std::vector<std::int64_t>>{{}} : arg_sets_;
  }

 private:
  std::string name_;
  BenchFn fn_;
  std::vector<std::vector<std::int64_t>> arg_sets_;
};

inline std::vector<std::unique_ptr<Benchmark>>& registry() {
  static std::vector<std::unique_ptr<Benchmark>> benches;
  return benches;
}

inline Benchmark* RegisterBenchmark(const char* name, BenchFn fn) {
  registry().push_back(std::make_unique<Benchmark>(name, fn));
  return registry().back().get();
}

/// One timed (benchmark, arg) run.
struct Result {
  std::string name;  ///< "BM_Sha256/65536"
  std::string op;    ///< "BM_Sha256"
  std::int64_t n = 0;
  std::uint64_t iterations = 0;
  double ns_per_op = 0.0;
  double ops_per_sec = 0.0;
  double bytes_per_sec = 0.0;  ///< 0 unless SetBytesProcessed was used
  std::map<std::string, double> counters;  ///< State::counters of the last run
};

struct Options {
  double min_time_ms = 50.0;
  std::string json_path;
  std::string filter;  ///< substring match on the run name
};

inline Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--min-time-ms=", 0) == 0) {
      opt.min_time_ms = std::strtod(a.c_str() + 14, nullptr);
    } else if (a.rfind("--json=", 0) == 0) {
      opt.json_path = a.substr(7);
    } else if (a.rfind("--filter=", 0) == 0) {
      opt.filter = a.substr(9);
    } else if (a == "--help" || a == "-h") {
      std::printf(
          "usage: %s [--min-time-ms=N] [--json=PATH] [--filter=SUBSTR]\n",
          argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "tinybench: unknown flag '%s' (try --help)\n", a.c_str());
      std::exit(2);
    }
  }
  return opt;
}

inline Result run_one(const Benchmark& b, const std::vector<std::int64_t>& args,
                      double min_time_ms) {
  const double target_ns = min_time_ms * 1e6;
  std::uint64_t iters = 1;
  for (;;) {
    State st(iters, args);
    b.fn()(st);
    const double ns = st.elapsed_ns();
    if (ns >= target_ns || iters >= (std::uint64_t{1} << 40)) {
      Result r;
      r.name = b.name();
      for (std::int64_t a : args) {
        r.name += '/';
        r.name += std::to_string(a);
      }
      r.op = b.name();
      r.n = args.empty() ? 0 : args[0];
      r.iterations = st.iterations();
      r.ns_per_op = ns / static_cast<double>(st.iterations());
      r.ops_per_sec = r.ns_per_op > 0 ? 1e9 / r.ns_per_op : 0.0;
      if (st.bytes_processed() > 0 && ns > 0) {
        r.bytes_per_sec = static_cast<double>(st.bytes_processed()) * 1e9 / ns;
      }
      r.counters = std::move(st.counters);
      return r;
    }
    // Grow toward the target with headroom; at least ×2, at most ×100 per
    // step so a mispredicted first probe cannot overshoot wildly.
    std::uint64_t next =
        ns > 0 ? static_cast<std::uint64_t>(static_cast<double>(iters) * target_ns *
                                            1.4 / ns)
               : iters * 16;
    iters = std::clamp<std::uint64_t>(next, iters * 2, iters * 100);
  }
}

inline std::vector<Result> run_all(const Options& opt) {
  std::vector<Result> results;
  for (const auto& b : registry()) {
    for (const auto& args : b->runs()) {
      std::string name = b->name();
      for (std::int64_t a : args) {
        name += '/';
        name += std::to_string(a);
      }
      if (!opt.filter.empty() && name.find(opt.filter) == std::string::npos) continue;
      results.push_back(run_one(*b, args, opt.min_time_ms));
    }
  }
  return results;
}

inline void print_table(const std::vector<Result>& results) {
  std::printf("%-44s %14s %14s %16s\n", "benchmark", "iterations", "ns/op",
              "throughput");
  for (const auto& r : results) {
    char thr[32];
    if (r.bytes_per_sec > 0) {
      std::snprintf(thr, sizeof(thr), "%10.1f MB/s", r.bytes_per_sec / 1e6);
    } else {
      std::snprintf(thr, sizeof(thr), "%10.0f op/s", r.ops_per_sec);
    }
    std::printf("%-44s %14llu %14.1f %16s", r.name.c_str(),
                static_cast<unsigned long long>(r.iterations), r.ns_per_op, thr);
    for (const auto& [key, value] : r.counters) std::printf("  %s=%.6g", key.c_str(), value);
    std::printf("\n");
  }
}

/// Append one JSON record (no trailing newline handling; caller manages
/// separators). `op` is the benchmark name alone so consumers can group a
/// trajectory series across sizes; `name` carries the full op/arg run id.
inline void json_record(std::FILE* f, const Result& r) {
  std::fprintf(f,
               "    {\"op\": \"%s\", \"name\": \"%s\", \"n\": %lld, "
               "\"iterations\": %llu, \"ns_per_op\": %.2f, \"ops_per_sec\": %.1f, "
               "\"bytes_per_sec\": %.1f",
               r.op.c_str(), r.name.c_str(), static_cast<long long>(r.n),
               static_cast<unsigned long long>(r.iterations), r.ns_per_op,
               r.ops_per_sec, r.bytes_per_sec);
  if (!r.counters.empty()) {
    const char* sep = "";
    std::fprintf(f, ", \"counters\": {");
    for (const auto& [key, value] : r.counters) {
      std::fprintf(f, "%s\"%s\": %.17g", sep, key.c_str(), value);
      sep = ", ";
    }
    std::fprintf(f, "}");
  }
  std::fprintf(f, "}");
}

/// Write {"benchmarks": [...]} plus optional extra sections rendered by the
/// caller (raw JSON lines, e.g. a "speedups" object).
inline bool write_json(const std::vector<Result>& results, const std::string& path,
                       const std::string& extra_sections = "") {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "tinybench: cannot open '%s' for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    json_record(f, results[i]);
    std::fprintf(f, "%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]%s%s\n}\n", extra_sections.empty() ? "" : ",\n",
               extra_sections.c_str());
  std::fclose(f);
  return true;
}

inline int run_main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  const std::vector<Result> results = run_all(opt);
  print_table(results);
  if (!opt.json_path.empty() && !write_json(results, opt.json_path)) return 1;
  return 0;
}

}  // namespace dauct::tinybench

/// Register a benchmark function at namespace scope; returns the Benchmark*
/// so runs can be chained: TINYBENCH(BM_Foo)->Arg(64)->Arg(1024);
#define TINYBENCH(fn)                                 \
  static ::dauct::tinybench::Benchmark* tinybench_reg_##fn = \
      ::dauct::tinybench::RegisterBenchmark(#fn, fn)

#define TINYBENCH_MAIN                        \
  int main(int argc, char** argv) {           \
    return ::dauct::tinybench::run_main(argc, argv); \
  }
