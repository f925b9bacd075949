// Host worker pool: spreads independent, deterministic pieces of one
// computation over the host's idle cores.
//
// The pool holds (usable CPUs − 1) workers — counted from the thread's
// affinity mask, so `taskset -c 0` gives zero workers and every item runs
// inline — started on first use. There is no knob: results never depend on
// the worker count, only wall time does.
//
// The caller participates: parallel_for() runs items on the calling thread
// as well as on the workers, so a nested call (an item that itself fans
// out) always makes progress even when every worker is busy, and any number
// of threads may call concurrently. Idle workers block; they never spin.
//
// CPU accounting: each helper measures the thread CPU it spent on a call's
// items (plus whatever its own nested fan-outs charged to it) and the caller
// adds the total to its thread-local helper_cpu_ns() before returning. So
// "this thread's CPU time + helper_cpu_ns()" is all the CPU spent on the
// thread's behalf — what sim::Scheduler charges a kMeasured handler.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace dauct::host {

/// CPUs in this process's affinity mask (at least 1).
std::size_t usable_cpus();

/// Run fn(i) for every i in [0, n), each exactly once, on the calling thread
/// and the pool's workers; returns when every item has finished. Items must
/// be independent: they may run in any order and concurrently.
///
/// Exceptions: if an item throws, items not yet started are skipped, and
/// parallel_for rethrows the first exception caught once no item of this
/// call is still running. Helper CPU spent before the throw is still added
/// to helper_cpu_ns().
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

/// Thread CPU (ns) that pool workers spent on this thread's parallel_for
/// items, cumulative over the thread's lifetime. Monotonic.
std::uint64_t helper_cpu_ns();

/// This thread's own CPU time (ns, CLOCK_THREAD_CPUTIME_ID).
std::uint64_t thread_cpu_ns();

}  // namespace dauct::host
