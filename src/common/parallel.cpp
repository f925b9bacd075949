#include "common/parallel.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <ctime>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace dauct::host {

namespace {

thread_local std::uint64_t t_helper_cpu_ns = 0;

/// One parallel_for call. It lives on the caller's stack: a helper touches
/// it only between attaching (under the pool lock, while the job is queued)
/// and detaching (under `mu`), and the caller withdraws the job from the
/// queue and then waits for every attached helper to detach.
struct Job {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t n = 0;
  std::atomic<std::size_t> next{0};    ///< next unclaimed item
  std::atomic<bool> cancelled{false};  ///< an item threw: skip the rest

  std::mutex mu;
  std::condition_variable cv;
  std::size_t finished = 0;      ///< claimed items run or skipped
  std::size_t helpers = 0;       ///< attached workers
  std::uint64_t helper_cpu = 0;  ///< CPU the detached workers spent here
  std::exception_ptr error;      ///< first exception an item threw

  bool exhausted() const { return next.load() >= n; }

  /// Claim and run items until every item is claimed.
  void drain() {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= n) return;
      std::exception_ptr err;
      if (!cancelled.load()) {
        try {
          (*fn)(i);
        } catch (...) {
          err = std::current_exception();
        }
      }
      std::lock_guard lock(mu);
      if (err && !error) {
        error = err;
        cancelled.store(true);
      }
      if (++finished == n) cv.notify_all();
    }
  }

  bool complete() const { return finished == n && helpers == 0; }
};

class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  Pool(const Pool&) = delete;  // workers hold `this`
  Pool& operator=(const Pool&) = delete;

  std::size_t workers() const { return threads_.size(); }

  void submit(Job& job) {
    {
      std::lock_guard lock(mu_);
      queue_.push_back(&job);
    }
    cv_.notify_all();
  }

  /// After this returns no further worker can attach to `job`.
  void withdraw(Job& job) {
    std::lock_guard lock(mu_);
    const auto it = std::find(queue_.begin(), queue_.end(), &job);
    if (it != queue_.end()) queue_.erase(it);
  }

  ~Pool() {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

 private:
  Pool() {
    const std::size_t n = usable_cpus() - 1;
    threads_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) threads_.emplace_back([this] { work(); });
  }

  // Workers serve the oldest job that still has unclaimed items, so an
  // outer fan-out is drained before the nested ones its items start.
  void work() {
    std::unique_lock lock(mu_);
    for (;;) {
      cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (stop_) return;
      Job* job = queue_.front();
      if (job->exhausted()) {
        queue_.pop_front();
        continue;
      }
      {
        std::lock_guard job_lock(job->mu);
        ++job->helpers;
      }
      lock.unlock();

      const std::uint64_t cpu0 = thread_cpu_ns();
      const std::uint64_t nested0 = t_helper_cpu_ns;
      job->drain();
      const std::uint64_t spent =
          (thread_cpu_ns() - cpu0) + (t_helper_cpu_ns - nested0);
      {
        std::lock_guard job_lock(job->mu);
        job->helper_cpu += spent;
        --job->helpers;
        if (job->complete()) job->cv.notify_all();
      }
      lock.lock();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job*> queue_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<std::size_t>(count);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  Pool& pool = Pool::instance();
  if (n == 1 || pool.workers() == 0) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  Job job;
  job.fn = &fn;
  job.n = n;
  pool.submit(job);
  job.drain();
  pool.withdraw(job);
  std::unique_lock lock(job.mu);
  job.cv.wait(lock, [&] { return job.complete(); });
  t_helper_cpu_ns += job.helper_cpu;
  if (job.error) std::rethrow_exception(job.error);
}

std::uint64_t helper_cpu_ns() { return t_helper_cpu_ns; }

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace dauct::host
