#include "util/parallel.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace byz::util {

namespace {

thread_local unsigned tl_depth = 0;
thread_local unsigned tl_worker_id = 0;
thread_local unsigned tl_cap = 0;  ///< ParticipantCap in force; 0 = none

/// One parallel_for call, on the caller's stack. `helpers` is guarded by
/// the pool mutex; chunks are claimed lock-free from `cursor`.
struct Job {
  std::uint64_t count;
  std::uint64_t grain;
  std::uint64_t chunks;
  detail::ChunkFn fn;
  const void* body;
  unsigned depth;        ///< parallel_depth() inside the bodies
  unsigned max_helpers;  ///< participants besides the caller
  unsigned helpers = 0;  ///< pool workers inside work() right now
  std::atomic<std::uint64_t> cursor{0};
  std::mutex error_mu{};
  std::exception_ptr error{};
  std::condition_variable helpers_done{};

  void work() {
    const unsigned saved = std::exchange(tl_depth, depth);
    for (std::uint64_t c = 0;
         (c = cursor.fetch_add(1, std::memory_order_relaxed)) < chunks;) {
      try {
        fn(body, c * grain, std::min(count, (c + 1) * grain));
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
        cursor.store(chunks, std::memory_order_relaxed);  // skip the rest
      }
    }
    tl_depth = saved;
  }
};

class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  /// Runs `job` on the caller and up to job.max_helpers idle workers.
  void run(Job& job) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      open_.push_back(&job);
    }
    for (unsigned i = 0; i < job.max_helpers; ++i) wake_.notify_one();
    job.work();
    std::unique_lock<std::mutex> lock(mu_);
    std::erase(open_, &job);
    job.helpers_done.wait(lock, [&] { return job.helpers == 0; });
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    for (auto& t : threads_) t.join();
  }

 private:
  Pool() {
    for (unsigned id = 1; id < pool_size(); ++id) {
      threads_.emplace_back([this, id] { worker(id); });
    }
  }

  void worker(unsigned id) {
    tl_worker_id = id;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      Job* job = nullptr;
      // Sleep until an open job has an unclaimed chunk and room for one
      // more helper. `cursor` moves outside the lock, but only forward, so
      // a stale read can only send a helper to a job that has just run out.
      wake_.wait(lock, [&] {
        for (Job* j : open_) {
          if (j->helpers < j->max_helpers &&
              j->cursor.load(std::memory_order_relaxed) < j->chunks) {
            job = j;
            return true;
          }
        }
        return stop_;
      });
      if (job == nullptr) return;
      ++job->helpers;
      lock.unlock();
      job->work();
      lock.lock();
      // Notified under the lock: the caller cannot return (freeing the job)
      // before this thread lets go of it.
      if (--job->helpers == 0) job->helpers_done.notify_one();
    }
  }

  std::mutex mu_;
  std::condition_variable wake_;
  std::vector<Job*> open_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace

unsigned pool_size() noexcept {
  static const unsigned size = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
      return static_cast<unsigned>(CPU_COUNT(&set));
    }
    return std::max(1u, std::thread::hardware_concurrency());
  }();
  return size;
}

unsigned parallel_depth() noexcept { return tl_depth; }

unsigned pool_worker_id() noexcept { return tl_worker_id; }

std::uint64_t balanced_grain(std::uint64_t count,
                             unsigned max_participants) noexcept {
  const std::uint64_t chunks =
      4 * std::uint64_t{max_participants == 0 ? pool_size() : max_participants};
  return std::max<std::uint64_t>(1, (count + chunks - 1) / chunks);
}

ParticipantCap::ParticipantCap(unsigned cap) noexcept
    : saved_(std::exchange(tl_cap, cap)) {}

ParticipantCap::~ParticipantCap() { tl_cap = saved_; }

void detail::run_chunks(std::uint64_t count, unsigned max_participants,
                        std::uint64_t grain, ChunkFn fn, const void* body) {
  if (count == 0) return;
  grain = std::max<std::uint64_t>(grain, 1);
  unsigned cap = pool_size();
  for (const unsigned limit : {max_participants, tl_cap}) {
    if (limit != 0) cap = std::min(cap, limit);
  }
  const std::uint64_t chunks = (count - 1) / grain + 1;
  Job job{.count = count,
          .grain = grain,
          .chunks = chunks,
          .fn = fn,
          .body = body,
          .depth = tl_depth + 1,
          .max_helpers = static_cast<unsigned>(
              std::min<std::uint64_t>(cap - 1, chunks - 1))};
  if (job.max_helpers == 0) {
    job.work();
  } else {
    Pool::instance().run(job);
  }
  if (job.error) std::rethrow_exception(job.error);
}

}  // namespace byz::util
