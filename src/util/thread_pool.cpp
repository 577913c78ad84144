#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "util/fault_inject.hpp"
#include "util/metrics.hpp"

namespace fastmon {

namespace {

/// Index of the current thread in its pool (one pool membership per
/// thread is enough: workers never migrate between pools).
thread_local ThreadPool* tls_pool = nullptr;
thread_local std::size_t tls_worker_index = 0;

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
    if (num_threads == 0) {
        num_threads = std::max(1u, std::thread::hardware_concurrency());
    }
    queues_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i) {
        queues_.push_back(std::make_unique<WorkerQueue>());
    }
    workers_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i) {
        workers_.emplace_back([this, i] { worker_loop(i); });
    }
}

ThreadPool::~ThreadPool() {
    {
        const std::lock_guard<std::mutex> lock(sleep_mutex_);
        stopping_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
}

ThreadPool& ThreadPool::shared() {
    static ThreadPool pool;
    return pool;
}

double ThreadPool::Stats::total_busy_seconds() const {
    return std::accumulate(worker_busy_seconds.begin(),
                           worker_busy_seconds.end(), helper_busy_seconds);
}

ThreadPool::Stats ThreadPool::stats() const {
    Stats s;
    s.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
    s.tasks_stolen = tasks_stolen_.load(std::memory_order_relaxed);
    s.tasks_injected = tasks_injected_.load(std::memory_order_relaxed);
    s.tasks_drained = tasks_drained_.load(std::memory_order_relaxed);
    s.max_inject_depth = max_inject_depth_.load(std::memory_order_relaxed);
    s.helper_busy_seconds =
        static_cast<double>(helper_busy_ns_.load(std::memory_order_relaxed)) *
        1e-9;
    s.worker_busy_seconds.reserve(queues_.size());
    for (const auto& q : queues_) {
        s.worker_busy_seconds.push_back(
            static_cast<double>(q->busy_ns.load(std::memory_order_relaxed)) *
            1e-9);
    }
    return s;
}

void ThreadPool::publish_metrics(MetricsRegistry& registry) const {
    const Stats s = stats();
    registry.gauge("pool.workers").set(static_cast<double>(size()));
    registry.gauge("pool.tasks_executed")
        .set(static_cast<double>(s.tasks_executed));
    registry.gauge("pool.tasks_stolen").set(static_cast<double>(s.tasks_stolen));
    registry.gauge("pool.tasks_injected")
        .set(static_cast<double>(s.tasks_injected));
    registry.gauge("pool.tasks_drained")
        .set(static_cast<double>(s.tasks_drained));
    registry.gauge("pool.max_inject_depth")
        .set(static_cast<double>(s.max_inject_depth));
    registry.gauge("pool.busy_seconds").set(s.total_busy_seconds());
    registry.gauge("pool.helper_busy_seconds").set(s.helper_busy_seconds);
    Histogram& h = registry.histogram("pool.worker_busy_seconds");
    h.reset();
    for (const double v : s.worker_busy_seconds) h.record(v);
}

std::size_t ThreadPool::effective_lanes(std::size_t total,
                                        std::size_t max_workers) const {
    const std::size_t lanes =
        max_workers == 0 ? size() + 1 : std::min(max_workers, size() + 1);
    return std::max<std::size_t>(1, std::min(lanes, total));
}

void ThreadPool::enqueue(std::function<void()> task) {
    if (tls_pool == this) {
        WorkerQueue& q = *queues_[tls_worker_index];
        const std::lock_guard<std::mutex> lock(q.mutex);
        q.tasks.push_back(std::move(task));
    } else {
        const std::lock_guard<std::mutex> lock(inject_mutex_);
        inject_.push_back(std::move(task));
        tasks_injected_.fetch_add(1, std::memory_order_relaxed);
        const auto depth = static_cast<std::uint64_t>(inject_.size());
        std::uint64_t prev = max_inject_depth_.load(std::memory_order_relaxed);
        while (prev < depth && !max_inject_depth_.compare_exchange_weak(
                                   prev, depth, std::memory_order_relaxed)) {
        }
    }
    work_cv_.notify_one();
}

bool ThreadPool::pop_task(std::size_t self, std::function<void()>& out,
                          TaskSource& source) {
    // Own deque first, newest task (LIFO: best cache locality)...
    if (self < queues_.size()) {
        WorkerQueue& q = *queues_[self];
        const std::lock_guard<std::mutex> lock(q.mutex);
        if (!q.tasks.empty()) {
            out = std::move(q.tasks.back());
            q.tasks.pop_back();
            source = TaskSource::Own;
            return true;
        }
    }
    // ...then the injection queue (FIFO)...
    {
        const std::lock_guard<std::mutex> lock(inject_mutex_);
        if (!inject_.empty()) {
            out = std::move(inject_.front());
            inject_.pop_front();
            source = TaskSource::Injected;
            return true;
        }
    }
    // ...then steal the oldest task of a sibling (FIFO: steals grab the
    // largest remaining work items first under recursive splits).
    for (std::size_t k = 1; k <= queues_.size(); ++k) {
        const std::size_t victim = (self + k) % queues_.size();
        WorkerQueue& q = *queues_[victim];
        const std::lock_guard<std::mutex> lock(q.mutex);
        if (!q.tasks.empty()) {
            out = std::move(q.tasks.front());
            q.tasks.pop_front();
            source = TaskSource::Stolen;
            return true;
        }
    }
    return false;
}

void ThreadPool::run_task(std::size_t self,
                          const std::function<void()>& task) {
    // Counted before task() runs: a TaskGroup task releases its group
    // inside task(), and wait() must not return one task short.
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
    const auto start = std::chrono::steady_clock::now();
    task();
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    if (self < queues_.size()) {
        queues_[self]->busy_ns.fetch_add(ns, std::memory_order_relaxed);
    } else {
        helper_busy_ns_.fetch_add(ns, std::memory_order_relaxed);
    }
}

bool ThreadPool::try_execute_one() {
    std::function<void()> task;
    const std::size_t self =
        tls_pool == this ? tls_worker_index : queues_.size();
    TaskSource source = TaskSource::Own;
    if (!pop_task(self, task, source)) return false;
    if (source == TaskSource::Stolen) {
        tasks_stolen_.fetch_add(1, std::memory_order_relaxed);
    }
    run_task(self, task);
    return true;
}

void ThreadPool::worker_loop(std::size_t index) {
    tls_pool = this;
    tls_worker_index = index;
    for (;;) {
        std::function<void()> task;
        TaskSource source = TaskSource::Own;
        if (pop_task(index, task, source)) {
            if (source == TaskSource::Stolen) {
                tasks_stolen_.fetch_add(1, std::memory_order_relaxed);
            }
            run_task(index, task);
            continue;
        }
        std::unique_lock<std::mutex> lock(sleep_mutex_);
        if (stopping_) return;
        // Re-check queues under the sleep lock is not possible (queues
        // have their own locks), so sleep with a timeout: a task
        // enqueued between the failed pop and the wait is picked up at
        // the latest after one tick.
        work_cv_.wait_for(lock, std::chrono::milliseconds(1));
        if (stopping_) return;
    }
}

void ThreadPool::TaskGroup::run(std::function<void()> fn) {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++pending_;
    }
    pool_->enqueue([this, fn = std::move(fn)] {
        try {
            if (pool_->cancel_requested()) {
                // Drain path: skip the user function but keep the
                // completion bookkeeping below intact so wait() still
                // balances and returns.
                pool_->tasks_drained_.fetch_add(1,
                                                std::memory_order_relaxed);
            } else {
                FaultInjector::global().fire("pool.task");
                fn();
            }
        } catch (...) {
            const std::lock_guard<std::mutex> lock(mutex_);
            if (!first_exception_) first_exception_ = std::current_exception();
        }
        {
            // Notify while still holding the lock: the moment the lock
            // is released with pending_ == 0, the waiter may return and
            // destroy the group, so no member may be touched after.
            const std::lock_guard<std::mutex> lock(mutex_);
            if (--pending_ == 0) done_cv_.notify_all();
        }
    });
}

void ThreadPool::TaskGroup::wait() {
    for (;;) {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            if (pending_ == 0) break;
        }
        if (pool_->try_execute_one()) continue;
        // Nothing to steal: the remaining group tasks are running on
        // workers.  Sleep with a short timeout (a task of *this group*
        // may enqueue new tasks that we should help with).
        std::unique_lock<std::mutex> lock(mutex_);
        if (pending_ == 0) break;
        done_cv_.wait_for(lock, std::chrono::milliseconds(1));
    }
    std::exception_ptr ex;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        std::swap(ex, first_exception_);
    }
    if (ex) std::rethrow_exception(ex);
}

void ThreadPool::TaskGroup::wait_no_throw() noexcept {
    try {
        wait();
    } catch (...) {  // NOLINT(bugprone-empty-catch)
        // Destructor drain: the exception was already delivered to (or
        // abandoned by) the owner; completion is all that matters here.
    }
}

}  // namespace fastmon
