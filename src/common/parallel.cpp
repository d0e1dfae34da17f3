#include "parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <chrono>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

#include "common/telemetry/telemetry.h"
#include "common/timer.h"

namespace permuq::common {

namespace {

/** Set while a thread executes pool chunks; nested run() calls from
 *  such a thread must execute inline rather than re-enter the pool. */
thread_local bool tls_in_pool_chunk = false;

int
default_num_threads()
{
    if (const char* env = std::getenv("PERMUQ_THREADS")) {
        int v = std::atoi(env);
        if (v >= 1)
            return v;
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

std::int64_t
steady_now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

struct ThreadPool::Impl
{
    std::mutex mutex;
    std::condition_variable job_cv;  ///< wakes workers on a new job
    std::condition_variable done_cv; ///< wakes the caller on completion

    // Job state; written by run() and read by workers under the mutex.
    // Workers snapshot (job_fn, job_chunks) while locked, then claim
    // chunk indices from the lock-free counter.
    std::uint64_t job_generation = 0;
    const std::function<void(std::int64_t)>* job_fn = nullptr;
    std::int64_t job_chunks = 0;
    std::atomic<std::int64_t> next_chunk{0};
    std::int64_t chunks_done = 0;
    /** Workers currently attached to the job. run() returns only once
     *  this drops to zero, so no woken worker can outlive the job it
     *  snapshotted and claim chunks of a later job's counter. */
    int active_workers = 0;
    std::exception_ptr first_error;
    /** Submission timestamp of the current job (telemetry only). */
    std::atomic<std::int64_t> job_submit_ns{0};

    bool stopping = false;
    std::vector<std::thread> workers;
};

ThreadPool::ThreadPool() : impl_(new Impl)
{
    num_threads_ = std::max(1, default_num_threads());
    spawn_workers(num_threads_ - 1);
}

ThreadPool::~ThreadPool()
{
    join_workers();
    delete impl_;
}

ThreadPool&
ThreadPool::instance()
{
    static ThreadPool pool;
    return pool;
}

void
ThreadPool::spawn_workers(int count)
{
    impl_->workers.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i)
        impl_->workers.emplace_back([this] { worker_loop(); });
}

void
ThreadPool::join_workers()
{
    {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        impl_->stopping = true;
    }
    impl_->job_cv.notify_all();
    for (auto& w : impl_->workers)
        w.join();
    impl_->workers.clear();
    impl_->stopping = false;
}

void
ThreadPool::set_num_threads(int n)
{
    n = std::max(1, n);
    if (n == num_threads_)
        return;
    join_workers();
    num_threads_ = n;
    spawn_workers(n - 1);
}

void
ThreadPool::worker_loop()
{
    std::uint64_t seen_generation = 0;
    for (;;) {
        const std::function<void(std::int64_t)>* fn = nullptr;
        std::int64_t chunks = 0;
        {
            std::unique_lock<std::mutex> lock(impl_->mutex);
            impl_->job_cv.wait(lock, [&] {
                return impl_->stopping ||
                       impl_->job_generation != seen_generation;
            });
            if (impl_->stopping)
                return;
            seen_generation = impl_->job_generation;
            fn = impl_->job_fn;
            chunks = impl_->job_chunks;
            // A worker that wakes after the caller already drained the
            // job sees job_fn == nullptr and goes back to sleep.
            if (fn != nullptr)
                ++impl_->active_workers;
        }
        if (fn != nullptr) {
            work_on_current_job(*fn, chunks);
            std::lock_guard<std::mutex> lock(impl_->mutex);
            if (--impl_->active_workers == 0)
                impl_->done_cv.notify_all();
        }
    }
}

void
ThreadPool::work_on_current_job(
    const std::function<void(std::int64_t)>& fn, std::int64_t chunks)
{
    tls_in_pool_chunk = true;
    // One enabled() read per job, not per chunk; recording costs a
    // clock read + two lock-free histogram updates per chunk when on.
    const bool record = telemetry::enabled();
    if (record) {
        static telemetry::Histogram& queue_wait = telemetry::histogram(
            "permuq.common.pool.queue_wait_us");
        const std::int64_t submit =
            impl_->job_submit_ns.load(std::memory_order_relaxed);
        queue_wait.record(
            static_cast<double>(steady_now_ns() - submit) / 1e3);
    }
    std::int64_t completed = 0;
    std::exception_ptr error;
    for (;;) {
        std::int64_t c = impl_->next_chunk.fetch_add(1);
        if (c >= chunks)
            break;
        if (record) {
            static telemetry::Histogram& exec = telemetry::histogram(
                "permuq.common.pool.chunk_exec_us");
            Timer t;
            try {
                fn(c);
            } catch (...) {
                if (!error)
                    error = std::current_exception();
            }
            exec.record(static_cast<double>(t.elapsed_ns()) / 1e3);
            ++completed;
            continue;
        }
        try {
            fn(c);
        } catch (...) {
            if (!error)
                error = std::current_exception();
        }
        ++completed;
    }
    tls_in_pool_chunk = false;
    if (completed > 0 || error) {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        impl_->chunks_done += completed;
        if (error && !impl_->first_error)
            impl_->first_error = error;
        if (impl_->chunks_done == impl_->job_chunks)
            impl_->done_cv.notify_all();
    }
}

void
ThreadPool::run(std::int64_t num_chunks,
                const std::function<void(std::int64_t)>& fn)
{
    if (num_chunks <= 0)
        return;
    // Serial paths: tiny jobs, a 1-thread pool, or a nested call from
    // inside a worker chunk (re-entering the pool would deadlock).
    if (num_chunks == 1 || num_threads_ == 1 || tls_in_pool_chunk) {
        bool nested = tls_in_pool_chunk;
        tls_in_pool_chunk = true;
        try {
            for (std::int64_t c = 0; c < num_chunks; ++c)
                fn(c);
        } catch (...) {
            tls_in_pool_chunk = nested;
            throw;
        }
        tls_in_pool_chunk = nested;
        return;
    }

    {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        impl_->job_fn = &fn;
        impl_->job_chunks = num_chunks;
        impl_->next_chunk.store(0);
        impl_->chunks_done = 0;
        impl_->first_error = nullptr;
        ++impl_->job_generation;
        if (telemetry::enabled()) {
            impl_->job_submit_ns.store(steady_now_ns(),
                                       std::memory_order_relaxed);
            telemetry::counter("permuq.common.pool.jobs").add();
        }
    }
    impl_->job_cv.notify_all();

    // The caller works too, then blocks until stragglers finish.
    work_on_current_job(fn, num_chunks);
    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(impl_->mutex);
        impl_->done_cv.wait(lock, [&] {
            return impl_->chunks_done == impl_->job_chunks &&
                   impl_->active_workers == 0;
        });
        impl_->job_fn = nullptr;
        error = impl_->first_error;
        impl_->first_error = nullptr;
    }
    if (error)
        std::rethrow_exception(error);
}

struct TaskQueue::Impl
{
    mutable std::mutex mutex;
    std::condition_variable task_cv; ///< wakes workers on a new task
    std::condition_variable idle_cv; ///< wakes stop() when drained
    std::deque<std::function<void()>> tasks;
    std::size_t running = 0;
    bool stopping = false;
    std::vector<std::thread> workers;
};

TaskQueue::TaskQueue(int workers, std::size_t max_pending)
    : impl_(new Impl),
      num_workers_(std::max(1, workers)),
      max_pending_(max_pending)
{
    impl_->workers.reserve(static_cast<std::size_t>(num_workers_));
    for (int i = 0; i < num_workers_; ++i)
        impl_->workers.emplace_back([this] {
            for (;;) {
                std::function<void()> task;
                {
                    std::unique_lock<std::mutex> lock(impl_->mutex);
                    impl_->task_cv.wait(lock, [&] {
                        return impl_->stopping || !impl_->tasks.empty();
                    });
                    if (impl_->tasks.empty()) // stopping and drained
                        return;
                    task = std::move(impl_->tasks.front());
                    impl_->tasks.pop_front();
                    ++impl_->running;
                }
                // Pin the nested-parallelism flag: anything the task
                // forks (parallel_for, parallel_reduce_sum) executes
                // inline, so concurrent tasks never race on the
                // fork-join pool's single job slot (see parallel.h).
                tls_in_pool_chunk = true;
                try {
                    task();
                } catch (...) {
                    // Tasks own their error reporting; a throw here
                    // must not take the worker down.
                }
                tls_in_pool_chunk = false;
                {
                    std::lock_guard<std::mutex> lock(impl_->mutex);
                    --impl_->running;
                    if (impl_->tasks.empty() && impl_->running == 0)
                        impl_->idle_cv.notify_all();
                }
            }
        });
}

TaskQueue::~TaskQueue()
{
    stop();
    delete impl_;
}

bool
TaskQueue::try_submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        if (impl_->stopping || impl_->tasks.size() >= max_pending_)
            return false;
        impl_->tasks.push_back(std::move(task));
    }
    impl_->task_cv.notify_one();
    return true;
}

std::size_t
TaskQueue::pending() const
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    return impl_->tasks.size();
}

void
TaskQueue::stop()
{
    {
        std::unique_lock<std::mutex> lock(impl_->mutex);
        if (impl_->stopping && impl_->workers.empty())
            return;
        impl_->stopping = true;
        impl_->idle_cv.wait(lock, [&] {
            return impl_->tasks.empty() && impl_->running == 0;
        });
    }
    impl_->task_cv.notify_all();
    for (auto& w : impl_->workers)
        w.join();
    impl_->workers.clear();
}

int
num_threads()
{
    return ThreadPool::instance().num_threads();
}

void
set_num_threads(int n)
{
    ThreadPool::instance().set_num_threads(n);
}

std::size_t
reduction_slices(std::size_t total, std::size_t min_grain)
{
    if (min_grain == 0)
        min_grain = 1;
    if (total <= min_grain)
        return 1;
    return std::min<std::size_t>(64, total / min_grain);
}

void
parallel_for(std::size_t begin, std::size_t end, std::size_t min_grain,
             const std::function<void(std::size_t, std::size_t)>& fn)
{
    const std::size_t total = end > begin ? end - begin : 0;
    if (total == 0)
        return;
    if (min_grain == 0)
        min_grain = 1;
    ThreadPool& pool = ThreadPool::instance();
    const std::size_t threads = static_cast<std::size_t>(pool.num_threads());
    if (threads == 1 || total < 2 * min_grain) {
        fn(begin, end);
        return;
    }
    // Contiguous chunks; a few per thread so a slow chunk can be
    // absorbed by idle threads without dynamic splitting.
    std::size_t chunks = std::min(threads * 4, total / min_grain);
    chunks = std::max<std::size_t>(1, chunks);
    pool.run(static_cast<std::int64_t>(chunks), [&](std::int64_t c) {
        const std::size_t b =
            begin + total * static_cast<std::size_t>(c) / chunks;
        const std::size_t e =
            begin + total * (static_cast<std::size_t>(c) + 1) / chunks;
        if (b < e)
            fn(b, e);
    });
}

void
parallel_tasks(std::int64_t num_tasks,
               const std::function<void(std::int64_t)>& fn)
{
    ThreadPool::instance().run(num_tasks, fn);
}

} // namespace permuq::common
