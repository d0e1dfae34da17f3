/**
 * @file
 * Deterministic shared-memory parallelism for PermuQ's hot loops.
 *
 * Design rules (see DESIGN.md, "Simulator performance architecture"):
 *
 *  1. *Static, deterministic partitioning.* `parallel_for` splits an
 *     index range into contiguous chunks whose boundaries depend only
 *     on the range, never on the number of threads. Element-wise
 *     kernels therefore produce bit-identical results at any thread
 *     count.
 *
 *  2. *Fixed-order reductions.* `parallel_reduce_sum` always computes
 *     the same fixed set of partial sums (slice boundaries are a pure
 *     function of the range) and combines them in slice order on the
 *     calling thread, so floating-point sums are bit-reproducible
 *     regardless of thread count — including the 1-thread case, which
 *     runs the identical sliced algorithm.
 *
 *  3. *Nested calls degrade gracefully.* A `parallel_for` issued from
 *     inside a worker (e.g. a statevector kernel running inside a
 *     parallelized noise trajectory) executes inline on the calling
 *     thread instead of deadlocking on the pool.
 *
 * The pool is a lazily-created process-wide singleton. Its size
 * defaults to std::thread::hardware_concurrency() and can be
 * overridden by the PERMUQ_THREADS environment variable or at runtime
 * via set_num_threads() (tests use this to compare thread counts).
 */
#ifndef PERMUQ_COMMON_PARALLEL_H
#define PERMUQ_COMMON_PARALLEL_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace permuq::common {

/**
 * A minimal blocking fork-join pool. Work is expressed as a chunk
 * count plus a chunk function; idle workers grab chunk indices from a
 * shared atomic counter. Which thread runs which chunk is unspecified
 * — determinism must come from the chunk decomposition, which is why
 * callers go through parallel_for / parallel_reduce_sum below.
 */
class ThreadPool
{
  public:
    /** The process-wide pool (created on first use). */
    static ThreadPool& instance();

    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Configured thread count, including the caller (>= 1). */
    int num_threads() const { return num_threads_; }

    /**
     * Resize the pool to @p n threads (clamped to >= 1). Must not be
     * called concurrently with run(); intended for tests/benchmarks.
     */
    void set_num_threads(int n);

    /**
     * Execute fn(chunk) for every chunk in [0, num_chunks), blocking
     * until all chunks finish. The calling thread participates. Nested
     * calls (from inside a chunk) run all their chunks inline.
     * Exceptions thrown by @p fn are rethrown on the calling thread
     * (first one wins).
     */
    void run(std::int64_t num_chunks,
             const std::function<void(std::int64_t)>& fn);

  private:
    ThreadPool();

    void spawn_workers(int count);
    void join_workers();
    void worker_loop();
    void work_on_current_job(const std::function<void(std::int64_t)>& fn,
                             std::int64_t chunks);

    struct Impl;
    Impl* impl_;
    int num_threads_ = 1;
};

/**
 * A bounded multi-producer task queue with persistent worker threads —
 * the *async* sibling of the fork-join ThreadPool above, added for the
 * compile service (src/service). Where ThreadPool::run() is a blocking
 * barrier with a single job slot, TaskQueue accepts detached tasks from
 * any thread and executes them on its own workers.
 *
 * Interaction with the fork-join pool: a TaskQueue worker executes
 * every task with the nested-parallelism flag pinned (the same
 * mechanism that makes nested parallel_for calls run inline), so a
 * task that reaches parallel_for / parallel_reduce_sum executes it
 * serially instead of re-entering the single-job-slot ThreadPool from
 * many threads at once. Concurrency therefore comes from running many
 * tasks at once, not from parallelizing inside one task — the right
 * trade for a multi-tenant server, and safe by construction (the
 * fork-join pool's "one run() at a time" invariant is never
 * violated). PermuQ's compiles are thread-count invariant, so inlined
 * inner parallelism cannot change any compiled circuit.
 *
 * Admission control: the queue holds at most @p max_pending tasks that
 * have not yet started; try_submit() returns false instead of blocking
 * when the bound is hit, which is what lets a server turn overload
 * into a typed error instead of unbounded memory growth.
 */
class TaskQueue
{
  public:
    /** @p workers persistent threads (clamped to >= 1); at most
     *  @p max_pending tasks queued and not yet running. */
    TaskQueue(int workers, std::size_t max_pending);

    /** Drains and joins (equivalent to stop()). */
    ~TaskQueue();

    TaskQueue(const TaskQueue&) = delete;
    TaskQueue& operator=(const TaskQueue&) = delete;

    /**
     * Enqueue @p task unless the pending bound is hit or the queue is
     * stopping; false means the task was NOT accepted and will never
     * run. Tasks may be submitted from any thread. Exceptions escaping
     * a task are swallowed (tasks own their error reporting).
     */
    bool try_submit(std::function<void()> task);

    /** Tasks accepted but not yet started. */
    std::size_t pending() const;

    int num_workers() const { return num_workers_; }
    std::size_t max_pending() const { return max_pending_; }

    /**
     * Stop accepting new tasks, run every already-accepted task to
     * completion, and join the workers. Idempotent; must not be
     * called from inside a task.
     */
    void stop();

  private:
    struct Impl;
    Impl* impl_;
    int num_workers_ = 1;
    std::size_t max_pending_ = 0;
};

/** Thread count of the global pool. */
int num_threads();

/** Resize the global pool (tests/benchmarks; clamped to >= 1). */
void set_num_threads(int n);

/**
 * Number of reduction slices for a range of @p total elements with
 * minimum slice size @p min_grain. A pure function of its arguments
 * (never of the thread count) so that sliced reductions are
 * bit-reproducible at any parallelism level.
 */
std::size_t reduction_slices(std::size_t total, std::size_t min_grain);

/**
 * Invoke fn(chunk_begin, chunk_end) over a partition of [begin, end)
 * into contiguous chunks. Runs serially when the range is smaller than
 * 2 * min_grain or the pool has one thread. Chunk boundaries are a
 * function of the range and thread count; element-wise kernels are
 * thread-count-invariant regardless, since each element's computation
 * is independent of its chunk.
 */
void parallel_for(std::size_t begin, std::size_t end,
                  std::size_t min_grain,
                  const std::function<void(std::size_t, std::size_t)>& fn);

/**
 * Run fn(task) for every task in [0, num_tasks), one task per chunk
 * (for coarse-grained jobs such as noise trajectories).
 */
void parallel_tasks(std::int64_t num_tasks,
                    const std::function<void(std::int64_t)>& fn);

/**
 * Deterministic parallel sum: partition [begin, end) into
 * reduction_slices(end - begin, min_grain) fixed slices, compute
 * map_range(slice_begin, slice_end) -> T for each (in parallel), and
 * accumulate the partials in slice order. Bit-reproducible for any
 * thread count, including 1.
 */
template <typename T, typename MapRange>
T
parallel_reduce_sum(std::size_t begin, std::size_t end,
                    std::size_t min_grain, MapRange&& map_range)
{
    const std::size_t total = end - begin;
    if (total == 0)
        return T{};
    const std::size_t slices = reduction_slices(total, min_grain);
    if (slices == 1)
        return map_range(begin, end);
    std::vector<T> partial(slices, T{});
    ThreadPool::instance().run(
        static_cast<std::int64_t>(slices), [&](std::int64_t s) {
            const std::size_t b =
                begin + total * static_cast<std::size_t>(s) / slices;
            const std::size_t e =
                begin + total * (static_cast<std::size_t>(s) + 1) / slices;
            partial[static_cast<std::size_t>(s)] = map_range(b, e);
        });
    T sum{};
    for (const T& p : partial)
        sum += p;
    return sum;
}

} // namespace permuq::common

#endif // PERMUQ_COMMON_PARALLEL_H
