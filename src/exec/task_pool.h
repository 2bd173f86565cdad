/**
 * @file
 * Parallel experiment execution: a fixed-size worker pool that fans
 * independent simulation tasks out over OS threads.
 *
 * Every experiment in the harness is a matrix of independent
 * measurements (benchmark x thread count x HT mode, plus the 9x9
 * multiprogrammed cross product), each of which builds its own
 * Machine from a shared SystemConfig. TaskPool::parallelFor runs
 * such a matrix with results collected by task *index*, so the
 * outcome is bit-identical regardless of the job count or the order
 * in which workers finish.
 *
 * The job count comes from (highest priority first) the explicit
 * constructor argument, the JSMT_JOBS environment variable, and
 * std::thread::hardware_concurrency().
 */

#ifndef JSMT_EXEC_TASK_POOL_H
#define JSMT_EXEC_TASK_POOL_H

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace jsmt::exec {

/** One failed task of a batch. */
struct TaskError
{
    /** Batch index the exception escaped from. */
    std::size_t index = 0;
    std::exception_ptr error;
};

/**
 * Thrown by TaskPool::parallelFor when any task threw: carries
 * every failure of the batch (ordered by task index), so a sweep
 * can report all failed configurations instead of only the first.
 * Derives from std::runtime_error with the first failure's message,
 * so callers that only care about "the batch failed" keep working.
 */
class BatchError : public std::runtime_error
{
  public:
    BatchError(std::string message, std::vector<TaskError> errors)
        : std::runtime_error(std::move(message)),
          _errors(std::move(errors))
    {
    }

    /** @return every task failure, ordered by batch index. */
    const std::vector<TaskError>& errors() const { return _errors; }

  private:
    std::vector<TaskError> _errors;
};

/**
 * A pool of worker threads executing indexed task batches.
 *
 * One batch runs at a time; parallelFor blocks until the batch is
 * done (the calling thread works on the batch too, so a pool of J
 * jobs uses J threads total, not J+1). Nested parallelFor calls on
 * the same pool are not supported.
 */
class TaskPool
{
  public:
    /**
     * @param jobs worker count; 0 resolves via JSMT_JOBS and then
     *        hardware_concurrency(). A pool of 1 job runs every
     *        batch inline on the calling thread.
     */
    explicit TaskPool(std::size_t jobs = 0);

    ~TaskPool();

    TaskPool(const TaskPool&) = delete;
    TaskPool& operator=(const TaskPool&) = delete;

    /** @return resolved job count. */
    std::size_t jobs() const { return _jobs; }

    /**
     * Run body(0) .. body(count-1) across the pool and wait for all
     * of them. Indices are claimed dynamically (cheap work
     * stealing), so long tasks do not serialize behind short ones.
     * Exceptions thrown by tasks never wedge the batch: every task
     * still runs, the completion wait still drains, and afterwards
     * a single BatchError carrying *all* captured failures (by task
     * index) is thrown here.
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t)>& body);

    /**
     * Convenience: materialize `make(i)` for i in [0, count) into a
     * vector indexed by i — the deterministic fan-out/collect shape
     * every experiment driver uses.
     */
    template <typename T, typename Make>
    std::vector<T>
    map(std::size_t count, Make&& make)
    {
        std::vector<T> results(count);
        parallelFor(count, [&](std::size_t i) {
            results[i] = make(i);
        });
        return results;
    }

    /** Job count from JSMT_JOBS, else hardware_concurrency(). */
    static std::size_t defaultJobs();

    /** @return @p requested if positive, else defaultJobs(). */
    static std::size_t resolveJobs(std::size_t requested);

    /**
     * @return tasks executed by every pool in this process so far
     * (metrics; monotonic, includes failed tasks).
     */
    static std::uint64_t totalTasksRun();

    /** @return batches (parallelFor calls) executed process-wide. */
    static std::uint64_t totalBatchesRun();

  private:
    void workerLoop();
    /**
     * Claim and run indices of the batch identified by
     * @p generation until none are left. Claims happen under
     * _mutex with the generation re-checked on every loop: a
     * worker that finishes the last task of batch N and loops
     * around while the caller is already setting up batch N+1
     * must bounce back to workerLoop's cv handshake instead of
     * leaking into the new batch without a happens-before edge.
     */
    void drainBatch(std::uint64_t generation);
    /** Throw a BatchError for @p errors (no-op when empty). */
    static void throwBatchErrors(std::vector<TaskError>&& errors);

    std::size_t _jobs;
    std::vector<std::thread> _workers;

    std::mutex _mutex;
    std::condition_variable _wake;
    std::condition_variable _batchDone;
    std::uint64_t _generation = 0;
    bool _shutdown = false;

    // State of the in-flight batch (valid while _body != nullptr;
    // all fields guarded by _mutex).
    const std::function<void(std::size_t)>* _body = nullptr;
    std::size_t _count = 0;
    std::size_t _nextIndex = 0;
    std::size_t _finished = 0;
    std::vector<TaskError> _errors;
};

} // namespace jsmt::exec

#endif // JSMT_EXEC_TASK_POOL_H
