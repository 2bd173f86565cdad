#include "exec/task_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>

#include "common/env.h"
#include "common/log.h"

namespace jsmt::exec {

namespace {

/** Process-wide execution totals (metrics export). */
std::atomic<std::uint64_t> g_totalTasks{0};
std::atomic<std::uint64_t> g_totalBatches{0};

} // namespace

std::uint64_t
TaskPool::totalTasksRun()
{
    return g_totalTasks.load(std::memory_order_relaxed);
}

std::uint64_t
TaskPool::totalBatchesRun()
{
    return g_totalBatches.load(std::memory_order_relaxed);
}

std::size_t
TaskPool::defaultJobs()
{
    // envUint warns and falls through on a malformed or
    // non-positive value, so a typo'd JSMT_JOBS can never silently
    // serialize (or over-subscribe) a sweep.
    const std::uint64_t n = envUint("JSMT_JOBS", 0, 1);
    if (n > 0)
        return static_cast<std::size_t>(n);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

std::size_t
TaskPool::resolveJobs(std::size_t requested)
{
    return requested > 0 ? requested : defaultJobs();
}

TaskPool::TaskPool(std::size_t jobs) : _jobs(resolveJobs(jobs))
{
    // The calling thread participates in every batch, so spawn one
    // worker fewer than the job count.
    for (std::size_t i = 1; i < _jobs; ++i)
        _workers.emplace_back([this] { workerLoop(); });
}

TaskPool::~TaskPool()
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _shutdown = true;
    }
    _wake.notify_all();
    for (std::thread& worker : _workers)
        worker.join();
}

void
TaskPool::workerLoop()
{
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(_mutex);
    for (;;) {
        _wake.wait(lock, [&] {
            return _shutdown || _generation != seen;
        });
        if (_shutdown)
            return;
        seen = _generation;
        lock.unlock();
        drainBatch(seen);
        lock.lock();
    }
}

void
TaskPool::drainBatch(std::uint64_t generation)
{
    for (;;) {
        const std::function<void(std::size_t)>* body = nullptr;
        std::size_t index = 0;
        {
            std::lock_guard<std::mutex> lock(_mutex);
            if (_generation != generation || _nextIndex >= _count)
                return;
            index = _nextIndex++;
            body = _body;
        }
        std::exception_ptr error;
        try {
            (*body)(index);
        } catch (...) {
            error = std::current_exception();
        }
        // Record the failure and the completion under one lock:
        // _finished must reach _count (and the waiter must be
        // woken) no matter what the task threw, or parallelFor's
        // completion wait would deadlock on a throwing batch.
        bool last = false;
        {
            std::lock_guard<std::mutex> lock(_mutex);
            if (error)
                _errors.push_back({index, std::move(error)});
            last = ++_finished == _count;
        }
        if (last)
            _batchDone.notify_all();
    }
}

void
TaskPool::throwBatchErrors(std::vector<TaskError>&& errors)
{
    if (errors.empty())
        return;
    std::sort(errors.begin(), errors.end(),
              [](const TaskError& a, const TaskError& b) {
                  return a.index < b.index;
              });
    std::string message =
        std::to_string(errors.size()) + " task(s) failed; first at "
        "index " + std::to_string(errors[0].index);
    try {
        std::rethrow_exception(errors[0].error);
    } catch (const std::exception& e) {
        message += std::string(": ") + e.what();
    } catch (...) {
        message += ": (non-standard exception)";
    }
    throw BatchError(std::move(message), std::move(errors));
}

void
TaskPool::parallelFor(std::size_t count,
                      const std::function<void(std::size_t)>& body)
{
    if (count == 0)
        return;
    g_totalBatches.fetch_add(1, std::memory_order_relaxed);
    g_totalTasks.fetch_add(count, std::memory_order_relaxed);
    if (_jobs == 1 || count == 1) {
        // Inline path: same all-tasks-run, all-errors-aggregated
        // semantics as the threaded path.
        std::vector<TaskError> errors;
        for (std::size_t i = 0; i < count; ++i) {
            try {
                body(i);
            } catch (...) {
                errors.push_back({i, std::current_exception()});
            }
        }
        throwBatchErrors(std::move(errors));
        return;
    }

    std::uint64_t generation = 0;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        if (_body != nullptr)
            fatal("TaskPool: nested parallelFor is not supported");
        _body = &body;
        _count = count;
        _nextIndex = 0;
        _finished = 0;
        _errors.clear();
        ++_generation;
        generation = _generation;
    }
    _wake.notify_all();

    drainBatch(generation);

    std::vector<TaskError> errors;
    {
        std::unique_lock<std::mutex> lock(_mutex);
        _batchDone.wait(lock, [&] { return _finished == _count; });
        _body = nullptr;
        errors.swap(_errors);
    }
    throwBatchErrors(std::move(errors));
}

} // namespace jsmt::exec
