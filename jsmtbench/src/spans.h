/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * A span brackets one call into a jsmt layer made by the benchmark
 * itself (Simulation::run, harness::runPairMatrix, RunCache::save,
 * ...). Spans are named `<layer>.<call>`, nest through a parent
 * index, and share the run id of the round that opened them. They
 * stay in memory until the round ends; nothing is recorded inside
 * the simulator.
 */

#ifndef JSMT_BENCH_SPANS_H
#define JSMT_BENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace jsmt::bench {

/** @return user+sys CPU seconds of this process, every thread. */
double processCpuSeconds();

/** One timed call. Times are seconds since the recorder's epoch. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    /** Index of the enclosing span, or -1 for a root. */
    int parent = -1;
    std::uint64_t runId = 0;
    /** Process CPU seconds (every thread) consumed meanwhile. */
    double cpu = 0.0;
};

/** Records spans of one traced round (single-threaded use). */
class SpanRecorder
{
  public:
    explicit SpanRecorder(std::uint64_t run_id);

    /** Open a span nested in the innermost open one. */
    int open(const char* name);

    /** Close the span @p index returned by open(). */
    void close(int index);

    const std::vector<Span>& spans() const { return _spans; }

    /** @return summed duration of every span named @p name. */
    double total(const std::string& name) const;

    /** @return summed CPU seconds of every span named @p name. */
    double cpuTotal(const std::string& name) const;

    /** @return durations of every span named @p name, in order. */
    std::vector<double> durations(const std::string& name) const;

    /**
     * @return self time per layer (the name's prefix before the
     *         first '.'): each span's duration minus the part its
     *         direct children cover.
     */
    std::map<std::string, double> selfTimeByLayer() const;

    /** Write every span as a JSON array. */
    void writeJson(std::ostream& out) const;

  private:
    using Clock = std::chrono::steady_clock;

    double now() const;

    std::uint64_t _runId;
    Clock::time_point _epoch;
    std::vector<Span> _spans;
    std::vector<int> _open;
};

/**
 * Span guard tolerating a null recorder, so untraced rounds run the
 * same code with no clock reads.
 */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder* recorder, const char* name)
        : _recorder(recorder),
          _index(recorder != nullptr ? recorder->open(name) : -1)
    {
    }

    ~ScopedSpan()
    {
        if (_recorder != nullptr)
            _recorder->close(_index);
    }

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    SpanRecorder* _recorder;
    int _index;
};

} // namespace jsmt::bench

#endif // JSMT_BENCH_SPANS_H
