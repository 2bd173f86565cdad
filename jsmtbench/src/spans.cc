#include "spans.h"

#include <cstdio>

#include <sys/resource.h>

#include "common/json.h"

namespace jsmt::bench {

double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

SpanRecorder::SpanRecorder(std::uint64_t run_id)
    : _runId(run_id), _epoch(Clock::now())
{
}

double
SpanRecorder::now() const
{
    return std::chrono::duration<double>(Clock::now() - _epoch)
        .count();
}

int
SpanRecorder::open(const char* name)
{
    Span span;
    span.name = name;
    span.parent = _open.empty() ? -1 : _open.back();
    span.runId = _runId;
    span.start = now();
    span.cpu = processCpuSeconds();
    _spans.push_back(std::move(span));
    const int index = static_cast<int>(_spans.size()) - 1;
    _open.push_back(index);
    return index;
}

void
SpanRecorder::close(int index)
{
    Span& span = _spans[static_cast<std::size_t>(index)];
    span.end = now();
    span.cpu = processCpuSeconds() - span.cpu;
    // Guards close in reverse order of opening.
    if (!_open.empty() && _open.back() == index)
        _open.pop_back();
}

double
SpanRecorder::total(const std::string& name) const
{
    double sum = 0.0;
    for (const Span& span : _spans) {
        if (span.name == name)
            sum += span.end - span.start;
    }
    return sum;
}

double
SpanRecorder::cpuTotal(const std::string& name) const
{
    double sum = 0.0;
    for (const Span& span : _spans) {
        if (span.name == name)
            sum += span.cpu;
    }
    return sum;
}

std::vector<double>
SpanRecorder::durations(const std::string& name) const
{
    std::vector<double> out;
    for (const Span& span : _spans) {
        if (span.name == name)
            out.push_back(span.end - span.start);
    }
    return out;
}

std::map<std::string, double>
SpanRecorder::selfTimeByLayer() const
{
    // Spans are opened by one thread, so siblings never overlap and
    // the children's coverage of a parent is the sum of their
    // durations.
    std::vector<double> self(_spans.size());
    for (std::size_t i = 0; i < _spans.size(); ++i)
        self[i] = _spans[i].end - _spans[i].start;
    for (const Span& span : _spans) {
        if (span.parent >= 0) {
            self[static_cast<std::size_t>(span.parent)] -=
                span.end - span.start;
        }
    }
    std::map<std::string, double> layers;
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const std::string& name = _spans[i].name;
        layers[name.substr(0, name.find('.'))] += self[i];
    }
    return layers;
}

void
SpanRecorder::writeJson(std::ostream& out) const
{
    out << "[\n";
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span& span = _spans[i];
        std::string name;
        json::appendEscaped(name, span.name);
        char line[256];
        std::snprintf(line, sizeof(line),
                      "{\"id\":%zu,\"name\":%s,\"start\":%.9f,"
                      "\"end\":%.9f,\"cpu\":%.9f,\"parent\":%d,"
                      "\"run\":%llu}",
                      i, name.c_str(), span.start, span.end,
                      span.cpu, span.parent,
                      static_cast<unsigned long long>(span.runId));
        out << line << (i + 1 < _spans.size() ? ",\n" : "\n");
    }
    out << "]";
}

} // namespace jsmt::bench
