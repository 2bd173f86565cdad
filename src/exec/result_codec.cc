#include "exec/result_codec.h"

#include <charconv>
#include <cstring>
#include <limits>
#include <utility>

#include "common/json.h"

namespace jsmt::exec {

namespace {

void
appendNumber(std::string& out, std::uint64_t value)
{
    char digits[24];
    const auto end =
        std::to_chars(digits, digits + sizeof(digits), value).ptr;
    out.append(digits, end);
}

void
appendBool(std::string& out, bool value)
{
    out += value ? "true" : "false";
}

bool
allEventsZero(const RunResult& result)
{
    for (const auto& row : result.events) {
        for (const std::uint64_t count : row) {
            if (count != 0)
                return false;
        }
    }
    return true;
}

} // namespace

void
writeRunResultJson(std::string& out, const RunResult& result)
{
    out += "{\"cycles\":";
    appendNumber(out, result.cycles);
    out += ",\"allComplete\":";
    appendBool(out, result.allComplete);
    out += ",\"events\":[";
    if (!allEventsZero(result)) {
        for (ContextId ctx = 0; ctx < kNumContexts; ++ctx) {
            out += ctx > 0 ? ",[" : "[";
            for (std::size_t e = 0; e < kNumEventIds; ++e) {
                if (e > 0)
                    out += ',';
                appendNumber(out, result.events[ctx][e]);
            }
            out += ']';
        }
    }
    out += "],\"processes\":[";
    for (std::size_t i = 0; i < result.processes.size(); ++i) {
        const ProcessResult& pr = result.processes[i];
        out += i > 0 ? ",[" : "[";
        appendNumber(out, pr.pid);
        out += ',';
        json::appendEscaped(out, pr.benchmark);
        out += ',';
        appendBool(out, pr.complete);
        for (const std::uint64_t field :
             {pr.launchCycle, pr.completionCycle, pr.durationCycles,
              pr.gcRuns, pr.allocatedBytes}) {
            out += ',';
            appendNumber(out, field);
        }
        out += ']';
    }
    out += "]}";
}

bool
RecordReader::accept(std::string_view token)
{
    if (static_cast<std::size_t>(_end - _at) < token.size() ||
        std::memcmp(_at, token.data(), token.size()) != 0) {
        return false;
    }
    _at += token.size();
    return true;
}

void
RecordReader::skipSpace()
{
    while (_at < _end && (*_at == ' ' || *_at == '\n' ||
                          *_at == '\t' || *_at == '\r')) {
        ++_at;
    }
}

bool
RecordReader::atEnd()
{
    skipSpace();
    return _at == _end;
}

bool
RecordReader::string(std::string* out)
{
    if (_at == _end || *_at != '"')
        return false;
    const char* at = _at + 1;
    std::string text;
    for (;;) {
        const auto* quote = static_cast<const char*>(
            std::memchr(at, '"', static_cast<std::size_t>(_end - at)));
        if (quote == nullptr)
            return false;
        const auto* escape = static_cast<const char*>(std::memchr(
            at, '\\', static_cast<std::size_t>(quote - at)));
        if (escape == nullptr) {
            text.append(at, quote);
            at = quote + 1;
            break;
        }
        // The escaped character may itself be the quote memchr
        // found, so resume the scan just past it.
        text.append(at, escape);
        if (escape + 1 == _end ||
            (escape[1] != '"' && escape[1] != '\\')) {
            return false;
        }
        text.push_back(escape[1]);
        at = escape + 2;
    }
    *out = std::move(text);
    _at = at;
    return true;
}

bool
RecordReader::number(std::uint64_t* out)
{
    const auto [end, error] = std::from_chars(_at, _end, *out);
    if (error != std::errc())
        return false;
    _at = end;
    return true;
}

bool
RecordReader::boolean(bool* out)
{
    if (accept("true"))
        *out = true;
    else if (accept("false"))
        *out = false;
    else
        return false;
    return true;
}

bool
RecordReader::runResult(RunResult* out)
{
    *out = RunResult{};
    if (!accept("{\"cycles\":") || !number(&out->cycles) ||
        !accept(",\"allComplete\":") ||
        !boolean(&out->allComplete) || !accept(",\"events\":")) {
        return false;
    }
    // [] stands for an all-zero matrix; otherwise every row is
    // complete.
    std::size_t rows = 0;
    const bool events_ok = list([&] {
        if (rows == kNumContexts)
            return false;
        std::size_t columns = 0;
        auto& row = out->events[rows++];
        return list([&] {
            return columns < kNumEventIds &&
                   number(&row[columns++]);
        }) && columns == kNumEventIds;
    });
    if (!events_ok || (rows != 0 && rows != kNumContexts) ||
        !accept(",\"processes\":")) {
        return false;
    }
    const bool processes_ok = list([&] {
        ProcessResult pr;
        std::uint64_t pid = 0;
        if (!accept("[") || !number(&pid) ||
            pid > std::numeric_limits<ProcessId>::max() ||
            !accept(",") || !string(&pr.benchmark) || !accept(",") ||
            !boolean(&pr.complete)) {
            return false;
        }
        for (std::uint64_t* field :
             {&pr.launchCycle, &pr.completionCycle,
              &pr.durationCycles, &pr.gcRuns, &pr.allocatedBytes}) {
            if (!accept(",") || !number(field))
                return false;
        }
        if (!accept("]"))
            return false;
        pr.pid = static_cast<ProcessId>(pid);
        out->processes.push_back(std::move(pr));
        return true;
    });
    return processes_ok && accept("}");
}

} // namespace jsmt::exec
