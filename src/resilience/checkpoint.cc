#include "resilience/checkpoint.h"

#include <atomic>
#include <fstream>
#include <map>
#include <utility>

#include "common/fileio.h"
#include "common/json.h"
#include "common/log.h"
#include "exec/result_codec.h"
#include "exec/run_cache.h"

namespace jsmt::resilience {

namespace {

/** Process-wide checkpoint totals (metrics export). */
std::atomic<std::uint64_t> g_entriesResumed{0};
std::atomic<std::uint64_t> g_flushes{0};
std::atomic<std::uint64_t> g_loadRejects{0};

/**
 * Digest of one entry: FNV over the serialized result. Stored as a
 * decimal string because a 64-bit hash does not round-trip through
 * a JSON double.
 */
std::string
resultDigest(const RunResult& result)
{
    std::string serialized;
    exec::writeRunResultJson(serialized, result);
    return std::to_string(exec::hashKey(serialized));
}

} // namespace

std::string
SweepCheckpoint::describeTopology(std::uint32_t cores,
                                  const std::string& alloc)
{
    // The step-threads field is schema documentation, not identity:
    // the stepping engine is bit-identical for every worker count,
    // so entries measured at any --step-threads are valid for any
    // other. "any" records that invariance explicitly in the
    // manifest (a hypothetical thread-count-dependent engine would
    // have to stamp a real value here and break resume).
    return "cores=" + std::to_string(cores) + ";alloc=" + alloc +
           ";step-threads=any";
}

std::string
SweepCheckpoint::normalizeTopology(const std::string& topology)
{
    // Identity comparison ignores the step-threads field (see
    // describeTopology): manifests written before the field existed
    // must keep resuming against runs that now stamp it.
    const std::size_t at = topology.find(";step-threads=");
    return at == std::string::npos ? topology
                                   : topology.substr(0, at);
}

SweepCheckpoint::SweepCheckpoint(std::string path,
                                 std::size_t flush_every,
                                 std::string topology)
    : _path(std::move(path)),
      _flushEvery(flush_every > 0 ? flush_every : 1),
      _topology(std::move(topology))
{
    loadExisting();
}

SweepCheckpoint::~SweepCheckpoint()
{
    std::lock_guard<std::mutex> lock(_mutex);
    if (_pending > 0)
        flushLocked();
}

const FaultPlan&
SweepCheckpoint::plan() const
{
    return _faultPlan != nullptr ? *_faultPlan
                                 : FaultPlan::global();
}

void
SweepCheckpoint::setFaultPlan(const FaultPlan* plan)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _faultPlan = plan;
}

bool
SweepCheckpoint::loadExisting()
{
    std::string text;
    if (!readFile(_path, &text))
        return false; // No manifest yet: cold start, not an error.

    // All-or-nothing: a manifest that fails to parse, or whose
    // digests disagree with its payloads, is rejected wholesale. A
    // partially trusted checkpoint could silently skip points that
    // were never actually simulated.
    const auto reject = [&] {
        warn("checkpoint: ignoring invalid manifest " + _path +
             " (starting cold)");
        g_loadRejects.fetch_add(1, std::memory_order_relaxed);
        return false;
    };
    std::string manifest_topology;
    std::map<std::string, RunResult> decoded;
    exec::RecordReader in(text);
    const bool ok =
        in.accept(exec::kVersionHeader) &&
        in.accept("\"topology\":") &&
        in.string(&manifest_topology) &&
        in.accept(",\"entries\":") && in.list([&] {
            std::string key;
            std::string digest;
            RunResult value;
            if (!in.accept("{\"key\":") || !in.string(&key) ||
                key.empty() || !in.accept(",\"digest\":") ||
                !in.string(&digest) || !in.accept(",\"result\":") ||
                !in.runResult(&value) || !in.accept("}") ||
                resultDigest(value) != digest) {
                return false;
            }
            decoded.emplace(std::move(key), std::move(value));
            return true;
        }) &&
        in.accept("}") && in.atEnd();
    if (!ok)
        return reject();

    if (!_topology.empty() &&
        normalizeTopology(_topology) !=
            normalizeTopology(manifest_topology)) {
        std::lock_guard<std::mutex> lock(_mutex);
        _manifestTopology = manifest_topology;
        _topologyMismatch = true;
        warn("checkpoint: manifest " + _path +
             " records topology '" + manifest_topology +
             "' but this run is '" + _topology +
             "'; refusing to mix entries");
        return false;
    }

    std::lock_guard<std::mutex> lock(_mutex);
    _manifestTopology = manifest_topology;
    _entries.merge(decoded);
    _resumed = _entries.size();
    g_entriesResumed.fetch_add(_resumed,
                               std::memory_order_relaxed);
    return true;
}

bool
SweepCheckpoint::lookup(const std::string& key,
                        RunResult* out) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    const auto it = _entries.find(key);
    if (it == _entries.end())
        return false;
    if (out != nullptr)
        *out = it->second;
    return true;
}

void
SweepCheckpoint::record(const std::string& key,
                        const RunResult& result)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _entries[key] = result;
    if (++_pending >= _flushEvery)
        flushLocked();
}

bool
SweepCheckpoint::flush()
{
    std::lock_guard<std::mutex> lock(_mutex);
    return flushLocked();
}

bool
SweepCheckpoint::flushLocked()
{
    std::string effective_topology = _topology;
    if (effective_topology.empty())
        effective_topology = _manifestTopology.empty()
                                 ? kDefaultTopology
                                 : _manifestTopology;
    // Version 2 is the record layout of exec/result_codec.h; the
    // loader rejects any other version.
    std::string out(exec::kVersionHeader);
    out += "\"topology\":";
    json::appendEscaped(out, effective_topology);
    out += ",\"entries\":[\n";
    {
        bool first = true;
        for (const auto& [key, result] : _entries) {
            if (!first)
                out += ",\n";
            first = false;
            out += "{\"key\":";
            json::appendEscaped(out, key);
            out += ",\"digest\":";
            json::appendEscaped(out, resultDigest(result));
            out += ",\"result\":";
            exec::writeRunResultJson(out, result);
            out += '}';
        }
    }
    out += "\n]}\n";

    const FaultPlan& fault_plan = plan();
    const FaultPlan::SpillFault fault =
        fault_plan.spillFault(fault_plan.nextSpillOrdinal());
    if (fault == FaultPlan::SpillFault::kTruncate) {
        // Injected crash mid-flush: truncated .tmp, no rename —
        // the previous manifest stays valid and the entries stay
        // pending for the next flush.
        std::ofstream tmp(atomicTempPath(_path), std::ios::trunc);
        tmp << out.substr(0, out.size() / 2);
        warn("checkpoint: injected crash mid-flush of " + _path);
        return false;
    }
    if (!atomicWriteFile(_path, out))
        return false;
    if (fault == FaultPlan::SpillFault::kCorrupt) {
        std::ofstream file(_path, std::ios::in | std::ios::out);
        file.seekp(static_cast<std::streamoff>(out.size() / 2));
        file << "\x01garbage\x02";
        warn("checkpoint: injected corruption into " + _path);
    }
    _pending = 0;
    g_flushes.fetch_add(1, std::memory_order_relaxed);
    return true;
}

std::size_t
SweepCheckpoint::size() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _entries.size();
}

std::uint64_t
SweepCheckpoint::totalEntriesResumed()
{
    return g_entriesResumed.load(std::memory_order_relaxed);
}

std::uint64_t
SweepCheckpoint::totalFlushes()
{
    return g_flushes.load(std::memory_order_relaxed);
}

std::uint64_t
SweepCheckpoint::totalLoadRejects()
{
    return g_loadRejects.load(std::memory_order_relaxed);
}

} // namespace jsmt::resilience
