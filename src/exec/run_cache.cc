#include "exec/run_cache.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "common/env.h"
#include "common/fileio.h"
#include "common/json.h"
#include "common/log.h"
#include "exec/result_codec.h"

namespace jsmt::exec {

namespace {

/** Process-wide spill health (metrics export). */
std::atomic<std::uint64_t> g_spillSaves{0};
std::atomic<std::uint64_t> g_spillSaveFailures{0};
std::atomic<std::uint64_t> g_spillLoadRejects{0};

} // namespace

RunCache::RunCache(const std::string& spill_path)
{
    setSpillPath(spill_path);
}

RunCache::~RunCache()
{
    std::lock_guard<std::mutex> lock(_mutex);
    if (!_spillPath.empty() && _dirty)
        save(_spillPath);
}

bool
RunCache::lookup(const std::string& key, RunResult* out) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    const auto it = _entries.find(key);
    if (it == _entries.end()) {
        ++_misses;
        return false;
    }
    ++_hits;
    if (out)
        *out = it->second;
    return true;
}

void
RunCache::insert(const std::string& key, const RunResult& result)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _entries[key] = result;
    _dirty = true;
}

RunResult
RunCache::getOrCompute(const std::string& key,
                       const std::function<RunResult()>& compute)
{
    RunResult result;
    if (lookup(key, &result))
        return result;
    result = compute();
    insert(key, result);
    return result;
}

void
RunCache::setSpillPath(const std::string& path)
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _spillPath = path;
    }
    load(path);
}

bool
RunCache::load(const std::string& path)
{
    std::string text;
    if (!readFile(path, &text)) {
        g_spillLoadRejects.fetch_add(1, std::memory_order_relaxed);
        return false;
    }

    // All-or-nothing: decode the whole document before touching the
    // cache, and reject the file outright when any entry is
    // malformed or its hash disagrees with its key. A spill
    // truncated mid-write (crash, full disk) must never half-load —
    // a cache silently missing entries would be indistinguishable
    // from one holding stale ones.
    const auto reject = [&] {
        warn("run-cache: ignoring malformed spill file " + path);
        g_spillLoadRejects.fetch_add(1, std::memory_order_relaxed);
        return false;
    };
    std::map<std::string, RunResult> decoded;
    RecordReader in(text);
    const bool ok =
        in.accept(kVersionHeader) && in.accept("\"entries\":") &&
        in.list([&] {
            std::string key;
            std::uint64_t hash = 0;
            RunResult value;
            if (!in.accept("{\"key\":") || !in.string(&key) ||
                key.empty() || !in.accept(",\"hash\":") ||
                !in.number(&hash) || hash != hashKey(key) ||
                !in.accept(",\"result\":") || !in.runResult(&value) ||
                !in.accept("}")) {
                return false;
            }
            decoded.emplace(std::move(key), std::move(value));
            return true;
        }) &&
        in.accept("}") && in.atEnd();
    if (!ok)
        return reject();

    std::lock_guard<std::mutex> lock(_mutex);
    _entries.merge(decoded);
    return true;
}

bool
RunCache::save(const std::string& path) const
{
    std::string out(kVersionHeader);
    out += "\"entries\":[\n";
    {
        bool first = true;
        for (const auto& [key, result] : _entries) {
            if (!first)
                out += ",\n";
            first = false;
            out += "{\"key\":";
            json::appendEscaped(out, key);
            out += ",\"hash\":" + std::to_string(hashKey(key));
            out += ",\"result\":";
            writeRunResultJson(out, result);
            out += '}';
        }
    }
    out += "\n]}\n";

    const resilience::FaultPlan& plan = faultPlan();
    const resilience::FaultPlan::SpillFault fault =
        plan.spillFault(plan.nextSpillOrdinal());
    if (fault == resilience::FaultPlan::SpillFault::kTruncate) {
        // Injected crash mid-write: the staged .tmp stops halfway
        // and the rename never happens — exactly what a power cut
        // between write() and rename() leaves behind. The live
        // spill (if any) must survive untouched.
        std::ofstream tmp(atomicTempPath(path), std::ios::trunc);
        tmp << out.substr(0, out.size() / 2);
        warn("run-cache: injected crash mid-save of " + path);
        g_spillSaveFailures.fetch_add(1,
                                      std::memory_order_relaxed);
        return false;
    }
    if (!atomicWriteFile(path, out)) {
        g_spillSaveFailures.fetch_add(1,
                                      std::memory_order_relaxed);
        return false;
    }
    if (fault == resilience::FaultPlan::SpillFault::kCorrupt) {
        // Injected bitrot: clobber bytes in the middle of the
        // now-published document. The next load must reject the
        // file wholesale and degrade to a cold cache.
        std::ofstream file(path, std::ios::in | std::ios::out);
        file.seekp(static_cast<std::streamoff>(out.size() / 2));
        file << "\x01garbage\x02";
        warn("run-cache: injected corruption into " + path);
    }
    g_spillSaves.fetch_add(1, std::memory_order_relaxed);
    return true;
}

void
RunCache::setFaultPlan(const resilience::FaultPlan* plan)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _faultPlan = plan;
}

const resilience::FaultPlan&
RunCache::faultPlan() const
{
    return _faultPlan != nullptr ? *_faultPlan
                                 : resilience::FaultPlan::global();
}

std::uint64_t
RunCache::totalSpillSaves()
{
    return g_spillSaves.load(std::memory_order_relaxed);
}

std::uint64_t
RunCache::totalSpillSaveFailures()
{
    return g_spillSaveFailures.load(std::memory_order_relaxed);
}

std::uint64_t
RunCache::totalSpillLoadRejects()
{
    return g_spillLoadRejects.load(std::memory_order_relaxed);
}

void
RunCache::clear()
{
    std::lock_guard<std::mutex> lock(_mutex);
    _entries.clear();
    _hits = 0;
    _misses = 0;
    _dirty = false;
}

std::size_t
RunCache::size() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _entries.size();
}

std::uint64_t
RunCache::hits() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _hits;
}

std::uint64_t
RunCache::misses() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _misses;
}

RunCache&
RunCache::global()
{
    static RunCache* cache = [] {
        auto* c = new RunCache();
        const std::string path = envPath("JSMT_RUN_CACHE");
        if (!path.empty())
            c->setSpillPath(path);
        // Spill at normal process exit; leaked on _exit/abort,
        // which only costs a cold cache next time.
        std::atexit([] {
            delete cache;
            cache = nullptr;
        });
        return c;
    }();
    if (!cache)
        fatal("run-cache: global() used after exit handlers ran");
    return *cache;
}

std::uint64_t
hashKey(const std::string& key)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL; // FNV offset basis.
    for (const unsigned char c : key) {
        hash ^= c;
        hash *= 0x100000001b3ULL; // FNV prime.
    }
    return hash;
}

std::string
describeSystemConfig(const SystemConfig& config)
{
    std::ostringstream out;
    const CoreConfig& core = config.core;
    const MemConfig& mem = config.mem;
    const BranchConfig& branch = config.branch;
    const OsConfig& os = config.os;
    out << "core=" << core.fetchAllocWidth << '/' << core.issueWidth
        << '/' << core.retireWidth << '/'
        << (core.partitionPolicy == PartitionPolicy::kDynamic
                ? "dyn"
                : "static")
        << '/' << core.robEntries << '/' << core.loadBufEntries
        << '/' << core.storeBufEntries << '/'
        << core.mispredictRedirectCycles << '/'
        << core.contextSwitchFlushCycles;
    out << ";mem=" << mem.traceCacheLines << '/'
        << mem.traceCacheWays << '/' << mem.uopsPerTraceLine << '/'
        << mem.l1dBytes << '/' << mem.l1dWays << '/' << mem.l2Bytes
        << '/' << mem.l2Ways << '/' << mem.lineBytes << '/'
        << mem.itlbEntries << '/' << mem.itlbWays << '/'
        << mem.dtlbEntries << '/' << mem.dtlbWays << '/'
        << mem.pageBytes << '/' << mem.l1dHitCycles << '/'
        << mem.l2HitCycles << '/' << mem.dramCycles << '/'
        << mem.pageWalkCycles << '/' << mem.traceBuildCycles << '/'
        << mem.fsbCyclesPerLine << '/' << mem.l2PortCycles;
    out << ";branch=" << branch.btb.entries << '/'
        << branch.btb.ways << '/' << branch.btbMissBubbleCycles
        << '/' << branch.mispredictRestartCycles;
    out << ";os=" << os.quantumCycles << '/'
        << os.contextSwitchUops << '/' << os.timerTickUops;
    out << ";ht=" << (config.hyperThreading ? 1 : 0);
    out << ";seed=" << config.seed;
    return out.str();
}

} // namespace jsmt::exec
