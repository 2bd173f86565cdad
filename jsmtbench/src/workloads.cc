#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>
#include <utility>

#include "core/machine.h"
#include "core/simulation.h"
#include "exec/run_cache.h"
#include "exec/task_pool.h"
#include "harness/experiments.h"
#include "harness/pairing_model.h"
#include "harness/solo.h"
#include "jvm/benchmarks.h"
#include "os/allocation/multi_core.h"
#include "os/allocation/pair_matrix.h"
#include "resilience/supervisor.h"

namespace jsmt::bench {

namespace {

/** Seeds solo-sweep derives from the round seed. */
constexpr unsigned kSoloSeeds = 2;

/** Completions per program in a pair co-run (the paper's 12). */
constexpr std::size_t kPairMinRuns = 12;

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

/** Wall and process-CPU time of one interval. */
class Stopwatch
{
  public:
    Stopwatch() : _wall(Clock::now()), _cpu(processCpuSeconds()) {}

    double wall() const { return secondsSince(_wall); }
    double cpu() const { return processCpuSeconds() - _cpu; }

  private:
    Clock::time_point _wall;
    double _cpu;
};

/**
 * Run @p body as the next step of @p round, timing its wall and CPU
 * seconds. A round's steps follow each other with no gap, so their
 * sums are the round's wall and CPU time.
 */
template <typename Body>
void
step(RoundResult& round, Body&& body)
{
    const Stopwatch watch;
    body();
    const double wall = watch.wall();
    const double cpu = watch.cpu();
    round.stepWall.push_back(wall);
    round.stepCpu.push_back(cpu);
    round.wallSeconds += wall;
    round.cpuSeconds += cpu;
}

/** splitmix64: spreads nearby seeds over the whole seed space. */
std::uint64_t
mixSeed(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

WorkloadSpec
specFor(const std::string& benchmark, double scale)
{
    WorkloadSpec spec;
    spec.benchmark = benchmark;
    spec.lengthScale = scale;
    return spec;
}

void
fail(RoundResult& round, const std::string& problem)
{
    ++round.opsFailed;
    round.problems.push_back(problem);
}

// ------------------------------------------------------------------
// solo-sweep: every benchmark HT off and on, fresh machine each,
// over kSoloSeeds derived seeds. Single-threaded; exercises the
// single-core hot path and bypasses exec, harness and allocation.
// ------------------------------------------------------------------

RoundResult
soloSweep(const RoundParams& params, SpanRecorder* spans)
{
    RoundResult round;
    ScopedSpan root(spans, "bench.solo-sweep");
    for (unsigned s = 0; s < kSoloSeeds; ++s) {
        SystemConfig config;
        config.seed = mixSeed(params.seed * kSoloSeeds + s);
        for (const std::string& name : benchmarkNames()) {
            for (const bool ht : {false, true}) {
                config.hyperThreading = ht;
                // One step per op: build, run and tear down.
                step(round, [&] {
                    const auto setup_start = Clock::now();
                    std::unique_ptr<Machine> machine;
                    std::unique_ptr<Simulation> sim;
                    {
                        ScopedSpan span(spans, "core.setup");
                        machine = std::make_unique<Machine>(config);
                        sim = std::make_unique<Simulation>(*machine);
                        sim->addProcess(specFor(name, params.scale));
                    }
                    round.stepSetup.push_back(
                        secondsSince(setup_start));
                    if (spans != nullptr)
                        machine->core().setProfiler(&round.stages);
                    RunResult result;
                    {
                        ScopedSpan span(spans, "core.run");
                        result = sim->run();
                    }
                    ++round.ops;
                    if (!result.allComplete || result.cancelled) {
                        fail(round, name + (ht ? "/ht" : "/st") +
                                        ": run did not complete");
                    }
                    round.totals.addEvents(result);
                    round.fastForwardedCycles +=
                        machine->core().fastForwardedCycles();
                });
            }
        }
    }

    return round;
}

// ------------------------------------------------------------------
// paper-pairs: Fig 8 and Fig 9 (81-pair matrix each), Fig 11 (nine
// identical pairs), then the section 5 pairing-model fit. The run
// cache is spilled, cleared and reloaded between drivers, standing
// in for the process boundary between the real driver binaries.
// ------------------------------------------------------------------

/** Exec-layer counters gathered across one round's cache lives. */
struct CacheTally
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t entries = 0;
    std::uint64_t spillBytes = 0;
};

/**
 * Close one driver's cache life: save the spill, clear the cache and
 * load the spill back. @return false on an I/O failure.
 */
bool
crossProcessBoundary(const std::string& path, CacheTally& tally,
                     double& setup_seconds, SpanRecorder* spans)
{
    exec::RunCache& cache = exec::RunCache::global();
    tally.hits += cache.hits();
    tally.misses += cache.misses();
    tally.entries = cache.size();
    bool saved = false;
    {
        ScopedSpan span(spans, "exec.spill_save");
        saved = cache.save(path);
    }
    if (!saved)
        return false;
    std::error_code error;
    tally.spillBytes += std::filesystem::file_size(path, error);
    cache.clear();
    const auto load_start = Clock::now();
    bool loaded = false;
    {
        ScopedSpan span(spans, "exec.spill_load");
        loaded = cache.load(path);
    }
    setup_seconds += secondsSince(load_start);
    return loaded;
}

/** Check the completion counts of pair co-runs. */
void
checkPairs(RoundResult& round, const char* driver,
           const std::vector<PairResult>& pairs)
{
    for (const PairResult& pair : pairs) {
        ++round.ops;
        round.totals.corunCycles +=
            static_cast<std::uint64_t>(pair.coRunCycles);
        if (pair.runsA + 2 < kPairMinRuns ||
            pair.runsB + 2 < kPairMinRuns ||
            !(pair.combinedSpeedup > 0.0)) {
            fail(round, std::string(driver) + " " + pair.a + "+" +
                            pair.b + ": missed its completion count");
        }
    }
}

/** Sum each distinct program's HT-off solo baseline once. */
std::uint64_t
soloBaselineCycles(const std::vector<PairResult>& pairs)
{
    std::map<std::string, double> solos;
    for (const PairResult& pair : pairs) {
        solos.emplace(pair.a, pair.soloA);
        solos.emplace(pair.b, pair.soloB);
    }
    std::uint64_t sum = 0;
    for (const auto& [name, cycles] : solos)
        sum += static_cast<std::uint64_t>(cycles);
    return sum;
}

bool
samePair(const PairResult& x, const PairResult& y)
{
    return x.a == y.a && x.b == y.b &&
           x.combinedSpeedup == y.combinedSpeedup &&
           x.coRunCycles == y.coRunCycles &&
           x.meanDurationA == y.meanDurationA &&
           x.meanDurationB == y.meanDurationB;
}

RoundResult
paperPairs(const RoundParams& params, SpanRecorder* spans)
{
    RoundResult round;
    ExperimentConfig config;
    config.system.seed = params.seed;
    config.lengthScale = params.scale;
    config.pairMinRuns = kPairMinRuns;
    config.jobs = params.jobs;

    const std::vector<std::string>& names = singleThreadedNames();
    const std::string spill =
        params.scratchDir + "/paper-pairs.runcache.json";
    exec::RunCache& cache = exec::RunCache::global();
    cache.clear();
    CacheTally tally;
    const std::uint64_t tasks0 = exec::TaskPool::totalTasksRun();
    const std::uint64_t retries0 =
        resilience::Supervisor::totalRetries();
    const std::uint64_t failures0 =
        resilience::Supervisor::totalFailures();
    const std::uint64_t timeouts0 =
        resilience::Supervisor::totalTimeouts();

    const auto boundary = [&] {
        double load_seconds = 0.0;
        if (!crossProcessBoundary(spill, tally, load_seconds, spans)) {
            round.problems.push_back("run-cache spill round trip "
                                     "failed on " + spill);
        }
        round.stepSetup.push_back(load_seconds);
    };

    PairMatrix fig08;
    PairMatrix fig09;
    std::vector<IdenticalPairRow> fig11;
    ScopedSpan root(spans, "bench.paper-pairs");
    step(round, [&] {
        ScopedSpan span(spans, "harness.fig08");
        fig08 = runPairMatrix(config);
    });
    step(round, boundary);
    step(round, [&] {
        ScopedSpan span(spans, "harness.fig09");
        fig09 = runPairMatrix(config);
    });
    step(round, boundary);
    step(round, [&] {
        ScopedSpan span(spans, "harness.fig11");
        fig11 = runIdenticalPairs(config);
    });
    step(round, boundary);
    step(round, [&] {
        ScopedSpan span(spans, "harness.pairing");
        PairingPredictor predictor;
        for (const std::string& name : names) {
            SoloOptions options;
            options.threads = 1;
            options.lengthScale = params.scale;
            RunResult profile;
            {
                ScopedSpan solo(spans, "harness.profile");
                profile = measureSoloCached(config.system, name, true,
                                            options);
            }
            ++round.ops;
            if (!profile.allComplete || profile.cancelled)
                fail(round, "profile " + name + ": did not complete");
            round.totals.addEvents(profile);
            predictor.addProgram(
                name, PairingFeatures::fromRunResult(profile));
        }
        ScopedSpan fit(spans, "harness.fit");
        predictor.train(fig08.cells);
        for (const PairResult& pair : fig08.cells) {
            if (!std::isfinite(predictor.predict(pair.a, pair.b))) {
                round.problems.push_back("pairing model predicts a "
                                         "non-finite speedup");
                break;
            }
        }
    });
    tally.hits += cache.hits();
    tally.misses += cache.misses();
    tally.entries = std::max<std::uint64_t>(tally.entries,
                                            cache.size());
    cache.clear();
    std::error_code ignored;
    std::filesystem::remove(spill, ignored);

    checkPairs(round, "fig08", fig08.cells);
    checkPairs(round, "fig09", fig09.cells);
    std::vector<PairResult> identical;
    for (std::size_t i = 0; i < fig08.names.size(); ++i)
        identical.push_back(fig08.at(i, i));
    // Fig 9 repeats Fig 8's matrix and Fig 11 its diagonal; a
    // deterministic simulator must reproduce them exactly.
    for (std::size_t i = 0; i < fig08.cells.size(); ++i) {
        if (i >= fig09.cells.size() ||
            !samePair(fig08.cells[i], fig09.cells[i])) {
            fail(round, "fig09 cell " + std::to_string(i) +
                            " differs from fig08");
        }
    }
    if (fig11.size() != identical.size())
        fail(round, "fig11 returned the wrong number of rows");
    for (std::size_t i = 0;
         i < std::min(fig11.size(), identical.size()); ++i) {
        ++round.ops;
        round.totals.corunCycles +=
            static_cast<std::uint64_t>(identical[i].coRunCycles);
        if (fig11[i].benchmark != identical[i].a ||
            fig11[i].combinedSpeedup != identical[i].combinedSpeedup) {
            fail(round, "fig11 " + fig11[i].benchmark +
                            " differs from the fig08 diagonal");
        }
    }
    // The solo baselines are simulated once, in Fig 8; Fig 9 and
    // Fig 11 read them back from the reloaded run cache.
    round.totals.simCycles +=
        round.totals.corunCycles + soloBaselineCycles(fig08.cells);

    const double tasks = static_cast<double>(
        exec::TaskPool::totalTasksRun() - tasks0);
    round.counters["exec.tasks"] = tasks;
    round.counters["exec.cache_hits"] =
        static_cast<double>(tally.hits);
    round.counters["exec.cache_misses"] =
        static_cast<double>(tally.misses);
    round.counters["exec.cache_entries"] =
        static_cast<double>(tally.entries);
    round.counters["exec.spill_bytes"] =
        static_cast<double>(tally.spillBytes);
    round.counters["resilience.retries"] = static_cast<double>(
        resilience::Supervisor::totalRetries() - retries0);
    round.counters["resilience.failures"] = static_cast<double>(
        resilience::Supervisor::totalFailures() - failures0);
    round.counters["resilience.timeouts"] = static_cast<double>(
        resilience::Supervisor::totalTimeouts() - timeouts0);
    return round;
}

// ------------------------------------------------------------------
// chip-pairs: the 2-core 55-cell pair matrix under round-robin, then
// under ipc-symbiosis. The only workload that exercises os/allocation
// (epochs, migration, stealing) and the shared asid-indexed L2.
// ------------------------------------------------------------------

/**
 * Time building each cell's chip and launching its processes, the
 * way runPairMatrix builds them, through the same public classes.
 * runPairMatrix builds its cells inside the library, out of the
 * benchmark's reach, so this replica stands in for that set-up; see
 * README.md for what it does not see.
 */
double
probeChipSetup(const SystemConfig& system,
               const PairMatrixOptions& options)
{
    MultiCoreConfig chip;
    chip.system = system;
    chip.cores = options.cores;
    chip.policy = options.policy;
    const auto start = Clock::now();
    for (const auto& [a, b] : pairMatrixPairings(false)) {
        MultiCoreSystem cell(chip);
        MultiCoreSimulation sim(cell);
        for (std::uint32_t p = 0; p < 2 * options.cores; ++p)
            sim.addProcess(
                specFor(p % 2 == 0 ? a : b, options.lengthScale));
    }
    return secondsSince(start);
}

RoundResult
chipPairs(const RoundParams& params, SpanRecorder* spans)
{
    RoundResult round;
    SystemConfig system;
    system.seed = params.seed;
    PairMatrixOptions options;
    options.cores = 2;
    options.lengthScale = params.scale;
    options.jobs = params.jobs;
    options.stepThreads = 1;

    const std::pair<AllocPolicyKind, const char*> policies[] = {
        {AllocPolicyKind::kRoundRobin, "os.chip_rr"},
        {AllocPolicyKind::kIpcSymbiosis, "os.chip_sym"},
    };
    for (const auto& [policy, span_name] : policies) {
        options.policy = policy;
        round.stepSetup.push_back(probeChipSetup(system, options));
    }

    const std::uint64_t tasks0 = exec::TaskPool::totalTasksRun();
    std::vector<std::vector<PairMatrixCell>> results;
    ScopedSpan root(spans, "bench.chip-pairs");
    for (const auto& [policy, span_name] : policies) {
        options.policy = policy;
        step(round, [&] {
            ScopedSpan span(spans, span_name);
            results.push_back(runPairMatrix(system, options));
        });
    }

    for (const std::vector<PairMatrixCell>& cells : results) {
        for (const PairMatrixCell& cell : cells) {
            const MultiRunResult& result = cell.result;
            ++round.ops;
            if (!result.allComplete || result.cancelled) {
                fail(round, cell.a + "+" + cell.b +
                                ": chip cell did not complete");
            }
            round.totals.addEvents(result.toRunResult());
            round.totals.corunCycles += result.cycles;
            round.totals.allocEpochs += result.epochs;
            round.totals.allocMigrations += result.migrations;
            round.totals.allocSteals += result.steals;
        }
    }
    round.counters["exec.tasks"] = static_cast<double>(
        exec::TaskPool::totalTasksRun() - tasks0);
    return round;
}

} // namespace

void
SimTotals::addEvents(const RunResult& result)
{
    simCycles += result.cycles;
    simUops += result.total(EventId::kUopsRetired);
    l1dMiss += result.total(EventId::kL1dMiss);
    l2Miss += result.total(EventId::kL2Miss);
    tcMiss += result.total(EventId::kTraceCacheMiss);
    btbMiss += result.total(EventId::kBtbMiss);
    gcRuns += result.total(EventId::kGcRuns);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank =
        p / 100.0 * static_cast<double>(values.size() - 1);
    const auto low = static_cast<std::size_t>(rank);
    const std::size_t high = std::min(low + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(low);
    return values[low] + (values[high] - values[low]) * frac;
}

const std::vector<std::string>&
workloadNames()
{
    static const std::vector<std::string> kNames = {
        "solo-sweep", "paper-pairs", "chip-pairs"};
    return kNames;
}

double
defaultScale(const std::string& workload)
{
    // solo-sweep runs at the scale of a paper reproduction, where the
    // heavy allocators collect garbage. The pair workloads are scaled
    // down so that a run holds several rounds; see README.md.
    if (workload == "solo-sweep")
        return 0.5;
    if (workload == "paper-pairs")
        return 0.01;
    return 0.05;
}

RoundResult
runRound(const RoundParams& params, SpanRecorder* spans)
{
    if (params.workload == "solo-sweep")
        return soloSweep(params, spans);
    RoundResult round = params.workload == "paper-pairs"
                            ? paperPairs(params, spans)
                            : chipPairs(params, spans);
    round.jobs = params.jobs;
    return round;
}

std::map<std::string, double>
layerMetrics(const RoundResult& round, const SpanRecorder& spans)
{
    const auto counter = [&](const char* name) {
        const auto it = round.counters.find(name);
        return it != round.counters.end() ? it->second : 0.0;
    };
    std::map<std::string, double> m;

    // core / uarch / mem: Simulation::run calls and the stage
    // profile (solo-sweep; the other workloads reach the core only
    // through library drivers, so these read 0 there). The profile's
    // fetch/alloc time includes the memory walks made from inside
    // the stage; it is reported exclusive of them.
    const StageProfiler& stages = round.stages;
    const std::vector<double> runs = spans.durations("core.run");
    const double run_s = spans.total("core.run");
    const auto stepped = static_cast<double>(stages.cycles);
    const double all_cycles =
        stepped + static_cast<double>(round.fastForwardedCycles);
    const double staged = stages.retireSeconds +
                          stages.fetchAllocSeconds +
                          stages.accountSeconds +
                          stages.fastForwardSeconds;
    m["core.run_s"] = run_s;
    m["core.run_calls"] = static_cast<double>(runs.size());
    m["core.run_ms_p50"] = percentile(runs, 50.0) * 1e3;
    m["core.run_ms_p90"] = percentile(runs, 90.0) * 1e3;
    m["core.stepped_cycles"] = stepped;
    m["core.horizon_skip_pct"] =
        stepped > 0.0 ? 100.0 * (all_cycles - stepped) / all_cycles
                      : 0.0;
    m["core.ff_s"] = stages.fastForwardSeconds;
    m["core.driver_other_s"] = runs.empty() ? 0.0 : run_s - staged;
    m["core.ns_per_stepped_cycle"] =
        stepped > 0.0 ? run_s * 1e9 / stepped : 0.0;
    m["uarch.retire_s"] = stages.retireSeconds;
    m["uarch.fetch_alloc_s"] =
        stages.fetchAllocSeconds - stages.memorySeconds;
    m["uarch.account_s"] = stages.accountSeconds;
    m["mem.walk_s"] = stages.memorySeconds;

    // harness / exec / resilience (paper-pairs).
    m["harness.fig08_s"] = spans.total("harness.fig08");
    m["harness.fig09_s"] = spans.total("harness.fig09");
    m["harness.fig11_s"] = spans.total("harness.fig11");
    m["harness.pairing_s"] = spans.total("harness.pairing");
    const double hits = counter("exec.cache_hits");
    const double misses = counter("exec.cache_misses");
    m["exec.cache_hits"] = hits;
    m["exec.cache_misses"] = misses;
    m["exec.cache_hit_pct"] =
        hits + misses > 0.0 ? 100.0 * hits / (hits + misses) : 0.0;
    m["exec.cache_entries"] = counter("exec.cache_entries");
    m["exec.spill_save_s"] = spans.total("exec.spill_save");
    m["exec.spill_load_s"] = spans.total("exec.spill_load");
    m["exec.spill_bytes"] = counter("exec.spill_bytes");
    m["resilience.retries"] = counter("resilience.retries");
    m["resilience.failures"] = counter("resilience.failures");
    m["resilience.timeouts"] = counter("resilience.timeouts");

    // exec task pool: busy CPU over the pool-driven spans against
    // their wall time times the worker count.
    m["exec.tasks"] = counter("exec.tasks");
    double pool_wall = 0.0;
    double pool_cpu = 0.0;
    for (const char* name : {"harness.fig08", "harness.fig09",
                             "harness.fig11", "os.chip_rr",
                             "os.chip_sym"}) {
        pool_wall += spans.total(name);
        pool_cpu += spans.cpuTotal(name);
    }
    const auto jobs = static_cast<double>(round.jobs);
    m["exec.pool_util_pct"] =
        pool_wall > 0.0 && jobs > 0.0
            ? 100.0 * pool_cpu / (pool_wall * jobs)
            : 0.0;

    // os/allocation (chip-pairs).
    m["os.chip_rr_s"] = spans.total("os.chip_rr");
    m["os.chip_sym_s"] = spans.total("os.chip_sym");
    m["os.alloc_epochs"] =
        static_cast<double>(round.totals.allocEpochs);
    m["os.alloc_migrations"] =
        static_cast<double>(round.totals.allocMigrations);
    m["os.alloc_steals"] =
        static_cast<double>(round.totals.allocSteals);

    // Exact simulated totals (correctness, all workloads).
    m["core.sim_cycles"] = static_cast<double>(round.totals.simCycles);
    m["core.sim_uops"] = static_cast<double>(round.totals.simUops);
    m["harness.corun_mcycles"] =
        static_cast<double>(round.totals.corunCycles) / 1e6;
    m["mem.l1d_miss"] = static_cast<double>(round.totals.l1dMiss);
    m["mem.l2_miss"] = static_cast<double>(round.totals.l2Miss);
    m["mem.tc_miss"] = static_cast<double>(round.totals.tcMiss);
    m["branch.btb_miss"] = static_cast<double>(round.totals.btbMiss);
    m["jvm.gc_runs"] = static_cast<double>(round.totals.gcRuns);
    return m;
}

} // namespace jsmt::bench
