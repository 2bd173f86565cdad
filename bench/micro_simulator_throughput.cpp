/**
 * @file
 * Simulator-throughput benchmark.
 *
 * Default mode runs the paper's 9x9 single-threaded pair cross
 * product through the parallel experiment engine plus a serial
 * sweep of the ten-benchmark golden set (HT off and on, fresh
 * machine each — the single-core hot-path number the perf-smoke CI
 * job tracks) and prints a machine-readable one-line JSON summary
 * (simulated cycles, wall seconds, Mcycles/s, job count). With
 * `--out=FILE` the same JSON line is also written to FILE; the
 * committed BENCH_throughput.json baseline at the repo root is
 * regenerated that way and diffed by bench/check_throughput.py.
 * The pair cross product starts from an empty run cache, and the
 * bench exits 2 when JSMT_RUN_CACHE is set, so its Mcycles/s always
 * measure simulation rather than cache replay.
 *
 * `--micro` instead runs the google-benchmark microbenchmarks of
 * the simulator substrates (cache probes, synthetic streams,
 * end-to-end µops/s); remaining arguments are passed through to
 * google-benchmark.
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "common/log.h"
#include "common/rng.h"
#include "core/simulation.h"
#include "exec/run_cache.h"
#include "harness/multiprogram.h"
#include "jvm/benchmarks.h"
#include "jvm/code_walker.h"
#include "jvm/data_model.h"
#include "exec/thread_budget.h"
#include "mem/cache.h"
#include "os/allocation/multi_core.h"
#include "trace/trace_sink.h"

namespace {

using namespace jsmt;

void
BM_CacheAccess(benchmark::State& state)
{
    CacheConfig config;
    config.sizeBytes = 1024 * 1024;
    config.lineBytes = 64;
    config.ways = 8;
    Cache cache(config);
    Rng rng(7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(1, rng.below(4u << 20), 0));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_CodeWalker(benchmark::State& state)
{
    const WorkloadProfile& profile = benchmarkProfile("jack");
    CodeWalker walker(profile, Rng(3));
    for (auto _ : state)
        benchmark::DoNotOptimize(walker.nextLine());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CodeWalker);

void
BM_DataModel(benchmark::State& state)
{
    const WorkloadProfile& profile = benchmarkProfile("db");
    DataModel model(profile, Rng(5), 0, 2);
    for (auto _ : state)
        benchmark::DoNotOptimize(model.nextAddr());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DataModel);

void
BM_EndToEndSimulation(benchmark::State& state)
{
    setVerbose(false);
    for (auto _ : state) {
        SystemConfig config;
        Machine machine(config);
        Simulation sim(machine);
        WorkloadSpec spec;
        spec.benchmark = "compress";
        spec.threads = 1;
        spec.lengthScale = 0.05;
        sim.addProcess(spec);
        const RunResult result = sim.run();
        benchmark::DoNotOptimize(result.cycles);
        state.SetIterationTime(static_cast<double>(result.cycles));
        state.counters["sim_uops"] = benchmark::Counter(
            static_cast<double>(
                result.total(EventId::kUopsRetired)),
            benchmark::Counter::kIsRate);
    }
}
BENCHMARK(BM_EndToEndSimulation)->Unit(benchmark::kMillisecond);

/**
 * Wall seconds for one fixed solo run, optionally with a disabled
 * TraceSink attached — the configuration whose overhead the trace
 * layer promises to keep under 2%.
 */
double
soloRunSeconds(double scale, bool attach_disabled_sink)
{
    SystemConfig config;
    Machine machine(config);
    trace::TraceSink sink; // Constructed disabled.
    if (attach_disabled_sink)
        machine.setTraceSink(&sink);
    Simulation sim(machine);
    WorkloadSpec spec;
    spec.benchmark = "compress";
    spec.threads = 1;
    spec.lengthScale = scale;
    sim.addProcess(spec);
    const auto start = std::chrono::steady_clock::now();
    const RunResult result = sim.run();
    benchmark::DoNotOptimize(result.cycles);
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/**
 * Relative slowdown (percent) of a disabled-tracer run against a
 * tracer-free run; best-of-N on both sides to shed scheduler noise.
 */
double
traceOverheadPct(double scale)
{
    constexpr int kRepeats = 3;
    double off = 1e30;
    double disabled = 1e30;
    for (int i = 0; i < kRepeats; ++i) {
        off = std::min(off, soloRunSeconds(scale, false));
        disabled = std::min(disabled, soloRunSeconds(scale, true));
    }
    return off > 0.0 ? (disabled - off) / off * 100.0 : 0.0;
}

/**
 * Serial (one thread, one machine at a time) simulation throughput
 * over the golden set: every registered benchmark solo, HT off and
 * HT on, fresh machine per run — the same runs the golden-run suite
 * pins, at a bench-sized scale. The simulated cycle total is
 * deterministic; wall time measures the per-cycle hot path with no
 * outer-loop parallelism hiding it.
 */
double
goldenSetSerialThroughput(double scale, double* cycles_out)
{
    double cycles = 0.0;
    const auto start = std::chrono::steady_clock::now();
    for (const std::string& name : benchmarkNames()) {
        for (const bool ht : {false, true}) {
            SystemConfig config;
            config.hyperThreading = ht;
            config.seed = 42;
            Machine machine(config);
            Simulation sim(machine);
            WorkloadSpec spec;
            spec.benchmark = name;
            spec.lengthScale = scale;
            sim.addProcess(spec);
            const RunResult result = sim.run();
            cycles += static_cast<double>(result.cycles);
        }
    }
    const double wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    *cycles_out = cycles;
    return wall > 0.0 ? cycles / 1e6 / wall : 0.0;
}

/**
 * Wall seconds for one fixed 4-core chip run under the stepping
 * engine at @p step_threads workers, optionally with a disabled
 * TraceSink attached. The simulated chip cycles are returned via
 * @p cycles_out and are bit-identical for every thread count (that
 * is the engine's contract; check_throughput.py pins them).
 */
double
multiChipRunSeconds(double scale, std::uint32_t step_threads,
                    bool attach_disabled_sink, double* cycles_out)
{
    MultiCoreConfig config;
    config.system.seed = 42;
    config.cores = 4;
    config.policy = AllocPolicyKind::kRoundRobin;
    config.epochCycles = 50'000;
    MultiCoreSystem system(config);
    MultiCoreSimulation sim(system);
    const std::vector<std::string>& names = benchmarkNames();
    for (std::size_t p = 0; p < 8; ++p) {
        WorkloadSpec spec;
        spec.benchmark = names[p % names.size()];
        spec.lengthScale = scale;
        sim.addProcess(spec);
    }
    trace::TraceSink sink; // Constructed disabled.
    MultiCoreSimulation::RunOptions run;
    run.stepThreads = step_threads;
    if (attach_disabled_sink)
        run.trace = &sink;
    const auto start = std::chrono::steady_clock::now();
    const MultiRunResult result = sim.run(run);
    benchmark::DoNotOptimize(result.cycles);
    if (cycles_out != nullptr)
        *cycles_out = static_cast<double>(result.cycles);
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/**
 * Multi-core stepping-engine measurements: serial-reference chip
 * throughput, the 4-worker wall-clock scaling factor, and the
 * disabled-sink overhead of the multi-core path. Best-of-N on every
 * wall measurement. The thread budget is raised for the scaling
 * run so the worker pool is never silently clamped on a small CI
 * host; host_cpus is reported alongside so the checker only
 * enforces the scaling floor where the host can physically scale.
 */
void
multiCoreSteppingThroughput(double scale, double* cycles_out,
                            double* mcps_out, double* scaling_out,
                            double* overhead_pct_out)
{
    constexpr int kRepeats = 3;
    exec::ThreadBudget::instance().setCapacityForTest(16);
    double serial = 1e30;
    double parallel = 1e30;
    double traced = 1e30;
    double cycles = 0.0;
    for (int i = 0; i < kRepeats; ++i) {
        double run_cycles = 0.0;
        serial = std::min(
            serial, multiChipRunSeconds(scale, 1, false,
                                        &run_cycles));
        cycles = run_cycles;
        parallel = std::min(
            parallel, multiChipRunSeconds(scale, 4, false, nullptr));
        traced = std::min(
            traced, multiChipRunSeconds(scale, 1, true, nullptr));
    }
    exec::ThreadBudget::instance().setCapacityForTest(0);
    *cycles_out = cycles;
    *mcps_out = serial > 0.0 ? cycles / 1e6 / serial : 0.0;
    *scaling_out = parallel > 0.0 ? serial / parallel : 0.0;
    *overhead_pct_out =
        serial > 0.0 ? (traced - serial) / serial * 100.0 : 0.0;
}

int
runPairMatrixThroughput(int argc, char** argv,
                        const std::string& out_path)
{
    ExperimentConfig config =
        benchConfig(argc, argv, /*default_scale=*/0.05);
    banner("Simulator throughput (9x9 pair cross product)",
           config);

    const std::vector<std::string> names = singleThreadedNames();
    MultiprogramRunner runner(config.system, config.lengthScale,
                              config.pairMinRuns, config.jobs);

    // Pair co-runs and solo baselines are memoized; start cold so
    // the timed cross product simulates every cell.
    exec::RunCache::global().clear();
    const auto start = std::chrono::steady_clock::now();
    const std::vector<PairResult> cells =
        runner.runCrossProduct(names);
    const double wall_seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();

    double cycles = 0.0;
    for (const PairResult& cell : cells)
        cycles += cell.coRunCycles;
    const double mcycles_per_sec =
        wall_seconds > 0.0 ? cycles / 1e6 / wall_seconds : 0.0;

    double serial_cycles = 0.0;
    // Best-of-3 to shed host-scheduler noise: the serial number is
    // the regression-guarded one, so it should measure the hot path,
    // not a noisy neighbour.
    double serial_mcps = 0.0;
    for (int i = 0; i < 3; ++i) {
        serial_mcps = std::max(
            serial_mcps, goldenSetSerialThroughput(
                             config.lengthScale, &serial_cycles));
    }

    const double trace_overhead_pct =
        traceOverheadPct(config.lengthScale);

    double multicore_cycles = 0.0;
    double multicore_mcps = 0.0;
    double step_scaling_4t = 0.0;
    double multicore_trace_pct = 0.0;
    multiCoreSteppingThroughput(config.lengthScale,
                                &multicore_cycles, &multicore_mcps,
                                &step_scaling_4t,
                                &multicore_trace_pct);
    const unsigned host_cpus = std::thread::hardware_concurrency();

    char line[768];
    std::snprintf(line, sizeof(line),
                  "{\"bench\":\"simulator_throughput\","
                  "\"pairs\":%zu,\"pair_runs\":%zu,"
                  "\"scale\":%g,\"jobs\":%zu,"
                  "\"cycles\":%.0f,\"wall_seconds\":%.3f,"
                  "\"mcycles_per_sec\":%.2f,"
                  "\"serial_cycles\":%.0f,"
                  "\"serial_mcycles_per_sec\":%.2f,"
                  "\"trace_overhead_pct\":%.2f,"
                  "\"multicore_cycles\":%.0f,"
                  "\"multicore_mcycles_per_sec\":%.2f,"
                  "\"step_scaling_4t\":%.2f,"
                  "\"multicore_trace_overhead_pct\":%.2f,"
                  "\"host_cpus\":%u}\n",
                  cells.size(), config.pairMinRuns,
                  config.lengthScale, runner.jobs(), cycles,
                  wall_seconds, mcycles_per_sec, serial_cycles,
                  serial_mcps, trace_overhead_pct, multicore_cycles,
                  multicore_mcps, step_scaling_4t,
                  multicore_trace_pct, host_cpus);
    std::fputs(line, stdout);
    if (!out_path.empty()) {
        std::FILE* out = std::fopen(out_path.c_str(), "w");
        if (out == nullptr) {
            std::fprintf(stderr, "cannot write %s\n",
                         out_path.c_str());
            return 1;
        }
        std::fputs(line, out);
        std::fclose(out);
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    // `--micro` switches to the google-benchmark substrate micros;
    // everything after it is passed through to the library.
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--micro") == 0) {
            int bench_argc = argc - 1;
            for (int j = i; j < argc - 1; ++j)
                argv[j] = argv[j + 1];
            benchmark::Initialize(&bench_argc, argv);
            benchmark::RunSpecifiedBenchmarks();
            return 0;
        }
    }
    // A warm spill would turn the timed pair cross product into a
    // replay and the reported Mcycles/s into a cache-read rate.
    if (std::getenv("JSMT_RUN_CACHE") != nullptr) {
        std::fprintf(stderr,
                     "micro_simulator_throughput: unset "
                     "JSMT_RUN_CACHE; this bench times simulation, "
                     "not cache replay\n");
        return 2;
    }
    // `--out=FILE` (consumed here; benchConfig rejects unknown
    // flags) mirrors the JSON summary line into FILE.
    std::string out_path;
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--out=", 6) == 0)
            out_path = argv[i] + 6;
        else
            argv[kept++] = argv[i];
    }
    return runPairMatrixThroughput(kept, argv, out_path);
}
