/**
 * @file
 * jsmt_bench: runs one named workload for a seed, checks the
 * simulated outputs, and prints every metric by name and unit.
 *
 *   jsmt_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *              [--repo-root <dir>] [--out-dir <dir>] [--scale <x>]
 *
 * Before any timed work it replays the committed golden runs. It
 * then repeats the workload's fixed work in rounds for about
 * --seconds and reports medians over the rounds. With --trace 0
 * the rounds are untraced and the end-to-end metrics are printed;
 * with --trace 1 untraced and traced rounds alternate, and the
 * per-layer metrics of the traced rounds are printed. The last line
 * of standard output is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * Exit status: 0 when every check passed, 1 when a check failed,
 * 2 on a usage error or a refused environment or build.
 */

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/log.h"
#include "golden.h"
#include "spans.h"
#include "workloads.h"

extern char** environ;

// The build file defines both; a build without them is not Release.
#ifndef JSMT_BENCH_BUILD_TYPE
#define JSMT_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef JSMT_BENCH_LTO
#define JSMT_BENCH_LTO "unknown"
#endif

namespace jsmt::bench {
namespace {

/** Unit of every metric the benchmark prints. */
const std::map<std::string, std::string>&
units()
{
    static const std::map<std::string, std::string> kUnits = {
        // End to end.
        {"wall_s", "s"},
        {"cpu_s", "s"},
        {"sim_mcycles_per_s", "Mcycles/s"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
        // Per layer.
        {"core.run_s", "s"},
        {"core.run_calls", "count"},
        {"core.run_ms_p50", "ms"},
        {"core.run_ms_p90", "ms"},
        {"core.stepped_cycles", "cycles"},
        {"core.horizon_skip_pct", "%"},
        {"core.ff_s", "s"},
        {"core.driver_other_s", "s"},
        {"core.ns_per_stepped_cycle", "ns"},
        {"uarch.retire_s", "s"},
        {"uarch.fetch_alloc_s", "s"},
        {"uarch.account_s", "s"},
        {"mem.walk_s", "s"},
        {"exec.cache_hits", "count"},
        {"exec.cache_misses", "count"},
        {"exec.cache_hit_pct", "%"},
        {"exec.cache_entries", "count"},
        {"exec.spill_save_s", "s"},
        {"exec.spill_load_s", "s"},
        {"exec.spill_bytes", "bytes"},
        {"exec.tasks", "count"},
        {"exec.pool_util_pct", "%"},
        {"harness.fig08_s", "s"},
        {"harness.fig09_s", "s"},
        {"harness.fig11_s", "s"},
        {"harness.pairing_s", "s"},
        {"resilience.retries", "count"},
        {"resilience.failures", "count"},
        {"resilience.timeouts", "count"},
        {"os.chip_rr_s", "s"},
        {"os.chip_sym_s", "s"},
        {"os.alloc_epochs", "count"},
        {"os.alloc_migrations", "count"},
        {"os.alloc_steals", "count"},
        {"core.sim_cycles", "cycles"},
        {"core.sim_uops", "count"},
        {"harness.corun_mcycles", "Mcycles"},
        {"mem.l1d_miss", "count"},
        {"mem.l2_miss", "count"},
        {"mem.tc_miss", "count"},
        {"branch.btb_miss", "count"},
        {"jvm.gc_runs", "count"},
        {"trace.spans", "count"},
        {"trace.overhead_pct", "%"},
    };
    return kUnits;
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string repoRoot = ".";
    std::string outDir = ".bench_build/out";
    double scale = 0.0;
};

[[noreturn]] void
usage(const std::string& problem)
{
    std::cerr << "jsmt_bench: " << problem << "\n"
              << "usage: jsmt_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--repo-root <dir>] "
                 "[--out-dir <dir>] [--scale <x>]\n";
    std::exit(2);
}

bool
parseUint(const std::string& text, std::uint64_t* out)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos ||
        text.size() > 19) {
        return false;
    }
    *out = std::stoull(text);
    return true;
}

bool
parsePositive(const std::string& text, double* out)
{
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0' || !std::isfinite(value) ||
        value <= 0.0) {
        return false;
    }
    *out = value;
    return true;
}

Options
parseArgs(int argc, char** argv)
{
    Options options;
    bool have_seed = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        std::uint64_t number = 0;
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed") {
            if (!parseUint(value, &options.seed))
                usage("--seed must be a whole number");
            have_seed = true;
        } else if (flag == "--seconds") {
            if (!parsePositive(value, &options.seconds))
                usage("--seconds must be positive");
        } else if (flag == "--trace") {
            if (!parseUint(value, &number) || number > 1)
                usage("--trace must be 0 or 1");
            options.trace = number == 1;
            have_trace = true;
        } else if (flag == "--repo-root") {
            options.repoRoot = value;
        } else if (flag == "--out-dir") {
            options.outDir = value;
        } else if (flag == "--scale") {
            if (!parsePositive(value, &options.scale))
                usage("--scale must be positive");
        } else {
            usage("unknown flag " + flag);
        }
    }
    const auto& names = workloadNames();
    if (std::find(names.begin(), names.end(), options.workload) ==
        names.end()) {
        usage("unknown workload '" + options.workload + "'");
    }
    if (!have_seed || options.seconds <= 0.0 || !have_trace)
        usage("--seed, --seconds and --trace are required");
    if (options.scale <= 0.0)
        options.scale = defaultScale(options.workload);
    return options;
}

/**
 * Refuse environment variables that change the simulated work or
 * its fan-out, so every number is measured on the same work.
 */
void
refuseWorkChangingEnvironment()
{
    static const char* const kExact[] = {
        "JSMT_RUN_CACHE", "JSMT_JOBS", "JSMT_FAULT_PLAN",
        "JSMT_TRACE", "JSMT_STEP_THREADS"};
    for (char** entry = environ; *entry != nullptr; ++entry) {
        const std::string setting = *entry;
        const std::string name = setting.substr(0, setting.find('='));
        bool refused = name.rfind("JSMT_TASK_", 0) == 0;
        for (const char* exact : kExact)
            refused = refused || name == exact;
        if (refused) {
            std::cerr << "jsmt_bench: refusing to run with " << name
                      << " set: it changes the measured work\n";
            std::exit(2);
        }
    }
}

double
median(const std::vector<double>& values)
{
    return percentile(values, 50.0);
}

/**
 * @return the sum over a round's steps of each step's median across
 *         @p rounds. A burst of host noise slows a few steps of a
 *         few rounds; per-step medians drop it where the median of
 *         whole-round totals would not.
 */
double
sumOfStepMedians(const std::vector<RoundResult>& rounds,
                 std::vector<double> RoundResult::* steps)
{
    double sum = 0.0;
    const std::size_t count = (rounds.front().*steps).size();
    for (std::size_t i = 0; i < count; ++i) {
        std::vector<double> values;
        for (const RoundResult& round : rounds)
            values.push_back((round.*steps)[i]);
        sum += median(values);
    }
    return sum;
}

/**
 * Return the heap the golden gate freed to the system and restart the
 * process's peak-RSS count from the current resident set, so that
 * peakRssMb() sees the workload's rounds and not the gate.
 * @return false when the kernel does not allow the reset.
 */
bool
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream clear_refs("/proc/self/clear_refs");
    clear_refs << "5";
    clear_refs.flush();
    return clear_refs.good();
}

/** @return VmHWM in MB, the peak resident set since resetPeakRss(). */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return std::nan("");
}

std::string
number(double value)
{
    char text[64];
    std::snprintf(text, sizeof(text), "%.17g", value);
    return text;
}

std::string
quoted(const std::string& text)
{
    std::string out;
    json::appendEscaped(out, text);
    return out;
}

std::string
totalsJson(const SimTotals& t)
{
    std::ostringstream out;
    out << "{\"sim_cycles\":" << t.simCycles
        << ",\"sim_uops\":" << t.simUops
        << ",\"corun_cycles\":" << t.corunCycles
        << ",\"l1d_miss\":" << t.l1dMiss
        << ",\"l2_miss\":" << t.l2Miss
        << ",\"tc_miss\":" << t.tcMiss
        << ",\"btb_miss\":" << t.btbMiss
        << ",\"gc_runs\":" << t.gcRuns
        << ",\"alloc_epochs\":" << t.allocEpochs
        << ",\"alloc_migrations\":" << t.allocMigrations
        << ",\"alloc_steals\":" << t.allocSteals << "}";
    return out.str();
}

/** Outcome of every round of the run. */
struct RunLog
{
    std::vector<RoundResult> untraced;
    std::vector<RoundResult> traced;
    std::vector<std::map<std::string, double>> layers;
    std::vector<std::unique_ptr<SpanRecorder>> spans;
};

/**
 * Repeat rounds for about @p seconds. Traced runs alternate an
 * untraced and a traced round, so the overhead compares rounds
 * measured side by side.
 */
RunLog
runRounds(const RoundParams& params, double seconds, bool trace)
{
    RunLog log;
    const auto start = std::chrono::steady_clock::now();
    const auto elapsed = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    // A new round starts only while the run would end nearer to
    // `seconds` with it than without it.
    std::uint64_t run_id = 0;
    double last = 0.0;
    do {
        const double round_start = elapsed();
        log.untraced.push_back(runRound(params, nullptr));
        if (trace) {
            log.spans.push_back(
                std::make_unique<SpanRecorder>(++run_id));
            log.traced.push_back(
                runRound(params, log.spans.back().get()));
            log.layers.push_back(
                layerMetrics(log.traced.back(), *log.spans.back()));
        }
        last = elapsed() - round_start;
    } while (elapsed() + 0.5 * last < seconds);
    return log;
}

/**
 * Count every round's ops and collect its problems. Determinism
 * cross-check: every round of the seed, traced or not, must
 * reproduce the first round's simulated totals and step sequence.
 */
void
crossCheck(const RunLog& log, std::uint64_t& ops, std::uint64_t& failed,
           std::vector<std::string>& problems)
{
    const RoundResult& first = log.untraced.front();
    std::size_t index = 0;
    for (const auto* rounds : {&log.untraced, &log.traced}) {
        for (const RoundResult& round : *rounds) {
            ops += round.ops;
            failed += round.opsFailed;
            for (const std::string& problem : round.problems)
                problems.push_back(problem);
            const std::string name = "round " + std::to_string(index);
            if (round.stepWall.size() != first.stepWall.size() ||
                round.stepSetup.size() != first.stepSetup.size()) {
                problems.push_back(name +
                                   " ran a different number of steps");
            }
            if (!(round.totals == first.totals)) {
                problems.push_back(name + " simulated totals differ: " +
                                   totalsJson(round.totals) + " vs " +
                                   totalsJson(first.totals));
            }
            std::cout << name << " traced=" << (rounds == &log.traced)
                      << " wall_s=" << number(round.wallSeconds)
                      << " cpu_s=" << number(round.cpuSeconds)
                      << " setup_s=" << number(std::accumulate(
                             round.stepSetup.begin(),
                             round.stepSetup.end(), 0.0))
                      << std::endl;
            ++index;
        }
    }
}

std::map<std::string, double>
endToEndMetrics(const RunLog& log)
{
    const std::vector<RoundResult>& rounds = log.untraced;
    const double wall = sumOfStepMedians(rounds, &RoundResult::stepWall);
    return {
        {"wall_s", wall},
        {"cpu_s", sumOfStepMedians(rounds, &RoundResult::stepCpu)},
        {"sim_mcycles_per_s",
         static_cast<double>(rounds.front().totals.simCycles) / 1e6 /
             wall},
        {"setup_s", sumOfStepMedians(rounds, &RoundResult::stepSetup)},
        {"peak_rss_mb", peakRssMb()},
    };
}

std::map<std::string, double>
perLayerMetrics(const RunLog& log)
{
    std::map<std::string, double> metrics;
    for (const auto& [name, value] : log.layers.front()) {
        std::vector<double> values;
        for (const auto& layer : log.layers)
            values.push_back(layer.at(name));
        metrics[name] = median(values);
    }
    std::vector<double> untraced_wall;
    std::vector<double> traced_wall;
    for (const RoundResult& round : log.untraced)
        untraced_wall.push_back(round.wallSeconds);
    for (const RoundResult& round : log.traced)
        traced_wall.push_back(round.wallSeconds);
    metrics["trace.spans"] =
        static_cast<double>(log.spans.back()->spans().size());
    metrics["trace.overhead_pct"] =
        100.0 * (median(traced_wall) - median(untraced_wall)) /
        median(untraced_wall);
    return metrics;
}

/** Write every traced round's spans and layer self times. */
bool
writeSpans(const RunLog& log, const std::string& path)
{
    std::ofstream out(path, std::ios::trunc);
    out << "{\"rounds\":[\n";
    for (std::size_t i = 0; i < log.spans.size(); ++i) {
        out << "{\"run\":" << i + 1 << ",\"self_s\":{";
        bool first = true;
        for (const auto& [layer, self] :
             log.spans[i]->selfTimeByLayer()) {
            out << (first ? "" : ",") << quoted(layer) << ":"
                << number(self);
            first = false;
        }
        out << "},\"spans\":";
        log.spans[i]->writeJson(out);
        out << "}" << (i + 1 < log.spans.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return out.good();
}

int
run(const Options& options)
{
    const std::string build_type = JSMT_BENCH_BUILD_TYPE;
    if (build_type != "Release") {
        std::cerr << "jsmt_bench: refusing to measure a '"
                  << build_type
                  << "' build; configure with "
                     "-DCMAKE_BUILD_TYPE=Release\n";
        return 2;
    }

    const unsigned host_cpus =
        std::max(1u, std::thread::hardware_concurrency());
    RoundParams params;
    params.workload = options.workload;
    params.seed = options.seed;
    params.scale = options.scale;
    params.jobs = options.workload == "solo-sweep"
                      ? 1
                      : std::min<std::size_t>(4, host_cpus);
    params.scratchDir = options.outDir + "/tmp";
    std::error_code error;
    std::filesystem::create_directories(params.scratchDir, error);
    if (error) {
        std::cerr << "jsmt_bench: cannot create " << params.scratchDir
                  << ": " << error.message() << "\n";
        return 2;
    }

    std::cout << "provenance {\"workload\":" << quoted(options.workload)
              << ",\"seed\":" << options.seed
              << ",\"scale\":" << number(options.scale)
              << ",\"seconds\":" << number(options.seconds)
              << ",\"trace\":" << (options.trace ? 1 : 0)
              << ",\"host_cpus\":" << host_cpus
              << ",\"jobs\":" << params.jobs
              << ",\"build_type\":" << quoted(build_type)
              << ",\"lto\":" << quoted(JSMT_BENCH_LTO) << "}"
              << std::endl;

    std::uint64_t ops = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;

    // Golden gate: exact replay of the committed baselines.
    const auto golden_start = std::chrono::steady_clock::now();
    const GoldenReport golden = checkGoldens(
        options.repoRoot + "/tests/golden",
        std::min<std::size_t>(4, host_cpus));
    ops += golden.ops;
    failed += golden.failed;
    for (const std::string& problem : golden.problems)
        problems.push_back("golden: " + problem);
    std::cout << "golden " << golden.ops - golden.failed << "/"
              << golden.ops << " runs match in "
              << number(std::chrono::duration<double>(
                            std::chrono::steady_clock::now() -
                            golden_start)
                            .count())
              << " s" << std::endl;
    if (!resetPeakRss()) {
        std::cerr << "jsmt_bench: cannot reset the peak resident set "
                     "through /proc/self/clear_refs\n";
        return 2;
    }

    const RunLog log =
        runRounds(params, options.seconds, options.trace);
    crossCheck(log, ops, failed, problems);
    std::cout << "totals " << totalsJson(log.untraced.front().totals)
              << std::endl;

    // Metrics are computed only from rounds that all checked out.
    std::map<std::string, double> metrics;
    if (problems.empty()) {
        metrics = options.trace ? perLayerMetrics(log)
                                : endToEndMetrics(log);
    }
    if (problems.empty() && options.trace) {
        const std::string path = options.outDir + "/spans-" +
                                 options.workload + "-" +
                                 std::to_string(options.seed) + ".json";
        if (writeSpans(log, path))
            std::cout << "spans written to " << path << std::endl;
        else
            problems.push_back("cannot write spans to " + path);
    }
    for (const auto& [name, value] : metrics) {
        if (!std::isfinite(value))
            problems.push_back("metric " + name + " is not finite");
    }
    if (!problems.empty())
        metrics.clear();

    for (const std::string& problem : problems)
        std::cerr << "jsmt_bench: FAILED " << problem << "\n";
    for (const auto& [name, value] : metrics) {
        std::cout << "metric " << name << " " << number(value) << " "
                  << units().at(name) << std::endl;
    }
    std::cout << "ops " << ops << " ops_failed " << failed
              << std::endl;

    const bool correct = problems.empty() && failed == 0;
    std::ostringstream line;
    line << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << ops << ", \"failed\": " << failed
         << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, value] : metrics) {
        line << (first ? "" : ", ") << quoted(name)
             << ": {\"value\": " << number(value)
             << ", \"unit\": " << quoted(units().at(name)) << "}";
        first = false;
    }
    line << "}}";
    std::cout << line.str() << std::endl;
    return correct ? 0 : 1;
}

} // namespace
} // namespace jsmt::bench

int
main(int argc, char** argv)
{
    using namespace jsmt::bench;
    refuseWorkChangingEnvironment();
    jsmt::setVerbose(false);
    // Fix glibc's mmap and trim thresholds. Left dynamic, they move
    // with the allocation history, which depends on which pool thread
    // ran which task; in trials without this, about one process in
    // eight read 2.5 times the usual set-up time.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 256 << 20);
    return run(parseArgs(argc, argv));
}
