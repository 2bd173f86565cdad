#include "harness/multiprogram.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <utility>

#include "common/log.h"
#include "common/stats.h"
#include "core/simulation.h"
#include "exec/run_cache.h"
#include "harness/solo.h"

namespace jsmt {

double
droppedMean(const std::vector<double>& durations)
{
    if (durations.empty())
        return 0.0;
    if (durations.size() <= 2)
        return mean(durations);
    std::vector<double> middle(durations.begin() + 1,
                               durations.end() - 1);
    return mean(middle);
}

namespace {

/** Merge the standalone jobs knob into a supervision policy. */
resilience::SupervisorOptions
mergeJobs(resilience::SupervisorOptions supervision,
          std::size_t jobs)
{
    if (supervision.jobs == 0)
        supervision.jobs = jobs;
    return supervision;
}

} // namespace

MultiprogramRunner::MultiprogramRunner(
    const SystemConfig& config, double length_scale,
    std::size_t min_runs, std::size_t jobs,
    resilience::SupervisorOptions supervision)
    : _config(config),
      _lengthScale(length_scale),
      _minRuns(min_runs),
      _supervisor(mergeJobs(supervision, jobs))
{
    if (min_runs < 3)
        fatal("multiprogram: need at least 3 runs to drop "
              "first+last");
}

std::string
pairRunKey(const SystemConfig& ht_config, const std::string& a,
           const std::string& b, double length_scale,
           std::size_t min_runs)
{
    char scale[64];
    std::snprintf(scale, sizeof(scale), "%.17g", length_scale);
    std::string key = "pair|";
    key += exec::describeSystemConfig(ht_config);
    key += '|';
    key += a;
    key += '|';
    key += b;
    key += "|scale=";
    key += scale;
    key += "|runs=" + std::to_string(min_runs);
    return key;
}

double
MultiprogramRunner::soloDuration(
    const std::string& benchmark,
    const resilience::CancellationToken* cancel)
{
    SoloOptions options;
    options.threads = 1;
    options.lengthScale = _lengthScale;
    options.cancel = cancel;
    return soloDurationCyclesCached(_config, benchmark,
                                    /*hyper_threading=*/false,
                                    options);
}

void
MultiprogramRunner::prefetchSolos(
    const std::vector<std::string>& all_names)
{
    std::vector<std::string> names;
    for (const std::string& name : all_names) {
        if (std::find(names.begin(), names.end(), name) ==
            names.end()) {
            names.push_back(name);
        }
    }
    // Supervised so one flaky baseline retries instead of failing
    // the whole prefetch; a baseline that still fails is re-tried
    // inline by the pair that needs it (and reported there).
    _supervisor.run(
        names.size(),
        [&](std::size_t i) { return "solo/" + names[i]; },
        [&](resilience::TaskContext& ctx) {
            soloDuration(names[ctx.index], ctx.token);
        });
}

PairResult
MultiprogramRunner::runPair(
    const std::string& a, const std::string& b,
    const resilience::CancellationToken* cancel)
{
    const double solo_a = soloDuration(a, cancel);
    const double solo_b = soloDuration(b, cancel);
    SystemConfig cfg = _config;
    cfg.hyperThreading = true;
    const RunResult record = exec::RunCache::global().getOrCompute(
        pairRunKey(cfg, a, b, _lengthScale, _minRuns), [&] {
            return coRun(cfg, a, b, solo_a + solo_b, cancel);
        });
    return pairFromRecord(a, b, solo_a, solo_b, record);
}

RunResult
MultiprogramRunner::coRun(
    const SystemConfig& ht_config, const std::string& a,
    const std::string& b, double solo_cycles,
    const resilience::CancellationToken* cancel) const
{
    Machine machine(ht_config);
    Simulation sim(machine);

    std::array<WorkloadSpec, 2> specs;
    specs[0].benchmark = a;
    specs[0].threads = 1;
    specs[0].lengthScale = _lengthScale;
    specs[1].benchmark = b;
    specs[1].threads = 1;
    specs[1].lengthScale = _lengthScale;

    std::map<ProcessId, int> slot_of;
    std::array<std::vector<Cycle>, 2> durations;
    for (int slot = 0; slot < 2; ++slot) {
        JavaProcess& process = sim.addProcess(specs[slot]);
        slot_of[process.pid()] = slot;
    }

    Simulation::RunOptions options;
    options.maxCycles = static_cast<Cycle>(
        solo_cycles * static_cast<double>(_minRuns) * 6.0 +
        20'000'000.0);
    options.onProcessExit = [&](Simulation& s, JavaProcess& p) {
        const int slot = slot_of.at(p.pid());
        durations[slot].push_back(p.durationCycles());
        if (durations[0].size() >= _minRuns &&
            durations[1].size() >= _minRuns) {
            return false; // Both measured: stop the experiment.
        }
        // Relaunch the finished program so both keep co-running.
        JavaProcess& next = s.addProcess(specs[slot]);
        slot_of[next.pid()] = slot;
        return true;
    };
    options.cancellation = cancel;
    const RunResult run = sim.run(options);
    if (run.cancelled) {
        throw resilience::TaskCancelledError(
            "co-run of '" + a + "'+'" + b +
            "' cancelled (deadline or external cancel)");
    }

    RunResult record;
    record.cycles = run.cycles;
    record.allComplete = true;
    for (int slot = 0; slot < 2; ++slot) {
        const std::vector<Cycle>& done = durations[slot];
        // droppedMean keeps the middle completions, or all of them
        // when there are too few to drop any.
        const std::size_t drop = done.size() > 2 ? 1 : 0;
        Cycle kept_sum = 0;
        for (std::size_t i = drop; i + drop < done.size(); ++i)
            kept_sum += done[i];
        ProcessResult slot_record;
        slot_record.pid = static_cast<ProcessId>(slot);
        slot_record.benchmark = specs[slot].benchmark;
        slot_record.complete = done.size() >= _minRuns;
        slot_record.completionCycle = done.size();
        slot_record.durationCycles = kept_sum;
        record.allComplete = record.allComplete && slot_record.complete;
        record.processes.push_back(std::move(slot_record));
    }
    return record;
}

PairResult
MultiprogramRunner::pairFromRecord(const std::string& a,
                                   const std::string& b,
                                   double solo_a, double solo_b,
                                   const RunResult& record) const
{
    if (record.processes.size() != 2)
        fatal("multiprogram: malformed co-run record for " + a +
              "+" + b);
    if (!record.allComplete) {
        warn("multiprogram: pair " + a + "+" + b +
             " hit the cycle budget before " +
             std::to_string(_minRuns) + " completions");
    }

    PairResult result;
    result.a = a;
    result.b = b;
    result.soloA = solo_a;
    result.soloB = solo_b;
    result.coRunCycles = static_cast<double>(record.cycles);
    std::array<double, 2> means{};
    std::array<std::size_t, 2> runs{};
    for (int slot = 0; slot < 2; ++slot) {
        const ProcessResult& pr = record.processes[slot];
        const std::size_t completions = pr.completionCycle;
        runs[slot] = completions > 2 ? completions - 2 : completions;
        if (runs[slot] > 0) {
            means[slot] = static_cast<double>(pr.durationCycles) /
                          static_cast<double>(runs[slot]);
        }
    }
    result.runsA = runs[0];
    result.runsB = runs[1];
    result.meanDurationA = means[0];
    result.meanDurationB = means[1];
    if (result.meanDurationA > 0.0)
        result.speedupA = result.soloA / result.meanDurationA;
    if (result.meanDurationB > 0.0)
        result.speedupB = result.soloB / result.meanDurationB;
    result.combinedSpeedup = result.speedupA + result.speedupB;
    return result;
}

std::vector<PairResult>
MultiprogramRunner::runPairs(
    const std::vector<std::pair<std::string, std::string>>& pairs,
    resilience::BatchReport* report)
{
    std::vector<std::string> names;
    names.reserve(pairs.size() * 2);
    for (const auto& [a, b] : pairs) {
        names.push_back(a);
        names.push_back(b);
    }
    prefetchSolos(names);

    if (verbose()) {
        inform("multiprogram: " + std::to_string(pairs.size()) +
               " pairs across " +
               std::to_string(_supervisor.jobs()) + " jobs");
    }
    std::vector<PairResult> results(pairs.size());
    resilience::BatchReport batch = _supervisor.run(
        pairs.size(),
        [&](std::size_t i) {
            return "pair/" + pairs[i].first + "+" + pairs[i].second;
        },
        [&](resilience::TaskContext& ctx) {
            results[ctx.index] =
                runPair(pairs[ctx.index].first,
                        pairs[ctx.index].second, ctx.token);
        });
    if (report != nullptr)
        *report = std::move(batch);
    else if (!batch.ok())
        fatal("multiprogram: " + batch.summary());
    return results;
}

std::vector<PairResult>
MultiprogramRunner::runCrossProduct(
    const std::vector<std::string>& names,
    resilience::BatchReport* report)
{
    std::vector<std::pair<std::string, std::string>> pairs;
    pairs.reserve(names.size() * names.size());
    for (const std::string& a : names) {
        for (const std::string& b : names)
            pairs.emplace_back(a, b);
    }
    return runPairs(pairs, report);
}

} // namespace jsmt
