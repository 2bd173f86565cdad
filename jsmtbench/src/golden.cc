#include "golden.h"

#include <exception>
#include <fstream>
#include <memory>
#include <sstream>

#include "common/json.h"
#include "core/simulation.h"
#include "exec/task_pool.h"
#include "jvm/benchmarks.h"
#include "os/allocation/allocation.h"
#include "os/allocation/multi_core.h"

namespace jsmt::bench {

namespace {

/**
 * Allocation epoch of the 2-core golden runs. The baseline files do
 * not record it; it matches tests/golden_test.cpp.
 */
constexpr Cycle kGoldenEpoch = 20'000;

/** One mode of one baseline file: a single run to replay. */
struct GoldenCase
{
    std::string label;
    std::string benchmark;
    bool multi = false;
    bool hyperThreading = true;
    AllocPolicyKind policy = AllocPolicyKind::kStaticPin;
    std::uint32_t cores = 1;
    double scale = 0.0;
    std::uint64_t seed = 0;
    const json::Value* expected = nullptr;
};

/** @return the pinned value @p name of a replayed run. */
bool
actualValue(const std::string& name, const RunResult& events,
            const MultiRunResult* multi, std::uint64_t* out)
{
    if (multi != nullptr) {
        if (name == "alloc_epochs") {
            *out = multi->epochs;
            return true;
        }
        if (name == "alloc_migrations") {
            *out = multi->migrations;
            return true;
        }
        if (name == "alloc_steals") {
            *out = multi->steals;
            return true;
        }
    }
    const auto id = eventByName(name);
    if (!id)
        return false;
    *out = events.total(*id);
    return true;
}

/** Replay @p c; @return "" when every pinned total matches. */
std::string
replay(const GoldenCase& c)
{
    RunResult events;
    MultiRunResult multi;
    bool complete = false;
    if (c.multi) {
        MultiCoreConfig config;
        config.system.seed = c.seed;
        config.cores = c.cores;
        config.policy = c.policy;
        config.epochCycles = kGoldenEpoch;
        MultiCoreSystem system(config);
        MultiCoreSimulation sim(system);
        for (int copy = 0; copy < 2; ++copy) {
            WorkloadSpec spec;
            spec.benchmark = c.benchmark;
            spec.lengthScale = c.scale;
            sim.addProcess(spec);
        }
        multi = sim.run();
        complete = multi.allComplete && !multi.cancelled;
        events = multi.toRunResult();
    } else {
        SystemConfig config;
        config.hyperThreading = c.hyperThreading;
        config.seed = c.seed;
        Machine machine(config);
        Simulation sim(machine);
        WorkloadSpec spec;
        spec.benchmark = c.benchmark;
        spec.lengthScale = c.scale;
        sim.addProcess(spec);
        events = sim.run();
        complete = events.allComplete && !events.cancelled;
    }
    if (!complete)
        return c.label + ": run did not complete";
    for (const auto& [name, value] : c.expected->fields) {
        std::uint64_t actual = 0;
        if (!actualValue(name, events, c.multi ? &multi : nullptr,
                         &actual)) {
            return c.label + ": unknown pinned value '" + name +
                   "'";
        }
        if (!value.isNumber() || value.number != actual) {
            return c.label + ": " + name + " is " +
                   std::to_string(actual) + ", baseline " +
                   std::to_string(value.number);
        }
    }
    return "";
}

/**
 * Parse one baseline file into its replay cases.
 * @return "" on success, else the problem.
 */
std::string
loadBaseline(const std::string& path, const std::string& benchmark,
             bool multi, json::Value* root,
             std::vector<GoldenCase>* cases)
{
    std::ifstream in(path);
    if (!in)
        return path + ": missing baseline";
    std::stringstream text;
    text << in.rdbuf();
    if (!json::parse(text.str(), root) || !root->isObject())
        return path + ": not a JSON object";
    if (json::asString(root->field("benchmark")) != benchmark)
        return path + ": names another benchmark";
    const double scale = json::asReal(root->field("scale"));
    const json::Value* seed = root->field("seed");
    if (!(scale > 0.0) || seed == nullptr || !seed->isNumber())
        return path + ": no scale or seed";
    std::uint32_t cores = 1;
    if (multi) {
        cores = static_cast<std::uint32_t>(
            json::asNumber(root->field("cores")));
        if (cores < 2)
            return path + ": no core count";
    }
    std::size_t modes = 0;
    for (const auto& [name, value] : root->fields) {
        if (!value.isObject())
            continue;
        GoldenCase c;
        c.label = benchmark + (multi ? ".cores2/" : "/") + name;
        c.benchmark = benchmark;
        c.multi = multi;
        c.cores = cores;
        c.scale = scale;
        c.seed = seed->number;
        c.expected = &value;
        if (multi) {
            std::string policy = name;
            for (char& ch : policy) {
                if (ch == '_')
                    ch = '-';
            }
            const auto kind = allocPolicyFromName(policy);
            if (!kind)
                return path + ": unknown policy mode '" + name + "'";
            c.policy = *kind;
        } else if (name == "ht_off" || name == "ht_on") {
            c.hyperThreading = name == "ht_on";
        } else {
            return path + ": unknown mode '" + name + "'";
        }
        cases->push_back(std::move(c));
        ++modes;
    }
    if (modes == 0)
        return path + ": no modes";
    return "";
}

} // namespace

GoldenReport
checkGoldens(const std::string& golden_dir, std::size_t jobs)
{
    GoldenReport report;
    // Parsed baselines own the `expected` nodes the cases point at.
    std::vector<std::unique_ptr<json::Value>> roots;
    std::vector<GoldenCase> cases;
    for (const std::string& name : benchmarkNames()) {
        for (const bool multi : {false, true}) {
            const std::string path =
                golden_dir + "/" + name +
                (multi ? ".cores2.json" : ".json");
            roots.push_back(std::make_unique<json::Value>());
            const std::string problem = loadBaseline(
                path, name, multi, roots.back().get(), &cases);
            if (!problem.empty()) {
                ++report.ops;
                ++report.failed;
                report.problems.push_back(problem);
            }
        }
    }

    std::vector<std::string> problems(cases.size());
    exec::TaskPool pool(jobs);
    pool.parallelFor(cases.size(), [&](std::size_t i) {
        try {
            problems[i] = replay(cases[i]);
        } catch (const std::exception& error) {
            problems[i] = cases[i].label + ": " + error.what();
        }
    });
    for (const std::string& problem : problems) {
        ++report.ops;
        if (!problem.empty()) {
            ++report.failed;
            report.problems.push_back(problem);
        }
    }
    return report;
}

} // namespace jsmt::bench
