/**
 * @file
 * Tests for the Machine facade: component wiring, mode switching,
 * one-pass construction and address-space allocation.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/machine.h"
#include "core/simulation.h"
#include "exec/result_codec.h"
#include "os/allocation/multi_core.h"

namespace jsmt {
namespace {

TEST(Machine, BootsWithConfiguredHtMode)
{
    SystemConfig on;
    on.hyperThreading = true;
    Machine machine_on(on);
    EXPECT_TRUE(machine_on.hyperThreading());
    EXPECT_EQ(machine_on.scheduler().numContexts(), 2u);
    EXPECT_TRUE(machine_on.mem().itlb().partitioned());

    SystemConfig off;
    off.hyperThreading = false;
    Machine machine_off(off);
    EXPECT_FALSE(machine_off.hyperThreading());
    EXPECT_EQ(machine_off.scheduler().numContexts(), 1u);
    EXPECT_FALSE(machine_off.mem().itlb().partitioned());
}

TEST(Machine, HtSwitchPropagatesEverywhere)
{
    SystemConfig config;
    Machine machine(config);
    machine.setHyperThreading(false);
    EXPECT_FALSE(machine.hyperThreading());
    EXPECT_EQ(machine.scheduler().numContexts(), 1u);
    EXPECT_FALSE(machine.mem().itlb().partitioned());
    machine.setHyperThreading(true);
    EXPECT_TRUE(machine.hyperThreading());
    EXPECT_EQ(machine.scheduler().numContexts(), 2u);
    EXPECT_TRUE(machine.mem().itlb().partitioned());
}

/** Run a small two-process workload and encode its full result. */
std::string
encodedRun(Machine& machine)
{
    Simulation sim(machine);
    for (const char* name : {"jess", "db"}) {
        WorkloadSpec spec;
        spec.benchmark = name;
        spec.lengthScale = 0.02;
        sim.addProcess(spec);
    }
    std::string out;
    exec::writeRunResultJson(out, sim.run());
    return out;
}

TEST(Machine, BuiltInModeMatchesModeSwitchedMachine)
{
    // A machine is built once, in its configured mode. It must
    // simulate exactly like a machine switched into that mode
    // afterwards (the former construction path), from either mode.
    for (const bool ht : {false, true}) {
        SCOPED_TRACE(ht ? "HT on" : "HT off");
        SystemConfig config;
        config.hyperThreading = ht;
        Machine built(config);
        const std::string expected = encodedRun(built);

        SystemConfig other = config;
        other.hyperThreading = !ht;
        Machine toggled(other);
        toggled.setHyperThreading(ht);
        EXPECT_EQ(encodedRun(toggled), expected);

        Machine reset_twice(config);
        reset_twice.setHyperThreading(ht);
        EXPECT_EQ(encodedRun(reset_twice), expected);
    }
}

TEST(Machine, OnlyASingleCoreMachineOwnsAnL2)
{
    SystemConfig config;
    Machine solo(config);
    EXPECT_TRUE(solo.mem().ownsL2());

    // Slices of a chip share one L2 and build none of their own.
    MultiCoreConfig chip;
    chip.cores = 2;
    MultiCoreSystem system(chip);
    for (CoreId core = 0; core < chip.cores; ++core) {
        EXPECT_FALSE(system.machine(core).mem().ownsL2());
        EXPECT_EQ(&system.machine(core).mem().l2(), system.sharedL2());
    }
}

TEST(Machine, AsidsAreUniqueAndNonKernel)
{
    SystemConfig config;
    Machine machine(config);
    const Asid first = machine.allocateAsid();
    const Asid second = machine.allocateAsid();
    EXPECT_NE(first, kKernelAsid);
    EXPECT_NE(second, kKernelAsid);
    EXPECT_NE(first, second);
}

TEST(Machine, ConfigIsPreserved)
{
    SystemConfig config;
    config.mem.l2Bytes = 2 * 1024 * 1024;
    config.seed = 77;
    Machine machine(config);
    EXPECT_EQ(machine.config().mem.l2Bytes, 2u * 1024 * 1024);
    EXPECT_EQ(machine.config().seed, 77u);
    EXPECT_EQ(machine.mem().l2().config().sizeBytes,
              2u * 1024 * 1024);
}

TEST(Machine, PmuStartsClean)
{
    SystemConfig config;
    Machine machine(config);
    for (std::size_t e = 0; e < kNumEventIds; ++e) {
        EXPECT_EQ(machine.pmu().rawTotal(static_cast<EventId>(e)),
                  0u);
    }
}

} // namespace
} // namespace jsmt
