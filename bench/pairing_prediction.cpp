/**
 * @file
 * Validation of the paper's §5 finding: "trace cache miss rate can
 * be used to effectively predict the potential pairing performance"
 * of Java applications on Hyper-Threading processors.
 *
 * Protocol: measure every program's solo counter profile; measure a
 * training subset of pair combinations (the upper triangle); fit the
 * linear pairing model; predict the held-out lower triangle; report
 * prediction quality (Pearson/Spearman correlation, mean absolute
 * error) and the learned feature weights.
 */

#include <cmath>

#include "bench/bench_common.h"
#include "common/stats.h"
#include "harness/pairing_model.h"
#include "harness/solo.h"
#include "harness/table.h"
#include "jvm/benchmarks.h"

int
main(int argc, char** argv)
{
    using namespace jsmt;
    ExperimentConfig config = benchConfig(argc, argv, 0.35);
    banner("Pairing prediction from solo counters (paper SS5 "
           "claim)",
           config);

    const auto& names = singleThreadedNames();

    // Step 1: solo profiles.
    PairingPredictor predictor;
    for (const auto& name : names) {
        SoloOptions options;
        options.threads = 1;
        options.lengthScale = config.lengthScale;
        const RunResult solo =
            measureSolo(config.system, name, true, options);
        predictor.addProgram(
            name, PairingFeatures::fromRunResult(solo));
    }

    // Step 2: measure pairs; train on i <= j, hold out i > j.
    const PairMatrix matrix = runPairMatrix(config);
    std::vector<PairResult> train;
    std::vector<PairResult> holdout;
    for (std::size_t i = 0; i < names.size(); ++i) {
        for (std::size_t j = 0; j < names.size(); ++j)
            (i <= j ? train : holdout).push_back(matrix.at(i, j));
    }
    predictor.train(train);

    // Step 3: evaluate on the held-out cells.
    std::vector<double> predicted;
    std::vector<double> observed;
    double abs_error = 0.0;
    for (const PairResult& pair : holdout) {
        predicted.push_back(predictor.predict(pair.a, pair.b));
        observed.push_back(pair.combinedSpeedup);
        abs_error +=
            std::abs(predicted.back() - observed.back());
    }

    TextTable quality({"metric", "value"});
    quality.addRow({"held-out pairs",
                    std::to_string(holdout.size())});
    quality.addRow({"Pearson r",
                    TextTable::fmt(pearson(predicted, observed),
                                   3)});
    quality.addRow({"Spearman rho",
                    TextTable::fmt(spearman(predicted, observed),
                                   3)});
    quality.addRow(
        {"mean |error|",
         TextTable::fmt(abs_error /
                            static_cast<double>(holdout.size()),
                        3)});
    quality.print(std::cout);

    std::cout << "\nLearned weights (combined speedup vs summed "
                 "solo rates):\n";
    TextTable weights({"feature", "weight"});
    const char* feature_names[] = {"trace-cache misses /1K",
                                   "L1D misses /1K",
                                   "L2 misses /1K"};
    for (std::size_t i = 0; i < predictor.weights().size(); ++i) {
        weights.addRow({feature_names[i],
                        TextTable::fmt(predictor.weights()[i],
                                       4)});
    }
    weights.print(std::cout);
    std::cout << "\nPaper claim: the trace-cache term dominates "
                 "(most-negative impact\nper unit rate), so solo "
                 "trace-cache misses predict bad partners.\n";
    return 0;
}
