// Narrowing flags on the registered experiments: the runner builds the full
// grid and keeps the matching tasks at their original indices, so every
// narrowed point is byte-identical to the same point of the full sweep, a
// journal resumed under a different narrowing reports the right points, and
// a value the grid does not have is a setup error that lists the values.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "../bench/experiments.h"
#include "harness/registry.h"
#include "harness/runner.h"
#include "harness/sink.h"

namespace alps::harness {
namespace {

const Experiment& experiment(const std::string& name) {
    bench::register_all_experiments();
    const Experiment* e = ExperimentRegistry::instance().find(name);
    if (e == nullptr) throw std::logic_error("unregistered experiment " + name);
    return *e;
}

SweepOptions quick_options(std::vector<std::pair<std::string, std::string>> filters) {
    SweepOptions options;
    options.jobs = 2;
    options.quiet = true;
    options.filters = std::move(filters);
    return options;
}

/// `full` reduced to the points `narrowed` ran, re-aggregated.
SweepReport restricted_to(const SweepReport& full, const SweepReport& narrowed) {
    std::set<std::string> points;
    for (const TaskOutcome& t : narrowed.tasks) points.insert(t.point);
    SweepReport out;
    out.experiment = full.experiment;
    out.seed = full.seed;
    out.full_scale = full.full_scale;
    for (const TaskOutcome& t : full.tasks) {
        if (points.count(t.point) != 0) out.tasks.push_back(t);
    }
    aggregate_points(out);
    return out;
}

/// Runs `name` narrowed by `filters` and in full; the narrowed payload must
/// equal the full sweep's payload over the same points, byte for byte.
void expect_narrowed_points_match_full_sweep(
    const std::string& name, std::vector<std::pair<std::string, std::string>> filters,
    std::size_t expected_points) {
    const Experiment& e = experiment(name);
    const SweepReport narrowed = run_sweep(e, quick_options(std::move(filters)), nullptr);
    const SweepReport full = run_sweep(e, quick_options({}), nullptr);
    EXPECT_EQ(narrowed.task_errors, 0);
    EXPECT_EQ(narrowed.points.size(), expected_points);
    EXPECT_LT(narrowed.tasks.size(), full.tasks.size());
    EXPECT_EQ(report_to_json(narrowed, false).dump(2),
              report_to_json(restricted_to(full, narrowed), false).dump(2));
}

TEST(Narrowing, WebScaleSitesAndFlashCrowdPointsEqualFullSweep) {
    // check.sh's smoke command; "8.0" still selects flash_multiplier=8.
    expect_narrowed_points_match_full_sweep(
        "web_scale", {{"sites", "96"}, {"flash_multiplier", "8.0"}}, 5);
}

TEST(Narrowing, ManyCoreNcpusPointsEqualFullSweep) {
    expect_narrowed_points_match_full_sweep("many_core", {{"ncpus", "64"}}, 2);
}

TEST(Narrowing, PolicyZooKernelPolicyPointsEqualFullSweep) {
    expect_narrowed_points_match_full_sweep("policy_zoo", {{"policy", "lottery"}}, 4);
}

TEST(Narrowing, ShardedRunShardsPointsEqualFullSweep) {
    // Four policies x {serial, threaded} at 8 shards.
    expect_narrowed_points_match_full_sweep("sharded_run", {{"shards", "8"}}, 8);
}

TEST(Narrowing, PolicyZooSelectsTheStrideEngineRow) {
    const SweepReport report = run_sweep(experiment("policy_zoo"),
                                         quick_options({{"policy", "stride-engine"}}),
                                         nullptr);
    ASSERT_EQ(report.points.size(), 4u);
    for (const PointAggregate& p : report.points) {
        EXPECT_EQ(p.point.rfind("stride-engine/", 0), 0u) << p.point;
    }
}

TEST(Narrowing, ResumeUnderADifferentNcpusReportsTheNewPoints) {
    const auto dir = std::filesystem::temp_directory_path() /
                     ("alps_narrowing_resume_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    const Experiment& e = experiment("many_core");

    SweepOptions first = quick_options({{"ncpus", "16"}});
    first.journal = true;
    first.out_dir = dir.string();
    (void)run_sweep(e, first, nullptr);

    // Same experiment, seed and scale: the journal is accepted, but its
    // 16-core slots are not the 64-core ones, so they are not replayed.
    SweepOptions resumed = quick_options({{"ncpus", "64"}});
    resumed.resume = true;
    resumed.out_dir = dir.string();
    const SweepReport report = run_sweep(e, resumed, nullptr);
    const SweepReport clean = run_sweep(e, quick_options({{"ncpus", "64"}}), nullptr);
    std::filesystem::remove_all(dir);

    ASSERT_EQ(report.points.size(), 2u);
    for (const PointAggregate& p : report.points) {
        EXPECT_EQ(p.point.rfind("ncpus64/", 0), 0u) << p.point;
    }
    EXPECT_EQ(report_to_json(report, false).dump(2),
              report_to_json(clean, false).dump(2));
    EXPECT_NE(report.telemetry.dump(0).find("\"harness.journal_resumes\":0"),
              std::string::npos);
}

TEST(Narrowing, UnknownValueListsTheGridValues) {
    const Experiment& e = experiment("web_scale");
    try {
        (void)run_sweep(e, quick_options({{"sites", "1000"}}), nullptr);
        FAIL() << "sites=1000 is full-scale only";
    } catch (const std::runtime_error& err) {
        EXPECT_STREQ(err.what(),
                     "no web_scale task has sites=1000; values: 96 (more with --full)");
    }
    // A later filter lists the values the earlier ones left: the flagship
    // machine runs only the x8 flash crowd.
    SweepOptions full = quick_options({{"sites", "1000"}, {"flash_multiplier", "2"}});
    full.full_scale = true;
    try {
        (void)run_sweep(e, full, nullptr);
        FAIL() << "the 1000-site machine has no x2 point";
    } catch (const std::runtime_error& err) {
        EXPECT_STREQ(err.what(), "no web_scale task has flash_multiplier=2; values: 8");
    }
    try {
        (void)run_sweep(experiment("policy_zoo"), quick_options({{"policy", "nosuch"}}),
                        nullptr);
        FAIL() << "policy_zoo has no nosuch row";
    } catch (const std::runtime_error& err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("no policy_zoo task has policy=nosuch; values: bsd, "),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("stride-engine"), std::string::npos) << what;
        EXPECT_EQ(what.find("--full"), std::string::npos) << what;
    }
}

TEST(Narrowing, Fig4RejectsAnUnknownKernelPolicy) {
    // fig4 runs the --kernel-policy kernel rather than narrowing on it;
    // alps-sweep turns this into exit 2 with the valid-policy list.
    SweepOptions options = quick_options({{"policy", "nosuchpolicy"}});
    options.kernel_policy = "nosuchpolicy";
    EXPECT_THROW((void)run_sweep(experiment("fig4"), options, nullptr),
                 std::invalid_argument);
}

}  // namespace
}  // namespace alps::harness
