// The benchmark's three workloads and the two ways each is run.
//
//   * Untraced: the public entry points (workload::run_cpu_bound_experiment,
//     web::run_web_scale_experiment), exactly as a sweep calls them. Host
//     time is measured around these calls.
//   * Rebuilt: the same machine assembled here from the library's public
//     parts, in the entry point's order, with tracing decorators at the layer
//     boundaries when a Tracer is given. Without a Tracer it times the
//     benchmark's set-up (building and tearing down the machine). With one,
//     its simulated outputs must equal the untraced run's bit for bit.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "web/cluster.h"
#include "workload/distributions.h"
#include "workload/experiments.h"

namespace perfbench {

class Tracer;

enum class Workload { kFig4, kWebPerCore, kWebKernel };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* workload_name(Workload w);

/// One Figure-4 run: its place in the grid and its configuration.
struct Fig4Run {
    alps::workload::ShareModel model;
    alps::workload::SimRunConfig cfg;
};

/// The paper's full Figure-4 grid: 3 share models x N in {5,10,20} x Q in
/// {10..40 ms} x 3 reps at 200 measured cycles, on one CPU with the 4.4BSD
/// shared queue. The seed picks each point's de-phasing offset (the reps
/// of a point warm up for 5+o, 6+o and 7+o cycles, o in [0, 8)).
[[nodiscard]] std::vector<Fig4Run> fig4_grid(std::uint64_t seed);

/// The web_scale flagship machine at its 18 s smoke span: 1000 sites x 16
/// CPUs, 2 rps/site, site A at share 8 over 6x traffic, flash x8. `deploy`
/// is kPerCoreAlps (one group ALPS per core, q = 10 ms, pinned workers) or
/// kKernelOnly (no ALPS, unpinned workers).
[[nodiscard]] alps::web::WebScaleConfig web1000_config(alps::web::Deploy deploy,
                                                       std::uint64_t seed);

/// A run's simulated outputs in a fixed order, compared exactly.
using Outputs = std::vector<double>;
[[nodiscard]] Outputs outputs_of(const alps::workload::SimRunResult& r);
[[nodiscard]] Outputs outputs_of(const alps::web::WebScaleResult& r);

/// run_cpu_bound_experiment rebuilt from its parts (nullptr: no decorators).
/// `build_only` assembles and tears down the machine without running it.
[[nodiscard]] alps::workload::SimRunResult rebuilt_cpu_bound(
    const alps::workload::SimRunConfig& cfg, Tracer* tracer, bool build_only);

/// ALPS-side counts the web entry point does not export (its schedulers are
/// private to it); the rebuilt machine reads them off its own schedulers.
struct AlpsCounts {
    std::uint64_t ticks = 0;
    std::uint64_t measurements = 0;
};

/// run_web_scale_experiment rebuilt from its parts (nullptr: no decorators).
[[nodiscard]] alps::web::WebScaleResult rebuilt_web_scale(
    const alps::web::WebScaleConfig& cfg, Tracer* tracer, bool build_only,
    AlpsCounts* counts = nullptr);

}  // namespace perfbench
