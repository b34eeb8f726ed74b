// The sweep runner: fans an experiment's tasks out over a ThreadPool,
// reports progress/ETA to stderr, aggregates results in task-index order,
// and (optionally) writes BENCH_<name>.json.
//
// Determinism guarantee: each task computes from its TaskContext alone and
// writes into its own pre-allocated slot, so the report — and the JSON metric
// payload — is byte-identical for every --jobs value. Only the "run" section
// (jobs, wall-clock, git sha) differs between runs.
#pragma once

#include <iosfwd>

#include "harness/registry.h"
#include "harness/sink.h"

namespace alps::harness {

/// Runs one experiment under `options`. Builds the full grid, then keeps the
/// tasks matching every options.filters entry at their original indices.
/// Progress/ETA goes to `progress` (pass nullptr or set options.quiet to
/// silence it). Setup errors (a bad --only-task, an unusable journal, a
/// narrowing filter that matches no task) throw std::runtime_error.
[[nodiscard]] SweepReport run_sweep(const Experiment& experiment,
                                    const SweepOptions& options,
                                    std::ostream* progress);

/// alps-sweep's driver: runs `name` from the registry with `options`,
/// prints the experiment's paper-style presentation and evaluation to
/// stdout, and writes the JSON report when options.out_dir is set. Returns
/// the process exit code (0 = success; 1 = failed criteria or task errors;
/// 2 = unknown experiment, or setup error such as narrowing flags that
/// match no task).
int run_and_report(std::string_view name, const SweepOptions& options);

/// Builds SweepOptions from the environment (ALPS_BENCH_FULL=1 -> full scale,
/// ALPS_BENCH_JOBS -> jobs, ALPS_BENCH_JSON -> out_dir, default ".") and then
/// applies any of --jobs N, --seed S, --full, --out DIR, --quiet, --no-json
/// from argv. The narrowing flags (--ncpus, --sites, --shards, --flash-crowd,
/// --kernel-policy) each add one options.filters entry on their task param
/// (a repeated flag replaces its entry). Returns false (and prints usage to
/// stderr) on a bad flag.
bool parse_sweep_args(int argc, char** argv, SweepOptions& options);

/// Short git commit hash of the working tree, or "unknown" outside a repo.
std::string current_git_sha();

/// The host a sweep ran on: {cpu_model, cores, compiler, build_type} —
/// the CPU model from /proc/cpuinfo ("unknown" where it is absent), the
/// hardware thread count, and the compiler and CMake build type this
/// library was built with.
util::Json host_fingerprint();

}  // namespace alps::harness
