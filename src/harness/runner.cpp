#include "harness/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "harness/journal.h"
#include "harness/supervisor.h"
#include "harness/thread_pool.h"
#include "telemetry/metrics.h"
#include "telemetry/recorder.h"
#include "telemetry/trace_file.h"

namespace alps::harness {

namespace {

unsigned effective_jobs(unsigned requested) {
    if (requested != 0) return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

std::size_t trace_ring_capacity() {
    if (const char* v = std::getenv("ALPS_TRACE_CAPACITY")) {
        const auto n = std::strtoull(v, nullptr, 10);
        if (n > 0) return static_cast<std::size_t>(n);
    }
    return std::size_t{1} << 22;  // 4M records = 128 MiB, ~a full fig4 sweep
}

/// Serialized progress/ETA line, overwritten in place on a terminal-ish
/// stream. Called from worker threads under its own mutex.
class ProgressMeter {
public:
    ProgressMeter(std::ostream* out, std::size_t total, std::string label)
        : out_(out), total_(total), label_(std::move(label)),
          start_(std::chrono::steady_clock::now()) {}

    void task_done() {
        if (out_ == nullptr) return;
        std::scoped_lock lock(mu_);
        ++done_;
        const double elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
                .count();
        const double eta =
            done_ == 0 ? 0.0
                       : elapsed * static_cast<double>(total_ - done_) /
                             static_cast<double>(done_);
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "\r[%zu/%zu] %s  elapsed %.1fs  eta %.1fs   ", done_, total_,
                      label_.c_str(), elapsed, eta);
        *out_ << buf << std::flush;
        if (done_ == total_) *out_ << "\n";
    }

private:
    std::ostream* out_;
    std::size_t total_;
    std::string label_;
    std::chrono::steady_clock::time_point start_;
    std::mutex mu_;
    std::size_t done_ = 0;
};

/// Narrowing flags and the task param each one filters on.
constexpr std::pair<std::string_view, std::string_view> kNarrowingFlags[] = {
    {"--ncpus", "ncpus"},
    {"--sites", "sites"},
    {"--shards", "shards"},
    {"--flash-crowd", "flash_multiplier"},
    {"--kernel-policy", "policy"},
};

const std::string* param_of(const Task& task, const std::string& key) {
    for (const auto& [k, v] : task.params) {
        if (k == key) return &v;
    }
    return nullptr;
}

/// Numeric when both sides parse as numbers ("8.0" selects "8"), textual
/// otherwise.
bool param_matches(const std::string& have, const std::string& want) {
    const auto number = [](const std::string& s, double& out) {
        char* end = nullptr;
        out = std::strtod(s.c_str(), &end);
        return end != s.c_str() && *end == '\0';
    };
    double a = 0.0;
    double b = 0.0;
    if (number(have, a) && number(want, b)) return a == b;
    return have == want;
}

std::vector<std::size_t> all_indices(std::size_t n) {
    std::vector<std::size_t> indices(n);
    std::iota(indices.begin(), indices.end(), std::size_t{0});
    return indices;
}

/// Distinct values of `key` among `tasks[indices]`, in grid order, joined.
std::string values_of(const std::vector<Task>& tasks,
                      const std::vector<std::size_t>& indices, const std::string& key) {
    std::vector<std::string> values;
    for (const std::size_t i : indices) {
        const std::string* v = param_of(tasks[i], key);
        if (v != nullptr && std::find(values.begin(), values.end(), *v) == values.end()) {
            values.push_back(*v);
        }
    }
    std::string joined;
    for (const std::string& v : values) joined += (joined.empty() ? "" : ", ") + v;
    return joined;
}

/// The original indices of the tasks whose params match every applicable
/// filter, in grid order. A filter that matches nothing is bad input: throws
/// std::runtime_error naming the values the grid does have.
std::vector<std::size_t> narrow(const Experiment& experiment,
                                const SweepOptions& options,
                                const std::vector<Task>& tasks) {
    std::vector<std::size_t> kept = all_indices(tasks.size());
    for (const auto& [key, want] : options.filters) {
        const bool applies = std::any_of(tasks.begin(), tasks.end(), [&](const Task& t) {
            return param_of(t, key) != nullptr;
        });
        if (!applies) continue;  // e.g. --sites on many_core
        std::vector<std::size_t> matched;
        for (const std::size_t i : kept) {
            const std::string* have = param_of(tasks[i], key);
            if (have != nullptr && param_matches(*have, want)) matched.push_back(i);
        }
        if (matched.empty()) {
            std::string msg = "no " + experiment.name + " task has " + key + "=" + want +
                              "; values: " + values_of(tasks, kept, key);
            if (!options.full_scale) {
                SweepOptions full = options;
                full.full_scale = true;
                const std::vector<Task> full_tasks = experiment.make_tasks(full);
                if (values_of(full_tasks, all_indices(full_tasks.size()), key) !=
                    values_of(tasks, all_indices(tasks.size()), key)) {
                    msg += " (more with --full)";
                }
            }
            throw std::runtime_error(msg);
        }
        kept = std::move(matched);
    }
    return kept;
}

}  // namespace

util::Json host_fingerprint() {
    std::string cpu = "unknown";
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos) {
                const std::size_t start = line.find_first_not_of(' ', colon + 1);
                if (start != std::string::npos) cpu = line.substr(start);
            }
            break;
        }
    }
#if defined(__clang__)
    const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    const char* compiler = "gcc " __VERSION__;
#else
    const char* compiler = "unknown";
#endif
    util::Json host = util::Json::object();
    host.set("cpu_model", cpu);
    host.set("cores", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    host.set("compiler", std::string(compiler));
    host.set("build_type", std::string(ALPS_BUILD_TYPE[0] != '\0' ? ALPS_BUILD_TYPE : "unknown"));
    return host;
}

std::string current_git_sha() {
    FILE* pipe = ::popen("git rev-parse --short HEAD 2>/dev/null", "r");
    if (pipe == nullptr) return "unknown";
    char buf[64] = {};
    std::string sha;
    if (std::fgets(buf, sizeof(buf), pipe) != nullptr) sha = buf;
    ::pclose(pipe);
    while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) sha.pop_back();
    return sha.empty() ? "unknown" : sha;
}

SweepReport run_sweep(const Experiment& experiment, const SweepOptions& raw_options,
                      std::ostream* progress) {
    const auto t0 = std::chrono::steady_clock::now();

    // ---- option normalization. The watchdog needs a killable process, so a
    // deadline implies isolation; tracing needs the task's telemetry rings in
    // *this* process, so it wins over isolation; --resume implies --journal;
    // --only-task is repro mode (one task, original index/seed, no journal).
    SweepOptions options = raw_options;
    if (options.run_timeout_s > 0.0) options.isolate = true;
    const bool tracing = !options.trace_path.empty();
    if (tracing && options.isolate) {
        std::cerr << "warning: --trace runs tasks in-process; isolation and the "
                     "watchdog are disabled for this sweep\n";
        options.isolate = false;
        options.run_timeout_s = 0.0;
    }
    if (options.resume) options.journal = true;
    if (options.only_task >= 0) {
        options.journal = false;
        options.resume = false;
    }

    const std::vector<Task> tasks = experiment.make_tasks(options);

    // The slots this sweep actually covers, as *original* sweep indices:
    // narrowing and --only-task both keep each task's index and therefore
    // its derived seed and journal slot, so a narrowed or repro run replays
    // exactly the full sweep's pure function for that point.
    std::vector<std::size_t> selected = narrow(experiment, options, tasks);
    if (options.only_task >= 0) {
        const auto only = static_cast<std::size_t>(options.only_task);
        if (!std::binary_search(selected.begin(), selected.end(), only)) {
            throw std::runtime_error("--only-task " + std::to_string(only) +
                                     " is not in this sweep (" +
                                     std::to_string(tasks.size()) + " tasks, " +
                                     std::to_string(selected.size()) +
                                     " after narrowing)");
        }
        selected = {only};
    }

    SweepReport report;
    report.experiment = experiment.name;
    report.seed = options.seed;
    report.full_scale = options.full_scale;
    // Tracing forces a single worker: per-thread rings and emission order
    // would otherwise interleave nondeterministically, and the acceptance
    // bar is that two same-seed traced runs diff clean.
    report.jobs = tracing ? 1 : effective_jobs(options.jobs);
    report.tasks.resize(selected.size());

    telemetry::MetricsRegistry metrics;
    telemetry::Session session({.ring_capacity = trace_ring_capacity()});
    if (tracing) telemetry::attach(session);

    // ---- journal: load (resume) and open for appending.
    SweepJournal journal;
    std::map<std::uint64_t, TaskOutcome> resumed;
    if (options.journal) {
        const std::string jdir = options.out_dir.empty() ? "." : options.out_dir;
        const std::string jpath = SweepJournal::path_for(jdir, experiment.name);
        JournalHeader header;
        header.experiment = experiment.name;
        header.seed = options.seed;
        header.full_scale = options.full_scale;
        header.kernel_policy = options.kernel_policy;
        header.task_count = tasks.size();
        std::size_t keep_bytes = 0;
        if (options.resume) {
            LoadedJournal loaded = SweepJournal::load(jpath);
            if (loaded.found) {
                if (!loaded.header.matches(header)) {
                    throw std::runtime_error(
                        "journal: " + jpath +
                        " belongs to a different sweep (experiment/seed/scale/"
                        "policy/task-count mismatch); delete it or drop --resume");
                }
                if (loaded.discarded_bytes > 0) {
                    std::cerr << "journal: discarded " << loaded.discarded_bytes
                              << " invalid trailing byte(s) of " << jpath
                              << "; affected tasks re-run\n";
                }
                resumed = std::move(loaded.outcomes);
                keep_bytes = loaded.valid_bytes;
            } else if (loaded.discarded_bytes > 0) {
                std::cerr << "journal: " << jpath
                          << " is unreadable; starting fresh\n";
            }
        }
        journal.open(jpath, header, keep_bytes);
    }

    // ---- supervision counters + supervisor. Registered up front (even at
    // zero) whenever supervision/journaling is on, so the telemetry section
    // always answers "did anything get retried?".
    if (options.isolate || options.journal) {
        metrics.counter("harness.runs_retried");
        metrics.counter("harness.runs_quarantined");
        metrics.counter("harness.watchdog_kills");
        metrics.counter("harness.journal_resumes");
    }
    SupervisorConfig scfg;
    scfg.isolate = options.isolate;
    scfg.run_timeout_s = options.run_timeout_s;
    scfg.max_attempts = options.max_attempts;
    scfg.forensics_dir = options.out_dir.empty()
                             ? std::string("forensics")
                             : options.out_dir + "/forensics";
    ReproInfo repro;
    repro.experiment = experiment.name;
    repro.seed = options.seed;
    repro.full_scale = options.full_scale;
    repro.kernel_policy = options.kernel_policy;
    const RunSupervisor supervisor(scfg, repro, &metrics);

    ProgressMeter meter(options.quiet ? nullptr : progress, selected.size(),
                        experiment.name);
    {
        ThreadPool pool(report.jobs);
        for (std::size_t slot = 0; slot < selected.size(); ++slot) {
            const std::size_t orig = selected[slot];
            // Journal replay: a completed outcome round-trips bit-exactly, so
            // filling the slot is equivalent to re-running the (pure) task.
            const auto it = resumed.find(orig);
            if (it != resumed.end()) {
                report.tasks[slot] = it->second;
                metrics.counter("harness.journal_resumes").add(1);
                meter.task_done();
                continue;
            }
            // Each worker writes only to its own pre-sized slot; the vector is
            // never resized while the pool runs.
            pool.submit([&, slot, orig, tracing] {
                const Task& task = tasks[orig];
                TaskContext ctx;
                ctx.index = orig;
                ctx.seed = derive_task_seed(options.seed, orig);
                ctx.full_scale = options.full_scale;
                ctx.metrics = &metrics;
                if (tracing) {
                    telemetry::set_scope(static_cast<std::uint32_t>(orig));
                }
                const auto task_t0 = std::chrono::steady_clock::now();
                report.tasks[slot] = supervisor.run(task, ctx);
                const auto task_us = std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - task_t0);
                metrics.histogram("harness.task_wall_us")
                    .record(static_cast<std::uint64_t>(task_us.count()));
                if (journal.is_open()) journal.append(orig, report.tasks[slot]);
                meter.task_done();
            });
        }
        pool.wait_idle();
        pool.export_metrics(metrics, "harness.pool.");
    }
    journal.close();

    if (tracing) {
        // The pool has joined, so every producer is quiescent; drain after
        // detach is the recorder's documented consumption contract.
        telemetry::detach();
        telemetry::TraceFile trace;
        trace.names = session.names();
        trace.dropped_records = session.dropped();
        trace.records = session.drain();
        metrics.counter("harness.trace_records").add(trace.records.size());
        metrics.counter("harness.trace_dropped_records").add(trace.dropped_records);
        try {
            telemetry::write_trace_file(options.trace_path, trace);
        } catch (const std::exception& e) {
            std::cerr << "warning: trace not written: " << e.what() << "\n";
        }
    }

    aggregate_points(report);
    report.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    report.git_sha = current_git_sha();
    report.host = host_fingerprint();
    if (!metrics.empty()) report.telemetry = metrics.to_json();
    return report;
}

bool parse_sweep_args(int argc, char** argv, SweepOptions& options) {
    const auto env = [](const char* name) -> const char* {
        const char* v = std::getenv(name);
        return (v != nullptr && *v != '\0') ? v : nullptr;
    };
    if (const char* v = env("ALPS_BENCH_FULL")) {
        options.full_scale = std::strcmp(v, "1") == 0;
    }
    if (const char* v = env("ALPS_BENCH_JOBS")) {
        options.jobs = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    }
    if (const char* v = env("ALPS_BENCH_JSON")) options.out_dir = v;
    if (const char* v = env("ALPS_BENCH_TRACE")) options.trace_path = v;

    const auto usage = [&] {
        std::cerr << "usage: " << argv[0]
                  << " [--jobs N] [--seed S] [--full] [--out DIR] [--no-json]"
                     " [--quiet] [--trace FILE.alpstrace] [--kernel-policy NAME]"
                     " [--ncpus N] [--sites N] [--shards N] [--flash-crowd X]"
                     " [--isolate] [--run-timeout SECONDS]"
                     " [--max-attempts N] [--journal] [--resume]"
                     " [--only-task INDEX] [--json-payload-only]\n";
        return false;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        // Rejects non-numeric values; strtoul alone would fold "abc" to 0,
        // silently selecting the hardware-concurrency default.
        const auto parse_u64 = [&](const char* v, std::uint64_t& out) {
            char* end = nullptr;
            out = std::strtoull(v, &end, 0);
            if (end == v || *end != '\0') {
                std::cerr << arg << ": not a number: " << v << "\n";
                return false;
            }
            return true;
        };
        const auto* narrowing =
            std::find_if(std::begin(kNarrowingFlags), std::end(kNarrowingFlags),
                         [&](const auto& flag) { return flag.first == arg; });
        if (narrowing != std::end(kNarrowingFlags)) {
            const char* v = next();
            if (v == nullptr) return usage();
            const std::string key(narrowing->second);
            std::erase_if(options.filters, [&](const auto& f) { return f.first == key; });
            options.filters.emplace_back(key, v);
            if (arg == "--kernel-policy") options.kernel_policy = v;
        } else if (arg == "--jobs") {
            const char* v = next();
            std::uint64_t n = 0;
            if (v == nullptr || !parse_u64(v, n)) return usage();
            options.jobs = static_cast<unsigned>(n);
        } else if (arg == "--seed") {
            const char* v = next();
            std::uint64_t n = 0;
            if (v == nullptr || !parse_u64(v, n)) return usage();
            options.seed = n;
        } else if (arg == "--full") {
            options.full_scale = true;
        } else if (arg == "--out") {
            const char* v = next();
            if (v == nullptr) return usage();
            options.out_dir = v;
        } else if (arg == "--no-json") {
            options.out_dir.clear();
        } else if (arg == "--trace") {
            const char* v = next();
            if (v == nullptr) return usage();
            options.trace_path = v;
        } else if (arg == "--isolate") {
            options.isolate = true;
        } else if (arg == "--run-timeout") {
            const char* v = next();
            if (v == nullptr) return usage();
            char* end = nullptr;
            options.run_timeout_s = std::strtod(v, &end);
            if (end == v || *end != '\0' || options.run_timeout_s < 0.0) {
                std::cerr << arg << ": not a non-negative number: " << v << "\n";
                return usage();
            }
        } else if (arg == "--max-attempts") {
            const char* v = next();
            std::uint64_t n = 0;
            if (v == nullptr || !parse_u64(v, n) || n == 0) return usage();
            options.max_attempts = static_cast<int>(n);
        } else if (arg == "--journal") {
            options.journal = true;
        } else if (arg == "--resume") {
            options.resume = true;
        } else if (arg == "--only-task") {
            const char* v = next();
            std::uint64_t n = 0;
            if (v == nullptr || !parse_u64(v, n)) return usage();
            options.only_task = static_cast<long>(n);
        } else if (arg == "--json-payload-only") {
            options.json_payload_only = true;
        } else if (arg == "--quiet") {
            options.quiet = true;
        } else {
            std::cerr << "unknown flag: " << arg << "\n";
            return usage();
        }
    }
    return true;
}

int run_and_report(std::string_view name, const SweepOptions& options) {
    const Experiment* experiment = ExperimentRegistry::instance().find(name);
    if (experiment == nullptr) {
        std::cerr << "unknown experiment: " << name << " (try --list)\n";
        return 2;
    }
    SweepReport report;
    try {
        report = run_sweep(*experiment, options, &std::cerr);
    } catch (const std::runtime_error& e) {
        // Setup problems (bad --only-task, unusable journal), not task
        // failures — those are classified into the report.
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }
    const bool repro_mode = options.only_task >= 0;
    if (repro_mode) {
        // Presentation and gate evaluation expect the full grid; a single
        // replayed task just reports what it did.
        for (const TaskOutcome& t : report.tasks) {
            std::cout << "task " << options.only_task << " (" << t.point << " rep "
                      << t.rep << "): " << t.disposition << " after " << t.attempts
                      << " attempt(s)" << (t.ok ? "" : ": " + t.error) << "\n";
        }
    } else {
        if (experiment->present) experiment->present(report, std::cout);
        if (experiment->evaluate) {
            report.failed_checks += experiment->evaluate(report, std::cout);
        }
    }
    const int failures =
        report.failed_checks +
        (experiment->tolerate_task_errors ? 0 : report.task_errors);
    if (!options.out_dir.empty()) {
        const std::string path =
            write_json_report(report, options.out_dir, !options.json_payload_only);
        if (!path.empty()) {
            std::cout << "(json written to " << path << ")\n";
        }
    }
    for (const TaskOutcome& t : report.tasks) {
        if (!t.ok) std::cerr << "task failed: " << t.point << ": " << t.error << "\n";
    }
    return failures == 0 ? 0 : 1;
}

}  // namespace alps::harness
