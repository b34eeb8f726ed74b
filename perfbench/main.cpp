// alps_perfbench: one workload, one seed, one result line.
//
//   alps_perfbench --workload fig4|web1000_percore|web1000_kernel
//                  --seed N --seconds S --trace 0|1
//
// Set-up is the workload's machines built and torn down from the public
// parts (median of several builds, a few before each repetition). The
// untraced calls into the public entry points repeat for as many whole
// repetitions as fit in S seconds (at least two); each call's host time is
// its fastest repetition. Every repetition must reproduce the first one's
// simulated outputs and metrics registry exactly, and the workload's output
// checks must hold. With --trace 1 a traced rebuild of the same machines
// follows; its simulated outputs and registry must equal the untraced ones,
// and it reports the per-layer split.
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics": {name: {"value", "unit"}}}. Progress goes to stderr.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/metrics.h"
#include "trace.h"
#include "util/json.h"
#include "workloads.h"

namespace {

using perfbench::Layer;
using perfbench::Outputs;
using perfbench::Tracer;
using perfbench::Workload;
namespace web = alps::web;
namespace wl = alps::workload;

constexpr int kSetupBuildsPerRep = 3;
constexpr std::size_t kMinReps = 2;

struct Args {
    Workload workload = Workload::kFig4;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
};

[[noreturn]] void usage(const std::string& why) {
    std::fprintf(stderr,
                 "alps_perfbench: %s\nusage: alps_perfbench --workload "
                 "fig4|web1000_percore|web1000_kernel --seed N --seconds S --trace 0|1\n",
                 why.c_str());
    std::exit(2);
}

Args parse_args(int argc, char** argv) {
    Args a;
    bool have[4] = {};
    for (int i = 1; i < argc; ++i) {
        const std::string_view flag = argv[i];
        if (i + 1 >= argc) usage("missing value for " + std::string(flag));
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                const auto w = perfbench::parse_workload(value);
                if (!w) usage("unknown workload '" + value + "'");
                a.workload = *w;
                have[0] = true;
            } else if (flag == "--seed") {
                std::size_t used = 0;
                a.seed = std::stoull(value, &used);
                if (used != value.size()) usage("bad --seed '" + value + "'");
                have[1] = true;
            } else if (flag == "--seconds") {
                a.seconds = std::stod(value);
                if (!(a.seconds > 0.0 && a.seconds <= 3600.0)) usage("bad --seconds");
                have[2] = true;
            } else if (flag == "--trace") {
                if (value != "0" && value != "1") usage("--trace takes 0 or 1");
                a.trace = value == "1";
                have[3] = true;
            } else {
                usage("unknown flag " + std::string(flag));
            }
        } catch (const std::exception&) {
            usage("bad value for " + std::string(flag));
        }
    }
    if (!(have[0] && have[1] && have[2] && have[3])) usage("all four flags are required");
    return a;
}

double now_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The inputs every repetition of one invocation shares.
struct Inputs {
    Workload workload;
    std::vector<perfbench::Fig4Run> fig4;  ///< fig4 only
    web::WebScaleConfig web;               ///< web workloads only
};

/// One untraced repetition of the whole workload.
struct Rep {
    std::vector<double> call_s;      ///< host time per entry-point call
    std::vector<Outputs> outputs;    ///< simulated outputs per call
    std::vector<wl::SimRunResult> fig4;
    web::WebScaleResult web;
    std::unique_ptr<alps::telemetry::MetricsRegistry> reg;
    std::string reg_dump;
};

Rep run_untraced(const Inputs& in) {
    Rep rep;
    rep.reg = std::make_unique<alps::telemetry::MetricsRegistry>();
    if (in.workload == Workload::kFig4) {
        for (const perfbench::Fig4Run& run : in.fig4) {
            wl::SimRunConfig cfg = run.cfg;
            cfg.metrics = rep.reg.get();
            const double t0 = now_s();
            const wl::SimRunResult r = wl::run_cpu_bound_experiment(cfg);
            rep.call_s.push_back(now_s() - t0);
            rep.outputs.push_back(perfbench::outputs_of(r));
            rep.fig4.push_back(r);
        }
    } else {
        web::WebScaleConfig cfg = in.web;
        cfg.metrics = rep.reg.get();
        const double t0 = now_s();
        rep.web = web::run_web_scale_experiment(cfg);
        rep.call_s.push_back(now_s() - t0);
        rep.outputs.push_back(perfbench::outputs_of(rep.web));
    }
    rep.reg_dump = rep.reg->to_json().dump(0);
    return rep;
}

/// The traced rebuild of the whole workload.
struct Traced {
    double wall_s = 0.0;
    std::vector<Outputs> outputs;
    std::string reg_dump;
    perfbench::AlpsCounts web_alps;
};

Traced run_traced(const Inputs& in, Tracer& tracer) {
    Traced t;
    alps::telemetry::MetricsRegistry reg;
    double calibration_s = 0.0;
    const double t0 = now_s();
    if (in.workload == Workload::kFig4) {
        for (const perfbench::Fig4Run& run : in.fig4) {
            wl::SimRunConfig cfg = run.cfg;
            cfg.metrics = &reg;
            const double c0 = now_s();
            tracer.calibrate();
            calibration_s += now_s() - c0;
            t.outputs.push_back(perfbench::outputs_of(
                perfbench::rebuilt_cpu_bound(cfg, &tracer, /*build_only=*/false)));
        }
    } else {
        web::WebScaleConfig cfg = in.web;
        cfg.metrics = &reg;
        t.outputs.push_back(perfbench::outputs_of(
            perfbench::rebuilt_web_scale(cfg, &tracer, /*build_only=*/false, &t.web_alps)));
    }
    t.wall_s = now_s() - t0 - calibration_s;
    // Calibrate after the run too (the only rounds a one-call workload gets).
    for (int i = 0; i < 9; ++i) tracer.calibrate();
    t.reg_dump = reg.to_json().dump(0);
    return t;
}

/// Builds and tears down the workload's machines without running them.
double time_setup(const Inputs& in) {
    const double t0 = now_s();
    if (in.workload == Workload::kFig4) {
        for (const perfbench::Fig4Run& run : in.fig4) {
            (void)perfbench::rebuilt_cpu_bound(run.cfg, nullptr, /*build_only=*/true);
        }
    } else {
        (void)perfbench::rebuilt_web_scale(in.web, nullptr, /*build_only=*/true);
    }
    return now_s() - t0;
}

class Result {
public:
    void metric(const std::string& name, double value, const char* unit) {
        metrics_.emplace_back(name, Entry{value, unit});
    }
    void check(bool ok, const std::string& what) {
        if (ok) return;
        correct_ = false;
        std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
    void attempt(std::uint64_t runs, std::uint64_t failed) {
        attempted_ += runs;
        failed_ += failed;
    }
    void print() const {
        std::string out = "{\"correct\": ";
        out += correct_ ? "true" : "false";
        out += ", \"attempted\": " + std::to_string(attempted_);
        out += ", \"failed\": " + std::to_string(failed_);
        out += ", \"metrics\": {";
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            char num[64];
            std::snprintf(num, sizeof num, "%.17g", metrics_[i].second.value);
            out += (i ? ", \"" : "\"") + metrics_[i].first + "\": {\"value\": " + num +
                   ", \"unit\": \"" + metrics_[i].second.unit + "\"}";
        }
        out += "}}";
        std::printf("%s\n", out.c_str());
        std::fflush(stdout);
    }

private:
    struct Entry {
        double value;
        const char* unit;
    };
    bool correct_ = true;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::pair<std::string, Entry>> metrics_;
};

/// Peak resident set of this process image (VmHWM). getrusage's ru_maxrss
/// would not do: Linux carries the parent's peak across fork+exec, so under
/// a launcher it reports the launcher's footprint.
double peak_rss_mb() {
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) return 0.0;
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
    }
    std::fclose(f);
    return kib / 1024.0;
}

std::uint64_t counter(const Rep& rep, const std::string& name) {
    return rep.reg->counter(name).value();
}

/// Workload-level output checks on the first repetition.
void check_outputs(const Inputs& in, const Rep& rep, Result& res) {
    if (in.workload == Workload::kFig4) {
        // Per share model: the mean over its 21 points and its worst point,
        // each point being the mean of its reps (the grid keeps reps adjacent).
        constexpr std::size_t kReps = 3;
        double sum[3] = {};
        double worst[3] = {};
        int points[3] = {};
        for (std::size_t i = 0; i + kReps <= rep.fig4.size(); i += kReps) {
            double point = 0.0;
            for (std::size_t r = 0; r < kReps; ++r) point += rep.fig4[i + r].mean_rms_error;
            point /= kReps;
            const auto m = static_cast<std::size_t>(in.fig4[i].model);
            sum[m] += point;
            worst[m] = std::max(worst[m], point);
            ++points[m];
        }
        const auto k = [](wl::ShareModel m) { return static_cast<std::size_t>(m); };
        const std::size_t sk = k(wl::ShareModel::kSkewed);
        const std::size_t li = k(wl::ShareModel::kLinear);
        const std::size_t eq = k(wl::ShareModel::kEqual);
        std::fprintf(stderr,
                     "fig4 RMS error %% mean/worst point: skewed %.4f/%.4f "
                     "linear %.4f/%.4f equal %.4f/%.4f\n",
                     100.0 * sum[sk] / points[sk], 100.0 * worst[sk],
                     100.0 * sum[li] / points[li], 100.0 * worst[li],
                     100.0 * sum[eq] / points[eq], 100.0 * worst[eq]);
        // Paper section 3: skewed is the worst case. In this simulator that
        // holds for the worst point (Skewed20 at Q = 10 ms); the model means
        // sit within ~0.1 points of each other, equal slightly above skewed
        // (see perfbench/README.md), so the check is on the worst point.
        res.check(worst[sk] > worst[li] && worst[sk] > worst[eq],
                  "skewed does not have the worst fig4 point (paper section 3)");
        return;
    }
    const web::WebScaleResult& r = rep.web;
    res.check(counter(rep, "web_scale.site0000.completed") > 0 && r.protected_p95_ms > 0.0,
              "site A completed no requests");
    res.check(r.completed > 0 && r.completed <= r.arrivals && r.total_rps > 0.0,
              "web volume counts are inconsistent");
    if (in.workload == Workload::kWebPerCore) {
        // Protection follows the share: on the same seed, revoking site A's
        // purchase (share 1) must leave its p95 worse. The comparison with
        // the kernel-only machine is not used: at this 18 s span it inverts
        // on some seeds (see perfbench/README.md).
        web::WebScaleConfig revoked = in.web;
        revoked.protected_share = 1;
        const web::WebScaleResult control = web::run_web_scale_experiment(revoked);
        res.attempt(1, 0);
        res.check(r.protected_p95_ms < control.protected_p95_ms,
                  "site A p95 " + std::to_string(r.protected_p95_ms) +
                      " ms is not below its p95 with the share revoked, " +
                      std::to_string(control.protected_p95_ms) + " ms");
    }
}

}  // namespace

int main(int argc, char** argv) {
    const Args args = parse_args(argc, argv);
    const char* name = perfbench::workload_name(args.workload);
    Result res;

    // ---- set-up: inputs from the seed, then machine builds ----
    const double setup_t0 = now_s();
    Inputs in{args.workload, {}, {}};
    if (args.workload == Workload::kFig4) {
        in.fig4 = perfbench::fig4_grid(args.seed);
    } else {
        in.web = perfbench::web1000_config(args.workload == Workload::kWebPerCore
                                               ? web::Deploy::kPerCoreAlps
                                               : web::Deploy::kKernelOnly,
                                           args.seed);
    }
    const double inputs_s = now_s() - setup_t0;
    // The builds are spread over the run, a few before each repetition, so
    // their median is not at the mercy of one moment's host load.
    std::vector<double> builds;

    // ---- untraced repetitions ----
    // The first repetition is kept whole; later ones are compared with it
    // and only their call times kept, so the benchmark's own bookkeeping
    // does not grow with the repetition count (peak_rss_mb).
    const double t0 = now_s();
    std::vector<std::vector<double>> call_s;
    std::uint64_t mismatched = 0;
    Rep first;
    for (;;) {
        for (int i = 0; i < kSetupBuildsPerRep; ++i) {
            builds.push_back(inputs_s + time_setup(in));
        }
        Rep rep = run_untraced(in);
        double rep_s = 0.0;
        for (const double c : rep.call_s) rep_s += c;
        std::fprintf(stderr, "%s seed %llu rep %zu: %.3f s\n", name,
                     static_cast<unsigned long long>(args.seed), call_s.size() + 1, rep_s);
        call_s.push_back(rep.call_s);
        if (call_s.size() == 1) {
            first = std::move(rep);
            continue;
        }
        for (std::size_t c = 0; c < rep.outputs.size(); ++c) {
            if (rep.outputs[c] != first.outputs[c]) ++mismatched;
        }
        res.check(rep.reg_dump == first.reg_dump,
                  "metrics registry differs between repetitions 1 and " +
                      std::to_string(call_s.size()));
        // Stop before a repetition that would end past the time budget.
        const double elapsed = now_s() - t0;
        if (call_s.size() >= kMinReps &&
            elapsed + elapsed / static_cast<double>(call_s.size()) > args.seconds) {
            break;
        }
    }
    const double rss_mb = peak_rss_mb();
    const double setup_s = median(builds);
    const std::size_t calls = first.call_s.size();
    res.check(mismatched == 0, std::to_string(mismatched) +
                                   " runs differ in simulated outputs across repetitions");
    std::uint64_t timed_out = 0;
    for (const wl::SimRunResult& r : first.fig4) timed_out += r.timed_out ? 1 : 0;
    res.check(timed_out == 0, std::to_string(timed_out) + " fig4 runs hit max_wall");
    res.attempt(call_s.size() * calls, mismatched + timed_out);
    check_outputs(in, first, res);

    // Host time: per call, the fastest repetition; summed over calls. Every
    // repetition does bit-identical simulated work (checked above), so the
    // spread between them is the host's alone, and it is one-sided: neighbour
    // load on a shared host only adds time, in phases that last minutes.
    // Over seven fig4 runs on a 4-core Xeon guest, the sum of per-call
    // medians spread by 13 % of its median (quartile distance), the sum of
    // per-call minima by 8 %.
    double wall_s = 0.0;
    for (std::size_t c = 0; c < calls; ++c) {
        double fastest = call_s.front()[c];
        for (const std::vector<double>& rep : call_s) fastest = std::min(fastest, rep[c]);
        wall_s += fastest;
    }
    double sim_s = 0.0;
    if (args.workload == Workload::kFig4) {
        for (const wl::SimRunResult& r : first.fig4) sim_s += alps::util::to_sec(r.wall);
    } else {
        sim_s = alps::util::to_sec(in.web.warmup + in.web.measure);
    }
    const auto events = static_cast<double>(counter(first, "engine.events_fired"));

    if (!args.trace) {
        res.metric("wall_s", wall_s, "s");
        res.metric("events_per_s", events / wall_s, "1/s");
        res.metric("sim_s_per_wall_s", sim_s / wall_s, "s/s");
        res.metric("setup_s", setup_s, "s");
        res.metric("peak_rss_mb", rss_mb, "MB");
        res.print();
        return 0;
    }

    // ---- traced rebuild ----
    Tracer tracer;
    const Traced traced = run_traced(in, tracer);
    std::uint64_t trace_mismatched = 0;
    for (std::size_t c = 0; c < calls; ++c) {
        if (traced.outputs[c] != first.outputs[c]) ++trace_mismatched;
    }
    res.attempt(calls, trace_mismatched);
    res.check(trace_mismatched == 0,
              std::to_string(trace_mismatched) +
                  " traced runs differ from the untraced simulated outputs; "
                  "the per-layer split is invalid");
    res.check(traced.reg_dump == first.reg_dump,
              "traced metrics registry differs from the untraced one; "
              "the per-layer split is invalid");

    const double scheduled = static_cast<double>(counter(first, "engine.events_scheduled"));
    const double cancelled = static_cast<double>(counter(first, "engine.events_cancelled"));
    res.metric("sim.events_fired", events, "count");
    res.metric("sim.events_scheduled", scheduled, "count");
    res.metric("sim.events_cancelled", cancelled, "count");
    res.metric("sim.wheel_cascades",
               static_cast<double>(counter(first, "engine.wheel_cascades")), "count");
    res.metric("sim.cancel_ratio", ratio(cancelled, scheduled), "ratio");

    res.metric("os.context_switches",
               static_cast<double>(counter(first, "kernel.context_switches")), "count");
    res.metric("os.steals", static_cast<double>(counter(first, "kernel.steals")), "count");
    res.metric("os.migrations", static_cast<double>(counter(first, "kernel.migrations")),
               "count");
    res.metric("os.policy_calls", static_cast<double>(tracer.calls(Layer::kPolicy)), "count");

    double ticks = 0.0;
    double measurements = 0.0;
    double missed = 0.0;
    if (args.workload == Workload::kFig4) {
        ticks = static_cast<double>(counter(first, "alps.ticks"));
        measurements = static_cast<double>(counter(first, "alps.measurements"));
        for (const wl::SimRunResult& r : first.fig4) {
            missed += static_cast<double>(r.boundaries_missed);
        }
    } else {
        ticks = static_cast<double>(traced.web_alps.ticks);
        measurements = static_cast<double>(traced.web_alps.measurements);
        missed = static_cast<double>(first.web.boundaries_missed);
    }
    res.metric("alps.ticks", ticks, "count");
    res.metric("alps.measurements", measurements, "count");
    res.metric("alps.reads_per_tick", ratio(measurements, ticks), "ratio");
    res.metric("alps.boundaries_missed", missed, "count");
    res.metric("alps.missed_ratio", ratio(missed, ticks + missed), "ratio");
    res.metric("alps.host_read_calls", static_cast<double>(tracer.calls(Layer::kHostRead)),
               "count");
    res.metric("alps.host_signal_calls",
               static_cast<double>(tracer.calls(Layer::kHostSignal)), "count");

    const web::WebScaleResult& w = first.web;
    res.metric("traffic.arrivals", static_cast<double>(w.arrivals), "count");
    res.metric("traffic.completed", static_cast<double>(w.completed), "count");
    res.metric("traffic.drops", static_cast<double>(w.drops), "count");
    res.metric("traffic.timeouts", static_cast<double>(w.timeouts), "count");
    res.metric("traffic.peak_in_flight", static_cast<double>(w.peak_in_flight), "count");
    res.metric("traffic.protected_samples",
               args.workload == Workload::kFig4
                   ? 0.0
                   : static_cast<double>(counter(first, "web_scale.site0000.completed")),
               "count");
    res.metric("web.submit_calls", static_cast<double>(tracer.calls(Layer::kSubmit)),
               "count");

    const double covered = tracer.total_s();
    const auto share = [&](Layer l) { return ratio(tracer.self_s(l), covered); };
    res.metric("sim_os.self_s", tracer.self_s(Layer::kSimOs), "s");
    res.metric("sim_os.share", share(Layer::kSimOs), "fraction");
    res.metric("os.policy_share", share(Layer::kPolicy), "fraction");
    res.metric("alps.driver_share", share(Layer::kDriver), "fraction");
    res.metric("alps.host_read_share", share(Layer::kHostRead), "fraction");
    res.metric("alps.host_signal_share", share(Layer::kHostSignal), "fraction");
    res.metric("alps.host_membership_share", share(Layer::kHostMembership), "fraction");
    res.metric("web.submit_share", share(Layer::kSubmit), "fraction");
    res.metric("trace.wall_s", traced.wall_s, "s");
    res.metric("trace.overhead_frac", traced.wall_s / wall_s - 1.0, "fraction");

    // The model's own outputs: deterministic per seed, so a speed-only
    // change must leave every one of them identical.
    double rms = 0.0;
    double overhead = 0.0;
    for (const wl::SimRunResult& r : first.fig4) {
        rms += r.mean_rms_error;
        overhead += r.overhead_fraction;
    }
    const auto nfig4 = static_cast<double>(first.fig4.size());
    res.metric("model.rms_error_pct", 100.0 * ratio(rms, nfig4), "%");
    res.metric("model.alps_overhead_pct",
               100.0 * (args.workload == Workload::kFig4 ? ratio(overhead, nfig4)
                                                         : w.overhead_fraction),
               "%");
    res.metric("model.protected_p95_ms", w.protected_p95_ms, "ms");
    res.metric("model.steady_p99_ms", w.steady_p99_ms, "ms");
    res.metric("model.total_rps", w.total_rps, "1/s");
    res.metric("model.failed_frac",
               args.workload == Workload::kFig4
                   ? ratio(static_cast<double>(timed_out), nfig4)
                   : ratio(static_cast<double>(w.drops + w.timeouts),
                           static_cast<double>(w.arrivals)),
               "fraction");
    res.print();
    return 0;
}
