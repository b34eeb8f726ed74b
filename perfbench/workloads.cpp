#include "workloads.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "alps/fault.h"
#include "alps/group_control.h"
#include "alps/sim_adapter.h"
#include "metrics/exact_cycle_log.h"
#include "metrics/fairness.h"
#include "os/behaviors.h"
#include "os/kernel.h"
#include "os/policies/factory.h"
#include "sim/engine.h"
#include "telemetry/metrics.h"
#include "trace.h"
#include "traffic/generator.h"
#include "traffic/latency.h"
#include "traffic/table.h"
#include "util/assert.h"
#include "util/rng.h"
#include "web/site.h"

namespace perfbench {

namespace core = alps::core;
namespace os = alps::os;
namespace sim = alps::sim;
namespace util = alps::util;
namespace web = alps::web;
namespace wl = alps::workload;

using util::Duration;
using util::TimePoint;

std::optional<Workload> parse_workload(std::string_view name) {
    for (const Workload w : {Workload::kFig4, Workload::kWebPerCore, Workload::kWebKernel}) {
        if (name == workload_name(w)) return w;
    }
    return std::nullopt;
}

const char* workload_name(Workload w) {
    switch (w) {
        case Workload::kFig4: return "fig4";
        case Workload::kWebPerCore: return "web1000_percore";
        case Workload::kWebKernel: return "web1000_kernel";
    }
    return "?";
}

std::vector<Fig4Run> fig4_grid(std::uint64_t seed) {
    constexpr int kQuantaMs[] = {10, 15, 20, 25, 30, 35, 40};
    constexpr int kProcCounts[] = {5, 10, 20};
    constexpr int kReps = 3;
    std::vector<Fig4Run> grid;
    std::uint64_t point = 0;
    for (const wl::ShareModel model : wl::kAllModels) {
        for (const int n : kProcCounts) {
            for (const int q : kQuantaMs) {
                const auto offset =
                    static_cast<int>(util::derive_stream_seed(seed, point++) % 8);
                for (int rep = 0; rep < kReps; ++rep) {
                    Fig4Run run{model, {}};
                    run.cfg.shares = wl::make_shares(model, n);
                    run.cfg.quantum = util::msec(q);
                    run.cfg.measure_cycles = 200;
                    run.cfg.warmup_cycles = 5 + offset + rep;
                    run.cfg.policy_seed = seed;
                    grid.push_back(std::move(run));
                }
            }
        }
    }
    return grid;
}

web::WebScaleConfig web1000_config(web::Deploy deploy, std::uint64_t seed) {
    // The web_scale sweep's s1000x16 flagship machine with its smoke-span
    // timeline (bench/exp_web_scale.cpp, non-full make_config).
    web::WebScaleConfig cfg;
    cfg.sites = 1000;
    cfg.ncpus = 16;
    cfg.base_rps = 2.0;
    cfg.deploy = deploy;
    cfg.quantum = util::msec(deploy == web::Deploy::kPerCoreAlps ? 10 : 100);
    cfg.flash_multiplier = 8.0;
    cfg.warmup = util::sec(2);
    cfg.measure = util::sec(16);
    cfg.flash_start = util::sec(5);
    cfg.flash_ramp = util::sec(1);
    cfg.flash_hold = util::sec(6);
    cfg.flash_decay = util::sec(2);
    cfg.seed = seed;
    return cfg;
}

Outputs outputs_of(const wl::SimRunResult& r) {
    return {r.mean_rms_error,
            r.overhead_fraction,
            static_cast<double>(r.cycles_completed),
            static_cast<double>(r.ticks),
            static_cast<double>(r.measurements),
            static_cast<double>(r.boundaries_missed),
            static_cast<double>(r.wall.count()),
            static_cast<double>(r.alps_cpu.count()),
            r.timed_out ? 1.0 : 0.0,
            r.fairness.time_ratio,
            r.fairness.rms_share_error,
            r.fairness.max_complaint};
}

Outputs outputs_of(const web::WebScaleResult& r) {
    return {static_cast<double>(r.arrivals),
            static_cast<double>(r.completed),
            static_cast<double>(r.drops),
            static_cast<double>(r.timeouts),
            static_cast<double>(r.peak_in_flight),
            static_cast<double>(r.flash_sites),
            r.protected_p50_ms,
            r.protected_p95_ms,
            r.protected_p99_ms,
            r.flash_p99_ms,
            r.steady_p99_ms,
            r.protected_rps,
            r.total_rps,
            r.cpu_utilization,
            r.overhead_fraction,
            static_cast<double>(r.boundaries_missed),
            static_cast<double>(r.migrations),
            static_cast<double>(r.steals)};
}

namespace {

/// The driver process body, wrapped in the timing decorator when traced.
/// Returns the behaviour to spawn; `driver` receives the inner object.
std::unique_ptr<os::Behavior> driver_body(std::unique_ptr<core::AlpsDriverBehavior> inner,
                                          Tracer* tracer,
                                          const core::AlpsDriverBehavior*& driver) {
    driver = inner.get();
    if (tracer == nullptr) return inner;
    return std::make_unique<TimedBehavior>(std::move(inner), *tracer);
}

/// engine.run_until as the traced run's root span.
void run_until(sim::Engine& engine, TimePoint t, Tracer* tracer) {
    Tracer::Span root(tracer, Layer::kSimOs);
    engine.run_until(t);
}

// ---------------------------------------------------------------------------
// run_cpu_bound_experiment's machine: one CPU, the shared 4.4BSD queue, one
// SimAlps (host -> PidProcessControl -> disabled FaultInjectingControl ->
// Scheduler, driver spawned as "alps"), |shares| compute-bound workers.

class CpuBoundMachine {
public:
    CpuBoundMachine(const wl::SimRunConfig& cfg, Tracer* tracer)
        : cfg_(cfg),
          tracer_(tracer),
          kernel_(engine_, make_policy(cfg, tracer), kernel_config(cfg)),
          host_(kernel_),
          timed_host_(tracer != nullptr ? std::make_unique<TimedHost>(host_, *tracer)
                                        : nullptr),
          control_(timed_host_ != nullptr ? static_cast<core::ProcessHost&>(*timed_host_)
                                          : host_),
          faults_(control_, core::FaultPlan{}),
          scheduler_(faults_, scheduler_config(cfg), &engine_.arena()),
          log_([this](core::EntityId id) {
              return kernel_.cpu_time(static_cast<os::Pid>(id));
          }) {
        driver_pid_ = kernel_.spawn(
            "alps", /*uid=*/0,
            driver_body(std::make_unique<core::AlpsDriverBehavior>(scheduler_, cfg.cost),
                        tracer, driver_));
        scheduler_.set_cycle_observer(log_.observer());
        for (std::size_t i = 0; i < cfg.shares.size(); ++i) {
            const os::Pid pid = kernel_.spawn("worker" + std::to_string(i), /*uid=*/100,
                                              std::make_unique<os::CpuBoundBehavior>());
            scheduler_.add(static_cast<core::EntityId>(pid), cfg.shares[i]);
        }
    }

    ~CpuBoundMachine() {
        // SimAlps's teardown: leave nothing stopped, retire the driver.
        scheduler_.release_all();
        if (kernel_.alive(driver_pid_)) kernel_.send_signal(driver_pid_, os::Signal::kKill);
    }

    CpuBoundMachine(const CpuBoundMachine&) = delete;
    CpuBoundMachine& operator=(const CpuBoundMachine&) = delete;

    wl::SimRunResult run() {
        const Duration cycle_len = cfg_.quantum * util::total_shares(cfg_.shares);
        const auto total_cycles =
            static_cast<std::size_t>(cfg_.warmup_cycles + cfg_.measure_cycles);
        const Duration max_wall =
            cfg_.max_wall > Duration::zero()
                ? cfg_.max_wall
                : cycle_len * static_cast<std::int64_t>(3 * (total_cycles + 10));
        const TimePoint deadline = TimePoint{} + max_wall;
        bool completed = true;
        while (log_.cycle_count() < total_cycles) {
            if (engine_.now() >= deadline) {
                completed = false;
                break;
            }
            run_until(engine_, std::min(engine_.now() + util::sec(1), deadline), tracer_);
        }

        wl::SimRunResult res;
        res.timed_out = !completed;
        res.wall = engine_.now() - TimePoint{};
        res.alps_cpu = kernel_.cpu_time(driver_pid_);
        res.overhead_fraction = util::to_sec(res.wall) > 0.0
                                    ? util::to_sec(res.alps_cpu) / util::to_sec(res.wall)
                                    : 0.0;
        const auto warmup = static_cast<std::size_t>(cfg_.warmup_cycles);
        const auto measured = static_cast<std::size_t>(cfg_.measure_cycles);
        res.mean_rms_error = log_.mean_rms_relative_error(warmup, measured);
        res.cycles_completed = log_.cycle_count();
        res.ticks = scheduler_.tick_count();
        res.measurements = scheduler_.total_measurements();
        res.boundaries_missed = driver_->boundaries_missed();
        res.fairness = alps::metrics::analyze_fairness(log_.records(), warmup, measured);
        // Export exactly what the entry point exports, into the caller's
        // registry if it gave one (so the two registries can be compared),
        // else into a scratch one so host times still compare like with like.
        alps::telemetry::MetricsRegistry scratch;
        alps::telemetry::MetricsRegistry& reg = cfg_.metrics != nullptr ? *cfg_.metrics : scratch;
        engine_.export_metrics(reg);
        kernel_.export_metrics(reg);
        scheduler_.export_metrics(reg);
        alps::metrics::export_fairness(res.fairness, reg);
        return res;
    }

private:
    static std::unique_ptr<os::SchedPolicy> make_policy(const wl::SimRunConfig& cfg,
                                                        Tracer* tracer) {
        // The kernel would build the same policy by name (domain 0 seeds
        // with policy_seed + 0); building it here lets the tracer wrap it.
        auto policy = os::policies::make_policy(cfg.kernel_policy, {.seed = cfg.policy_seed});
        if (tracer == nullptr) return policy;
        return std::make_unique<TimedPolicy>(std::move(policy), *tracer);
    }
    static os::KernelConfig kernel_config(const wl::SimRunConfig& cfg) {
        os::KernelConfig k;
        k.stop_latency_grid = cfg.stop_latency_grid;
        k.policy = cfg.kernel_policy;
        k.policy_seed = cfg.policy_seed;
        return k;
    }
    static core::SchedulerConfig scheduler_config(const wl::SimRunConfig& cfg) {
        core::SchedulerConfig s;
        s.quantum = cfg.quantum;
        s.lazy_measurement = cfg.lazy_measurement;
        s.io_accounting = cfg.io_accounting;
        return s;
    }

    wl::SimRunConfig cfg_;
    Tracer* tracer_;
    sim::Engine engine_;
    os::Kernel kernel_;
    core::SimProcessHost host_;
    std::unique_ptr<TimedHost> timed_host_;
    core::PidProcessControl control_;
    core::FaultInjectingControl faults_;
    core::Scheduler scheduler_;
    alps::metrics::ExactCycleLog log_;
    const core::AlpsDriverBehavior* driver_ = nullptr;  // owned by the kernel
    os::Pid driver_pid_ = os::kNoPid;
};

// ---------------------------------------------------------------------------
// run_web_scale_experiment's machine. SimGroupAlps is rebuilt from its parts
// (host -> GroupProcessControl -> Scheduler, driver with the once-per-period
// membership refresh as its pre-tick) so the tracer can sit between them.

struct GroupAlps {
    core::SimProcessHost host;
    std::unique_ptr<TimedHost> timed_host;
    core::GroupProcessControl control;
    core::Scheduler scheduler;
    const core::AlpsDriverBehavior* driver = nullptr;  // owned by the kernel
    os::Pid driver_pid = os::kNoPid;
    TimePoint next_refresh{};

    GroupAlps(os::Kernel& kernel, const web::WebScaleConfig& cfg, Tracer* tracer, int cpu)
        : host(kernel),
          timed_host(tracer != nullptr ? std::make_unique<TimedHost>(host, *tracer)
                                       : nullptr),
          control(timed_host != nullptr ? static_cast<core::ProcessHost&>(*timed_host)
                                        : host),
          scheduler(control, scheduler_config(cfg), &kernel.engine().arena()),
          next_refresh(kernel.now()) {
        auto pre_tick = [this, &kernel, cost = cfg.cost,
                         period = cfg.refresh_period]() -> Duration {
            if (kernel.now() < next_refresh) return Duration::zero();
            next_refresh = kernel.now() + period;
            const int scanned = control.refresh_all();
            core::TickStats as_if;
            as_if.measured = scanned;
            return cost.tick_cost(as_if) - util::from_us(cost.timer_event_us);
        };
        driver_pid = kernel.spawn(
            "alps-c" + std::to_string(cpu), /*uid=*/0,
            driver_body(std::make_unique<core::AlpsDriverBehavior>(scheduler, cfg.cost,
                                                                   std::move(pre_tick)),
                        tracer, driver),
            cfg.driver_nice, /*home_cpu=*/cpu, /*pinned=*/true);
    }

    void manage_user(std::string name, os::Uid uid, util::Share share) {
        const core::EntityId id = control.add_principal(std::move(name), uid);
        control.refresh(id);
        scheduler.add(id, share);
    }

    static core::SchedulerConfig scheduler_config(const web::WebScaleConfig& cfg) {
        core::SchedulerConfig s;
        s.quantum = cfg.quantum;
        s.io_accounting = cfg.io_accounting;
        return s;
    }
};

bool flash_member(const web::WebScaleConfig& cfg, int i) {
    if (cfg.flash_multiplier <= 1.0 || cfg.flash_stride <= 0) return false;
    const int row = i / cfg.ncpus;
    return row % cfg.flash_stride == 1;
}

double quantile_ms(const alps::traffic::LatencyRecorder& rec,
                   const std::vector<std::size_t>& sites, double q) {
    if (sites.empty()) return 0.0;
    return util::to_sec(rec.quantile_of(sites, q)) * 1e3;
}

class WebMachine {
public:
    WebMachine(const web::WebScaleConfig& cfg, Tracer* tracer)
        : cfg_(cfg),
          tracer_(tracer),
          kernel_(engine_, nullptr, kernel_config(cfg)),
          recorder_(static_cast<std::size_t>(cfg.sites)) {
        // The benchmark runs the per-core and kernel-only deployments only.
        ALPS_ENSURE(cfg.deploy != web::Deploy::kGlobalAlps);
        const auto nsites = static_cast<std::size_t>(cfg.sites);
        table_.reserve(nsites * 8);
        const bool pinned = cfg.deploy == web::Deploy::kPerCoreAlps;
        sites_.reserve(nsites);
        gens_.reserve(nsites);
        for (int i = 0; i < cfg.sites; ++i) {
            web::SiteConfig sc;
            sc.name = "s" + std::to_string(i);
            sc.uid = 1000 + static_cast<os::Uid>(i);
            sc.site_index = static_cast<std::uint32_t>(i);
            sc.initial_workers = cfg.initial_workers;
            sc.max_workers = cfg.max_workers;
            sc.min_spare = 1;
            sc.max_spare = 4;
            sc.spawn_batch = 2;
            sc.parse_cpu = cfg.parse_cpu;
            sc.render_cpu = cfg.render_cpu;
            sc.db_time = cfg.db_time;
            sc.service = cfg.service;
            sc.max_backlog = cfg.max_backlog;
            sc.queue_timeout = cfg.queue_timeout;
            sc.home_cpu = cfg.ncpus > 1 ? i % cfg.ncpus : -1;
            sc.pinned = pinned;
            sc.seed =
                util::derive_stream_seed(cfg.seed, 2 * static_cast<std::uint64_t>(i));
            sites_.push_back(std::make_unique<web::WebSite>(kernel_, sc, &table_, &recorder_));

            alps::traffic::GeneratorConfig gc;
            gc.mode = alps::traffic::GeneratorConfig::Mode::kOpenLoop;
            gc.arrival.base_rps =
                i == 0 ? cfg.base_rps * cfg.protected_rps_mult : cfg.base_rps;
            // The benchmark's machine has no diurnal envelope and no MMPP
            // bursts (web1000_config leaves both off).
            ALPS_ENSURE(cfg.diurnal_amplitude <= 0.0 && cfg.burst_multiplier <= 1.0);
            if (flash_member(cfg, i)) {
                alps::traffic::FlashCrowd spike;
                spike.start = TimePoint{} + cfg.flash_start;
                spike.ramp = cfg.flash_ramp;
                spike.hold = cfg.flash_hold;
                spike.decay = cfg.flash_decay;
                spike.multiplier = cfg.flash_multiplier;
                gc.arrival.spikes.push_back(spike);
                flash_ix_.push_back(static_cast<std::size_t>(i));
            } else if (i != 0) {
                steady_ix_.push_back(static_cast<std::size_t>(i));
            }
            gc.seed = util::derive_stream_seed(cfg.seed,
                                               2 * static_cast<std::uint64_t>(i) + 1);
            web::WebSite* site = sites_.back().get();
            alps::traffic::Generator::SubmitFn submit;
            if (tracer != nullptr) {
                submit = [site, tracer] {
                    Tracer::Span s(tracer, Layer::kSubmit);
                    site->submit();
                };
            } else {
                submit = [site] { site->submit(); };
            }
            gens_.push_back(
                std::make_unique<alps::traffic::Generator>(engine_, gc, std::move(submit)));
        }

        if (cfg.deploy == web::Deploy::kPerCoreAlps) {
            for (int c = 0; c < cfg.ncpus; ++c) {
                alps_.push_back(std::make_unique<GroupAlps>(kernel_, cfg, tracer, c));
                for (int i = c; i < cfg.sites; i += cfg.ncpus) {
                    alps_.back()->manage_user(
                        "u" + std::to_string(i), 1000 + static_cast<os::Uid>(i),
                        i == 0 ? cfg.protected_share : cfg.default_share);
                }
            }
        }
    }

    ~WebMachine() {
        for (const auto& a : alps_) {
            a->scheduler.release_all();
            if (kernel_.alive(a->driver_pid)) kernel_.send_signal(a->driver_pid, os::Signal::kKill);
        }
    }

    WebMachine(const WebMachine&) = delete;
    WebMachine& operator=(const WebMachine&) = delete;

    web::WebScaleResult run(AlpsCounts* counts) {
        run_until(engine_, TimePoint{} + cfg_.warmup, tracer_);
        const std::uint64_t completed0 = recorder_.total_completed();
        const std::uint64_t protected0 = recorder_.completed(0);
        const Duration busy0 = kernel_.busy_time();
        Duration alps0{0};
        for (const auto& a : alps_) alps0 += kernel_.cpu_time(a->driver_pid);

        run_until(engine_, TimePoint{} + cfg_.warmup + cfg_.measure, tracer_);

        web::WebScaleResult res;
        for (const auto& g : gens_) res.arrivals += g->submitted();
        res.completed = recorder_.total_completed();
        res.drops = recorder_.total_drops();
        res.timeouts = recorder_.total_timeouts();
        res.peak_in_flight = table_.peak_in_flight();
        res.flash_sites = static_cast<int>(flash_ix_.size());
        res.protected_p50_ms = util::to_sec(recorder_.quantile(0, 0.50)) * 1e3;
        res.protected_p95_ms = util::to_sec(recorder_.quantile(0, 0.95)) * 1e3;
        res.protected_p99_ms = util::to_sec(recorder_.quantile(0, 0.99)) * 1e3;
        res.flash_p99_ms = quantile_ms(recorder_, flash_ix_, 0.99);
        res.steady_p99_ms = quantile_ms(recorder_, steady_ix_, 0.99);
        const double window_s = util::to_sec(cfg_.measure);
        res.protected_rps =
            static_cast<double>(recorder_.completed(0) - protected0) / window_s;
        res.total_rps =
            static_cast<double>(recorder_.total_completed() - completed0) / window_s;
        res.cpu_utilization =
            util::to_sec(kernel_.busy_time() - busy0) / (window_s * cfg_.ncpus);
        Duration alps_cpu{0};
        for (const auto& a : alps_) {
            alps_cpu += kernel_.cpu_time(a->driver_pid);
            res.boundaries_missed += a->driver->boundaries_missed();
            if (counts != nullptr) {
                counts->ticks += a->scheduler.tick_count();
                counts->measurements += a->scheduler.total_measurements();
            }
        }
        res.overhead_fraction = util::to_sec(alps_cpu - alps0) / (window_s * cfg_.ncpus);
        res.migrations = kernel_.migrations();
        res.steals = kernel_.steals();

        // Same export as the entry point (see CpuBoundMachine::run).
        alps::telemetry::MetricsRegistry scratch;
        alps::telemetry::MetricsRegistry& reg = cfg_.metrics != nullptr ? *cfg_.metrics : scratch;
        engine_.export_metrics(reg);
        kernel_.export_metrics(reg);
        recorder_.export_metrics(reg, "web_scale", cfg_.per_site_telemetry);
        reg.counter("web_scale.arrivals").add(res.arrivals);
        reg.gauge("web_scale.peak_in_flight").set(static_cast<double>(res.peak_in_flight));
        return res;
    }

private:
    static os::KernelConfig kernel_config(const web::WebScaleConfig& cfg) {
        os::KernelConfig k;
        k.ncpus = cfg.ncpus;
        k.percpu_queues = cfg.ncpus > 1;
        return k;
    }

    web::WebScaleConfig cfg_;
    Tracer* tracer_;
    sim::Engine engine_;
    os::Kernel kernel_;
    alps::traffic::RequestTable table_;
    alps::traffic::LatencyRecorder recorder_;
    std::vector<std::unique_ptr<web::WebSite>> sites_;
    std::vector<std::unique_ptr<alps::traffic::Generator>> gens_;
    std::vector<std::unique_ptr<GroupAlps>> alps_;
    std::vector<std::size_t> flash_ix_;
    std::vector<std::size_t> steady_ix_;
};

}  // namespace

wl::SimRunResult rebuilt_cpu_bound(const wl::SimRunConfig& cfg, Tracer* tracer,
                                   bool build_only) {
    CpuBoundMachine machine(cfg, tracer);
    if (build_only) return {};
    return machine.run();
}

web::WebScaleResult rebuilt_web_scale(const web::WebScaleConfig& cfg, Tracer* tracer,
                                      bool build_only, AlpsCounts* counts) {
    WebMachine machine(cfg, tracer);
    if (build_only) return {};
    return machine.run(counts);
}

}  // namespace perfbench
