// AlpsDriverBehavior timing: boundary bookkeeping under normal and
// pathological tick costs, for both controllers it drives.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "alps/sim_adapter.h"
#include "alps/stride_engine.h"
#include "os/behaviors.h"
#include "os/kernel.h"
#include "sim/engine.h"

namespace alps::core {
namespace {

using util::msec;
using util::sec;

/// The two controllers AlpsDriverBehavior drives: the ALPS allowance loop
/// and the stride engine.
enum class Controller { kAlps, kStride };
constexpr Controller kControllers[] = {Controller::kAlps, Controller::kStride};

struct DriverCounts {
    std::uint64_t ticks = 0;
    std::uint64_t missed = 0;
};

/// Runs one compute-bound worker (share 1) under `which` at a 10 ms quantum
/// for `span`, and returns what its driver counted.
DriverCounts drive_one_worker(Controller which, CostModel cost, util::Duration span) {
    sim::Engine engine;
    os::Kernel kernel(engine);
    std::unique_ptr<SimAlps> alps;
    std::unique_ptr<SimStrideAlps> stride;
    const AlpsDriverBehavior* driver = nullptr;
    if (which == Controller::kAlps) {
        SchedulerConfig cfg;
        cfg.quantum = msec(10);
        alps = std::make_unique<SimAlps>(kernel, cfg, cost);
        driver = &alps->driver();
    } else {
        StrideEngineConfig cfg;
        cfg.quantum = msec(10);
        stride = std::make_unique<SimStrideAlps>(kernel, cfg, cost);
        driver = &stride->driver();
    }
    const os::Pid w = kernel.spawn("w", 0, std::make_unique<os::CpuBoundBehavior>());
    if (alps != nullptr) {
        alps->manage(w, 1);
    } else {
        stride->engine().add(w, 1);
    }
    engine.run_until(engine.now() + span);
    return {driver->ticks_run(), driver->boundaries_missed()};
}

const char* name_of(Controller c) { return c == Controller::kAlps ? "alps" : "stride"; }

TEST(AlpsDriver, TicksOncePerQuantum) {
    for (const Controller c : kControllers) {
        SCOPED_TRACE(name_of(c));
        const DriverCounts n = drive_one_worker(c, CostModel{}, sec(2));
        // ~200 quanta in 2 s; the first fires at t=Q.
        EXPECT_NEAR(static_cast<double>(n.ticks), 200.0, 3.0);
        EXPECT_EQ(n.missed, 0u);
    }
}

TEST(AlpsDriver, PathologicalTickCostSkipsBoundariesInsteadOfBunching) {
    // A cost model where one tick costs 2.5 quanta of CPU: the driver can
    // only complete a tick every ~3 boundaries. The absolute-deadline logic
    // must skip the missed boundaries (count them) rather than fire a burst
    // of catch-up ticks.
    CostModel pathological;
    pathological.timer_event_us = 25000.0;  // 25 ms per tick
    for (const Controller c : kControllers) {
        SCOPED_TRACE(name_of(c));
        const DriverCounts n = drive_one_worker(c, pathological, sec(3));
        // Each tick burns 25 ms (plus queueing behind the workload — at this
        // demand the driver's own priority degrades too), so a tick completes
        // every ~30+ ms: around 100 ticks in 3 s, never a catch-up burst of 300.
        EXPECT_GT(n.ticks, 60u);
        EXPECT_LT(n.ticks, 120u);
        // Most boundaries were skipped, roughly two per completed tick.
        EXPECT_GT(n.missed, n.ticks);
        // Accounted boundaries can lag the wall total (in-flight sequence,
        // dispatch delay) but never exceed it.
        EXPECT_LE(n.ticks + n.missed, 300u);
        EXPECT_GE(n.ticks + n.missed, 240u);
    }
}

TEST(AlpsDriver, DriverSurvivesEmptyScheduler) {
    sim::Engine engine;
    os::Kernel kernel(engine);
    SchedulerConfig cfg;
    cfg.quantum = msec(10);
    SimAlps alps(kernel, cfg);  // nothing managed
    engine.run_until(engine.now() + sec(1));
    EXPECT_GE(alps.driver().ticks_run(), 95u);
    EXPECT_TRUE(kernel.alive(alps.driver_pid()));
    // An idle driver costs only the timer events.
    EXPECT_LT(util::to_sec(alps.overhead_cpu()), 0.005);
}

TEST(AlpsDriver, SpawningDuringBehaviorHookIsSafe) {
    // A workload process whose behaviour spawns a child mid-run (like the
    // web master); the ALPS driver keeps control throughout.
    sim::Engine engine;
    os::Kernel kernel(engine);
    SchedulerConfig cfg;
    cfg.quantum = msec(10);
    SimAlps alps(kernel, cfg);

    os::Pid child = os::kNoPid;
    auto spawner = std::make_unique<os::FunctionBehavior>(
        [&, phase = 0](os::ProcContext ctx) mutable -> os::Action {
            if (phase++ == 0) return os::RunAction{msec(50)};
            if (child == os::kNoPid) {
                child = ctx.kernel.spawn("child", 0,
                                         std::make_unique<os::CpuBoundBehavior>());
            }
            return os::RunAction{os::kRunForever};
        });
    const os::Pid parent = kernel.spawn("parent", 0, std::move(spawner));
    alps.manage(parent, 1);
    engine.run_until(engine.now() + sec(2));
    ASSERT_NE(child, os::kNoPid);
    EXPECT_TRUE(kernel.alive(child));
    // The child is NOT under ALPS (never managed): it competes freely, and
    // ALPS still correctly meters the parent within the pair.
    EXPECT_GT(kernel.cpu_time(child).count(), 0);
    EXPECT_EQ(alps.driver().boundaries_missed(), 0u);
}

}  // namespace
}  // namespace alps::core
