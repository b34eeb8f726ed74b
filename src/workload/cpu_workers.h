// Setup shared by the CPU-bound workload runners: the exact per-cycle log
// wired to a controller, one compute-bound worker per share, and the default
// run deadline. Internal to src/workload/.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "metrics/exact_cycle_log.h"
#include "os/behaviors.h"
#include "os/kernel.h"
#include "util/shares.h"
#include "util/time.h"

namespace alps::workload::detail {

/// The paper's per-cycle instrumentation (§3.1) wired to `controller`
/// (core::Scheduler or core::StrideEngine): at every cycle end the log reads
/// each entity's true cumulative CPU from the simulated kernel.
template <typename Controller>
std::unique_ptr<metrics::ExactCycleLog> attach_exact_log(os::Kernel& kernel,
                                                         Controller& controller) {
    auto log = std::make_unique<metrics::ExactCycleLog>([&kernel](core::EntityId id) {
        return kernel.cpu_time(static_cast<os::Pid>(id));
    });
    controller.set_cycle_observer(log->observer());
    return log;
}

/// Worker j is spawned as `name_prefix` + j, under `uid`, homed on
/// `home_cpu` (-1 = the kernel's choice) and hard-pinned when `pinned`.
struct WorkerPlacement {
    std::string name_prefix;
    os::Uid uid = 100;
    int home_cpu = -1;
    bool pinned = false;
};

/// One controller's CPU-bound workload.
struct CpuWorkers {
    std::unique_ptr<metrics::ExactCycleLog> log;
    std::vector<os::Pid> pids;  ///< in share order
};

/// Attaches an exact log to `controller`, then spawns one compute-bound
/// worker per share, in order, and hands each to `controller` with its share.
template <typename Controller>
CpuWorkers attach_cpu_workers(os::Kernel& kernel, Controller& controller,
                              std::span<const util::Share> shares,
                              const WorkerPlacement& at) {
    CpuWorkers w{attach_exact_log(kernel, controller), {}};
    w.pids.reserve(shares.size());
    for (std::size_t j = 0; j < shares.size(); ++j) {
        const os::Pid pid = kernel.spawn(
            std::string(at.name_prefix).append(std::to_string(j)), at.uid,
            std::make_unique<os::CpuBoundBehavior>(), /*nice=*/0, at.home_cpu, at.pinned);
        controller.add(static_cast<core::EntityId>(pid), shares[j]);
        w.pids.push_back(pid);
    }
    return w;
}

/// Hard stop for a run of `cycles` cycles of `cycle_len`: three times the
/// nominal length, plus ten cycles of slack.
inline util::Duration default_deadline(util::Duration cycle_len, std::size_t cycles) {
    return cycle_len * static_cast<std::int64_t>(3 * (cycles + 10));
}

}  // namespace alps::workload::detail
