// Modern-comparator bench: user-level ALPS vs the Linux kernel's own
// proportional-share facility (cgroup cpu.shares), on real processes.
//
// Twenty years after the paper, the kernel support ALPS was designed to live
// without is standard. This harness pits the two against each other on the
// same workload — two busy loops pinned to one CPU, target split 1:3 — and
// also measures what the stock scheduler does with no control at all.
//
// Expected shape: both enforce ~25/75; cgroups with zero user-level overhead
// (it *is* the scheduler), ALPS with its sub-1% sampling overhead but no
// privileges or kernel configuration needed. Skipped (with a message) when
// cgroups are not writable. ALPS_BENCH_FULL=1 measures 20 s per mechanism
// instead of 5 s.
#include <cstdlib>
#include <iostream>
#include <string>

#include "posix/cgroup.h"
#include "posix/host.h"
#include "posix/runner.h"
#include "posix/spawn.h"
#include "util/table.h"

using namespace alps;

namespace {

struct Split {
    double small_pct = 0.0;
    double big_pct = 0.0;
    double overhead_pct = 0.0;
};

Split measure(posix::ChildSet& children, pid_t a, pid_t b, util::Duration wall,
              const std::function<double(util::Duration)>& control) {
    (void)children;
    posix::PosixProcessHost host;
    const auto a0 = host.read_pid(a).cpu_time;
    const auto b0 = host.read_pid(b).cpu_time;
    const double overhead = control(wall);
    const double da = util::to_sec(host.read_pid(a).cpu_time - a0);
    const double db = util::to_sec(host.read_pid(b).cpu_time - b0);
    Split s;
    if (da + db > 0) {
        s.small_pct = 100.0 * da / (da + db);
        s.big_pct = 100.0 * db / (da + db);
    }
    s.overhead_pct = overhead;
    return s;
}

void sleep_wall(util::Duration wall) {
    timespec ts{};
    ts.tv_sec = wall.count() / 1'000'000'000;
    ts.tv_nsec = wall.count() % 1'000'000'000;
    ::nanosleep(&ts, nullptr);
}

}  // namespace

int main() {
    std::cout << "ALPS vs cgroup cpu.shares — real processes, target split 1:3\n";
    const char* full = std::getenv("ALPS_BENCH_FULL");
    const bool full_scale = full != nullptr && std::string(full) == "1";
    const util::Duration wall = full_scale ? util::sec(20) : util::sec(5);

    posix::ChildSet children;
    const pid_t a = children.add_busy();
    const pid_t b = children.add_busy();
    posix::pin_to_cpu(a, 0);
    posix::pin_to_cpu(b, 0);

    util::TextTable t({"Mechanism", "1-share %", "3-share %", "controller ovh %",
                       "needs"});

    // 1. No control: the stock kernel splits evenly.
    const Split none = measure(children, a, b, wall, [&](util::Duration w) {
        sleep_wall(w);
        return 0.0;
    });
    t.add_row({"none (stock kernel)", util::fmt(none.small_pct, 1),
               util::fmt(none.big_pct, 1), "0", "-"});

    // 2. cgroup cpu.shares.
    if (posix::CpuCgroup::available()) {
        const Split cg = measure(children, a, b, wall, [&](util::Duration w) {
            posix::CpuCgroup small("alps-cmp-small", 1024);
            posix::CpuCgroup big("alps-cmp-big", 3072);
            small.attach(a);
            big.attach(b);
            sleep_wall(w);
            return 0.0;  // in-kernel: no user-level controller cost
        });
        t.add_row({"cgroup cpu.shares 1024:3072", util::fmt(cg.small_pct, 1),
                   util::fmt(cg.big_pct, 1), "0",
                   "root / delegated cgroup"});
    } else {
        t.add_row({"cgroup cpu.shares", "-", "-", "-", "unavailable here"});
    }

    // 3. ALPS, unprivileged.
    const Split alps_split = measure(children, a, b, wall, [&](util::Duration w) {
        core::SchedulerConfig cfg;
        cfg.quantum = util::msec(10);
        posix::PosixAlpsRunner runner(cfg);
        runner.scheduler().add(a, 1);
        runner.scheduler().add(b, 3);
        const posix::RunTotals totals = runner.run_for(w);
        return 100.0 * totals.overhead_fraction;
    });
    t.add_row({"ALPS 1:3 @10ms", util::fmt(alps_split.small_pct, 1),
               util::fmt(alps_split.big_pct, 1),
               util::fmt(alps_split.overhead_pct, 3), "no privileges"});

    t.print(std::cout);
    std::cout << "\nTarget: 25.0 / 75.0. Both mechanisms should hit it; the "
                 "difference is deployment (kernel facility + privileges vs "
                 "an unprivileged process paying <1% CPU).\n";
    return 0;
}
