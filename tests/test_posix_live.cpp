// POSIX backend tests on the real OS: the process-control tests fork real
// children and exercise /proc + signals; the end-to-end tests run the real
// ALPS loop briefly and time the children's CPU. Tolerances are generous:
// the host is shared. CTest runs this binary's tests serially (RUN_SERIAL),
// since CPU proportions timed beside a parallel suite measure the suite.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <thread>

#include "alps/group_control.h"
#include "posix/host.h"
#include "posix/runner.h"
#include "posix/spawn.h"

namespace alps::posix {
namespace {

using util::msec;
using util::sec;

// ----------------------------------------------------------------------------
// Real-process host

TEST(PosixHost, ReadsOwnProcess) {
    PosixProcessHost host;
    const core::Sample s = host.read_pid(::getpid());
    EXPECT_TRUE(s.alive);
    EXPECT_GT(s.cpu_time.count(), 0);
}

TEST(PosixHost, MissingPidReportsDead) {
    PosixProcessHost host;
    // Pid 4194300 is near pid_max and almost certainly absent; even if it
    // exists the test only requires a well-formed answer.
    const core::Sample s = host.read_pid(4194300);
    if (!s.alive) SUCCEED();
}

TEST(PosixHost, BusyChildAccumulatesCpu) {
    PosixProcessHost host;
    ChildSet children;
    const pid_t pid = children.add_busy();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const core::Sample s1 = host.read_pid(pid);
    ASSERT_TRUE(s1.alive);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const core::Sample s2 = host.read_pid(pid);
    EXPECT_GT(s2.cpu_time.count(), s1.cpu_time.count());
}

TEST(PosixHost, StopFreezesConsumption) {
    PosixProcessHost host;
    ChildSet children;
    const pid_t pid = children.add_busy();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    host.stop_pid(pid);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const core::Sample s1 = host.read_pid(pid);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const core::Sample s2 = host.read_pid(pid);
    ASSERT_TRUE(s2.alive);
    // Stopped: no meaningful progress (allow scheduler-tick slop).
    EXPECT_LT((s2.cpu_time - s1.cpu_time).count(), msec(20).count());
    host.cont_pid(pid);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const core::Sample s3 = host.read_pid(pid);
    EXPECT_GT((s3.cpu_time - s2.cpu_time).count(), msec(20).count());
}

TEST(PosixHost, PidsOfUserIncludesSelf) {
    PosixProcessHost host;
    const auto pids = host.pids_of_user(static_cast<core::HostUid>(::getuid()));
    const auto me = static_cast<core::HostPid>(::getpid());
    EXPECT_NE(std::find(pids.begin(), pids.end(), me), pids.end());
}

// ----------------------------------------------------------------------------
// End-to-end on the real OS

TEST(PosixRunner, EnforcesProportionsOnRealChildren) {
    // Pin everything to one CPU so two busy loops actually contend, as on
    // the paper's uniprocessor host.
    ChildSet children;
    const pid_t a = children.add_busy();
    const pid_t b = children.add_busy();
    pin_to_cpu(a, 0);
    pin_to_cpu(b, 0);

    core::SchedulerConfig cfg;
    cfg.quantum = msec(10);
    PosixAlpsRunner runner(cfg);
    PosixProcessHost host;
    const auto cpu0_a = host.read_pid(a).cpu_time;
    const auto cpu0_b = host.read_pid(b).cpu_time;
    runner.scheduler().add(a, 1);
    runner.scheduler().add(b, 3);

    const RunTotals totals = runner.run_for(sec(3));
    EXPECT_GT(totals.ticks, 100u);

    const double da = util::to_sec(host.read_pid(a).cpu_time - cpu0_a);
    const double db = util::to_sec(host.read_pid(b).cpu_time - cpu0_b);
    ASSERT_GT(da + db, 1.0);  // they did run
    // 1:3 within generous tolerance (shared CI host).
    EXPECT_NEAR(db / (da + db), 0.75, 0.12);
    // Neither child may be left SIGSTOPped after release_all().
    EXPECT_FALSE(host.read_pid(a).blocked);
}

TEST(PosixRunner, OverheadIsSmall) {
    ChildSet children;
    const pid_t a = children.add_busy();
    pin_to_cpu(a, 0);
    core::SchedulerConfig cfg;
    cfg.quantum = msec(20);
    PosixAlpsRunner runner(cfg);
    runner.scheduler().add(a, 1);
    const RunTotals totals = runner.run_for(sec(2));
    // The paper's bound: well under 1% of CPU for small workloads.
    EXPECT_LT(totals.overhead_fraction, 0.02);
}

TEST(PosixRunner, StopRequestEndsRunEarly) {
    PosixAlpsRunner runner{core::SchedulerConfig{}};
    std::thread stopper([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        runner.request_stop();
    });
    const auto t0 = monotonic_now();
    runner.run_for(sec(30));
    stopper.join();
    EXPECT_LT((monotonic_now() - t0).count(), sec(5).count());
}

TEST(PosixGroupRunner, EnforcesSharesAcrossGroups) {
    // Two explicit-membership principals (group mode does not require extra
    // user accounts): {a} with 1 share vs {b, c} with 3 shares. The pair's
    // *combined* consumption must approach 75%.
    ChildSet children;
    const pid_t a = children.add_busy();
    const pid_t b = children.add_busy();
    const pid_t c = children.add_busy();
    for (const pid_t p : {a, b, c}) pin_to_cpu(p, 0);

    core::SchedulerConfig cfg;
    cfg.quantum = msec(20);
    PosixGroupAlpsRunner runner(cfg);
    const core::EntityId g1 = runner.manage_group("solo", 1);
    const core::EntityId g2 = runner.manage_group("pair", 3);
    runner.groups().add_member(g1, a);
    runner.groups().add_member(g2, b);
    runner.groups().add_member(g2, c);

    PosixProcessHost host;
    const auto a0 = host.read_pid(a).cpu_time;
    const auto b0 = host.read_pid(b).cpu_time;
    const auto c0 = host.read_pid(c).cpu_time;
    runner.run_for(sec(3));

    const double da = util::to_sec(host.read_pid(a).cpu_time - a0);
    const double dbc = util::to_sec(host.read_pid(b).cpu_time - b0) +
                       util::to_sec(host.read_pid(c).cpu_time - c0);
    ASSERT_GT(da + dbc, 1.0);
    EXPECT_NEAR(dbc / (da + dbc), 0.75, 0.12);
}

TEST(GroupControlOnPosix, TracksRealChildrenOfUser) {
    // Group principal over this uid: membership must include our children.
    PosixProcessHost host;
    core::GroupProcessControl groups(host);
    ChildSet children;
    const pid_t a = children.add_busy();
    const pid_t b = children.add_busy();
    const core::EntityId g = groups.add_principal("me");
    groups.add_member(g, a);
    groups.add_member(g, b);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    const core::Sample s = groups.read_progress(g);
    EXPECT_GT(s.cpu_time.count(), 0);
    groups.suspend(g);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const auto frozen = groups.read_progress(g).cpu_time;
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    EXPECT_LT((groups.read_progress(g).cpu_time - frozen).count(), msec(30).count());
    groups.resume(g);
}

}  // namespace
}  // namespace alps::posix
