// POSIX backend tests: the pure /proc parsers. The tests that fork real
// children and time their CPU live in test_posix_live.cpp.
#include <gtest/gtest.h>

#include "posix/proc_stat.h"

namespace alps::posix {
namespace {

// ----------------------------------------------------------------------------
// /proc parsing (pure)

TEST(ProcStatParse, TypicalLine) {
    const auto st = parse_proc_stat(
        "1234 (myproc) R 1 1234 1234 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 1 0 "
        "12345 1000000 100 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 3 0 0");
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(st->pid, 1234);
    EXPECT_EQ(st->comm, "myproc");
    EXPECT_EQ(st->state, 'R');
    EXPECT_EQ(st->utime_ticks, 250u);
    EXPECT_EQ(st->stime_ticks, 50u);
    EXPECT_EQ(st->starttime_ticks, 12345u);  // field 22, the pid-reuse guard
}

TEST(ProcStatParse, CommWithSpacesAndParens) {
    const auto st = parse_proc_stat(
        "77 (weird (name) here) S 1 1 1 0 -1 0 0 0 0 0 7 3 0 0 20 0 1 0 0 0 0 0 "
        "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0");
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(st->comm, "weird (name) here");
    EXPECT_EQ(st->state, 'S');
    EXPECT_EQ(st->utime_ticks, 7u);
    EXPECT_EQ(st->stime_ticks, 3u);
    EXPECT_EQ(st->starttime_ticks, 0u);
}

TEST(ProcStatParse, MalformedInputsRejected) {
    EXPECT_FALSE(parse_proc_stat("").has_value());
    EXPECT_FALSE(parse_proc_stat("1234").has_value());
    EXPECT_FALSE(parse_proc_stat("1234 (x)").has_value());
    EXPECT_FALSE(parse_proc_stat("1234 (x) R 1 2").has_value());  // too few fields
    EXPECT_FALSE(parse_proc_stat("x (y) R 1 2 3 4 5 6 7 8 9 10 11 12 13").has_value());
}

TEST(ProcStatParse, TruncatedBeforeStarttimeRejected) {
    // 19 fields after the comm: utime/stime are present but starttime (the
    // 20th) is not — a torn read must not yield a half-valid ProcStat.
    EXPECT_FALSE(parse_proc_stat(
                     "9 (x) R 1 9 9 0 -1 0 100 0 0 0 250 50 0 0 20 0 1 0")
                     .has_value());
    // One more field (starttime) and the same line parses.
    const auto st = parse_proc_stat(
        "9 (x) R 1 9 9 0 -1 0 100 0 0 0 250 50 0 0 20 0 1 0 777");
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(st->starttime_ticks, 777u);
}

TEST(ProcStatParse, StateClassification) {
    EXPECT_TRUE(state_is_blocked('S'));
    EXPECT_TRUE(state_is_blocked('D'));
    EXPECT_FALSE(state_is_blocked('R'));
    EXPECT_FALSE(state_is_blocked('T'));  // stopped by ALPS, not "blocked"
    EXPECT_TRUE(state_is_dead('Z'));
    EXPECT_TRUE(state_is_dead('X'));
    EXPECT_FALSE(state_is_dead('R'));
}

TEST(SchedstatParse, FirstFieldIsOnCpuNanoseconds) {
    const auto d = parse_schedstat("123456789 55 42\n");
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->count(), 123456789);
    EXPECT_FALSE(parse_schedstat("").has_value());
    EXPECT_FALSE(parse_schedstat("abc def").has_value());
}

TEST(TicksToDuration, UsesUserHz) {
    // USER_HZ is virtually always 100 on Linux.
    const auto d = ticks_to_duration(100);
    EXPECT_NEAR(util::to_sec(d), 1.0, 0.5);
}

}  // namespace
}  // namespace alps::posix
