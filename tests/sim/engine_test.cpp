#include "sim/engine.hpp"

#include <vector>

#include <gtest/gtest.h>

#include "util/check.hpp"

namespace aurora::sim {
namespace {

using namespace aurora::sim::literals;

TEST(Engine, EmptySimulationCompletes) {
    simulation s;
    EXPECT_NO_THROW(s.run());
    EXPECT_EQ(s.now(), 0);
}

TEST(Engine, SingleProcessAdvancesClock) {
    simulation s;
    time_ns seen = -1;
    s.spawn("p", [&] {
        advance(100_ns);
        advance(1_us);
        seen = now();
    });
    s.run();
    EXPECT_EQ(seen, 1100);
    EXPECT_EQ(s.now(), 1100);
}

TEST(Engine, RunTwiceIsAnError) {
    simulation s;
    s.spawn("p", [] {});
    s.run();
    EXPECT_THROW(s.run(), check_error);
}

TEST(Engine, NegativeAdvanceRejected) {
    simulation s;
    s.spawn("p", [] { advance(-1); });
    EXPECT_THROW(s.run(), check_error);
}

TEST(Engine, ProcessesInterleaveByTime) {
    simulation s;
    std::vector<int> order;
    s.spawn("a", [&] {
        order.push_back(1); // t=0
        advance(100_ns);
        order.push_back(3); // t=100
        advance(200_ns);
        order.push_back(5); // t=300
    });
    s.spawn("b", [&] {
        order.push_back(2); // t=0 (after a, spawn order breaks the tie)
        advance(150_ns);
        order.push_back(4); // t=150
        advance(200_ns);
        order.push_back(6); // t=350
    });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(Engine, TieBrokenByReadyOrder) {
    simulation s;
    std::vector<char> order;
    s.spawn("a", [&] {
        advance(10_ns);
        order.push_back('a');
    });
    s.spawn("b", [&] {
        advance(10_ns);
        order.push_back('b');
    });
    s.run();
    // 'a' advanced first, so it became ready first and wins the tie.
    EXPECT_EQ(order, (std::vector<char>{'a', 'b'}));
}

TEST(Engine, SleepUntilAbsoluteTime) {
    simulation s;
    s.spawn("p", [&] {
        sleep_until(500);
        EXPECT_EQ(now(), 500);
        sleep_until(100); // in the past: no-op
        EXPECT_EQ(now(), 500);
    });
    s.run();
}

TEST(Engine, NowOutsideSimulationThrows) {
    EXPECT_FALSE(in_simulation());
    EXPECT_THROW((void)now(), check_error);
    EXPECT_THROW(advance(1), check_error);
}

TEST(Engine, InSimulationInsideProcess) {
    simulation s;
    bool inside = false;
    s.spawn("p", [&] { inside = in_simulation(); });
    s.run();
    EXPECT_TRUE(inside);
}

TEST(Engine, SelfIdentity) {
    simulation s;
    std::string name;
    std::uint32_t id = 99;
    s.spawn("alpha", [&] {
        name = self().name();
        id = self().id();
    });
    s.run();
    EXPECT_EQ(name, "alpha");
    EXPECT_EQ(id, 0u);
}

TEST(Engine, ExceptionInProcessPropagatesToRun) {
    simulation s;
    s.spawn("boom", [] { throw std::runtime_error("kaboom"); });
    try {
        s.run();
        FAIL() << "run() should rethrow";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "kaboom");
    }
}

TEST(Engine, ExceptionAbortsOtherProcesses) {
    simulation s;
    bool other_finished_normally = false;
    s.spawn("boom", [] {
        advance(10_ns);
        throw std::runtime_error("kaboom");
    });
    s.spawn("victim", [&] {
        advance(1_s); // would run to 1s if not aborted
        other_finished_normally = true;
    });
    EXPECT_THROW(s.run(), std::runtime_error);
    EXPECT_FALSE(other_finished_normally);
}

TEST(Engine, DeadlockDetected) {
    simulation s;
    // One process joins another that never finishes because it joins back.
    // Simplest deadlock: a process joins a process that joins it.
    process* pa = nullptr;
    process* pb = nullptr;
    pa = &s.spawn("a", [&] { join(*pb); });
    pb = &s.spawn("b", [&] { join(*pa); });
    try {
        s.run();
        FAIL() << "expected deadlock";
    } catch (const simulation_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("deadlock"), std::string::npos);
        EXPECT_NE(what.find("a"), std::string::npos);
        EXPECT_NE(what.find("blocked"), std::string::npos);
    }
}

TEST(Engine, JoinWaitsForChildAndCarriesTime) {
    simulation s;
    s.spawn("parent", [&] {
        process& child = s.spawn("child", [] { advance(500_ns); });
        advance(10_ns);
        join(child);
        EXPECT_EQ(now(), 500); // resumed at the child's finish time
    });
    s.run();
}

TEST(Engine, JoinFinishedProcessReturnsImmediately) {
    simulation s;
    s.spawn("parent", [&] {
        process& child = s.spawn("quick", [] {});
        advance(100_ns); // child runs (and finishes) during this advance
        EXPECT_TRUE(child.finished());
        join(child);
        EXPECT_EQ(now(), 100);
    });
    s.run();
}

TEST(Engine, SelfJoinRejected) {
    simulation s;
    s.spawn("p", [] { join(self()); });
    EXPECT_THROW(s.run(), check_error);
}

TEST(Engine, SpawnDuringRunStartsAtParentTime) {
    simulation s;
    time_ns child_start = -1;
    s.spawn("parent", [&] {
        advance(250_ns);
        s.spawn("child", [&] { child_start = now(); });
        advance(1_ns); // let the child run
    });
    s.run();
    EXPECT_EQ(child_start, 250);
}

TEST(Engine, SpawnAfterRunRejected) {
    simulation s;
    s.spawn("p", [] {});
    s.run();
    EXPECT_THROW(s.spawn("late", [] {}), check_error);
}

TEST(Engine, ManyProcessesDeterministicOrder) {
    // Two identical runs must produce identical event sequences.
    auto run_once = [] {
        simulation s;
        std::vector<std::pair<int, time_ns>> log;
        for (int i = 0; i < 8; ++i) {
            s.spawn(std::string("p").append(std::to_string(i)), [&log, i] {
                for (int k = 0; k < 5; ++k) {
                    advance((i * 7 + k * 13) % 50);
                    log.emplace_back(i, now());
                }
            });
        }
        s.run();
        return log;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, YieldAllowsSameTimePeer) {
    simulation s;
    std::vector<char> order;
    s.spawn("a", [&] {
        order.push_back('A');
        yield();
        order.push_back('C');
    });
    s.spawn("b", [&] { order.push_back('B'); });
    s.run();
    EXPECT_EQ(order, (std::vector<char>{'A', 'B', 'C'}));
}

TEST(Engine, StatsCountSwitchesAndSpawns) {
    simulation s;
    s.spawn("a", [] { advance(10_ns); });
    s.spawn("b", [] { advance(5_ns); });
    s.run();
    EXPECT_EQ(s.stats().processes_spawned, 2u);
    EXPECT_GE(s.stats().context_switches, 2u);
}

TEST(Engine, FastPathNoSwitchForLoneRunner) {
    simulation s;
    s.spawn("only", [] {
        for (int i = 0; i < 1000; ++i) advance(1_ns);
    });
    s.run();
    // A single runnable process re-schedules itself without handoffs:
    // only the initial grant counts.
    EXPECT_LE(s.stats().context_switches, 2u);
}

TEST(Engine, ClockIsMonotonicAcrossProcesses) {
    simulation s;
    std::vector<time_ns> stamps;
    s.spawn("a", [&] {
        for (int i = 0; i < 10; ++i) {
            advance(7_ns);
            stamps.push_back(now());
        }
    });
    s.spawn("b", [&] {
        for (int i = 0; i < 10; ++i) {
            advance(11_ns);
            stamps.push_back(now());
        }
    });
    s.run();
    // The *global* observation order must be non-decreasing.
    for (std::size_t i = 1; i < stamps.size(); ++i) {
        EXPECT_LE(stamps[i - 1], stamps[i]);
    }
}

} // namespace
} // namespace aurora::sim
