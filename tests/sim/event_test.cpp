#include "sim/event.hpp"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace aurora::sim {
namespace {

using namespace aurora::sim::literals;

TEST(Event, WaitBlocksUntilSet) {
    simulation s;
    event ev(s);
    std::vector<std::string> log;
    s.spawn("waiter", [&] {
        ev.wait();
        log.push_back("woke@" + std::to_string(now()));
    });
    s.spawn("setter", [&] {
        advance(300_ns);
        ev.set();
        log.push_back("set@" + std::to_string(now()));
    });
    s.run();
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log[0], "set@300");
    EXPECT_EQ(log[1], "woke@300");
}

TEST(Event, WaitOnAlreadySetReturnsImmediately) {
    simulation s;
    event ev(s);
    s.spawn("setter", [&] { ev.set(); });
    s.spawn("waiter", [&] {
        advance(10_ns);
        ev.wait();
        EXPECT_EQ(now(), 10); // set at t=0 is in the waiter's past
    });
    s.run();
}

TEST(Event, SetTimeCarriesForwardToLateWaiters) {
    simulation s;
    event ev(s);
    s.spawn("setter", [&] {
        advance(500_ns);
        ev.set();
    });
    s.spawn("waiter", [&] {
        // Still at t=0 when it calls wait (the setter runs only once the
        // waiter blocks); after wake the clock must be the set time.
        ev.wait();
        EXPECT_EQ(now(), 500);
    });
    s.run();
}

TEST(Event, ResetAllowsReblocking) {
    simulation s;
    event ev(s);
    int wakes = 0;
    s.spawn("waiter", [&] {
        ev.wait();
        ++wakes;
        ev.reset();
        ev.wait();
        ++wakes;
    });
    s.spawn("setter", [&] {
        advance(100_ns);
        ev.set();
        advance(100_ns);
        ev.set();
    });
    s.run();
    EXPECT_EQ(wakes, 2);
}

TEST(Event, MultipleWaitersAllWake) {
    simulation s;
    event ev(s);
    int woke = 0;
    for (int i = 0; i < 5; ++i) {
        s.spawn(std::string("w").append(std::to_string(i)), [&] {
            ev.wait();
            ++woke;
        });
    }
    s.spawn("setter", [&] {
        advance(50_ns);
        ev.set();
    });
    s.run();
    EXPECT_EQ(woke, 5);
}

TEST(Event, IsSetReflectsState) {
    simulation s;
    event ev(s);
    s.spawn("p", [&] {
        EXPECT_FALSE(ev.is_set());
        ev.set();
        EXPECT_TRUE(ev.is_set());
        ev.reset();
        EXPECT_FALSE(ev.is_set());
    });
    s.run();
}

TEST(Event, WaiterNeverSignalledIsDeadlock) {
    simulation s;
    event ev(s);
    s.spawn("waiter", [&] { ev.wait(); });
    EXPECT_THROW(s.run(), simulation_error);
}

TEST(Condition, WaitPredicate) {
    simulation s;
    condition cond(s);
    int value = 0;
    s.spawn("consumer", [&] {
        cond.wait([&] { return value == 3; });
        EXPECT_EQ(now(), 30);
    });
    s.spawn("producer", [&] {
        for (int i = 0; i < 3; ++i) {
            advance(10_ns);
            ++value;
            cond.notify_all();
        }
    });
    s.run();
    EXPECT_EQ(value, 3);
}

TEST(Condition, PredicateAlreadyTrueDoesNotBlock) {
    simulation s;
    condition cond(s);
    s.spawn("p", [&] {
        cond.wait([] { return true; });
        EXPECT_EQ(now(), 0);
    });
    s.run();
}

TEST(SimQueue, PushPopFifo) {
    simulation s;
    sim_queue<int> q(s);
    std::vector<int> got;
    s.spawn("consumer", [&] {
        for (int i = 0; i < 3; ++i) got.push_back(q.pop());
    });
    s.spawn("producer", [&] {
        for (int i = 1; i <= 3; ++i) {
            advance(10_ns);
            q.push(i * 11);
        }
    });
    s.run();
    EXPECT_EQ(got, (std::vector<int>{11, 22, 33}));
}

TEST(SimQueue, PopBlocksAndCarriesTime) {
    simulation s;
    sim_queue<int> q(s);
    s.spawn("consumer", [&] {
        const int v = q.pop();
        EXPECT_EQ(v, 7);
        EXPECT_EQ(now(), 250);
    });
    s.spawn("producer", [&] {
        advance(250_ns);
        q.push(7);
    });
    s.run();
}

TEST(SimQueue, TryPopNonBlocking) {
    simulation s;
    sim_queue<int> q(s);
    s.spawn("p", [&] {
        int out = 0;
        EXPECT_FALSE(q.try_pop(out));
        q.push(5);
        EXPECT_TRUE(q.try_pop(out));
        EXPECT_EQ(out, 5);
        EXPECT_TRUE(q.empty());
    });
    s.run();
}

TEST(SimQueue, SizeTracksContents) {
    simulation s;
    sim_queue<std::string> q(s);
    s.spawn("p", [&] {
        q.push("a");
        q.push("b");
        EXPECT_EQ(q.size(), 2u);
        (void)q.pop();
        EXPECT_EQ(q.size(), 1u);
    });
    s.run();
}

TEST(SimQueue, MoveOnlyPayload) {
    simulation s;
    sim_queue<std::unique_ptr<int>> q(s);
    s.spawn("p", [&] {
        q.push(std::make_unique<int>(42));
        auto v = q.pop();
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, 42);
    });
    s.run();
}

} // namespace
} // namespace aurora::sim
