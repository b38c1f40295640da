// sim::poll_cycle, differentially: every scenario runs twice, once with the
// poller written as the plain advance() loop that poll_cycle() stands for,
// once with poll_cycle() itself (predicates evaluated inline by the
// scheduler). The (process, virtual time, value) logs, their order, the final
// clock and any error run() raises must be identical.
#include <algorithm>
#include <array>
#include <functional>
#include <ostream>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/engine.hpp"
#include "sim/event.hpp"
#include "util/check.hpp"

namespace aurora::sim {
namespace {

enum class mode { plain, inline_cycle };

/// The documented meaning of poll_cycle(), run on the poller's own thread.
std::size_t plain_cycle(std::span<const duration_ns> costs, std::size_t first,
                        const poll_ready_fn& ready) {
    for (std::size_t i = first;; i = (i + 1) % costs.size()) {
        advance(costs[i]);
        bool fire = true;
        try {
            fire = ready(i, now());
        } catch (...) {
            // a throwing predicate counts as true
        }
        if (fire) {
            return i;
        }
    }
}

std::size_t cycle(mode m, std::span<const duration_ns> costs, std::size_t first,
                  const poll_ready_fn& ready) {
    return m == mode::plain ? plain_cycle(costs, first, ready)
                            : poll_cycle(costs, first, ready);
}

struct entry {
    std::string who;
    time_ns t = 0;
    std::int64_t value = 0;
    bool operator==(const entry&) const = default;
};

std::ostream& operator<<(std::ostream& os, const entry& e) {
    return os << e.who << '@' << e.t << '=' << e.value;
}

struct outcome {
    std::vector<entry> log;
    time_ns final_clock = 0;
    std::string error; ///< what() of the exception run() raised, if any
    simulation::statistics stats;
};

/// Run `s` to completion and record the outcome (`log` was filled by the
/// processes).
outcome finish(simulation& s, std::vector<entry>& log) {
    outcome out;
    try {
        s.run();
    } catch (const std::exception& e) {
        out.error = e.what();
    }
    out.log = std::move(log);
    out.final_clock = s.now();
    out.stats = s.stats();
    return out;
}

void expect_same(const outcome& plain, const outcome& inl) {
    EXPECT_EQ(plain.log, inl.log);
    EXPECT_EQ(plain.final_clock, inl.final_clock);
    EXPECT_EQ(plain.error, inl.error);
    EXPECT_GT(inl.stats.inline_probes, 0u);
    EXPECT_EQ(plain.stats.inline_probes, 0u);
}

// --- scenarios ---------------------------------------------------------------

/// Seeded workers on a coarse 100 ns grid (so same-instant ties abound)
/// advance, push into a queue, bump flags the poller watches and signal an
/// event; a consumer drains the queue, a waiter sleeps on the event, and the
/// poller runs a three-step cycle whose predicate logs every probe.
outcome random_workers(mode m, unsigned seed) {
    constexpr int kWorkers = 3;
    constexpr int kSteps = 40;
    std::vector<entry> log;
    simulation s;
    event go(s);
    sim_queue<std::int64_t> q(s);
    std::array<std::int64_t, kWorkers> flags{};
    int finished = 0;
    const auto flag_total = [&] { return flags[0] + flags[1] + flags[2]; };

    for (int k = 0; k < kWorkers; ++k) {
        s.spawn("w" + std::to_string(k), [&, k] {
            std::mt19937 rng(seed * 31u + unsigned(k));
            for (int step = 0; step < kSteps; ++step) {
                const auto op = std::int64_t(rng() % 5);
                switch (op) {
                    case 0:
                    case 1:
                        advance(duration_ns(100 * (rng() % 4)));
                        break;
                    case 2:
                        q.push(k * 1000 + step);
                        break;
                    case 3:
                        ++flags[std::size_t(k)];
                        advance(100);
                        break;
                    default:
                        go.set();
                        break;
                }
                log.push_back({"w" + std::to_string(k), now(), op});
            }
            go.set();
            if (++finished == kWorkers) {
                q.push(-1);
            }
        });
    }
    s.spawn("consumer", [&] {
        for (std::int64_t v = q.pop(); v != -1; v = q.pop()) {
            log.push_back({"consumer", now(), v});
            advance(100);
        }
    });
    s.spawn("waiter", [&] {
        go.wait();
        log.push_back({"waiter", now(), 0});
        advance(200);
        log.push_back({"waiter", now(), 1});
    });
    s.spawn("poller", [&, m] {
        const std::array<duration_ns, 3> costs{100, 300, 200};
        std::int64_t seen = 0;
        std::size_t first = 0;
        for (;;) {
            const std::size_t fired =
                cycle(m, costs, first, [&](std::size_t step, time_ns t) {
                    log.push_back({"probe", t, std::int64_t(step)});
                    return (step == 1 && flag_total() > seen) ||
                           (step == 2 && finished == kWorkers);
                });
            log.push_back({"poller", now(), std::int64_t(fired)});
            if (fired == 2) {
                return;
            }
            seen = flag_total();
            advance(100); // the work the probe found
            first = (fired + 1) % costs.size();
        }
    });
    return finish(s, log);
}

TEST(PollCycle, SeededWorkersMatchThePlainLoop) {
    for (unsigned seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const outcome plain = random_workers(mode::plain, seed);
        const outcome inl = random_workers(mode::inline_cycle, seed);
        EXPECT_TRUE(plain.error.empty()) << plain.error;
        expect_same(plain, inl);
        EXPECT_LT(inl.stats.context_switches, plain.stats.context_switches);
    }
}

/// The predicate fires on the very first step; a worker on the same grid
/// ties with it.
outcome ready_on_first_step(mode m) {
    std::vector<entry> log;
    simulation s;
    s.spawn("worker", [&] {
        for (int i = 0; i < 5; ++i) {
            advance(100);
            log.push_back({"worker", now(), i});
        }
    });
    s.spawn("poller", [&, m] {
        const std::array<duration_ns, 2> costs{250, 200};
        const std::size_t fired =
            cycle(m, costs, 1, [&](std::size_t step, time_ns t) {
                log.push_back({"probe", t, std::int64_t(step)});
                return true;
            });
        log.push_back({"poller", now(), std::int64_t(fired)});
    });
    return finish(s, log);
}

TEST(PollCycle, ReadyOnFirstStep) {
    const outcome plain = ready_on_first_step(mode::plain);
    const outcome inl = ready_on_first_step(mode::inline_cycle);
    expect_same(plain, inl);
    EXPECT_NE(std::find(inl.log.begin(), inl.log.end(), entry{"poller", 200, 1}),
              inl.log.end());
}

/// The poller is the only runnable process: the other one waits for the
/// event the poller sets once its cycle returns.
outcome lone_poller(mode m) {
    std::vector<entry> log;
    simulation s;
    event ev(s);
    s.spawn("waiter", [&] {
        ev.wait();
        log.push_back({"waiter", now(), 0});
    });
    s.spawn("poller", [&, m] {
        const std::array<duration_ns, 2> costs{100, 200};
        const std::size_t fired =
            cycle(m, costs, 0, [&](std::size_t step, time_ns t) {
                log.push_back({"probe", t, std::int64_t(step)});
                return t >= 1'500;
            });
        log.push_back({"poller", now(), std::int64_t(fired)});
        ev.set();
    });
    return finish(s, log);
}

TEST(PollCycle, LonePollerMatchesThePlainLoop) {
    const outcome plain = lone_poller(mode::plain);
    const outcome inl = lone_poller(mode::inline_cycle);
    expect_same(plain, inl);
    EXPECT_EQ(inl.final_clock, 1'500);
}

/// The poller never finds anything and overruns the virtual deadline while
/// parked.
outcome deadline_overrun(mode m) {
    std::vector<entry> log;
    simulation s;
    s.set_virtual_deadline(5'000);
    s.spawn("worker", [&] {
        for (int i = 0; i < 8; ++i) {
            advance(300);
            log.push_back({"worker", now(), i});
        }
    });
    s.spawn("poller", [&, m] {
        const std::array<duration_ns, 3> costs{100, 100, 400};
        cycle(m, costs, 0, [&](std::size_t step, time_ns t) {
            log.push_back({"probe", t, std::int64_t(step)});
            return false;
        });
        log.push_back({"poller", now(), -1}); // never reached
    });
    return finish(s, log);
}

TEST(PollCycle, DeadlineOverrunWhileParked) {
    const outcome plain = deadline_overrun(mode::plain);
    const outcome inl = deadline_overrun(mode::inline_cycle);
    expect_same(plain, inl);
    EXPECT_NE(inl.error.find("virtual deadline"), std::string::npos) << inl.error;
    EXPECT_NE(inl.error.find("poller"), std::string::npos) << inl.error;
}

/// Another process fails while the poller is parked: the simulation aborts
/// and the poller unwinds through its cycle.
outcome abort_while_parked(mode m, bool& unwound) {
    std::vector<entry> log;
    simulation s;
    s.spawn("failing", [&] {
        advance(1'000);
        log.push_back({"failing", now(), 0});
        throw std::runtime_error("worker failed");
    });
    s.spawn("poller", [&, m] {
        struct on_unwind {
            bool& flag;
            ~on_unwind() { flag = true; }
        } const guard{unwound};
        const std::array<duration_ns, 1> costs{300};
        cycle(m, costs, 0, [&](std::size_t step, time_ns t) {
            log.push_back({"probe", t, std::int64_t(step)});
            return false;
        });
    });
    return finish(s, log);
}

TEST(PollCycle, AbortWhileParkedUnwindsCleanly) {
    bool plain_unwound = false;
    bool inline_unwound = false;
    const outcome plain = abort_while_parked(mode::plain, plain_unwound);
    const outcome inl = abort_while_parked(mode::inline_cycle, inline_unwound);
    expect_same(plain, inl);
    EXPECT_EQ(inl.error, "worker failed");
    EXPECT_TRUE(plain_unwound);
    EXPECT_TRUE(inline_unwound);
}

/// A predicate that throws counts as true: the poller runs the step.
outcome throwing_predicate(mode m) {
    std::vector<entry> log;
    simulation s;
    s.spawn("worker", [&] {
        for (int i = 0; i < 10; ++i) {
            advance(100);
            log.push_back({"worker", now(), i});
        }
    });
    s.spawn("poller", [&, m] {
        const std::array<duration_ns, 3> costs{100, 200, 100};
        int throws_left = 1;
        std::size_t first = 0;
        for (;;) {
            const std::size_t fired =
                cycle(m, costs, first, [&](std::size_t step, time_ns t) {
                    log.push_back({"probe", t, std::int64_t(step)});
                    if (step == 2 && throws_left > 0) {
                        --throws_left;
                        throw std::runtime_error("probe failed");
                    }
                    return t >= 1'200;
                });
            log.push_back({"poller", now(), std::int64_t(fired)});
            if (now() >= 1'200) {
                return;
            }
            first = (fired + 1) % costs.size();
        }
    });
    return finish(s, log);
}

TEST(PollCycle, ThrowingPredicateCountsAsReady) {
    const outcome plain = throwing_predicate(mode::plain);
    const outcome inl = throwing_predicate(mode::inline_cycle);
    expect_same(plain, inl);
    EXPECT_TRUE(inl.error.empty()) << inl.error;
    // The throw fired step 2 at t = 400, long before the predicate would have.
    EXPECT_NE(std::find(inl.log.begin(), inl.log.end(), entry{"poller", 400, 2}),
              inl.log.end());
}

// --- contract guards ----------------------------------------------------------

/// A predicate that makes a simulation call aborts the run with a check
/// failure naming the contract, instead of deadlocking the scheduler.
std::string impure_predicate_error(const std::function<void(event&)>& misuse) {
    simulation s;
    event ev(s);
    s.spawn("worker", [] {
        for (int i = 0; i < 4; ++i) {
            advance(100);
        }
    });
    s.spawn("poller", [&] {
        const std::array<duration_ns, 1> costs{150};
        poll_cycle(costs, 0, [&](std::size_t, time_ns) {
            misuse(ev);
            return false;
        });
    });
    try {
        s.run();
    } catch (const check_error& e) {
        return e.what();
    }
    return "";
}

TEST(PollCycle, SimulationCallsInsideThePredicateFail) {
    const std::vector<std::pair<const char*, std::function<void(event&)>>> calls = {
        {"now", [](event&) { (void)now(); }},
        {"self", [](event&) { (void)self(); }},
        {"advance", [](event&) { advance(1); }},
        {"sleep_until", [](event&) { sleep_until(10'000); }},
        {"event set", [](event& ev) { ev.set(); }},
        {"event wait", [](event& ev) { ev.wait(); }},
        // Swallowing the failure does not hide it.
        {"caught", [](event&) {
             try {
                 advance(1);
             } catch (const check_error&) {
             }
         }},
    };
    for (const auto& [name, misuse] : calls) {
        SCOPED_TRACE(name);
        const std::string what = impure_predicate_error(misuse);
        EXPECT_NE(what.find("poll_cycle predicate"), std::string::npos) << what;
    }
}

TEST(PollCycle, RejectsMalformedCycles) {
    for (const std::vector<duration_ns>& costs :
         {std::vector<duration_ns>{}, std::vector<duration_ns>{100, -1}}) {
        simulation s;
        s.spawn("poller", [&] {
            poll_cycle(costs, 0, [](std::size_t, time_ns) { return true; });
        });
        EXPECT_THROW(s.run(), check_error);
    }
    simulation s;
    s.spawn("poller", [] {
        const std::array<duration_ns, 2> costs{100, 100};
        poll_cycle(costs, 2, [](std::size_t, time_ns) { return true; });
    });
    EXPECT_THROW(s.run(), check_error);
}

} // namespace
} // namespace aurora::sim
