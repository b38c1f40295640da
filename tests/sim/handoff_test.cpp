// The scheduler handoff: schedule_next_locked() decides under the engine
// mutex and the chosen process is woken after the mutex is released. These
// tests pin what must not move with how a handoff wakes its successor:
// scheduling decisions, tie order, virtual times and the engine statistics
// (golden values recorded on the engine that woke under the mutex), the abort
// path (no thread may be left hanging), the deadlock report, and the wake of
// a join waiter by a finishing process.
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/engine.hpp"
#include "sim/event.hpp"

namespace aurora::sim {
namespace {

/// FNV-1a over 64-bit words.
class fnv1a {
public:
    void add(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xffu;
            h_ *= 0x100000001b3ull;
        }
    }
    [[nodiscard]] std::uint64_t value() const { return h_; }

private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

struct mixed_outcome {
    time_ns final_clock = 0;
    std::vector<std::uint64_t> log_hashes; ///< per process, by process id
    simulation::statistics stats;
};

/// 24 processes: 15 seeded workers (every fourth spawns and later joins a
/// child), an event ticker, an event waiter, a condition waiter, a queue
/// consumer and a poll_cycle poller. Each process hashes its own
/// (step, virtual time) log.
mixed_outcome mixed_run(unsigned seed) {
    constexpr int kWorkers = 15;
    constexpr int kSteps = 60;
    constexpr std::size_t kProcesses = 24;
    simulation s;
    std::array<fnv1a, kProcesses> logs{};
    const auto note = [&](std::uint64_t step) {
        fnv1a& h = logs.at(self().id());
        h.add(step);
        h.add(std::uint64_t(now()));
    };
    std::vector<std::unique_ptr<event>> ev;
    for (int i = 0; i < 4; ++i) {
        ev.push_back(std::make_unique<event>(s));
    }
    condition cond(s);
    sim_queue<std::int64_t> q(s);
    std::int64_t flags = 0;
    int finished = 0;

    const auto random_op = [&](std::mt19937& rng, int k, int step) {
        const unsigned op = rng() % 8;
        switch (op) {
            case 0: advance(duration_ns(10 * (rng() % 5))); break;
            case 1: yield(); break;
            case 2: sleep_until((now() / 50 + 1) * 50); break;
            case 3: q.push(k * 1000 + step); break;
            case 4:
                ++flags;
                cond.notify_all();
                break;
            case 5: ev[rng() % 4]->wait(); break;
            case 6: advance(duration_ns(rng() % 17)); break;
            default: sleep_until(now() - 5); break; // in the past: a yield
        }
        return op;
    };

    for (int k = 0; k < kWorkers; ++k) {
        s.spawn(std::string("w").append(std::to_string(k)), [&, k] {
            std::mt19937 rng(seed * 97u + unsigned(k));
            process* child = nullptr;
            for (int step = 0; step < kSteps; ++step) {
                if (k % 4 == 0 && step == kSteps / 2) {
                    std::string name = "c";
                    name += std::to_string(k);
                    child = &s.spawn(std::move(name), [&, k] {
                        std::mt19937 crng(seed * 31u + unsigned(k));
                        for (int cs = 0; cs < kSteps / 3; ++cs) {
                            note(random_op(crng, 100 + k, cs));
                        }
                    });
                }
                note(random_op(rng, k, step));
            }
            if (child != nullptr) {
                join(*child);
                note(1000);
            }
            if (++finished == kWorkers) {
                q.push(-1);
            }
            cond.notify_all();
        });
    }
    s.spawn("ticker", [&] {
        for (std::size_t i = 0; i < ev.size(); ++i) {
            advance(120);
            ev[i]->set();
            note(i);
        }
    });
    s.spawn("event-waiter", [&] {
        for (int i = 3; i >= 0; --i) {
            ev[std::size_t(i)]->wait();
            note(std::uint64_t(i));
            advance(15);
        }
    });
    s.spawn("cond-waiter", [&] {
        std::int64_t seen = 0;
        while (finished < kWorkers) {
            cond.wait([&] { return flags > seen || finished == kWorkers; });
            seen = flags;
            note(std::uint64_t(seen));
            advance(5);
        }
    });
    s.spawn("consumer", [&] {
        for (std::int64_t v = q.pop(); v != -1; v = q.pop()) {
            note(std::uint64_t(v));
            advance(3);
        }
    });
    s.spawn("poller", [&] {
        const std::array<duration_ns, 2> costs{30, 70};
        std::int64_t seen = 0;
        std::size_t first = 0;
        for (;;) {
            const std::size_t fired =
                poll_cycle(costs, first, [&](std::size_t step, time_ns) {
                    return (step == 0 && flags > seen) ||
                           (step == 1 && finished == kWorkers);
                });
            note(fired);
            if (fired == 1 && finished == kWorkers) {
                return;
            }
            seen = flags;
            advance(10);
            first = (fired + 1) % costs.size();
        }
    });
    s.run();
    mixed_outcome out;
    out.final_clock = s.now();
    for (const fnv1a& h : logs) {
        out.log_hashes.push_back(h.value());
    }
    out.stats = s.stats();
    EXPECT_EQ(out.stats.processes_spawned, kProcesses);
    return out;
}

TEST(Handoff, SeededMixedRunMatchesGoldens) {
    const mixed_outcome out = mixed_run(1);
    EXPECT_EQ(out.final_clock, 1100);
    EXPECT_EQ(out.stats.context_switches, 812u);
    EXPECT_EQ(out.stats.inline_probes, 20u);
    EXPECT_EQ(out.stats.events_notified, 280u);
    const std::vector<std::uint64_t> golden = {
        0x408f9a8cc7809258ull, 0x2ca4bdc089f0818dull, 0x2b93141621c60257ull,
        0x2a1c979c8bc2edf3ull, 0x71db8f79ad156c37ull, 0xdd96b5c054bd11d4ull,
        0xbd149c0b7fe2f332ull, 0x4dd66cb7a37291a2ull, 0xdae183a2ef0b345cull,
        0x1337d37feba67b0aull, 0xd98828ff47643ba7ull, 0x3f22bb2dc8f40945ull,
        0x2d570f9a37692ea6ull, 0xff32d207eeaec2c7ull, 0xb06368d30e3ad809ull,
        0x59abe1ae1691d31dull, 0xa8fa124c60917c48ull, 0x198163d450dbedd2ull,
        0x1fc63adbe22f6e58ull, 0xf43b9197c682a49bull, 0xc0c2d5a3baab8e36ull,
        0xe120f5d2f872dd7cull, 0xce6d5c7dee4b6338ull, 0xb7fe7c36f3c2ff69ull,
    };
    EXPECT_EQ(out.log_hashes, golden);
}

/// Counts the process bodies that have exited, by any path.
struct exit_counter {
    std::atomic<int>& n;
    ~exit_counter() { n.fetch_add(1); }
};

TEST(Handoff, AbortWhileOthersAreParkedJoinsEveryThread) {
    constexpr int kIterations = 200;
    constexpr int kProcesses = 16;
    for (int it = 0; it < kIterations; ++it) {
        SCOPED_TRACE("iteration " + std::to_string(it));
        std::atomic<int> exited{0};
        simulation s;
        event never(s);
        const time_ns throw_at = 10 * (it % 7);
        const auto thrower = [&, it] {
            const exit_counter c{exited};
            advance(throw_at);
            throw std::runtime_error("boom " + std::to_string(it));
        };
        // Vary where the thrower sits in the ready order.
        const int thrower_slot = it % 5;
        int spawned = 0;
        const auto maybe_thrower = [&] {
            if (spawned++ == thrower_slot) {
                s.spawn("thrower", thrower);
            }
        };
        for (int i = 0; i < 4; ++i) {
            maybe_thrower();
            s.spawn("advancer", [&, i] {
                const exit_counter c{exited};
                advance(throw_at + i); // may tie with the throw
                advance(1'000'000);
            });
        }
        for (int i = 0; i < 4; ++i) {
            s.spawn("event-waiter", [&] {
                const exit_counter c{exited};
                never.wait();
            });
        }
        for (int i = 0; i < 2; ++i) {
            process& child = s.spawn("child", [&] {
                const exit_counter c{exited};
                never.wait();
            });
            s.spawn("joiner", [&, &child = child] {
                const exit_counter c{exited};
                join(child);
            });
        }
        for (int i = 0; i < 3; ++i) {
            s.spawn("poller", [&, i] {
                const exit_counter c{exited};
                const std::array<duration_ns, 1> costs{duration_ns(3 + i)};
                (void)poll_cycle(costs, 0, [](std::size_t, time_ns) { return false; });
            });
        }
        maybe_thrower();
        ASSERT_EQ(s.stats().processes_spawned, std::uint64_t(kProcesses));
        try {
            s.run();
            ADD_FAILURE() << "run() returned normally";
        } catch (const std::runtime_error& e) {
            EXPECT_EQ(std::string(e.what()), "boom " + std::to_string(it));
        }
        // run() joined every thread before it rethrew.
        EXPECT_EQ(exited.load(), kProcesses);
    }
}

TEST(Handoff, DeadlockReportStillFires) {
    simulation s;
    event a(s);
    event b(s);
    s.spawn("left", [&] {
        advance(40);
        a.wait();
    });
    s.spawn("right", [&] {
        advance(25);
        yield();
        b.wait();
    });
    s.spawn("bystander", [&] {
        advance(70);
        advance(5);
    });
    try {
        s.run();
        FAIL() << "expected a deadlock";
    } catch (const simulation_error& e) {
        EXPECT_EQ(std::string(e.what()),
                  "simulation deadlock: no runnable process at t=75 ns; "
                  "[0:left blocked t=40] [1:right blocked t=25] "
                  "[2:bystander finished t=75]");
    }
}

TEST(Handoff, FinishingProcessWakesItsJoinWaiter) {
    simulation s;
    std::vector<std::string> order;
    process& child = s.spawn("child", [&] {
        advance(500);
        order.push_back("child@" + std::to_string(now()));
    });
    s.spawn("parent", [&] {
        join(child);
        order.push_back("parent@" + std::to_string(now()));
    });
    s.spawn("late", [&] {
        sleep_until(600);
        order.push_back("late@" + std::to_string(now()));
    });
    s.run();
    EXPECT_EQ(order, (std::vector<std::string>{"child@500", "parent@500", "late@600"}));
    EXPECT_EQ(s.now(), 600);
    EXPECT_EQ(s.stats().context_switches, 6u);
}

TEST(Handoff, FinishingProcessWakesTheLastWaiter) {
    // The join waiter is the only process left: the finishing thread's wake
    // is the only way the run can make progress.
    for (int i = 0; i < 100; ++i) {
        simulation s;
        time_ns resumed = -1;
        s.spawn("parent", [&] {
            process& child = s.spawn("child", [] { advance(7); });
            join(child);
            resumed = now();
        });
        s.run();
        ASSERT_EQ(resumed, 7);
        ASSERT_EQ(s.stats().context_switches, 3u);
    }
}

} // namespace
} // namespace aurora::sim
