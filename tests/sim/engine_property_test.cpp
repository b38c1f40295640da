// Property/stress tests of the DES engine: determinism, causality, and
// liveness under randomised process graphs.
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "sim/engine.hpp"
#include "sim/event.hpp"

namespace aurora::sim {
namespace {

using namespace aurora::sim::literals;

struct run_log {
    std::vector<std::tuple<int, int, time_ns>> entries; // (proc, step, time)
    bool operator==(const run_log&) const = default;
};

/// A randomised mesh of processes advancing and signalling ring events.
run_log random_mesh_run(unsigned seed, int nprocs, int steps) {
    run_log log;
    simulation s;
    std::vector<std::unique_ptr<event>> ring;
    ring.reserve(std::size_t(nprocs));
    for (int i = 0; i < nprocs; ++i) {
        ring.push_back(std::make_unique<event>(s));
    }
    for (int p = 0; p < nprocs; ++p) {
        s.spawn(std::string("p").append(std::to_string(p)), [&, p, seed] {
            std::mt19937 rng(seed + unsigned(p) * 977u);
            for (int step = 0; step < steps; ++step) {
                advance(duration_ns(rng() % 1000));
                log.entries.emplace_back(p, step, now());
                // Occasionally signal this process's ring event; the next
                // process occasionally waits on ours.
                if (rng() % 4 == 0) {
                    ring[std::size_t(p)]->set();
                }
                if (rng() % 8 == 0) {
                    event& prev =
                        *ring[std::size_t((p + nprocs - 1) % nprocs)];
                    if (prev.is_set()) {
                        prev.wait(); // non-blocking (already set)
                        prev.reset();
                    }
                }
            }
            ring[std::size_t(p)]->set(); // release any tail waiter
        });
    }
    s.run();
    return log;
}

TEST(EngineProperty, IdenticalSeedsProduceIdenticalRuns) {
    for (unsigned seed : {1u, 42u, 20260704u}) {
        EXPECT_EQ(random_mesh_run(seed, 6, 50), random_mesh_run(seed, 6, 50))
            << "seed " << seed;
    }
}

TEST(EngineProperty, DifferentSeedsDiffer) {
    EXPECT_NE(random_mesh_run(1, 6, 50), random_mesh_run(2, 6, 50));
}

TEST(EngineProperty, GlobalObservationOrderIsCausal) {
    const run_log log = random_mesh_run(7, 8, 100);
    // Entries were appended in execution order; global time must never
    // decrease across them (the scheduler always runs the minimum clock).
    for (std::size_t i = 1; i < log.entries.size(); ++i) {
        EXPECT_LE(std::get<2>(log.entries[i - 1]), std::get<2>(log.entries[i]));
    }
    // Per-process step order and count must be exact.
    std::vector<int> next_step(8, 0);
    for (const auto& [p, step, t] : log.entries) {
        EXPECT_EQ(step, next_step[std::size_t(p)]++);
    }
    for (int c : next_step) EXPECT_EQ(c, 100);
}

TEST(EngineProperty, ManyProcessesComplete) {
    simulation s;
    int done = 0;
    for (int i = 0; i < 50; ++i) {
        s.spawn(std::string("w").append(std::to_string(i)), [&, i] {
            for (int k = 0; k < 20; ++k) {
                advance(duration_ns((i * 13 + k * 7) % 97 + 1));
            }
            ++done;
        });
    }
    s.run();
    EXPECT_EQ(done, 50);
    EXPECT_EQ(s.stats().processes_spawned, 50u);
}

TEST(EngineProperty, SpawnCascade) {
    // Each process spawns the next; depth 30.
    simulation s;
    int reached = 0;
    std::function<void(int)> chain = [&](int depth) {
        ++reached;
        advance(10_ns);
        if (depth < 30) {
            s.spawn(std::string("c").append(std::to_string(depth)),
                    [&, depth] { chain(depth + 1); });
            yield();
        }
    };
    s.spawn("c0", [&] { chain(1); });
    s.run();
    EXPECT_EQ(reached, 30);
}

TEST(EngineProperty, ProducerConsumerChainPreservesFifoAndTime) {
    // queue chain: p0 -> q1 -> p1 -> q2 -> p2; timestamps must be causal.
    simulation s;
    sim_queue<std::pair<int, time_ns>> q1(s), q2(s);
    std::vector<std::pair<int, time_ns>> received;
    s.spawn("p0", [&] {
        for (int i = 0; i < 25; ++i) {
            advance(duration_ns(17 + i % 5));
            q1.push({i, now()});
        }
    });
    s.spawn("p1", [&] {
        for (int i = 0; i < 25; ++i) {
            auto v = q1.pop();
            advance(3_ns);
            q2.push(v);
        }
    });
    s.spawn("p2", [&] {
        for (int i = 0; i < 25; ++i) {
            auto [idx, sent_at] = q2.pop();
            EXPECT_EQ(idx, i);            // FIFO end to end
            EXPECT_GE(now(), sent_at + 3); // causality through the chain
            received.emplace_back(idx, now());
        }
    });
    s.run();
    EXPECT_EQ(received.size(), 25u);
}

} // namespace
} // namespace aurora::sim
