// Real-time microbenchmarks of the DES engine itself (google-benchmark).
//
// The simulator's own speed bounds how fast the reproduction regenerates the
// paper's sweeps: these numbers quantify the cost of a scheduler handoff, an
// event signal, the fast path (a lone runnable process advancing time
// without any context switch), and an idle probe with and without
// sim::poll_cycle.
#include <benchmark/benchmark.h>

#include "sim/engine.hpp"
#include "sim/event.hpp"

namespace {

using namespace aurora::sim;

void BM_LoneProcessAdvance(benchmark::State& state) {
    // Fast path: one runnable process re-schedules itself with no handoff.
    const auto steps = state.range(0);
    for (auto _ : state) {
        simulation s;
        s.spawn("p", [steps] {
            for (std::int64_t i = 0; i < steps; ++i) {
                advance(1);
            }
        });
        s.run();
    }
    state.SetItemsProcessed(state.iterations() * steps);
}
BENCHMARK(BM_LoneProcessAdvance)->Arg(1000)->Arg(10000)->UseRealTime();

void BM_PingPongContextSwitch(benchmark::State& state) {
    // Worst case: two processes alternating at every step (full handoffs).
    const auto steps = state.range(0);
    for (auto _ : state) {
        simulation s;
        for (int p = 0; p < 2; ++p) {
            s.spawn("p" + std::to_string(p), [steps, p] {
                for (std::int64_t i = 0; i < steps; ++i) {
                    advance(2 + p); // interleave deterministically
                }
            });
        }
        s.run();
    }
    state.SetItemsProcessed(state.iterations() * steps * 2);
}
BENCHMARK(BM_PingPongContextSwitch)->Arg(500)->Arg(2000)->UseRealTime();

void BM_EventSignalWake(benchmark::State& state) {
    // Two-event rendezvous: each event is reset by its waiter after
    // consumption, so the handshake is ordering-independent.
    const auto rounds = state.range(0);
    for (auto _ : state) {
        simulation s;
        event ping(s), pong(s);
        s.spawn("a", [&, rounds] {
            for (std::int64_t i = 0; i < rounds; ++i) {
                ping.set();
                pong.wait();
                pong.reset();
                advance(1);
            }
        });
        s.spawn("b", [&, rounds] {
            for (std::int64_t i = 0; i < rounds; ++i) {
                ping.wait();
                ping.reset();
                pong.set();
                advance(1);
            }
        });
        s.run();
    }
    state.SetItemsProcessed(state.iterations() * rounds);
}
BENCHMARK(BM_EventSignalWake)->Arg(200)->UseRealTime();

void BM_QueueThroughput(benchmark::State& state) {
    const auto items = state.range(0);
    for (auto _ : state) {
        simulation s;
        sim_queue<std::int64_t> q(s);
        s.spawn("producer", [&, items] {
            for (std::int64_t i = 0; i < items; ++i) {
                q.push(i);
                advance(1);
            }
        });
        s.spawn("consumer", [&, items] {
            for (std::int64_t i = 0; i < items; ++i) {
                benchmark::DoNotOptimize(q.pop());
            }
        });
        s.run();
    }
    state.SetItemsProcessed(state.iterations() * items);
}
BENCHMARK(BM_QueueThroughput)->Arg(1000)->UseRealTime();

void BM_IdlePollers(benchmark::State& state) {
    // N pollers probe a flag every 100 ns that one worker sets after 200 us:
    // every probe but the last is fruitless. inline=0 polls with a plain
    // advance() loop (one handoff per probe), inline=1 with sim::poll_cycle
    // (the scheduler evaluates the probe itself). Reported as wall time per
    // idle probe.
    const auto pollers = state.range(0);
    const bool inline_cycle = state.range(1) != 0;
    constexpr duration_ns kPoll = 100;
    constexpr std::int64_t kWorkerSteps = 200;
    std::int64_t probes = 0;
    for (auto _ : state) {
        simulation s;
        bool done = false;
        s.spawn("worker", [&] {
            for (std::int64_t i = 0; i < kWorkerSteps; ++i) {
                advance(1'000);
            }
            done = true;
        });
        for (std::int64_t p = 0; p < pollers; ++p) {
            s.spawn("poller" + std::to_string(p), [&, inline_cycle] {
                const duration_ns cycle[] = {kPoll};
                if (inline_cycle) {
                    poll_cycle(cycle, 0, [&](std::size_t, time_ns) {
                        ++probes;
                        return done;
                    });
                    return;
                }
                do {
                    advance(kPoll);
                    ++probes;
                } while (!done);
            });
        }
        s.run();
    }
    state.SetItemsProcessed(probes);
    state.counters["wall_per_probe"] = benchmark::Counter(
        static_cast<double>(probes),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_IdlePollers)
    ->ArgsProduct({{1, 8}, {0, 1}})
    ->ArgNames({"pollers", "inline"})
    ->UseRealTime();

} // namespace

BENCHMARK_MAIN();
