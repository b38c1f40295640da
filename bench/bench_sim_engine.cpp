// Real-time microbenchmarks of the DES engine itself (google-benchmark).
//
// The simulator's own speed bounds how fast the reproduction regenerates the
// paper's sweeps: these numbers quantify the cost of a scheduler handoff, an
// event signal, and the fast path (a lone runnable process advancing time
// without any context switch).
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

} // namespace

BENCHMARK_MAIN();
