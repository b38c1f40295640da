// Executor mechanics: backpressure, batching, failure propagation, and
// goldens of the harvest sweep (front-flight checks in one sim::poll_cycle).
#include <gtest/gtest.h>

#include "sim/platform.hpp"

#include "tests/sched/sched_test_common.hpp"
#include "util/check.hpp"

namespace aurora::sched {
namespace {

namespace sk = testkernels;

TEST(SchedExecutor, BackpressureBlocksInsteadOfFailing) {
    run_sched(1, [] {
        std::vector<std::uint64_t> counters(32, 0);
        executor ex{{.window = 2, .max_queued = 4}};
        const auto before = aurora::sim::now();
        for (auto& c : counters) {
            (void)ex.submit(ham::f2f<&sk::cost_kernel>(std::int64_t{500}, &c));
        }
        // The backlog bound forces submit() to drain completions: virtual
        // time advanced while blocking, nothing threw, nothing was dropped.
        EXPECT_GT(ex.stats().backpressure_stalls, 0u);
        EXPECT_GT(aurora::sim::now(), before);
        ex.wait_all();
        for (const std::uint64_t c : counters) {
            EXPECT_EQ(c, 1u);
        }
    });
}

TEST(SchedExecutor, BackpressureBoundHoldsDuringSubmission) {
    run_sched(1, [] {
        std::vector<std::uint64_t> counters(20, 0);
        executor ex{{.window = 1, .max_queued = 3}};
        std::size_t submitted = 0;
        for (auto& c : counters) {
            (void)ex.submit(ham::f2f<&sk::bump>(&c));
            ++submitted;
            std::size_t unfinished = 0;
            for (task_id id = 0; id < submitted; ++id) {
                unfinished += ex.finished(id) ? 0u : 1u;
            }
            EXPECT_LE(unfinished, 3u);
        }
        ex.wait_all();
    });
}

TEST(SchedExecutor, BatchingCoalescesReadyTasks) {
    run_sched(1, [] {
        std::vector<std::uint64_t> counters(16, 0);
        task_graph g;
        for (auto& c : counters) {
            (void)g.add(ham::f2f<&sk::bump>(&c));
        }
        executor ex{{.window = 1, .batching = true, .max_batch = 8}};
        ex.run(g);
        // All 16 are ready at the first dispatch; a window of one drains
        // them as two full batches of max_batch.
        const executor::target_load& t0 = ex.stats().per_target.at(0);
        EXPECT_EQ(t0.messages_sent, 2u);
        EXPECT_EQ(t0.batches_sent, 2u);
        EXPECT_EQ(ex.stats().batched_tasks, 16u);
        EXPECT_EQ(t0.tasks_executed, 16u);
        for (const std::uint64_t c : counters) {
            EXPECT_EQ(c, 1u);
        }
    });
}

TEST(SchedExecutor, BatchingDisabledSendsIndividually) {
    run_sched(1, [] {
        std::vector<std::uint64_t> counters(16, 0);
        task_graph g;
        for (auto& c : counters) {
            (void)g.add(ham::f2f<&sk::bump>(&c));
        }
        executor ex{{.window = 2, .batching = false}};
        ex.run(g);
        const executor::target_load& t0 = ex.stats().per_target.at(0);
        EXPECT_EQ(t0.messages_sent, 16u);
        EXPECT_EQ(t0.batches_sent, 0u);
        EXPECT_EQ(ex.stats().batched_tasks, 0u);
    });
}

TEST(SchedExecutor, BatchesNeverExceedSlotCapacity) {
    // Oversized max_batch on minimum-size slots: the slot payload, not the
    // configuration, caps the batch. Messages must still arrive exactly once.
    aurora::sim::platform plat(aurora::sim::platform_config::test_machine());
    ham::offload::runtime_options opt = loopback_targets(1);
    opt.msg_size = 256;
    ASSERT_EQ(ham::offload::run(plat, opt, [] {
        std::vector<std::uint64_t> counters(64, 0);
        task_graph g;
        for (auto& c : counters) {
            (void)g.add(ham::f2f<&sk::bump>(&c));
        }
        executor ex{{.window = 1, .batching = true, .max_batch = 1000}};
        ex.run(g);
        const executor::target_load& t0 = ex.stats().per_target.at(0);
        EXPECT_GT(t0.messages_sent, 1u); // could not fit 64 tasks in one slot
        for (const std::uint64_t c : counters) {
            EXPECT_EQ(c, 1u);
        }
    }), 0);
}

TEST(SchedExecutor, TargetFailurePropagatesAndSkipsSuccessors) {
    run_sched(1, [] {
        std::uint64_t done = 0;
        executor ex{{.batching = false}};
        const task_id ok = ex.submit(ham::f2f<&sk::bump>(&done));
        const task_id bad = ex.submit(ham::f2f<&sk::boom>());
        const task_id succ = ex.submit(ham::f2f<&sk::bump>(&done), {bad});
        EXPECT_THROW(ex.wait_all(), ham::offload::offload_error);
        EXPECT_EQ(ex.state_of(ok), task_state::done);
        EXPECT_EQ(ex.state_of(bad), task_state::failed);
        EXPECT_EQ(ex.state_of(succ), task_state::failed);
        EXPECT_EQ(done, 1u); // the successor never ran
    });
}

TEST(SchedExecutor, HostTaskFailurePropagates) {
    run_sched(1, [] {
        executor ex;
        (void)ex.submit(ham::f2f<&sk::boom>(), {.affinity = 0});
        EXPECT_THROW(ex.wait_all(), ham::offload::offload_error);
    });
}

TEST(SchedExecutor, SubmitAgainstFinishedDependencies) {
    run_sched(1, [] {
        std::uint64_t a = 0, b = 0;
        executor ex;
        const task_id first = ex.submit(ham::f2f<&sk::bump>(&a));
        ex.wait_all();
        EXPECT_EQ(a, 1u);
        // `first` is settled; a dependency on it must not block anything.
        (void)ex.submit(ham::f2f<&sk::bump>(&b), {first});
        ex.wait_all();
        EXPECT_EQ(b, 1u);
    });
}

TEST(SchedExecutor, SubmitAgainstExpiredDependencyDoesNotWedge) {
    run_sched(1, [] {
        std::uint64_t ran = 0;
        executor ex;
        aurora::sim::advance(1'000);
        // Dead on arrival: the deadline already passed at submit.
        const task_id doa = ex.submit(ham::f2f<&sk::bump>(&ran),
                                      {.deadline_ns = 1});
        EXPECT_EQ(ex.state_of(doa), task_state::expired);
        // Linking against the already-settled expired dep must propagate the
        // outcome (cascade-expire), not leave the successor blocked forever.
        const task_id succ = ex.submit(ham::f2f<&sk::bump>(&ran), {doa});
        ex.wait_all(); // regression: used to crash "executor stalled"
        EXPECT_EQ(ex.state_of(succ), task_state::expired);
        EXPECT_EQ(ran, 0u);
    });
}

TEST(SchedExecutor, SubmitAfterDependencyFailedCascadesInServingMode) {
    run_sched(1, [] {
        std::uint64_t ran = 0;
        executor ex{{.fail_fast = false}};
        const task_id bad = ex.submit(ham::f2f<&sk::boom>());
        ex.wait_all(); // serving mode: the failure settles, no rethrow
        ASSERT_EQ(ex.state_of(bad), task_state::failed);
        // Cascade semantics must not depend on submission order: a successor
        // linked after the dep failed fails too, exactly as one linked before.
        const task_id succ = ex.submit(ham::f2f<&sk::bump>(&ran), {bad});
        ex.wait_all();
        EXPECT_EQ(ex.state_of(succ), task_state::failed);
        EXPECT_EQ(ran, 0u);
        // The per-task root cause survives the cascade.
        EXPECT_NE(ex.error_of(bad).find("task exploded"), std::string::npos);
        EXPECT_NE(ex.error_of(succ).find("task exploded"), std::string::npos);
    });
}

TEST(SchedExecutor, WindowClampedToMessageSlots) {
    run_sched(1, [] {
        std::vector<std::uint64_t> counters(40, 0);
        executor ex{{.window = 1000, .batching = false}};
        for (auto& c : counters) {
            (void)ex.submit(ham::f2f<&sk::bump>(&c));
        }
        ex.wait_all();
        for (const std::uint64_t c : counters) {
            EXPECT_EQ(c, 1u);
        }
    });
}

TEST(SchedExecutor, RuntimeStatsObservableMidFlight) {
    // The offload-layer introspection hook the executor builds on.
    run_sched(1, [] {
        ham::offload::runtime& rt = *ham::offload::runtime::current();
        const auto idle = rt.runtime_stats(1);
        EXPECT_EQ(idle.slots_total, rt.options().msg_slots);
        EXPECT_EQ(idle.in_flight, 0u);
        EXPECT_EQ(rt.slots_available(1), rt.options().msg_slots);

        std::uint64_t dummy = 0;
        auto f = ham::offload::async(1, ham::f2f<&sk::bump>(&dummy));
        auto g = ham::offload::async(1, ham::f2f<&sk::bump>(&dummy));
        EXPECT_GE(rt.runtime_stats(1).in_flight, 1u);
        EXPECT_LT(rt.slots_available(1), rt.options().msg_slots);
        f.get();
        g.get();
        EXPECT_EQ(rt.runtime_stats(1).in_flight, 0u);
        EXPECT_GE(rt.runtime_stats(1).completed, 2u);
        EXPECT_EQ(dummy, 2u);
    });
}

// --- harvest sweep goldens -----------------------------------------------------
//
// Recorded with an executor that probed every target's front flight on the
// host's own thread, one plain ham_future_check_ns charge per probe.

/// What a golden executor run pins down.
struct sweep_run {
    std::uint64_t completion_hash = 0; ///< FNV-1a over the completion records
    std::vector<std::uint64_t> stats;  ///< counters, then per-target loads
    aurora::sim::time_ns final_ns = 0;
    aurora::sim::simulation::statistics sim;
};

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
    return (h ^ v) * 1099511628211ull;
}

/// Submit `n` seeded tasks (a skewed affinity mix, costs of 1-30 us, every
/// seventh task depending on the one before), in waves separated by host
/// gaps so the targets drain and idle, then wait for all of them.
sweep_run run_sweep(aurora::sim::platform& plat,
                    const ham::offload::runtime_options& opt,
                    const executor_config& cfg, std::size_t n) {
    sweep_run out;
    std::vector<std::uint64_t> counters(n, 0);
    EXPECT_EQ(ham::offload::run(plat, opt, [&] {
        executor ex{cfg};
        const auto targets = static_cast<std::uint64_t>(opt.targets.size());
        std::uint64_t rng = 7'919;
        const auto draw = [&rng](std::uint64_t below) {
            rng = rng * 6364136223846793005ull + 1442695040888963407ull;
            return (rng >> 33) % below;
        };
        for (std::size_t i = 0; i < n; ++i) {
            task_options o;
            o.affinity = draw(10) < 7 ? 1 : node_t(1 + draw(targets));
            const auto cost = static_cast<std::int64_t>(1'000 + draw(29'000));
            if (i % 7 == 6) {
                (void)ex.submit(
                    ham::f2f<&sk::cost_kernel>(cost, &counters[i]), o,
                    {static_cast<task_id>(i - 1)});
            } else {
                (void)ex.submit(ham::f2f<&sk::cost_kernel>(cost, &counters[i]),
                                o);
            }
            if (i % 40 == 39) {
                aurora::sim::advance(50'000);
            }
        }
        ex.wait_all();
        out.completion_hash = 1469598103934665603ull;
        for (const completion_record& r : ex.trace()) {
            out.completion_hash = fnv(out.completion_hash, r.id);
            out.completion_hash =
                fnv(out.completion_hash, static_cast<std::uint64_t>(r.executed_on));
            out.completion_hash = fnv(out.completion_hash, r.done_time_ns);
        }
        const executor::statistics& st = ex.stats();
        out.stats = {st.steals, st.batched_tasks, st.tasks_expired,
                     st.tasks_failed};
        for (const executor::target_load& l : st.per_target) {
            out.stats.insert(out.stats.end(),
                             {l.tasks_executed, l.messages_sent, l.batches_sent,
                              l.tasks_stolen_in});
        }
    }), 0);
    for (const std::uint64_t c : counters) {
        EXPECT_EQ(c, 1u);
    }
    out.final_ns = plat.sim().now();
    out.sim = plat.sim().stats();
    return out;
}

TEST(SchedExecutor, StealingAndBatchingGoldenIsExact) {
    aurora::sim::platform plat(aurora::sim::platform_config::test_machine());
    const sweep_run r =
        run_sweep(plat, loopback_targets(4),
                  {.policy = placement_policy::work_stealing,
                   .window = 2,
                   .batching = true,
                   .max_batch = 4},
                  240);
    EXPECT_EQ(r.completion_hash, 1731215484546445682ull);
    EXPECT_EQ(r.stats, (std::vector<std::uint64_t>{34, 230, 0, 0,   //
                                                   66, 18, 16, 0,  //
                                                   59, 17, 14, 42, //
                                                   61, 18, 15, 42, //
                                                   54, 15, 13, 41}));
    EXPECT_EQ(r.final_ns, 1'377'100);
    // Loopback answers result_pending, so fruitless checks run inline and
    // the run takes fewer than the plain probes' 1'293 handoffs.
    EXPECT_GT(r.sim.inline_probes, 0u);
    EXPECT_LT(r.sim.context_switches, 1'293u);
}

TEST(SchedExecutor, VedmaHarvestTakesThePlainPath) {
    // vedma's result_pending answers `unknown`, so every sweep step fires
    // and runs on the host's thread: handoff for handoff the plain probes.
    ham::offload::runtime_options opt;
    opt.backend = ham::offload::backend_kind::vedma;
    opt.targets = {0, 1, 4};
    aurora::sim::platform plat(aurora::sim::platform_config::a300_8());
    const sweep_run r = run_sweep(plat, opt, {.window = 2, .max_batch = 4}, 84);
    EXPECT_EQ(r.completion_hash, 8189947476189505532ull);
    EXPECT_EQ(r.stats, (std::vector<std::uint64_t>{13, 80, 0, 0, //
                                                   28, 8, 7, 0,  //
                                                   26, 8, 7, 20, //
                                                   30, 9, 7, 25}));
    EXPECT_EQ(r.final_ns, 389'346'643);
    EXPECT_EQ(r.sim.context_switches, 782u);
}

} // namespace
} // namespace aurora::sched
