// aurora::admit server tests: session lifecycle, quota and queue bounds,
// priority-aware occupancy shedding, strict class priority and weighted
// fair-share dispatch order, deadline propagation (queued and scheduler
// paths), failure isolation, the per-target breaker lifecycle through the
// serving path, dispatch order under session churn, whole-run determinism,
// and a seeded mixed-tenant golden run plus the edges of the poll's cheap
// paths (deadline sweep bound, reconcile skip).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "fault/fault.hpp"
#include "tests/admit/admit_test_common.hpp"

namespace aurora::admit {
namespace {

using ham::offload::admission_error;
using ham::offload::deadline_exceeded_error;
using ham::offload::offload_error;

TEST(AdmitServer, SessionLifecycleAndCompletionCounts) {
    run_sched(2, [] {
        server srv(small_cfg(16, 8));
        session_options o;
        o.tenant = "acme";
        o.cls = qos_class::latency;
        const session_id sid = srv.open(o);
        EXPECT_EQ(srv.open_sessions(), 1u);

        std::uint64_t counter = 0;
        std::vector<request> reqs;
        for (int i = 0; i < 4; ++i) {
            reqs.push_back(srv.submit(sid, ham::f2f<&tk::bump>(&counter)));
        }
        srv.drain();
        EXPECT_EQ(counter, 4u);
        for (request& r : reqs) {
            EXPECT_NO_THROW(r.get());
        }
        const session_stats st = srv.stats(sid);
        EXPECT_EQ(st.admitted, 4u);
        EXPECT_EQ(st.completed, 4u);
        EXPECT_EQ(st.shed, 0u);
        EXPECT_EQ(st.queued, 0u);
        EXPECT_TRUE(st.open);
        EXPECT_EQ(srv.backlog(), 0u);

        srv.close(sid);
        EXPECT_FALSE(srv.stats(sid).open);
        EXPECT_EQ(srv.open_sessions(), 0u);
        srv.close(sid); // idempotent
        EXPECT_EQ(srv.open_sessions(), 0u);
    });
}

TEST(AdmitServer, ClosedSessionShedsSubmits) {
    run_sched(1, [] {
        server srv(small_cfg(16, 8));
        const session_id sid = srv.open();
        srv.close(sid);
        std::uint64_t counter = 0;
        EXPECT_THROW(srv.submit(sid, ham::f2f<&tk::bump>(&counter)),
                     admission_error);
        EXPECT_EQ(srv.stats(sid).shed, 1u);
        EXPECT_EQ(counter, 0u);
    });
}

TEST(AdmitServer, QuotaExhaustionSheds) {
    run_sched(1, [] {
        server srv(small_cfg(16, 8));
        session_options o;
        o.quota = 2;
        const session_id sid = srv.open(o);
        std::uint64_t counter = 0;
        (void)srv.submit(sid, ham::f2f<&tk::bump>(&counter));
        (void)srv.submit(sid, ham::f2f<&tk::bump>(&counter));
        try {
            (void)srv.submit(sid, ham::f2f<&tk::bump>(&counter));
            FAIL() << "third submit must exceed the quota of 2";
        } catch (const admission_error& e) {
            EXPECT_NE(std::string(e.what()).find("quota"), std::string::npos);
            EXPECT_EQ(e.retry_after_ns(), 0); // a quota never refills
        }
        srv.drain();
        EXPECT_EQ(counter, 2u);
        EXPECT_EQ(srv.stats(sid).shed, 1u);
    });
}

TEST(AdmitServer, PerSessionQueueBoundSheds) {
    run_sched(1, [] {
        server srv(small_cfg(64, 1));
        std::uint64_t prefill_done = 0;
        request hold = occupy_window(srv, 10'000'000, &prefill_done);

        session_options o;
        o.cls = qos_class::latency;
        o.max_queued = 2;
        const session_id sid = srv.open(o);
        std::uint64_t counter = 0;
        (void)srv.submit(sid, ham::f2f<&tk::bump>(&counter));
        (void)srv.submit(sid, ham::f2f<&tk::bump>(&counter));
        EXPECT_EQ(srv.stats(sid).queued, 2u);
        try {
            (void)srv.submit(sid, ham::f2f<&tk::bump>(&counter));
            FAIL() << "third submit must overflow max_queued=2";
        } catch (const admission_error& e) {
            EXPECT_NE(std::string(e.what()).find("queue full"),
                      std::string::npos);
            EXPECT_GT(e.retry_after_ns(), 0); // backlog drains: hinted retry
        }
        srv.drain();
        EXPECT_EQ(prefill_done, 1u);
        EXPECT_EQ(counter, 2u);
    });
}

TEST(AdmitServer, OccupancyShedsByClassPriority) {
    run_sched(1, [] {
        // capacity 8: background sheds at backlog 4 (50%), batch at 6 (75%),
        // latency only when full. Window 1 keeps admitted work queued.
        server srv(small_cfg(8, 1));
        std::uint64_t prefill_done = 0;
        request hold = occupy_window(srv, 10'000'000, &prefill_done);

        session_options lo, bo, go;
        lo.cls = qos_class::latency;
        bo.cls = qos_class::batch;
        go.cls = qos_class::background;
        const session_id l = srv.open(lo);
        const session_id b = srv.open(bo);
        const session_id g = srv.open(go);
        std::uint64_t counter = 0;
        auto work = [&] { return ham::f2f<&tk::bump>(&counter); };

        for (int i = 0; i < 3; ++i) {
            (void)srv.submit(l, work()); // backlog 2, 3, 4
        }
        try {
            (void)srv.submit(g, work()); // background at 50%: shed
            FAIL() << "background must shed at half occupancy";
        } catch (const admission_error& e) {
            EXPECT_GT(e.retry_after_ns(), 0);
        }
        (void)srv.submit(b, work()); // backlog 5
        (void)srv.submit(b, work()); // backlog 6
        EXPECT_THROW((void)srv.submit(b, work()), admission_error); // 75%
        (void)srv.submit(l, work()); // backlog 7
        (void)srv.submit(l, work()); // backlog 8: full
        EXPECT_THROW((void)srv.submit(l, work()), admission_error);

        srv.drain();
        EXPECT_EQ(counter, 7u); // 5 latency + 2 batch bumps ran
        EXPECT_EQ(srv.stats(g).shed, 1u);
        EXPECT_EQ(srv.stats(b).shed, 1u);
        EXPECT_EQ(srv.stats(l).shed, 1u);
        EXPECT_EQ(srv.backlog(), 0u);
    });
}

TEST(AdmitServer, StrictClassPriorityDispatchOrder) {
    run_sched(1, [] {
        server srv(small_cfg(64, 1));
        std::uint64_t prefill_done = 0;
        request hold = occupy_window(srv, 1'000'000, &prefill_done);

        session_options lo, bo, go;
        lo.cls = qos_class::latency;
        bo.cls = qos_class::batch;
        go.cls = qos_class::background;
        const session_id g = srv.open(go);
        const session_id b = srv.open(bo);
        const session_id l = srv.open(lo);

        // Submitted lowest class first; dispatch must invert that order.
        std::vector<int> log;
        for (int i = 0; i < 3; ++i) {
            (void)srv.submit(g, ham::f2f<&tk::record>(&log, 100 + i));
        }
        for (int i = 0; i < 3; ++i) {
            (void)srv.submit(b, ham::f2f<&tk::record>(&log, 200 + i));
        }
        for (int i = 0; i < 3; ++i) {
            (void)srv.submit(l, ham::f2f<&tk::record>(&log, 300 + i));
        }
        srv.drain();
        const std::vector<int> want = {300, 301, 302, 200, 201,
                                       202, 100, 101, 102};
        EXPECT_EQ(log, want);
    });
}

TEST(AdmitServer, WeightedFairShareHoldsUnderTricklingCapacity) {
    run_sched(1, [] {
        // Window 1: capacity frees one slot at a time, the hardest case for
        // weighted fairness — deficit round robin must still yield 3:1.
        server srv(small_cfg(64, 1));
        std::uint64_t prefill_done = 0;
        request hold = occupy_window(srv, 1'000'000, &prefill_done);

        session_options heavy, light;
        heavy.cls = qos_class::batch;
        heavy.weight = 3;
        light.cls = qos_class::batch;
        light.weight = 1;
        const session_id a = srv.open(heavy);
        const session_id b = srv.open(light);

        std::vector<int> log;
        for (int i = 0; i < 6; ++i) {
            (void)srv.submit(a, ham::f2f<&tk::record>(&log, 1));
        }
        for (int i = 0; i < 6; ++i) {
            (void)srv.submit(b, ham::f2f<&tk::record>(&log, 2));
        }
        srv.drain();
        const std::vector<int> want = {1, 1, 1, 2, 1, 1, 1, 2, 2, 2, 2, 2};
        EXPECT_EQ(log, want);
    });
}

TEST(AdmitServer, QueuedDeadlineExpiresBeforeDispatch) {
    run_sched(1, [] {
        server srv(small_cfg(64, 1));
        std::uint64_t prefill_done = 0;
        request hold = occupy_window(srv, 1'000'000, &prefill_done);

        session_options o;
        o.cls = qos_class::latency;
        const session_id sid = srv.open(o);
        std::uint64_t counter = 0;

        request_options tight;
        tight.deadline_ns = sim::now() + 10'000; // passes while queued
        request doomed = srv.submit(sid, ham::f2f<&tk::bump>(&counter), tight);
        request fine = srv.submit(sid, ham::f2f<&tk::bump>(&counter));

        srv.drain();
        EXPECT_THROW(doomed.get(), deadline_exceeded_error);
        EXPECT_NO_THROW(fine.get());
        EXPECT_EQ(counter, 1u); // the expired request never ran
        const session_stats st = srv.stats(sid);
        EXPECT_EQ(st.expired, 1u);
        EXPECT_EQ(st.completed, 1u);
    });
}

TEST(AdmitServer, SessionDefaultDeadlineApplies) {
    run_sched(1, [] {
        server srv(small_cfg(64, 1));
        std::uint64_t prefill_done = 0;
        request hold = occupy_window(srv, 1'000'000, &prefill_done);

        session_options o;
        o.cls = qos_class::latency;
        o.default_deadline_ns = 5'000; // absolute: now + 5us per request
        const session_id sid = srv.open(o);
        std::uint64_t counter = 0;
        request r = srv.submit(sid, ham::f2f<&tk::bump>(&counter));
        srv.drain();
        EXPECT_THROW(r.get(), deadline_exceeded_error);
        EXPECT_EQ(counter, 0u);
        EXPECT_EQ(srv.stats(sid).expired, 1u);
    });
}

TEST(AdmitServer, DeadlinePropagatesIntoSchedulerQueue) {
    run_sched(1, [] {
        // Window 2 but a single-message target window: the deadline request
        // reaches the scheduler and waits in its ready queue behind a long
        // task, so the *executor's* dispatch-time cancellation must fire and
        // the server must map it back to deadline_exceeded_error.
        server::config cfg = small_cfg(64, 2);
        cfg.exec.window = 1;
        server srv(cfg);
        std::uint64_t prefill_done = 0;
        request hold = occupy_window(srv, 1'000'000, &prefill_done);

        session_options o;
        o.cls = qos_class::latency;
        const session_id sid = srv.open(o);
        std::uint64_t counter = 0;
        request_options tight;
        tight.deadline_ns = sim::now() + 10'000;
        request doomed = srv.submit(sid, ham::f2f<&tk::bump>(&counter), tight);

        srv.drain();
        EXPECT_THROW(doomed.get(), deadline_exceeded_error);
        EXPECT_EQ(counter, 0u);
        EXPECT_EQ(srv.stats(sid).expired, 1u);
        EXPECT_GT(srv.scheduler().stats().tasks_expired, 0u);
    });
}

TEST(AdmitServer, CloseShedsQueuedButInFlightCompletes) {
    run_sched(1, [] {
        server srv(small_cfg(64, 1));
        std::uint64_t prefill_done = 0;
        request hold = occupy_window(srv, 1'000'000, &prefill_done);

        const session_id sid = srv.open();
        std::uint64_t counter = 0;
        request q1 = srv.submit(sid, ham::f2f<&tk::bump>(&counter));
        request q2 = srv.submit(sid, ham::f2f<&tk::bump>(&counter));
        ASSERT_EQ(srv.stats(sid).queued, 2u);

        srv.close(sid);
        EXPECT_EQ(srv.stats(sid).queued, 0u);
        EXPECT_EQ(srv.stats(sid).shed, 2u);
        EXPECT_TRUE(q1.settled());
        EXPECT_THROW(q1.get(), admission_error);
        EXPECT_THROW(q2.get(), admission_error);

        srv.drain(); // the in-flight prefill still runs to completion
        EXPECT_EQ(prefill_done, 1u);
        EXPECT_EQ(counter, 0u);
        EXPECT_EQ(srv.backlog(), 0u);
    });
}

TEST(AdmitServer, TenantFailureIsIsolated) {
    run_sched(2, [] {
        server srv(small_cfg(16, 8));
        const session_id bad = srv.open({.tenant = "bad"});
        const session_id good = srv.open({.tenant = "good"});
        std::uint64_t counter = 0;
        request boom = srv.submit(bad, ham::f2f<&tk::boom>());
        std::vector<request> oks;
        for (int i = 0; i < 4; ++i) {
            oks.push_back(srv.submit(good, ham::f2f<&tk::bump>(&counter)));
        }
        srv.drain();
        try {
            boom.get();
            FAIL() << "a raising kernel must surface as offload_error";
        } catch (const deadline_exceeded_error&) {
            FAIL() << "wrong error type: deadline_exceeded_error";
        } catch (const admission_error&) {
            FAIL() << "wrong error type: admission_error";
        } catch (const offload_error& e) {
            // expected: a plain execution failure carrying the root cause
            // (the executor's per-task error, not just "failed on node N")
            EXPECT_NE(std::string(e.what()).find("task exploded"),
                      std::string::npos);
        }
        for (request& r : oks) {
            EXPECT_NO_THROW(r.get());
        }
        EXPECT_EQ(counter, 4u);
        EXPECT_EQ(srv.stats(bad).failed, 1u);
        EXPECT_EQ(srv.stats(good).completed, 4u);
    });
}

TEST(AdmitServer, BreakerTripsShedsProbesAndRecloses) {
    run_sched(2, [] {
        server::config cfg = small_cfg(16, 8);
        cfg.breaker.failure_threshold = 3;
        cfg.breaker.probe_successes = 1;
        cfg.breaker.cooldown_ns = 10'000;
        server srv(cfg);
        session_options o;
        o.cls = qos_class::latency;
        const session_id sid = srv.open(o);

        request_options pin1;
        pin1.affinity = 1;
        pin1.pinned = true;
        for (int i = 0; i < 3; ++i) {
            request r = srv.submit(sid, ham::f2f<&tk::boom>(), pin1);
            r.wait();
        }
        EXPECT_EQ(srv.breaker_of(1), breaker_state::open);

        // Open breaker: node-1 work sheds with the cooldown as the hint...
        std::uint64_t counter = 0;
        try {
            (void)srv.submit(sid, ham::f2f<&tk::bump>(&counter), pin1);
            FAIL() << "open breaker must shed node-1 work";
        } catch (const admission_error& e) {
            EXPECT_GT(e.retry_after_ns(), 0);
            EXPECT_NE(std::string(e.what()).find("breaker"), std::string::npos);
        }
        // ...while node 2 serves unaffected.
        request_options pin2;
        pin2.affinity = 2;
        pin2.pinned = true;
        request ok = srv.submit(sid, ham::f2f<&tk::bump>(&counter), pin2);
        ok.wait();
        EXPECT_EQ(counter, 1u);

        // Cooldown elapses: exactly one probe passes, siblings shed.
        sim::advance(10'000);
        EXPECT_EQ(srv.breaker_of(1), breaker_state::half_open);
        request probe = srv.submit(sid, ham::f2f<&tk::bump>(&counter), pin1);
        try {
            (void)srv.submit(sid, ham::f2f<&tk::bump>(&counter), pin1);
            FAIL() << "half-open breaker must shed while the probe is out";
        } catch (const admission_error& e) {
            // Every resubmission sheds until the probe settles: the hint
            // must not be 0 ("may retry now") or clients spin.
            EXPECT_GT(e.retry_after_ns(), 0);
        }
        probe.get();
        EXPECT_EQ(srv.breaker_of(1), breaker_state::closed);
        EXPECT_EQ(counter, 2u);
    });
}

TEST(AdmitServer, UnpinnedSuccessesLeaveAHalfOpenBreakerToItsProbe) {
    run_sched(1, [] {
        server::config cfg = small_cfg(16, 8);
        cfg.breaker.failure_threshold = 3;
        cfg.breaker.probe_successes = 1;
        cfg.breaker.cooldown_ns = 10'000;
        server srv(cfg);
        session_options o;
        o.cls = qos_class::latency;
        const session_id sid = srv.open(o);
        request_options pin1;
        pin1.affinity = 1;
        pin1.pinned = true;
        for (int i = 0; i < 3; ++i) {
            srv.submit(sid, ham::f2f<&tk::boom>(), pin1).wait();
        }
        sim::advance(10'000);
        ASSERT_EQ(srv.breaker_of(1), breaker_state::half_open);

        // Requests without an affinity are not gated and, with one target,
        // run on node 1. Their successes say nothing about the probe.
        std::uint64_t counter = 0;
        for (int i = 0; i < 3; ++i) {
            srv.submit(sid, ham::f2f<&tk::bump>(&counter)).get();
            EXPECT_EQ(srv.breaker_of(1), breaker_state::half_open)
                << "unpinned success " << i;
        }
        request probe = srv.submit(sid, ham::f2f<&tk::bump>(&counter), pin1);
        EXPECT_EQ(srv.breaker_of(1), breaker_state::half_open);
        probe.get();
        EXPECT_EQ(srv.breaker_of(1), breaker_state::closed);
        EXPECT_EQ(counter, 4u);
    });
}

TEST(AdmitServer, ClosingSessionWithQueuedProbeUnwedgesBreaker) {
    run_sched(2, [] {
        server::config cfg = small_cfg(64, 1);
        cfg.breaker.failure_threshold = 3;
        cfg.breaker.probe_successes = 1;
        cfg.breaker.cooldown_ns = 10'000;
        server srv(cfg);
        session_options o;
        o.cls = qos_class::latency;
        const session_id flaky = srv.open(o);
        request_options pin1;
        pin1.affinity = 1;
        pin1.pinned = true;
        for (int i = 0; i < 3; ++i) {
            srv.submit(flaky, ham::f2f<&tk::boom>(), pin1).wait();
        }
        sim::advance(10'000);
        ASSERT_EQ(srv.breaker_of(1), breaker_state::half_open);

        // Fill the window so the probe stays queued, then close its session:
        // the probe slot must be released, not wedged half-open forever.
        std::uint64_t prefill_done = 0;
        request hold = occupy_window(srv, 1'000'000, &prefill_done);
        std::uint64_t counter = 0;
        request doomed_probe =
            srv.submit(flaky, ham::f2f<&tk::bump>(&counter), pin1);
        srv.close(flaky);
        EXPECT_THROW(doomed_probe.get(), admission_error);

        // A fresh session can immediately field the next probe and reclose.
        const session_id next = srv.open(o);
        request probe = srv.submit(next, ham::f2f<&tk::bump>(&counter), pin1);
        srv.drain();
        EXPECT_NO_THROW(probe.get());
        EXPECT_EQ(srv.breaker_of(1), breaker_state::closed);
        EXPECT_EQ(counter, 1u);
    });
}

TEST(AdmitServer, DispatchOrderUnchangedByClosedSessionChurn) {
    run_sched(2, [] {
        // Window 2 under weights up to 3: the window fills mid-turn, so DRR
        // credit and the per-class cursors carry across polls while ~1000
        // sessions open and close around nine live ones.
        server srv(small_cfg(4096, 2));
        std::vector<int> log;
        std::vector<session_id> live;
        std::vector<session_id> all;
        std::map<session_id, std::uint64_t> rejected;
        auto submit = [&](session_id sid, int tag, request_options ro = {}) {
            try {
                (void)srv.submit(sid, ham::f2f<&tk::record>(&log, tag), ro);
            } catch (const admission_error&) {
                ++rejected[sid];
            }
        };
        int churn_tag = 10'000;
        for (int round = 0; round < 6; ++round) {
            for (std::size_t i = 0; i < live.size(); ++i) {
                for (int n = 0; n < 2; ++n) {
                    request_options ro;
                    if ((static_cast<std::size_t>(round + n) + i) % 5 == 0) {
                        ro.deadline_ns = sim::now() + 20'000;
                    }
                    submit(live[i],
                           1000 * static_cast<int>(i + 1) + 10 * round + n, ro);
                }
            }
            std::vector<session_id> churn;
            for (int k = 0; k < 170; ++k) {
                if (k % 57 == 0 && live.size() < 9) {
                    // Live sids interleave with the churned ones.
                    const std::size_t i = live.size();
                    session_options o;
                    o.cls = static_cast<qos_class>(i % 3);
                    o.weight = static_cast<std::uint32_t>(i / 3 + 1);
                    live.push_back(srv.open(o));
                    all.push_back(live.back());
                }
                session_options o;
                o.cls = static_cast<qos_class>(k % 3);
                o.weight = static_cast<std::uint32_t>(k % 3 + 1);
                churn.push_back(srv.open(o));
                all.push_back(churn.back());
                if (k % 17 == 0) {
                    submit(churn.back(), churn_tag);
                }
                ++churn_tag;
                if (k % 10 == 0) {
                    srv.poll();
                }
            }
            for (int p = 0; p < 3; ++p) {
                srv.poll();
            }
            // Churned sessions close, some with work still queued (shed).
            for (const session_id sid : churn) {
                srv.close(sid);
            }
            submit(churn.front(), -1); // a closed session sheds the submit
        }
        srv.drain();
        for (const session_id sid : live) {
            srv.close(sid);
        }

        // The order a scan over every session ever opened produces: skipping
        // closed and idle sessions must not change which request runs when.
        const std::vector<int> want = {
            10000, 10017, 10034, 10051, 10085, 10102, 10153, 1010,  10170,
            1011,  10221, 10204, 10272, 10323, 1020,  4020,  4021,  10340,
            10391, 10442, 10493, 1021,  4030,  4031,  7030,  7031,  10510,
            10561, 1030,  4040,  4041,  7040,  7041,  10680, 10731, 1031,
            4050,  4051,  7050,  7051,  10850, 10901, 1040,  1051,  5020,
            5021,  8031,  8040,  8041,  2010,  5030,  5031,  8050,  8051,
            2011,  5040,  5041,  2020,  5050,  2021,  2030,  2041,  2050,
            2051,  3010,  6020,  6021,  9030,  9031,  9040,  3011,  6030,
            6031,  9041,  9050,  9051,  3020,  6040,  6051,  3031,  3040,
            3041,  3050,  3051};
        EXPECT_EQ(log, want);

        std::uint64_t expired = 0;
        std::uint64_t shed = 0;
        std::uint64_t rejected_total = 0;
        for (const session_id sid : all) {
            const session_stats st = srv.stats(sid); // closed: still answers
            EXPECT_FALSE(st.open);
            EXPECT_EQ(st.queued, 0u);
            EXPECT_EQ(st.admitted + rejected[sid],
                      st.completed + st.failed + st.expired + st.shed)
                << "session " << sid;
            expired += st.expired;
            shed += st.shed;
            rejected_total += rejected[sid];
        }
        EXPECT_GT(all.size(), 1000u);
        EXPECT_GT(expired, 0u);
        EXPECT_GT(shed, rejected_total); // some closed with queued work
        EXPECT_EQ(srv.open_sessions(), 0u);
        EXPECT_EQ(srv.backlog(), 0u);
    });
}

/// One mixed workload; returns its observable trace for replay comparison.
struct run_trace {
    std::vector<int> log;
    std::vector<std::uint64_t> stats;
    std::uint64_t backlog = 0;

    bool operator==(const run_trace&) const = default;
};

run_trace mixed_workload() {
    run_trace out;
    server::config cfg = small_cfg(12, 2);
    cfg.breaker.failure_threshold = 2;
    server srv(cfg);
    session_options lo, bo, go;
    lo.cls = qos_class::latency;
    lo.weight = 2;
    bo.cls = qos_class::batch;
    go.cls = qos_class::background;
    const session_id l = srv.open(lo);
    const session_id b = srv.open(bo);
    const session_id g = srv.open(go);
    std::uint64_t counter = 0;
    for (int round = 0; round < 6; ++round) {
        for (int i = 0; i < 3; ++i) {
            try {
                (void)srv.submit(l, ham::f2f<&tk::record>(&out.log,
                                                          100 * round + i));
            } catch (const admission_error&) {
            }
        }
        request_options tight;
        tight.deadline_ns = sim::now() + 5'000;
        try {
            (void)srv.submit(b, ham::f2f<&tk::cost_kernel>(
                                    std::int64_t(20'000), &counter),
                             tight);
        } catch (const admission_error&) {
        }
        try {
            (void)srv.submit(g, ham::f2f<&tk::bump>(&counter));
        } catch (const admission_error&) {
        }
        srv.poll();
    }
    srv.drain();
    for (const session_id sid : {l, b, g}) {
        const session_stats st = srv.stats(sid);
        out.stats.insert(out.stats.end(),
                         {st.admitted, st.completed, st.shed, st.expired,
                          st.failed});
    }
    out.backlog = srv.backlog();
    return out;
}

TEST(AdmitServer, ReplaysDeterministically) {
    run_trace first, second;
    run_sched(2, [&] { first = mixed_workload(); });
    run_sched(2, [&] { second = mixed_workload(); });
    EXPECT_EQ(first, second);
    // The workload is non-trivial: something completed and something shed
    // or expired, so equality is not vacuous.
    EXPECT_FALSE(first.log.empty());
}

// --- cheap-poll edges -------------------------------------------------------

/// Poll until virtual time reaches `t` (each poll advances it a little).
void poll_until(server& srv, sim::time_ns t) {
    while (sim::now() < t) {
        const sim::time_ns before = sim::now();
        srv.poll();
        if (sim::now() == before) {
            sim::advance(100);
        }
    }
}

TEST(AdmitServer, EarlierDeadlineBehindALaterOneExpiresOnTime) {
    run_sched(1, [] {
        server srv(small_cfg(64, 1));
        std::uint64_t prefill_done = 0;
        request hold = occupy_window(srv, 1'000'000, &prefill_done);
        session_options o;
        o.cls = qos_class::latency;
        const session_id sid = srv.open(o);
        std::uint64_t counter = 0;
        const sim::time_ns t0 = sim::now();

        // The sweep bound is at the later deadline first; a request queued
        // after it with an earlier deadline must lower it.
        request_options late;
        late.deadline_ns = t0 + 50'000;
        request_options early;
        early.deadline_ns = t0 + 10'000;
        request r_late = srv.submit(sid, ham::f2f<&tk::bump>(&counter), late);
        srv.poll();
        request r_early = srv.submit(sid, ham::f2f<&tk::bump>(&counter), early);

        poll_until(srv, early.deadline_ns);
        EXPECT_FALSE(r_early.settled());
        srv.poll();
        EXPECT_TRUE(r_early.settled());
        EXPECT_FALSE(r_late.settled());
        EXPECT_THROW(r_early.get(), deadline_exceeded_error);

        poll_until(srv, late.deadline_ns);
        srv.poll();
        EXPECT_TRUE(r_late.settled());
        EXPECT_THROW(r_late.get(), deadline_exceeded_error);
        EXPECT_EQ(srv.stats(sid).expired, 2u);
        srv.drain();
        EXPECT_EQ(counter, 0u);
    });
}

TEST(AdmitServer, StaleDeadlineBoundOfADispatchedRequestExpiresNothing) {
    run_sched(1, [] {
        server srv(small_cfg(64, 1));
        std::uint64_t done = 0;
        request hold = occupy_window(srv, 100'000, &done);
        session_options o;
        o.cls = qos_class::latency;
        const session_id sid = srv.open(o);
        const sim::time_ns t0 = sim::now();

        // `first` queues with the earliest deadline, then dispatches when
        // `hold` finishes, before that deadline: the bound it set goes stale.
        request_options first_opts;
        first_opts.deadline_ns = t0 + 150'000;
        request first = srv.submit(
            sid, ham::f2f<&tk::cost_kernel>(std::int64_t{300'000}, &done),
            first_opts);
        while (!hold.settled()) {
            srv.poll();
        }
        srv.poll();
        ASSERT_LT(sim::now(), first_opts.deadline_ns);
        EXPECT_EQ(srv.stats(sid).queued, 0u); // `first` is in flight

        // `second` queues behind it with a later deadline.
        request_options second_opts;
        second_opts.deadline_ns = t0 + 250'000;
        request second =
            srv.submit(sid, ham::f2f<&tk::bump>(&done), second_opts);
        EXPECT_EQ(srv.stats(sid).queued, 1u);

        // Past the stale bound the sweep runs, expires nothing and moves
        // the bound up to `second`'s deadline.
        poll_until(srv, first_opts.deadline_ns);
        srv.poll();
        EXPECT_FALSE(second.settled());
        poll_until(srv, second_opts.deadline_ns);
        EXPECT_FALSE(second.settled());
        srv.poll();
        EXPECT_TRUE(second.settled());
        EXPECT_THROW(second.get(), deadline_exceeded_error);
        EXPECT_NO_THROW(first.get());
        EXPECT_EQ(srv.stats(sid).expired, 1u);
        EXPECT_EQ(srv.stats(sid).completed, 1u);
    });
}

TEST(AdmitServer, TaskSettledInsideSubmitSettlesOnTheNextPoll) {
    // A request pinned to a failed target settles inside the executor's
    // submit, after the last reconcile pass: the reconcile skip must still
    // see it. (An executor-side expiry at submit would be the same edge, but
    // the server's own deadline check at the same instant always wins.)
    aurora::fault::injector::instance().fail_next_attach(1);
    run_sched(2, [] {
        server srv(small_cfg(64, 8));
        session_options o;
        o.cls = qos_class::latency;
        const session_id sid = srv.open(o);
        std::uint64_t counter = 0;
        request ok = srv.submit(sid, ham::f2f<&tk::bump>(&counter));
        ok.wait();
        srv.poll();

        request_options pin1;
        pin1.affinity = 1;
        pin1.pinned = true;
        const std::uint64_t failed = srv.scheduler().stats().tasks_failed;
        request doomed = srv.submit(sid, ham::f2f<&tk::bump>(&counter), pin1);
        EXPECT_EQ(srv.scheduler().stats().tasks_failed, failed + 1);
        EXPECT_FALSE(doomed.settled());
        srv.poll();
        ASSERT_TRUE(doomed.settled()); // get() would wait forever
        EXPECT_THROW(doomed.get(), offload_error);
        EXPECT_EQ(srv.stats(sid).failed, 1u);
        EXPECT_EQ(counter, 1u);
    });
    aurora::fault::injector::instance().reset();
}

// --- golden run ----------------------------------------------------------------

/// What the golden serving run pins down.
struct golden_run {
    std::uint64_t settle_hash = 0; ///< FNV-1a over (outcome, settle instant)
    std::size_t requests = 0;
    sim::time_ns final_ns = 0;
    server::statistics stats;
    sim::simulation::statistics sim;
};

/// A seeded open loop over four loopback VEs: two latency sessions and six
/// batch sessions with deadlines (the batch ones close with work still
/// queued), a background burst past the shed threshold, and one breaker
/// probe on node 2, due when the cooldown of the trip up front ends. Every request's outcome and the
/// virtual instant the loop first saw it settled are hashed in submission
/// order.
golden_run serving_golden() {
    golden_run out;
    sim::platform plat(sim::platform_config::test_machine());
    EXPECT_EQ(ham::offload::run(plat, aurora::sched::loopback_targets(4), [&] {
        server::config cfg = small_cfg(48, 8);
        cfg.breaker.failure_threshold = 2;
        cfg.breaker.probe_successes = 1;
        cfg.breaker.cooldown_ns = 200'000;
        server srv(cfg);
        session_options lo;
        lo.tenant = "latency";
        lo.cls = qos_class::latency;
        lo.weight = 2;
        const session_id lat[] = {srv.open(lo), srv.open(lo)};
        session_options go;
        go.tenant = "background";
        go.cls = qos_class::background;
        go.max_queued = 48;
        const session_id bg = srv.open(go);

        request_options pin2;
        pin2.affinity = 2;
        pin2.pinned = true;
        for (int i = 0; i < 2; ++i) {
            srv.submit(lat[0], ham::f2f<&tk::boom>(), pin2).wait();
        }
        EXPECT_EQ(srv.breaker_of(2), breaker_state::open);
        const sim::time_ns probe_due = sim::now() + cfg.breaker.cooldown_ns;

        // outcome: 0 done, 1 failed, 2 expired, 3 shed, 4 rejected at submit
        std::vector<int> outcome;
        std::vector<sim::time_ns> settled_at;
        std::vector<std::pair<request, std::size_t>> pending;
        std::uint64_t counter = 0;
        const auto submit = [&](session_id sid, std::int64_t cost_ns,
                                const request_options& ro) {
            outcome.push_back(-1);
            settled_at.push_back(0);
            try {
                pending.emplace_back(
                    srv.submit(sid, ham::f2f<&tk::cost_kernel>(cost_ns, &counter),
                               ro),
                    outcome.size() - 1);
            } catch (const admission_error&) {
                outcome.back() = 4;
                settled_at.back() = sim::now();
            }
        };
        const auto harvest = [&] {
            for (std::size_t i = 0; i < pending.size();) {
                if (!pending[i].first.settled()) {
                    ++i;
                    continue;
                }
                const std::size_t k = pending[i].second;
                settled_at[k] = sim::now();
                try {
                    pending[i].first.get();
                    outcome[k] = 0;
                } catch (const deadline_exceeded_error&) {
                    outcome[k] = 2;
                } catch (const admission_error&) {
                    outcome[k] = 3;
                } catch (const offload_error&) {
                    outcome[k] = 1;
                }
                pending[i] = pending.back();
                pending.pop_back();
            }
        };

        // The schedule: (due, action) in due order, from a splitmix64 stream.
        std::uint64_t rng = 20'240'917;
        const auto draw = [&rng](std::uint64_t below) {
            std::uint64_t z = (rng += 0x9E3779B97F4A7C15ULL);
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
            z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
            return (z ^ (z >> 31)) % below;
        };
        const sim::time_ns t0 = sim::now();
        std::vector<std::pair<sim::time_ns, std::function<void()>>> events;
        for (sim::time_ns t = t0; t < t0 + 2'000'000;
             t += 4'000 + static_cast<sim::time_ns>(draw(16'000))) {
            const auto cost = static_cast<std::int64_t>(5'000 + draw(15'000));
            const session_id sid = lat[draw(2)];
            events.emplace_back(t, [&, t, cost, sid] {
                request_options ro;
                ro.deadline_ns = t + 30'000;
                submit(sid, cost, ro);
            });
        }
        std::vector<session_id> batch;
        for (int b = 0; b < 6; ++b) {
            sim::time_ns t = t0 + 300'000 * b + static_cast<sim::time_ns>(
                                                    draw(100'000));
            events.emplace_back(t, [&] {
                session_options bo;
                bo.tenant = "batch";
                bo.cls = qos_class::batch;
                batch.push_back(srv.open(bo));
            });
            const auto n = static_cast<int>(4 + draw(6));
            for (int k = 0; k < n; ++k) {
                t += 1 + static_cast<sim::time_ns>(draw(20'000));
                const auto cost = static_cast<std::int64_t>(30'000 + draw(60'000));
                events.emplace_back(t, [&, b, t, cost] {
                    request_options ro;
                    ro.deadline_ns = t + 200'000;
                    submit(batch[static_cast<std::size_t>(b)], cost, ro);
                });
            }
            events.emplace_back(t + 60'000, [&, b] {
                srv.close(batch[static_cast<std::size_t>(b)]);
            });
        }
        for (int k = 0; k < 40; ++k) {
            events.emplace_back(t0 + 900'000,
                                [&] { submit(bg, 20'000, {}); });
        }
        events.emplace_back(probe_due, [&] {
            EXPECT_EQ(srv.breaker_of(2), breaker_state::half_open);
            submit(lat[1], 10'000, pin2);
        });
        std::stable_sort(events.begin(), events.end(),
                         [](const auto& a, const auto& b) {
                             return a.first < b.first;
                         });

        std::size_t next = 0;
        while (next < events.size() || !pending.empty()) {
            if (next < events.size() && events[next].first <= sim::now()) {
                events[next++].second();
                harvest();
                continue;
            }
            const sim::time_ns before = sim::now();
            const bool progress = srv.poll();
            harvest();
            if (!progress && next < events.size() && srv.backlog() == 0) {
                sim::sleep_until(events[next].first);
            } else if (!progress && sim::now() == before) {
                sim::advance(100);
            }
        }
        EXPECT_EQ(srv.breaker_of(2), breaker_state::closed);
        for (const session_id sid : {lat[0], lat[1], bg}) {
            srv.close(sid);
        }
        srv.drain();

        out.settle_hash = 1469598103934665603ull;
        for (std::size_t k = 0; k < outcome.size(); ++k) {
            for (const std::uint64_t v :
                 {static_cast<std::uint64_t>(outcome[k]),
                  static_cast<std::uint64_t>(settled_at[k])}) {
                out.settle_hash = (out.settle_hash ^ v) * 1099511628211ull;
            }
        }
        out.requests = outcome.size();
        out.stats = srv.stats();
    }), 0);
    out.final_ns = plat.sim().now();
    out.sim = plat.sim().stats();
    return out;
}

TEST(AdmitServer, MixedTenantGoldenRunIsExact) {
    // Recorded on a server whose every poll swept deadlines, reconciled and
    // probed each target's front flight on the client's own thread.
    const golden_run r = serving_golden();
    EXPECT_EQ(r.requests, 246u);
    EXPECT_EQ(r.settle_hash, 3806614113596274776ull);
    EXPECT_EQ(r.final_ns, 2'097'300);
    EXPECT_EQ(r.stats.admitted, 225u);
    EXPECT_EQ(r.stats.shed, 38u);
    EXPECT_EQ(r.stats.expired, 18u);
    EXPECT_EQ(r.stats.completed, 190u);
    EXPECT_EQ(r.stats.failed, 2u);
    // Fruitless front-flight checks now run inline in the scheduler, so
    // the run takes fewer handoffs than that server's 1'703.
    EXPECT_GT(r.sim.inline_probes, 0u);
    EXPECT_LT(r.sim.context_switches, 1'703u);
}

} // namespace
} // namespace aurora::admit
