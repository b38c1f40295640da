// aurora::net cluster tier:
//   * VH -> VH -> VE echo round trips on every calibrated link profile,
//   * remote memory (allocate/put/get/free) and buffer_ptr identity across
//     nodes (global ids),
//   * two-level scheduling with deterministic remote work stealing,
//   * remote-node VE kill -> heal with exactly-once execution and no
//     cross-tenant stall,
//   * terminal remote failure settles futures with target_failed_error,
//   * gateway probes evaluated inline by the scheduler (idle iterations and
//     the flight checks of busy ones) change nothing observable but the
//     handoff count, with or without tracing.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault.hpp"
#include "metrics/metrics.hpp"
#include "net/net.hpp"
#include "offload/offload.hpp"
#include "sim/platform.hpp"
#include "trace/trace.hpp"

namespace aurora::net {
namespace {

namespace fault = aurora::fault;
using ham::offload::backend_kind;
using ham::offload::buffer_ptr;
using ham::offload::run;
using ham::offload::runtime_options;
using ham::offload::target_failed_error;
using ham::offload::target_health;

int add(int a, int b) { return a + b; }

std::int64_t sum_cells(buffer_ptr<std::int64_t> data, std::uint64_t n) {
    std::int64_t total = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        total += data[i];
    }
    return total;
}

void inc_cell(buffer_ptr<std::int64_t> cell) {
    cell[0] = cell[0] + 1;
}

int which_node() {
    return static_cast<int>(ham::offload::target_context::current()->node());
}

runtime_options origin_options(int ves = 2) {
    runtime_options opt;
    opt.backend = backend_kind::loopback;
    opt.targets.assign(static_cast<std::size_t>(ves), 0);
    return opt;
}

class Cluster : public ::testing::Test {
protected:
    void TearDown() override { fault::injector::instance().reset(); }
};

class ClusterLinks : public ::testing::TestWithParam<const char*> {
protected:
    void TearDown() override { fault::injector::instance().reset(); }
};

/// offload::run with the platform handle exposed (cluster needs it).
void run_cluster(const runtime_options& opt, cluster_options copt,
                 const std::function<void(cluster&)>& body,
                 sim::time_ns deadline_ns = 120'000'000'000) {
    sim::platform plat(sim::platform_config::test_machine());
    plat.sim().set_virtual_deadline(deadline_ns);
    ASSERT_EQ(run(plat, opt, [&] {
        cluster c(plat, copt);
        body(c);
    }), 0);
}

TEST_P(ClusterLinks, EchoOnEveryNodeAndVe) {
    cluster_options copt;
    copt.nodes = 3;
    copt.ves_per_node = 2;
    copt.link = link_profile::by_name(GetParam());
    run_cluster(origin_options(2), copt, [&](cluster& c) {
        for (int vh = 0; vh < c.nodes(); ++vh) {
            for (int ve = 1; ve <= c.ves_per_node(); ++ve) {
                auto f = c.async(vh, ve, ham::f2f<&add>(10 * vh, ve));
                EXPECT_EQ(f.get(), 10 * vh + ve)
                    << "vh " << vh << " ve " << ve;
            }
        }
    });
}

TEST_P(ClusterLinks, RemoteVeSeesItsGlobalIdentity) {
    cluster_options copt;
    copt.nodes = 3;
    copt.ves_per_node = 2;
    copt.link = link_profile::by_name(GetParam());
    run_cluster(origin_options(2), copt, [&](cluster& c) {
        // VH k's VE i executes under the cluster-unique id k*V + i — the
        // node a buffer_ptr must carry to dereference there.
        for (int vh = 0; vh < c.nodes(); ++vh) {
            for (int ve = 1; ve <= c.ves_per_node(); ++ve) {
                EXPECT_EQ(c.async(vh, ve, ham::f2f<&which_node>()).get(),
                          c.global_id(vh, ve));
            }
        }
    });
}

INSTANTIATE_TEST_SUITE_P(Profiles, ClusterLinks,
                         ::testing::Values("ib-hdr", "roce", "ethernet-tcp"),
                         [](const auto& param_info) {
                             std::string n = param_info.param;
                             for (auto& ch : n) {
                                 if (ch == '-') {
                                     ch = '_';
                                 }
                             }
                             return n;
                         });

TEST_F(Cluster, RemoteMemoryRoundTrip) {
    cluster_options copt;
    copt.nodes = 2;
    copt.ves_per_node = 2;
    run_cluster(origin_options(1), copt, [&](cluster& c) {
        constexpr std::uint64_t n = 1024;
        auto buf = c.allocate<std::int64_t>(1, 1, n);
        EXPECT_EQ(buf.node(), c.global_id(1, 1));
        std::vector<std::int64_t> host(n);
        std::int64_t expect = 0;
        for (std::uint64_t i = 0; i < n; ++i) {
            host[i] = static_cast<std::int64_t>(3 * i + 1);
            expect += host[i];
        }
        c.put(host.data(), 1, buf, n);
        // The offloaded sum reads the buffer on the remote VE itself.
        EXPECT_EQ(c.async(1, 1, ham::f2f<&sum_cells>(buf, n)).get(), expect);
        std::vector<std::int64_t> back(n, 0);
        c.get(1, buf, back.data(), n);
        EXPECT_EQ(back, host);
        c.free(1, buf);
    });
}

TEST_F(Cluster, FourByFourSkewedMixWithRemoteStealing) {
    // The acceptance-criteria shape: 4 nodes x 4 VEs, a skewed task mix
    // piled onto node 1, remote stealing spreads it across the cluster.
    cluster_options copt;
    copt.nodes = 4;
    copt.ves_per_node = 4;
    run_cluster(origin_options(4), copt, [&](cluster& c) {
        cluster_executor_config cfg;
        cfg.policy = sched::placement_policy::work_stealing;
        cfg.scope = sched::steal_scope::local_then_remote;
        cfg.window = 2;
        cfg.remote_steal_threshold = 2;
        cluster_executor ex(c, cfg);
        for (int i = 0; i < 96; ++i) {
            ex.submit(ham::f2f<&add>(i, 1), /*affinity_vh=*/1);
        }
        ex.wait_all();
        const auto& st = ex.stats();
        EXPECT_EQ(st.completed, 96u);
        EXPECT_EQ(st.failed, 0u);
        EXPECT_GT(st.steals_remote, 0u);
        std::uint64_t off_node1 = 0;
        for (std::size_t e = 0; e < ex.num_engines(); ++e) {
            off_node1 += st.per_engine[e];
        }
        EXPECT_EQ(off_node1, 96u);
    }, 600'000'000'000);
}

TEST_F(Cluster, LocalOnlyScopeNeverCrossesALink) {
    cluster_options copt;
    copt.nodes = 3;
    copt.ves_per_node = 2;
    run_cluster(origin_options(2), copt, [&](cluster& c) {
        cluster_executor_config cfg;
        cfg.scope = sched::steal_scope::local_only;
        cfg.window = 2;
        cluster_executor ex(c, cfg);
        for (int i = 0; i < 24; ++i) {
            ex.submit(ham::f2f<&add>(i, 0), /*affinity_vh=*/1);
        }
        ex.wait_all();
        EXPECT_EQ(ex.stats().completed, 24u);
        EXPECT_EQ(ex.stats().steals_remote, 0u);
        // Every completion happened on node 1's engines.
        for (std::size_t e = 0; e < ex.num_engines(); ++e) {
            if (e != ex.engine_index(1, 1) && e != ex.engine_index(1, 2)) {
                EXPECT_EQ(ex.stats().per_engine[e], 0u) << "engine " << e;
            }
        }
    }, 600'000'000'000);
}

std::vector<std::uint64_t> steal_fingerprint() {
    std::vector<std::uint64_t> order;
    cluster_options copt;
    copt.nodes = 3;
    copt.ves_per_node = 2;
    sim::platform plat(sim::platform_config::test_machine());
    plat.sim().set_virtual_deadline(600'000'000'000);
    EXPECT_EQ(run(plat, origin_options(2), [&] {
        cluster c(plat, copt);
        cluster_executor_config cfg;
        cfg.scope = sched::steal_scope::local_then_remote;
        cfg.window = 2;
        cfg.remote_steal_threshold = 2;
        cluster_executor ex(c, cfg);
        for (int i = 0; i < 48; ++i) {
            ex.submit(ham::f2f<&add>(i, i), /*affinity_vh=*/1);
        }
        ex.wait_all();
        order = ex.completion_order();
    }), 0);
    return order;
}

TEST_F(Cluster, RemoteWorkStealingIsDeterministic) {
    const std::vector<std::uint64_t> a = steal_fingerprint();
    const std::vector<std::uint64_t> b = steal_fingerprint();
    ASSERT_EQ(a.size(), 48u);
    EXPECT_EQ(a, b) << "completion order must not vary across identical runs";
}

TEST_F(Cluster, RemoteVeKillHealsExactlyOnceWithoutCrossTenantStall) {
    cluster_options copt;
    copt.nodes = 2;
    copt.ves_per_node = 2;
    copt.remote.reply_timeout_ns = 100'000;
    copt.remote.max_retries = 2;
    copt.remote.recovery.enabled = true;
    copt.remote.recovery.backoff_ns = 50'000;
    copt.remote.recovery_streak = 4;
    // Kill VH1's VE1 — global id 1*2+1 = 3 — after two routed messages.
    fault::injector::instance().kill_after_messages(3, 2);
    run_cluster(origin_options(1), copt, [&](cluster& c) {
        auto cell = c.allocate<std::int64_t>(1, 1, 1);
        const std::int64_t zero = 0;
        c.put(&zero, 1, cell, 1);
        std::vector<ham::offload::future<void>> futs;
        futs.reserve(12);
        for (int i = 0; i < 12; ++i) {
            futs.push_back(c.async(1, 1, ham::f2f<&inc_cell>(cell)));
        }
        // The sibling tenant (1,2) keeps serving while (1,1) recovers.
        for (int i = 0; i < 8; ++i) {
            EXPECT_EQ(c.async(1, 2, ham::f2f<&add>(i, 7)).get(), i + 7);
        }
        for (auto& f : futs) {
            f.get();
        }
        // Exactly-once: the replay replays only never-executed messages.
        std::int64_t count = -1;
        c.get(1, cell, &count, 1);
        EXPECT_EQ(count, 12);
        EXPECT_EQ(c.engine_health(1, 1), target_health::healthy);
        EXPECT_EQ(c.observed_epoch(1, 1), 1u); // respawned incarnation
        EXPECT_EQ(c.observed_epoch(1, 2), 0u); // sibling untouched
        c.free(1, cell);
    }, 600'000'000'000);
    EXPECT_EQ(fault::injector::instance().stats().kills, 1u);
    EXPECT_EQ(fault::injector::instance().stats().revivals, 1u);
}

TEST_F(Cluster, MultiNodeKillScheduleHealsEveryNode) {
    // Two VEs on two different remote nodes die mid-run — VH1's VE1
    // (gid 3) and VH2's VE1 (gid 5). Each gateway heals its own VE
    // independently; work on every engine still completes exactly once.
    cluster_options copt;
    copt.nodes = 3;
    copt.ves_per_node = 2;
    copt.remote.reply_timeout_ns = 100'000;
    copt.remote.max_retries = 2;
    copt.remote.recovery.enabled = true;
    copt.remote.recovery.backoff_ns = 50'000;
    copt.remote.recovery_streak = 4;
    fault::injector::instance().kill_after_messages(3, 2);
    fault::injector::instance().kill_after_messages(5, 3);
    run_cluster(origin_options(1), copt, [&](cluster& c) {
        auto cell1 = c.allocate<std::int64_t>(1, 1, 1);
        auto cell2 = c.allocate<std::int64_t>(2, 1, 1);
        const std::int64_t zero = 0;
        c.put(&zero, 1, cell1, 1);
        c.put(&zero, 2, cell2, 1);
        std::vector<ham::offload::future<void>> futs;
        for (int i = 0; i < 10; ++i) {
            futs.push_back(c.async(1, 1, ham::f2f<&inc_cell>(cell1)));
            futs.push_back(c.async(2, 1, ham::f2f<&inc_cell>(cell2)));
        }
        // The untouched VEs on both nodes keep serving throughout.
        for (int i = 0; i < 6; ++i) {
            EXPECT_EQ(c.async(1, 2, ham::f2f<&add>(i, 1)).get(), i + 1);
            EXPECT_EQ(c.async(2, 2, ham::f2f<&add>(i, 2)).get(), i + 2);
        }
        for (auto& f : futs) {
            f.get();
        }
        std::int64_t count1 = -1, count2 = -1;
        c.get(1, cell1, &count1, 1);
        c.get(2, cell2, &count2, 1);
        EXPECT_EQ(count1, 10);
        EXPECT_EQ(count2, 10);
        EXPECT_EQ(c.engine_health(1, 1), target_health::healthy);
        EXPECT_EQ(c.engine_health(2, 1), target_health::healthy);
        EXPECT_EQ(c.observed_epoch(1, 1), 1u);
        EXPECT_EQ(c.observed_epoch(2, 1), 1u);
        c.free(1, cell1);
        c.free(2, cell2);
    }, 600'000'000'000);
    EXPECT_EQ(fault::injector::instance().stats().kills, 2u);
    EXPECT_EQ(fault::injector::instance().stats().revivals, 2u);
}

TEST_F(Cluster, TerminalRemoteFailureSettlesFutures) {
    cluster_options copt;
    copt.nodes = 2;
    copt.ves_per_node = 2;
    copt.remote.reply_timeout_ns = 100'000;
    copt.remote.max_retries = 1;
    // recovery disabled: the death is terminal.
    fault::injector::instance().kill_after_messages(3, 1);
    run_cluster(origin_options(1), copt, [&](cluster& c) {
        auto f1 = c.async(1, 1, ham::f2f<&add>(1, 1));
        auto f2 = c.async(1, 1, ham::f2f<&add>(2, 2));
        EXPECT_THROW(
            {
                f1.get();
                f2.get();
            },
            target_failed_error);
        // The node degrades but its healthy VE keeps working.
        EXPECT_EQ(c.engine_health(1, 1), target_health::failed);
        EXPECT_EQ(c.async(1, 2, ham::f2f<&add>(20, 3)).get(), 23);
        EXPECT_EQ(c.status(1).health, target_health::degraded);
        EXPECT_EQ(c.status(1).ves_failed, 1);
    }, 600'000'000'000);
}

TEST_F(Cluster, NodeStatusRollup) {
    cluster_options copt;
    copt.nodes = 3;
    copt.ves_per_node = 2;
    run_cluster(origin_options(2), copt, [&](cluster& c) {
        for (int vh = 0; vh < 3; ++vh) {
            const node_status s = c.status(vh);
            EXPECT_EQ(s.health, target_health::healthy) << "vh " << vh;
            EXPECT_EQ(s.ves_total, 2);
            EXPECT_EQ(s.ves_healthy, 2);
        }
        EXPECT_EQ(c.outstanding(1), 0u);
    });
}

// --- inline gateway probes -----------------------------------------------------

void skew_work(std::int64_t ns) { sim::advance(ns); }

std::uint64_t counter_family_total(std::string_view family) {
    std::uint64_t total = 0;
    for (const auto& f : metrics::registry::global().snapshot()) {
        if (f.name == family) {
            for (const auto& s : f.series) {
                total += static_cast<std::uint64_t>(s.value);
            }
        }
    }
    return total;
}

/// Shape of one skewed 4x4 batch: the executor's per-engine window and
/// remote steal threshold, and the number of tasks.
struct skew_batch_shape {
    std::uint32_t window = 2;
    std::uint32_t remote_steal_threshold = 2;
    std::int64_t tasks = 128;
};

/// Everything the gateway goldens pin about one skewed 4x4 batch.
struct skew_batch_result {
    std::uint64_t order_hash = 0; ///< FNV-1a over completion_order()
    sim::time_ns final_ns = 0;
    std::uint64_t steals_local = 0;
    std::uint64_t steals_remote = 0;
    std::uint64_t polls = 0;        ///< aurora_backend_polls_total delta
    std::uint64_t frames = 0;       ///< aurora_net_link_frames_total delta
    std::uint64_t backpressure = 0; ///< aurora_net_link_backpressure_total delta
    sim::simulation::statistics sim;
};

skew_batch_result run_skew_batch(const skew_batch_shape& shape = {}) {
    skew_batch_result r;
    constexpr std::string_view kPolls = "aurora_backend_polls_total";
    constexpr std::string_view kFrames = "aurora_net_link_frames_total";
    constexpr std::string_view kBackpressure = "aurora_net_link_backpressure_total";
    const std::uint64_t polls0 = counter_family_total(kPolls);
    const std::uint64_t frames0 = counter_family_total(kFrames);
    const std::uint64_t bp0 = counter_family_total(kBackpressure);
    cluster_options copt;
    copt.nodes = 4;
    copt.ves_per_node = 4;
    copt.link.window = 3; // small window: result frames back up in the outbox
    sim::platform plat(sim::platform_config::test_machine());
    plat.sim().set_virtual_deadline(600'000'000'000);
    EXPECT_EQ(run(plat, origin_options(4), [&] {
        cluster c(plat, copt);
        cluster_executor_config cfg;
        cfg.policy = sched::placement_policy::work_stealing;
        cfg.scope = sched::steal_scope::local_then_remote;
        cfg.window = shape.window;
        cfg.remote_steal_threshold = shape.remote_steal_threshold;
        cluster_executor ex(c, cfg);
        // One task in eight is 20x heavier; half the batch piles onto node 1.
        for (std::int64_t i = 0; i < shape.tasks; ++i) {
            const std::int64_t cost =
                i % 8 == 0 ? 60'000 + 10'000 * (i % 5) : 3'000 + 1'000 * (i % 7);
            const int affinity = i % 8 < 4 ? 1 : i % 8 < 6 ? 2 : i % 8 < 7 ? 3 : 0;
            ex.submit(ham::f2f<&skew_work>(cost), affinity);
        }
        ex.wait_all();
        EXPECT_EQ(ex.stats().completed, static_cast<std::uint64_t>(shape.tasks));
        r.order_hash = 1469598103934665603ull;
        for (const auto id : ex.completion_order()) {
            r.order_hash = (r.order_hash ^ id) * 1099511628211ull;
        }
        r.steals_local = ex.stats().steals_local;
        r.steals_remote = ex.stats().steals_remote;
    }), 0);
    r.final_ns = plat.sim().now();
    r.sim = plat.sim().stats();
    r.polls = counter_family_total(kPolls) - polls0;
    r.frames = counter_family_total(kFrames) - frames0;
    r.backpressure = counter_family_total(kBackpressure) - bp0;
    return r;
}

TEST_F(Cluster, GatewayIdleCycleIsExact) {
    // Idle gateway iterations park in sim::poll_cycle and are probed inline
    // by the scheduler. Every observable must match the plain polling loop:
    // the values below were recorded with gateways that ran each idle probe
    // on their own thread (one handoff per probe).
    const skew_batch_result r = run_skew_batch();
    EXPECT_EQ(r.order_hash, 16825348854708344763ull);
    EXPECT_EQ(r.final_ns, 347'400);
    EXPECT_EQ(r.steals_local, 17u);
    EXPECT_EQ(r.steals_remote, 34u);
    EXPECT_EQ(r.polls, 2'702u);
    EXPECT_EQ(r.frames, 209u);
    EXPECT_EQ(r.backpressure, 183u);
    // The mechanism: the plain loop took 8876 handoffs.
    EXPECT_LE(r.sim.context_switches, 8'876u * 7 / 10);
    EXPECT_GT(r.sim.inline_probes, 0u);
}

/// Several flights per gateway: window 4 on every engine keeps up to 16
/// offloads in flight per node, so most gateway iterations make progress and
/// still check every remaining flight.
constexpr skew_batch_shape kBusyGateways{4, 4, 192};

void expect_busy_gateway_goldens(const skew_batch_result& r) {
    // Recorded with gateways that ran every flight check on their own thread
    // (one handoff per check).
    EXPECT_EQ(r.order_hash, 6131899794462732927ull);
    EXPECT_EQ(r.final_ns, 492'100);
    EXPECT_EQ(r.steals_local, 45u);
    EXPECT_EQ(r.steals_remote, 45u);
    EXPECT_EQ(r.polls, 4'045u);
    EXPECT_EQ(r.frames, 299u);
    EXPECT_EQ(r.backpressure, 572u);
}

TEST_F(Cluster, GatewayFlightChecksAreExact) {
    // The flight checks of a gateway iteration that made progress wait in
    // one sim::poll_cycle too. With only idle iterations parked, this batch
    // took 3340 handoffs; 2316 now.
    const skew_batch_result r = run_skew_batch(kBusyGateways);
    expect_busy_gateway_goldens(r);
    EXPECT_LE(r.sim.context_switches, 3'340u * 8 / 10);
    EXPECT_GT(r.sim.inline_probes, 0u);
}

TEST_F(Cluster, GatewayFlightChecksUnderTracingAreExact) {
    // Tracing timestamps every probe, so runtime::idle_probe refuses and
    // every flight check fires: the gateways run each one on their own
    // thread, with the same virtual results.
    trace::set_enabled(true);
    trace::collector::instance().reset();
    const skew_batch_result r = run_skew_batch(kBusyGateways);
    trace::set_enabled(false);
    trace::collector::instance().reset();
    expect_busy_gateway_goldens(r);
}

} // namespace
} // namespace aurora::net
