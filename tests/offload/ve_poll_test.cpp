// VE-side receive flag polls (paper Sec. III-D / IV-B) wait in
// sim::poll_cycle: the scheduler peeks the flag inline and wakes the VE only
// for a probe that has work to do. These goldens were recorded with VEs that
// ran every probe on their own thread; each run must reproduce them exactly:
//   * multi-VE vedma and veo runs with host-side gaps (final virtual time,
//     hash of every request's completion instant);
//   * the same runs with a kill schedule armed once the VEs are up that
//     never comes due: its probes stay inline too;
//   * kills that come due while the VE is parked (a time trigger, a host
//     kill_now fence, a reached message count): the VE dies at the instant
//     the plain loop, which ran every probe on the VE's thread, recorded;
//   * a stale-epoch flag planted while the VE is parked: rejected once, the
//     run continues;
//   * the VE-side idle deadline (runtime_options::target_idle_timeout_ns):
//     the VE gives up at the recorded instant and the host sees a typed
//     target_failed_error.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "metrics/metrics.hpp"
#include "offload/offload.hpp"
#include "sim/platform.hpp"
#include "tests/offload/test_kernels.hpp"
#include "trace/trace.hpp"

namespace ham::offload {
namespace {

namespace fault = aurora::fault;
namespace sim = aurora::sim;
namespace tk = testkernels;

class VePoll : public ::testing::Test {
protected:
    void TearDown() override { fault::injector::instance().reset(); }
};

/// What one run with host-side gaps pins down.
struct gap_run {
    sim::time_ns final_ns = 0;
    std::uint64_t completion_hash = 0; ///< FNV-1a over completion instants
    std::uint64_t round_switches = 0;  ///< handoffs from round 0 to the end
    sim::simulation::statistics sim;
};

/// Which VEs a run uses and how much work it does: `rounds` rounds of
/// `per_ve` offloads to every VE, each round followed by a host-side gap of
/// growing length in which every VE idles at its flag poll.
struct gap_shape {
    backend_kind kind;
    std::vector<int> ves;
    int rounds;
    int per_ve;
};

// vedma: four VEs on both sockets, so half the LHM probes cross UPI.
const gap_shape kVedma{backend_kind::vedma, {0, 3, 4, 7}, 6, 3};
// veo: host-driven offloads take ~0.4 ms, a few thousand VE probes each.
const gap_shape kVeo{backend_kind::veo, {0, 4}, 3, 1};

/// `at_start` runs on the host once every VE is up, `in_gap(round)` at the
/// start of each gap.
gap_run run_with_gaps(const gap_shape& shape,
                      const std::function<void()>& at_start = {},
                      const std::function<void(int)>& in_gap = {}) {
    runtime_options opt;
    opt.backend = shape.kind;
    opt.targets = shape.ves;
    sim::platform plat(sim::platform_config::a300_8());
    plat.sim().set_virtual_deadline(10'000'000'000);
    gap_run r;
    r.completion_hash = 1469598103934665603ull;
    const auto n = static_cast<int>(shape.ves.size());
    EXPECT_EQ(run(plat, opt, [&] {
        if (at_start) {
            at_start();
        }
        const std::uint64_t switches0 = plat.sim().stats().context_switches;
        for (int round = 0; round < shape.rounds; ++round) {
            std::vector<future<int>> fs;
            for (int k = 0; k < shape.per_ve * n; ++k) {
                fs.push_back(async(node_t(1 + k % n), ham::f2f<&tk::add>(round, k)));
            }
            for (int k = 0; k < shape.per_ve * n; ++k) {
                EXPECT_EQ(fs[std::size_t(k)].get(), round + k);
                r.completion_hash = (r.completion_hash ^
                                     static_cast<std::uint64_t>(sim::now())) *
                                    1099511628211ull;
            }
            const sim::time_ns gap_end = sim::now() + 40'000 + 15'000 * round;
            if (in_gap) {
                in_gap(round);
            }
            sim::sleep_until(gap_end);
        }
        r.round_switches = plat.sim().stats().context_switches - switches0;
    }), 0);
    r.final_ns = plat.sim().now();
    r.sim = plat.sim().stats();
    return r;
}

/// Arm a kill schedule that never comes due within the run.
void arm_distant_kill() {
    fault::injector::instance().kill_at_time(1, 1'000'000'000'000);
}

std::uint64_t epoch_rejects(backend_kind kind) {
    namespace m = aurora::metrics;
    return m::registry::global()
        .counter_for("aurora_heal_epoch_rejects_total",
                     m::labels({{"backend", to_string(kind)}, {"node", "1"}}))
        .value();
}

/// Plant a stale-epoch flag on VE 1 in the second gap, once it is parked.
gap_run run_with_stale_flag(const gap_shape& shape) {
    return run_with_gaps(shape, {}, [kind = shape.kind](int round) {
        if (round != 1) {
            return;
        }
        sim::advance(10'000);
        const std::uint64_t before = epoch_rejects(kind);
        // Epoch 7 never runs here (no recovery), so only the epoch check
        // stands between this flag and execution.
        ASSERT_TRUE(runtime::current()->backend_for(1).inject_stale_flag(0, 7));
        sim::advance(5'000);
        EXPECT_EQ(epoch_rejects(kind), before + 1);
    });
}

TEST_F(VePoll, VedmaGapsAreExact) {
    const gap_run r = run_with_gaps(kVedma);
    EXPECT_EQ(r.final_ns, 519'004'272);
    EXPECT_EQ(r.completion_hash, 6466885651836405387ull);
    EXPECT_GT(r.sim.inline_probes, 0u);
    EXPECT_LT(r.round_switches, 4'238u / 3);
}

TEST_F(VePoll, VedmaDistantKillScheduleStaysInline) {
    const gap_run r = run_with_gaps(kVedma, arm_distant_kill);
    EXPECT_EQ(r.final_ns, 519'004'272);
    EXPECT_EQ(r.completion_hash, 6466885651836405387ull);
    EXPECT_EQ(r.round_switches, 1'061u); // the plain loop: 4'238
}

TEST_F(VePoll, VedmaStaleFlagWhileParkedIsRejected) {
    const gap_run r = run_with_stale_flag(kVedma);
    EXPECT_EQ(r.final_ns, 519'004'272);
    EXPECT_EQ(r.completion_hash, 11473102464598112839ull);
    EXPECT_GT(r.sim.inline_probes, 0u);
}

TEST_F(VePoll, VeoGapsAreExact) {
    const gap_run r = run_with_gaps(kVeo);
    EXPECT_EQ(r.final_ns, 262'396'010);
    EXPECT_EQ(r.completion_hash, 1270670071158316239ull);
    EXPECT_GT(r.sim.inline_probes, 0u);
    EXPECT_LT(r.round_switches, 54'257u / 4);
}

TEST_F(VePoll, VeoDistantKillScheduleStaysInline) {
    const gap_run r = run_with_gaps(kVeo, arm_distant_kill);
    EXPECT_EQ(r.final_ns, 262'396'010);
    EXPECT_EQ(r.completion_hash, 1270670071158316239ull);
    EXPECT_EQ(r.round_switches, 28u); // the plain loop: 54'257
}

TEST_F(VePoll, VeoStaleFlagWhileParkedIsRejected) {
    const gap_run r = run_with_stale_flag(kVeo);
    EXPECT_EQ(r.final_ns, 262'457'310);
    EXPECT_EQ(r.completion_hash, 50049447781661711ull);
    EXPECT_GT(r.sim.inline_probes, 0u);
}

// --- VE deaths while parked -------------------------------------------------

/// The virtual instant the VE's receive poll ended in the traced run that
/// just finished: the end of its last `recv_wait` span. Stops tracing.
sim::time_ns last_recv_wait_end() {
    aurora::trace::set_enabled(false);
    std::uint64_t end = 0;
    for (const auto& lane : aurora::trace::collector::instance().snapshot()) {
        if (lane.name.rfind("VE", 0) != 0) {
            continue;
        }
        for (const auto& e : lane.events) {
            if (e.type == aurora::trace::event_type::span &&
                std::string(e.name) == "recv_wait") {
                end = std::max(end, e.ts_ns + e.dur_ns);
            }
        }
    }
    aurora::trace::collector::instance().reset();
    return static_cast<sim::time_ns>(end);
}

/// One traced run on one VE: a few offloads, then `in_gap` on the host while
/// the VE is parked at its flag poll, host silence, and an offload to the VE
/// that died meanwhile. Returns the instant the VE's receive poll ended.
sim::time_ns run_death_in_gap(backend_kind kind,
                              const std::function<void()>& in_gap) {
    runtime_options opt;
    opt.backend = kind;
    opt.reply_timeout_ns = 100'000;
    opt.max_retries = 1;
    aurora::trace::set_enabled(true);
    aurora::trace::collector::instance().reset();
    sim::platform plat(sim::platform_config::test_machine());
    plat.sim().set_virtual_deadline(10'000'000'000);
    EXPECT_EQ(run(plat, opt, [&] {
        for (int k = 0; k < 3; ++k) {
            EXPECT_EQ(sync(1, ham::f2f<&tk::add>(40, k)), 40 + k);
        }
        sim::advance(7'000);
        in_gap();
        sim::advance(1'000'000);
        EXPECT_THROW(sync(1, ham::f2f<&tk::add>(1, 2)), target_failed_error);
        EXPECT_EQ(runtime::current()->health(1), target_health::failed);
    }), 0);
    EXPECT_EQ(fault::injector::instance().stats().kills, 1u);
    return last_recv_wait_end();
}

/// A time trigger set while the VE is parked, off the poll grid.
void kill_by_time() {
    fault::injector::instance().kill_at_time(1, sim::now() + 50'003);
}

/// A host kill_now fence while the VE is parked.
void kill_by_fence() {
    sim::advance(20'000);
    fault::injector::instance().kill_now(1);
}

/// While the VE is parked, a message-count trigger it has already reached.
/// Messages are counted only while a schedule is armed, so one is armed
/// (never due) before the run.
sim::time_ns run_counted_death(backend_kind kind) {
    arm_distant_kill();
    return run_death_in_gap(kind, [] {
        fault::injector::instance().kill_after_messages(1, 2);
    });
}

TEST_F(VePoll, VedmaTimeTriggerWhileParkedKillsOnTime) {
    EXPECT_EQ(run_death_in_gap(backend_kind::vedma, kill_by_time), 129'642'576);
}

TEST_F(VePoll, VeoTimeTriggerWhileParkedKillsOnTime) {
    EXPECT_EQ(run_death_in_gap(backend_kind::veo, kill_by_time), 130'761'350);
}

TEST_F(VePoll, VedmaKillNowWhileParkedKillsOnTime) {
    EXPECT_EQ(run_death_in_gap(backend_kind::vedma, kill_by_fence), 129'612'776);
}

TEST_F(VePoll, VeoKillNowWhileParkedKillsOnTime) {
    EXPECT_EQ(run_death_in_gap(backend_kind::veo, kill_by_fence), 130'731'350);
}

TEST_F(VePoll, VedmaReachedMessageCountKillsOnTime) {
    EXPECT_EQ(run_counted_death(backend_kind::vedma), 129'592'661);
}

TEST_F(VePoll, VeoReachedMessageCountKillsOnTime) {
    EXPECT_EQ(run_counted_death(backend_kind::veo), 130'711'350);
}

// --- VE-side idle deadline ---------------------------------------------------

/// One offload, then host silence past the VE's idle deadline, then an
/// offload to the VE that gave up. Returns the virtual instant its receive
/// poll gave up.
sim::time_ns run_idle_timeout(backend_kind kind) {
    runtime_options opt;
    opt.backend = kind;
    opt.target_idle_timeout_ns = 300'000;
    opt.reply_timeout_ns = 100'000;
    opt.max_retries = 1;
    aurora::trace::set_enabled(true);
    aurora::trace::collector::instance().reset();
    sim::platform plat(sim::platform_config::test_machine());
    plat.sim().set_virtual_deadline(10'000'000'000);
    EXPECT_EQ(run(plat, opt, [] {
        EXPECT_EQ(sync(1, ham::f2f<&tk::add>(40, 2)), 42);
        sim::advance(1'000'000);
        EXPECT_THROW(sync(1, ham::f2f<&tk::add>(1, 2)), target_failed_error);
        EXPECT_EQ(runtime::current()->health(1), target_health::failed);
    }), 0);
    EXPECT_EQ(fault::injector::instance().stats().idle_timeouts, 1u);
    return last_recv_wait_end();
}

TEST_F(VePoll, VedmaIdleTimeoutGivesUpOnTime) {
    EXPECT_EQ(run_idle_timeout(backend_kind::vedma), 129'873'057);
}

TEST_F(VePoll, VeoIdleTimeoutGivesUpOnTime) {
    EXPECT_EQ(run_idle_timeout(backend_kind::veo), 129'927'850);
}

} // namespace
} // namespace ham::offload
