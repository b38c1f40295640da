// Send-side faults on every backend, against goldens:
//   * a seeded chaos run with drops, flag losses, transient DMA-post failures
//     and delay spikes, recovered by resilient retransmits. Every backend
//     must reproduce its recorded outcome/settle hash, final virtual time,
//     handoff count, injector counters and epoch-reject count exactly, so
//     an injector draw or a simulator call that moves within a backend's
//     send path shows up here;
//   * the stale-flag test seam after transient post failures: the planted
//     flag must land where the target polls next, so the channel rejects it.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "metrics/metrics.hpp"
#include "offload/offload.hpp"
#include "sim/platform.hpp"

namespace ham::offload {
namespace {

namespace fault = aurora::fault;
namespace sim = aurora::sim;
namespace m = aurora::metrics;

double add_one(double x) { return x + 1.0; }

std::uint64_t epoch_rejects(backend_kind kind) {
    return m::registry::global()
        .counter_for("aurora_heal_epoch_rejects_total",
                     m::labels({{"backend", to_string(kind)}, {"node", "1"}}))
        .value();
}

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= 0x100000001B3ULL;
    }
}

/// What one seeded send-fault run pins down.
struct fault_run {
    std::uint64_t outcome_hash = 0xCBF29CE484222325ULL;
    sim::time_ns final_ns = 0;
    std::uint64_t handoffs = 0;
    fault::counters faults;
    std::uint64_t epoch_rejects = 0;
    int failed = 0; ///< requests that settled with an exception
};

fault_run run_send_faults(backend_kind kind) {
    fault::config fc;
    fc.enabled = true;
    fc.seed = 20260517;
    fc.drop_permille = 60;
    fc.flag_loss_permille = 60;
    fc.dma_fail_permille = 120;
    fc.delay_permille = 100;
    fc.delay_ns = 30'000;
    auto& inj = fault::injector::instance();
    inj.configure(fc);

    runtime_options opt;
    opt.backend = kind;
    opt.reply_timeout_ns = 200'000;
    opt.max_retries = 8;

    fault_run r;
    const std::uint64_t rejects0 = epoch_rejects(kind);
    sim::platform plat(sim::platform_config::test_machine());
    plat.sim().set_virtual_deadline(60'000'000'000);
    EXPECT_EQ(run(plat, opt, [&] {
        constexpr std::size_t rounds = 12;
        constexpr std::size_t per_round = 6;
        for (std::size_t round = 0; round < rounds; ++round) {
            std::vector<future<double>> futs;
            std::vector<sim::time_ns> settled(per_round, 0);
            for (std::size_t i = 0; i < per_round; ++i) {
                futs.push_back(
                    async(1, ham::f2f<&add_one>(double(round * 100 + i))));
                futs.back().on_ready([&settled, i] { settled[i] = sim::now(); });
            }
            for (std::size_t i = 0; i < per_round; ++i) {
                std::uint64_t outcome = 0;
                try {
                    outcome = std::bit_cast<std::uint64_t>(futs[i].get());
                } catch (const target_failed_error&) {
                    outcome = 1;
                    ++r.failed;
                } catch (const std::exception&) {
                    outcome = 2;
                    ++r.failed;
                }
                fnv_mix(r.outcome_hash, round * 100 + i);
                fnv_mix(r.outcome_hash, outcome);
                fnv_mix(r.outcome_hash, std::uint64_t(settled[i]));
            }
        }
    }), 0);
    r.final_ns = plat.sim().now();
    r.handoffs = plat.sim().stats().context_switches;
    r.faults = inj.stats();
    r.epoch_rejects = epoch_rejects(kind) - rejects0;
    return r;
}

struct golden {
    std::uint64_t outcome_hash;
    sim::time_ns final_ns;
    std::uint64_t handoffs;
    fault::counters faults;
};

golden golden_for(backend_kind kind) {
    switch (kind) {
        case backend_kind::loopback:
            return {6568470801535060824ull, 9'562'000, 547,
                    {.drops = 9, .flag_losses = 8, .dma_post_failures = 17,
                     .delay_spikes = 12}};
        case backend_kind::tcp:
            return {8322479652097837875ull, 8'689'692, 575,
                    {.drops = 9, .flag_losses = 8, .dma_post_failures = 17,
                     .delay_spikes = 12}};
        case backend_kind::veo:
            return {10640175023282772575ull, 188'867'082, 235,
                    {.drops = 15, .flag_losses = 12, .dma_post_failures = 30,
                     .delay_spikes = 23}};
        case backend_kind::vedma:
            return {10322204200002617718ull, 135'137'004, 1'105,
                    {.drops = 9, .flag_losses = 8, .dma_post_failures = 17,
                     .delay_spikes = 12}};
    }
    return {};
}

class SendFaultBackends : public ::testing::TestWithParam<backend_kind> {
protected:
    void TearDown() override { fault::injector::instance().reset(); }
};

TEST_P(SendFaultBackends, SeededGoldenRunIsExact) {
    const fault_run r = run_send_faults(GetParam());
    // Every send-side fault kind fired at least once on this backend.
    EXPECT_GE(r.faults.drops, 1u);
    EXPECT_GE(r.faults.flag_losses, 1u);
    EXPECT_GE(r.faults.dma_post_failures, 1u);
    EXPECT_GE(r.faults.delay_spikes, 1u);

    const golden g = golden_for(GetParam());
    EXPECT_EQ(r.outcome_hash, g.outcome_hash);
    EXPECT_EQ(r.final_ns, g.final_ns);
    EXPECT_EQ(r.handoffs, g.handoffs);
    EXPECT_EQ(r.faults.drops, g.faults.drops);
    EXPECT_EQ(r.faults.corruptions, g.faults.corruptions);
    EXPECT_EQ(r.faults.flag_losses, g.faults.flag_losses);
    EXPECT_EQ(r.faults.dma_post_failures, g.faults.dma_post_failures);
    EXPECT_EQ(r.faults.delay_spikes, g.faults.delay_spikes);
    EXPECT_EQ(r.failed, 0); // resilient retransmits recover every fault
    EXPECT_EQ(r.faults.kills, 0u);
    EXPECT_EQ(r.epoch_rejects, 0u);
}

TEST_P(SendFaultBackends, StaleFlagAfterTransientPostsIsRejected) {
    const backend_kind kind = GetParam();
    fault::config fc;
    fc.enabled = true;
    fc.seed = 7;
    fc.dma_fail_permille = 400;
    auto& inj = fault::injector::instance();
    inj.configure(fc);

    runtime_options opt;
    opt.backend = kind;
    opt.max_retries = 16;
    sim::platform plat(sim::platform_config::test_machine());
    plat.sim().set_virtual_deadline(60'000'000'000);
    ASSERT_EQ(run(plat, opt, [&] {
        for (int i = 0; i < 6; ++i) {
            EXPECT_EQ(sync(1, ham::f2f<&add_one>(double(i))), double(i) + 1.0);
        }
        ASSERT_GE(inj.stats().dma_post_failures, 1u);
        inj.configure(fault::config{}); // injection off from here on

        const std::uint64_t before = epoch_rejects(kind);
        // Epoch 7 never runs here (no recovery), so only the epoch check
        // stands between this flag and execution — provided it lands where
        // the target polls next.
        ASSERT_TRUE(runtime::current()->backend_for(1).inject_stale_flag(0, 7));
        sim::advance(2'000'000);
        EXPECT_EQ(epoch_rejects(kind), before + 1);
        for (int i = 0; i < 4; ++i) {
            EXPECT_EQ(sync(1, ham::f2f<&add_one>(41.0)), 42.0);
        }
    }), 0);
}

INSTANTIATE_TEST_SUITE_P(Backends, SendFaultBackends,
                         ::testing::Values(backend_kind::loopback,
                                           backend_kind::tcp,
                                           backend_kind::veo,
                                           backend_kind::vedma),
                         [](const auto& param_info) {
                             return std::string(to_string(param_info.param));
                         });

} // namespace
} // namespace ham::offload
