// cluster_skew: a closed batch on a net::cluster_executor over 4 VH nodes x
// 4 loopback VEs with local_then_remote work stealing. Every task is
// submitted, then the client waits for all of them.
//
// Kernel costs have a heavy head (one task in sixteen is 20-80x heavier) and
// affinities pile onto one node: P(node 1) = 1/2, P(node 2) = 1/4,
// P(node 3) = P(node 0) = 1/8. Costs and affinities are stratified over the
// batch, so the seed moves which task gets which, not the mix itself.
// It is the only workload that exercises net (routing headers, links,
// remote steals), and it runs about twenty simulated processes. Kernels
// record their finish time, that they ran once, and the tag they were sent;
// every task id must settle exactly once. A task's latency runs from its
// submission to the end of its kernel: wait_all() settles the batch as a
// whole, so per-task settlement at the origin is not observable. The
// workload bypasses admit and mem.
#include <map>

#include "ham/msg.hpp"
#include "layers.hpp"
#include "net/net.hpp"
#include "offload/offload.hpp"

namespace perfbench {

namespace {

namespace off = ham::offload;
namespace net = aurora::net;
namespace sim = aurora::sim;

constexpr std::size_t kTasks = 6000;
constexpr int kNodes = 4;
constexpr int kVesPerNode = 4;

struct kernel_ledger {
    std::vector<std::uint32_t> runs;
    std::vector<std::uint64_t> tags;
    std::vector<std::int64_t> end_ns;
};
kernel_ledger* g_ledger = nullptr;

void skew_kernel(std::uint64_t index, std::int64_t cost_ns, std::uint64_t tag) {
    // The kernel is the only running simulated process: a quiet moment to
    // sample the machine's speed (the submitting client only waits).
    meter_tick();
    sim::advance(cost_ns);
    if (g_ledger != nullptr && index < g_ledger->runs.size()) {
        ++g_ledger->runs[index];
        g_ledger->tags[index] = tag;
        g_ledger->end_ns[index] = sim::now();
    }
}

struct task {
    std::int64_t cost_ns = 0;
    int node = 0;
};

} // namespace

rep_result run_cluster_skew(const run_config& cfg, bool trace) {
    rep_result out;
    rng gen(cfg.seed);
    const std::vector<double> cost_u = stratified(kTasks, gen);
    const std::vector<double> node_u = stratified(kTasks, gen);
    std::vector<task> tasks(kTasks);
    for (std::size_t i = 0; i < kTasks; ++i) {
        // Heavy head: the top sixteenth costs 200-800 us, the rest 5-20 us.
        const double u = cost_u[i];
        tasks[i].cost_ns = u >= 15.0 / 16.0
                               ? std::int64_t(200'000 + 9'600'000 * (u - 15.0 / 16.0))
                               : std::int64_t(5'000 + 16'000 * u);
        const double v = node_u[i];
        tasks[i].node = v < 0.5 ? 1 : v < 0.75 ? 2 : v < 0.875 ? 3 : 0;
    }
    kernel_ledger ledger;
    ledger.runs.assign(kTasks, 0);
    ledger.tags.assign(kTasks, 0);
    ledger.end_ns.assign(kTasks, 0);
    g_ledger = &ledger;
    std::vector<std::int64_t> submitted_ns(kTasks, 0);
    std::map<net::cluster_executor::task_id, std::size_t> index_of;
    std::vector<net::cluster_executor::task_id> order;
    net::cluster_executor::statistics stats;
    span_recorder rec(trace, &virt_now, &bench_now_ns);

    const std::int64_t setup0 = bench_now_ns();
    sim::platform plat(sim::platform_config::a300_8());
    off::runtime_options opt;
    opt.backend = off::backend_kind::loopback;
    opt.targets.assign(std::size_t(kVesPerNode), 0);
    const int rc = off::run(plat, opt, [&] {
        net::cluster_options copt;
        copt.nodes = kNodes;
        copt.ves_per_node = kVesPerNode;
        net::cluster c(plat, copt);
        net::cluster_executor_config ecfg;
        ecfg.policy = aurora::sched::placement_policy::work_stealing;
        ecfg.scope = aurora::sched::steal_scope::local_then_remote;
        ecfg.window = 2;
        ecfg.remote_steal_threshold = 2;
        net::cluster_executor ex(c, ecfg);
        out.setup_s = double(bench_now_ns() - setup0) / 1e9;

        const registry_mark m0;
        const sim_mark s0 = mark_sim(plat.sim());
        for (std::size_t i = 0; i < kTasks; ++i) {
            scoped_span sp(rec, "net.submit", i + 1);
            submitted_ns[i] = sim::now();
            const auto id = ex.submit(
                ham::f2f<&skew_kernel>(std::uint64_t(i), tasks[i].cost_ns, mix(cfg.seed, i)),
                tasks[i].node);
            index_of[id] = i;
        }
        {
            scoped_span sp(rec, "net.wait_all", 0);
            ex.wait_all();
        }
        const sim_mark s1 = mark_sim(plat.sim());
        const registry_mark m1;
        order = ex.completion_order();
        stats = ex.stats();

        record_sim(out, plat.sim(), s0, s1, kTasks);
        record_offload(out, m0, m1, kTasks);
        out.exact["net.frames_per_task"] =
            double(counter_delta(m0, m1, "aurora_net_link_frames_total")) / double(kTasks);
        out.exact["net.steals_local"] = double(stats.steals_local);
        out.exact["net.steals_remote"] = double(stats.steals_remote);
        out.exact["net.link_backpressure"] =
            double(counter_delta(m0, m1, "aurora_net_link_backpressure_total"));

        if (trace) {
            off::runtime& rt = *off::runtime::current();
            alignas(16) std::byte msg[ham::default_max_msg_size];
            const std::int64_t h0 = host_now_ns();
            for (std::size_t i = 0; i < kTasks; ++i) {
                (void)ham::write_message(rt.host_registry(), msg, sizeof(msg),
                                         ham::f2f<&skew_kernel>(std::uint64_t(i),
                                                                tasks[i].cost_ns,
                                                                mix(cfg.seed, i)));
            }
            out.host["ham.serialize_host_ns"] = double(host_now_ns() - h0) / double(kTasks);
        }
    });
    g_ledger = nullptr;
    if (rc != 0) {
        out.errors.push_back("offload::run returned " + std::to_string(rc));
    }

    // Every submitted id settles exactly once, and its kernel ran exactly once.
    out.attempted = kTasks;
    std::vector<std::uint32_t> settled(kTasks, 0);
    for (const auto id : order) {
        const auto it = index_of.find(id);
        if (it == index_of.end()) {
            out.errors.push_back("unknown task id " + std::to_string(id) + " settled");
        } else {
            ++settled[it->second];
        }
    }
    if (stats.failed != 0 || stats.expired != 0) {
        out.errors.push_back("tasks failed or expired in a fault-free batch");
    }
    for (std::size_t i = 0; i < kTasks; ++i) {
        if (settled[i] == 1 && ledger.runs[i] == 1 && ledger.tags[i] == mix(cfg.seed, i)) {
            ++out.ok;
            out.latency_ns.push_back(double(ledger.end_ns[i] - submitted_ns[i]));
        } else {
            ++out.failed;
            if (out.errors.size() < 8) {
                out.errors.push_back("task " + std::to_string(i) + " settled " +
                                     std::to_string(settled[i]) + "x, ran " +
                                     std::to_string(ledger.runs[i]) + "x");
            }
        }
    }
    out.slo_attempted = kTasks;
    for (const double l : out.latency_ns) {
        out.slo_met += l <= cfg.latency_limit_us * 1e3 ? 1 : 0;
    }

    if (trace) {
        const auto self = self_times(rec.spans());
        const auto roll = roll_up(rec.spans(), self);
        record_span_means(out, roll, "net.submit", "net.submit_host_ns");
        const auto w = roll.find("net.wait_all");
        out.host["net.wait_all_host_ns_per_task"] =
            w == roll.end() ? 0.0 : w->second.self_host_ns / double(kTasks);
        out.spans = rec.spans();
    }
    return out;
}

} // namespace perfbench
