// perfbench — the two-clock benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--latency-limit-us <us>] [--trace-dir <dir>]
//
// Pins itself to one CPU, then repeats the workload (fresh platform each
// time, same seed) until --seconds of wall time have passed. Every
// repetition must check its outputs and reproduce the first repetition's
// virtual times and exact counts bit for bit. Virtual metrics therefore come
// from any one repetition; wall-clock metrics are the median over all of
// them, each read at the reference machine's speed (machine.hpp).
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
// traced repetitions and prints the per-layer ledger: self times of the
// spans recorded around each call the benchmark makes into a layer, the
// program's public counters, and the tracing overhead. The last stdout line
// is one JSON object {"correct", "attempted", "failed", "metrics"}; the line
// before it is a report with every metric's clock, sample counts and the
// machine. Exit code 0 = outputs correct and deterministic.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "layers.hpp"
#include "ledger.hpp"

namespace {

using namespace perfbench;

struct metric_def {
    const char* name;
    const char* unit;
    const char* clock; ///< "virt", "host" or "count"
    const char* layer;
};

/// End-to-end metrics every workload reports (BENCHMARK.json end_to_end).
const std::vector<metric_def> kEndToEnd = {
    {"req_p50_virt_us", "us", "virt", "e2e"},
    {"req_p99_virt_us", "us", "virt", "e2e"},
    {"goodput_virt_rps", "1/s", "virt", "e2e"},
    {"host_rps", "1/s", "host", "e2e"},
    {"setup_s", "s", "host", "e2e"},
    {"peak_rss_mib", "MiB", "host", "e2e"},
};

/// End-to-end metrics that apply to some workloads only; printed in the
/// report line (a gated metric must exist, and be non-zero, everywhere).
const std::vector<metric_def> kWorkloadEndToEnd = {
    {"bulk_virt_gib_s", "GiB/s", "virt", "e2e"},
    {"slo_met_pct", "%", "virt", "e2e"},
    {"fail_pct", "%", "count", "e2e"},
    {"paper_err_pct", "%", "virt", "e2e"},
};

/// Per-layer ledger (BENCHMARK.json per_layer). A layer a workload does not
/// run reports 0 for its metrics and is listed in the report as absent.
const std::vector<metric_def> kPerLayer = {
    {"sim.handoffs_per_req", "count", "count", "sim"},
    {"sim.events_per_req", "count", "count", "sim"},
    {"sim.host_ns_per_handoff", "ns", "host", "sim"},
    {"sim.host_ns_per_virt_us", "ns/us", "host", "sim"},
    {"sim.processes", "count", "count", "sim"},
    {"ham.serialize_host_ns", "ns", "host", "ham"},
    {"offload.async_host_ns", "ns", "host", "offload"},
    {"offload.async_virt_ns", "ns", "virt", "offload"},
    {"offload.get_host_ns", "ns", "host", "offload"},
    {"offload.get_virt_ns", "ns", "virt", "offload"},
    {"offload.polls_per_req", "count", "count", "offload"},
    {"offload.msgs_per_req", "count", "count", "offload"},
    {"offload.roundtrip_p50_virt_ns", "ns", "virt", "offload"},
    {"offload.roundtrip_p99_virt_ns", "ns", "virt", "offload"},
    {"offload.retransmits", "count", "count", "offload"},
    {"offload.put_host_ns_per_mib", "ns/MiB", "host", "vedma/veos"},
    {"offload.get_host_ns_per_mib", "ns/MiB", "host", "vedma/veos"},
    {"offload.put_virt_gib_s", "GiB/s", "virt", "vedma/veos"},
    {"offload.get_virt_gib_s", "GiB/s", "virt", "vedma/veos"},
    {"offload.data_chunks_per_transfer", "count", "count", "vedma/veos"},
    {"mem.regcache_hit_pct", "%", "count", "mem"},
    {"mem.alloc_host_ns", "ns", "host", "mem"},
    {"mem.alloc_virt_ns", "ns", "virt", "mem"},
    {"mem.region_allocs", "count", "count", "mem"},
    {"admit.submit_host_ns", "ns", "host", "admit"},
    {"admit.submit_virt_ns", "ns", "virt", "admit"},
    {"admit.poll_host_ns", "ns", "host", "admit"},
    {"admit.polls_per_req", "count", "count", "admit"},
    {"admit.latency_p99_virt_us", "us", "virt", "admit"},
    {"admit.shed_pct", "%", "count", "admit"},
    {"admit.expired", "count", "count", "admit"},
    {"admit.max_backlog", "count", "count", "admit"},
    {"sched.steals", "count", "count", "sched"},
    {"sched.tasks_shed", "count", "count", "sched"},
    {"sched.tasks_expired", "count", "count", "sched"},
    {"sched.backpressure_stalls", "count", "count", "sched"},
    {"net.submit_host_ns", "ns", "host", "net"},
    {"net.wait_all_host_ns_per_task", "ns", "host", "net"},
    {"net.frames_per_task", "count", "count", "net"},
    {"net.steals_local", "count", "count", "net"},
    {"net.steals_remote", "count", "count", "net"},
    {"net.link_backpressure", "count", "count", "net"},
    {"bench.gen_lag_p99_virt_us", "us", "virt", "bench"},
    {"bench.samples", "count", "count", "bench"},
    {"bench.trace_overhead_pct", "%", "host", "bench"},
};

struct workload_def {
    workload_fn run;
    /// The machine-speed probe parts that match where the workload spends
    /// its host time (see machine.hpp).
    probe_mix mix;
};

const std::map<std::string, workload_def> kWorkloads = {
    {"offload_pingpong", {run_offload_pingpong, {1.0, 0.0}}},
    {"bulk_transfer", {run_bulk_transfer, {0.25, 0.75}}},
    {"serving_mixed", {run_serving_mixed, {1.0, 0.0}}},
    {"cluster_skew", {run_cluster_skew, {1.0, 0.0}}},
};

struct options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    double latency_limit_us = 0.0;
    std::string trace_dir;
};

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--latency-limit-us <us>] "
                 "[--trace-dir <dir>]\n",
                 why);
    std::exit(2);
}

options parse(int argc, char** argv) {
    options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) {
            usage(("missing value for " + a).c_str());
        }
        const std::string v = argv[++i];
        try {
            if (a == "--workload") {
                o.workload = v;
            } else if (a == "--seed") {
                o.seed = std::stoull(v);
            } else if (a == "--seconds") {
                o.seconds = std::stod(v);
            } else if (a == "--trace") {
                o.trace = std::stoi(v) != 0;
            } else if (a == "--latency-limit-us") {
                o.latency_limit_us = std::stod(v);
            } else if (a == "--trace-dir") {
                o.trace_dir = v;
            } else {
                usage(("unknown argument " + a).c_str());
            }
        } catch (const std::logic_error&) {
            usage(("bad value for " + a).c_str());
        }
    }
    if (kWorkloads.count(o.workload) == 0) {
        usage("unknown workload");
    }
    if (!(o.seconds > 0.0) || !(o.latency_limit_us > 0.0)) {
        usage("--seconds and --latency-limit-us must be positive");
    }
    return o;
}

/// Pin the whole process (threads inherit the mask) to the CPU the kernel
/// started it on. The simulator runs one process at a time, so one CPU is
/// enough, and it keeps cross-core wake-ups out of the host clock.
int pin_to_one_cpu() {
    const int cpu = sched_getcpu();
    if (cpu < 0) {
        return -1;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
    unsigned int regs[12] = {};
    if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
        for (unsigned int i = 0; i < 3; ++i) {
            __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        }
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s = brand;
        s.erase(0, s.find_first_not_of(' '));
        return s;
    }
#endif
    return "unknown";
}

double peak_rss_mib() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

/// Everything that must repeat bit for bit across repetitions of one seed.
std::string digest(const rep_result& r) {
    std::string d;
    auto num = [&d](const char* k, double v) {
        d += k;
        d += '=';
        d += json_number(v);
        d += ';';
    };
    num("attempted", double(r.attempted));
    num("ok", double(r.ok));
    num("failed", double(r.failed));
    num("shed", double(r.shed));
    num("expired", double(r.expired));
    num("rejected", double(r.rejected));
    num("slo_attempted", double(r.slo_attempted));
    num("slo_met", double(r.slo_met));
    num("virt_elapsed_ns", double(r.virt_elapsed_ns));
    num("bytes_moved", double(r.bytes_moved));
    std::uint64_t h = 1469598103934665603ULL; // FNV-1a over the latencies
    for (const double l : r.latency_ns) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &l, sizeof(bits));
        for (int i = 0; i < 8; ++i) {
            h = (h ^ ((bits >> (8 * i)) & 0xFF)) * 1099511628211ULL;
        }
    }
    num("latency_count", double(r.latency_ns.size()));
    d += "latency_hash=" + std::to_string(h) + ';';
    for (const auto& [k, v] : r.exact) {
        num(k.c_str(), v);
    }
    for (const auto& [k, v] : r.anchors) {
        num(k.c_str(), v);
    }
    return d;
}

std::string traced_digest(const rep_result& r) {
    std::string d;
    for (const auto& [k, v] : r.traced_exact) {
        d += k + '=' + json_number(v) + ';';
    }
    return d;
}

std::string first_difference(const std::string& a, const std::string& b) {
    std::size_t i = 0;
    while (i < a.size() && i < b.size() && a[i] == b[i]) {
        ++i;
    }
    const std::size_t start = a.rfind(';', i == 0 ? 0 : i - 1);
    const std::size_t from = start == std::string::npos ? 0 : start + 1;
    return a.substr(from, a.find(';', from) - from) + " vs " +
           b.substr(from, b.find(';', from) - from);
}

double get_or_zero(const std::map<std::string, double>& m, const std::string& k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
}

bool has(const std::map<std::string, double>& m, const std::string& k) {
    return m.count(k) != 0;
}

std::string metrics_json(const std::vector<std::pair<const metric_def*, double>>& ms,
                         bool with_clock) {
    std::string s = "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        s += (i == 0 ? "" : ", ") + json_string(ms[i].first->name) +
             ": {\"value\": " + json_number(ms[i].second) +
             ", \"unit\": " + json_string(ms[i].first->unit);
        if (with_clock) {
            s += std::string(", \"clock\": ") + json_string(ms[i].first->clock);
        }
        s += "}";
    }
    return s + "}";
}

} // namespace

int main(int argc, char** argv) {
    const options opt = parse(argc, argv);
    // One malloc arena: the simulated processes never run concurrently, and
    // per-thread arenas would make peak RSS depend on which OS thread of a
    // repetition happened to allocate first.
    mallopt(M_ARENA_MAX, 1);
    const int pinned = pin_to_one_cpu();
    (void)probe_machine(); // fault in the probe's buffers before any timing
    const workload_def& wl = kWorkloads.at(opt.workload);
    run_config cfg;
    cfg.seed = opt.seed;
    cfg.latency_limit_us = opt.latency_limit_us;

    std::vector<rep_result> reps;
    std::vector<std::string> errors;
    std::string digest0, traced0;
    const std::size_t min_reps = opt.trace ? 4 : 2;
    const std::int64_t start = host_now_ns();
    try {
        for (std::size_t i = 0;; ++i) {
            const bool traced = opt.trace && i % 2 == 1;
            meter_start();
            rep_result r = wl.run(cfg, traced);
            r.slowdown = meter_slowdown(wl.mix);
            r.setup_slowdown = meter_slowdown(wl.mix, 0, 2);
            r.machine = meter_mean();
            r.machine_samples = meter_samples();
            for (const std::string& e : r.errors) {
                errors.push_back("repetition " + std::to_string(i + 1) + ": " + e);
            }
            const std::string d = digest(r);
            if (digest0.empty()) {
                digest0 = d;
            } else if (d != digest0) {
                errors.push_back("repetition " + std::to_string(i + 1) +
                                 " is not bit-identical to the first: " +
                                 first_difference(digest0, d));
            }
            if (traced) {
                const std::string td = traced_digest(r);
                if (traced0.empty()) {
                    traced0 = td;
                } else if (td != traced0) {
                    errors.push_back("traced repetition " + std::to_string(i + 1) +
                                     " differs in virtual span times: " +
                                     first_difference(traced0, td));
                }
            }
            reps.push_back(std::move(r));
            const double elapsed = double(host_now_ns() - start) / 1e9;
            if (reps.size() >= min_reps && elapsed >= opt.seconds) {
                break;
            }
            if (errors.size() > 16) {
                break;
            }
        }
    } catch (const std::exception& e) {
        errors.push_back(std::string("workload raised: ") + e.what());
    }
    if (reps.empty()) {
        for (const auto& e : errors) {
            std::fprintf(stderr, "perfbench: %s\n", e.c_str());
        }
        std::fprintf(stderr, "perfbench: no repetition completed\n");
        return 1;
    }

    const rep_result& first = reps.front();
    std::vector<const rep_result*> plain, traced;
    std::uint64_t attempted = 0, failed = 0;
    for (std::size_t i = 0; i < reps.size(); ++i) {
        (opt.trace && i % 2 == 1 ? traced : plain).push_back(&reps[i]);
        attempted += reps[i].attempted;
        failed += reps[i].failed;
    }
    auto values = [](const std::vector<const rep_result*>& rs,
                     const std::function<double(const rep_result&)>& f) {
        std::vector<double> v;
        for (const rep_result* r : rs) {
            v.push_back(f(*r));
        }
        std::sort(v.begin(), v.end());
        return v;
    };
    // Co-tenants on a shared machine slow the CPU down by up to 2x, in
    // phases of a fraction of a second to minutes. Every host value is
    // therefore read at the reference machine's speed: divided by the
    // slowdown the machine-speed meter measured during its repetition (a
    // rate multiplied by it), then the median over the repetitions.
    auto host_median = [&values](const std::vector<const rep_result*>& rs,
                                 const std::function<double(const rep_result&)>& f) {
        return median(values(rs, f));
    };
    auto raw_rps = [](const rep_result& r) {
        return r.timed_host_s > 0 ? double(r.ok) / r.timed_host_s : 0.0;
    };
    auto host_rps = [&raw_rps](const rep_result& r) { return raw_rps(r) * r.slowdown; };

    const percentile_summary lat = summarize(first.latency_ns);
    if (!lat.p99_supported) {
        errors.push_back("only " + std::to_string(lat.count) +
                         " latency samples: fewer than 10 beyond p99");
    }
    const double virt_s = double(first.virt_elapsed_ns) / 1e9;
    std::map<std::string, double> e2e;
    e2e["req_p50_virt_us"] = lat.p50 / 1e3;
    e2e["req_p99_virt_us"] = lat.p99 / 1e3;
    e2e["goodput_virt_rps"] = virt_s > 0 ? double(first.ok) / virt_s : 0.0;
    e2e["host_rps"] = host_median(plain, host_rps);
    e2e["setup_s"] =
        host_median(plain, [](const rep_result& r) { return r.setup_s / r.setup_slowdown; });
    e2e["peak_rss_mib"] = peak_rss_mib();
    std::map<std::string, double> extra;
    if (first.bytes_moved > 0) {
        extra["bulk_virt_gib_s"] =
            virt_s > 0 ? double(first.bytes_moved) / double(1ull << 30) / virt_s : 0.0;
    }
    extra["slo_met_pct"] = first.slo_attempted == 0
                               ? 0.0
                               : 100.0 * double(first.slo_met) / double(first.slo_attempted);
    extra["fail_pct"] =
        first.attempted == 0
            ? 0.0
            : 100.0 *
                  double(first.failed + first.shed + first.expired + first.rejected) /
                  double(first.attempted);
    if (!std::isnan(first.paper_err_pct)) {
        extra["paper_err_pct"] = first.paper_err_pct;
    }

    // Per-layer ledger: exact values from the first repetition, span values
    // from the first traced one, host times per operation the median of the
    // traced ones at reference speed (sim host ratios of the untraced ones,
    // which carry no span cost).
    std::map<std::string, double> layer;
    std::vector<std::string> absent;
    if (opt.trace && !traced.empty()) {
        for (const auto& [k, v] : first.exact) {
            layer[k] = v;
        }
        for (const auto& [k, v] : traced.front()->traced_exact) {
            layer[k] = v;
        }
        for (const auto& [k, v] : traced.front()->host) {
            const bool sim_key = k.rfind("sim.", 0) == 0;
            const std::string key = k;
            layer[k] = host_median(sim_key ? plain : traced, [&key](const rep_result& r) {
                return get_or_zero(r.host, key) / r.slowdown;
            });
        }
        const double rps_plain = host_median(plain, host_rps);
        const double rps_traced = host_median(traced, host_rps);
        layer["bench.trace_overhead_pct"] =
            rps_plain > 0 ? 100.0 * (rps_plain - rps_traced) / rps_plain : 0.0;
        layer["bench.samples"] = double(lat.count);
        std::map<std::string, bool> present;
        for (const metric_def& m : kPerLayer) {
            present[m.layer] = present[m.layer] || has(layer, m.name);
        }
        for (const auto& [name, here] : present) {
            if (!here) {
                absent.push_back(name);
            }
        }
        if (!opt.trace_dir.empty()) {
            const rep_result& t = *traced.back();
            const std::string path = opt.trace_dir + "/" + opt.workload + "-seed" +
                                     std::to_string(opt.seed) + ".spans.tsv";
            if (!write_spans(path, t.spans, self_times(t.spans))) {
                errors.push_back("cannot write spans to " + path);
            }
        }
    }

    const bool correct = errors.empty();
    for (const std::string& e : errors) {
        std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());
    }

    std::vector<std::pair<const metric_def*, double>> out;
    if (opt.trace) {
        for (const metric_def& m : kPerLayer) {
            out.emplace_back(&m, get_or_zero(layer, m.name));
        }
    } else {
        for (const metric_def& m : kEndToEnd) {
            out.emplace_back(&m, e2e.at(m.name));
        }
    }
    std::vector<std::pair<const metric_def*, double>> report_metrics = out;
    if (!opt.trace) {
        for (const metric_def& m : kWorkloadEndToEnd) {
            if (has(extra, m.name)) {
                report_metrics.emplace_back(&m, extra.at(m.name));
            }
        }
    }

    std::string absent_json = "[";
    for (std::size_t i = 0; i < absent.size(); ++i) {
        absent_json += (i == 0 ? "" : ", ") + json_string(absent[i]);
    }
    absent_json += "]";
    std::string anchors_json = "{";
    for (const auto& [k, v] : first.anchors) {
        anchors_json += (anchors_json.size() > 1 ? ", " : "") + json_string(k) + ": " +
                        json_number(v);
    }
    anchors_json += "}";
    // Raw wall-clock readings of every untraced repetition, in run order,
    // with the machine slowdown and mean probe times (ns) measured alongside.
    std::string host_rps_json = "[", setup_json = "[", slowdown_json = "[", probe_json = "[";
    for (const rep_result* r : plain) {
        const char* sep = host_rps_json.size() > 1 ? ", " : "";
        host_rps_json += sep + json_number(raw_rps(*r));
        setup_json += sep + json_number(r->setup_s);
        slowdown_json += sep + json_number(r->slowdown);
        probe_json += sep + ("[" + json_number(r->machine.handoff_ns) + ", " +
                             json_number(r->machine.copy_ns) + ", " +
                             std::to_string(r->machine_samples) + "]");
    }
    host_rps_json += "]";
    setup_json += "]";
    slowdown_json += "]";
    probe_json += "]";
    std::printf(
        "{\"report\": {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
        "\"repetitions\": %zu, \"traced_repetitions\": %zu, "
        "\"latency_samples\": %zu, \"latency_tail_pct\": %s, "
        "\"latency_tail_virt_us\": %s, \"latency_limit_virt_us\": %s, "
        "\"attempted\": %llu, \"ok\": %llu, \"failed\": %llu, \"shed\": %llu, "
        "\"expired\": %llu, \"rejected\": %llu, \"anchors\": %s, "
        "\"absent_layers\": %s, \"nproc\": %ld, \"pinned_cpu\": %d, "
        "\"cpu_model\": %s, \"raw_host_rps_by_repetition\": %s, "
        "\"raw_setup_s_by_repetition\": %s, \"slowdown_by_repetition\": %s, "
        "\"probe_ns_by_repetition\": %s, \"metrics\": %s}}\n",
        json_string(opt.workload).c_str(), static_cast<unsigned long long>(opt.seed),
        opt.trace ? 1 : 0, reps.size(), traced.size(), lat.count,
        json_number(lat.tail_q).c_str(), json_number(lat.tail_value / 1e3).c_str(),
        json_number(opt.latency_limit_us).c_str(),
        static_cast<unsigned long long>(first.attempted),
        static_cast<unsigned long long>(first.ok),
        static_cast<unsigned long long>(first.failed),
        static_cast<unsigned long long>(first.shed),
        static_cast<unsigned long long>(first.expired),
        static_cast<unsigned long long>(first.rejected), anchors_json.c_str(),
        absent_json.c_str(), sysconf(_SC_NPROCESSORS_ONLN), pinned,
        json_string(cpu_model()).c_str(), host_rps_json.c_str(), setup_json.c_str(),
        slowdown_json.c_str(), probe_json.c_str(),
        metrics_json(report_metrics, true).c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
                correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), metrics_json(out, false).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
