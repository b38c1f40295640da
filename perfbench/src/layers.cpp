#include "layers.hpp"

#include <algorithm>

namespace perfbench {

namespace metrics = aurora::metrics;

std::vector<double> stratified(std::size_t n, rng& gen) {
    std::vector<std::size_t> slot(n);
    for (std::size_t i = 0; i < n; ++i) {
        slot[i] = i;
    }
    for (std::size_t i = n; i > 1; --i) {
        std::swap(slot[i - 1], slot[gen.below(i)]);
    }
    std::vector<double> u(n);
    for (std::size_t i = 0; i < n; ++i) {
        u[i] = (double(slot[i]) + gen.unit()) / double(n);
    }
    return u;
}

std::vector<double> poisson_arrivals(std::size_t count, double horizon, rng& gen) {
    std::vector<double> t(count);
    for (double& x : t) {
        x = gen.unit() * horizon;
    }
    std::sort(t.begin(), t.end());
    return t;
}

registry_mark::registry_mark() : fams_(metrics::registry::global().snapshot()) {}

std::uint64_t registry_mark::counter(std::string_view family) const {
    std::uint64_t total = 0;
    for (const auto& f : fams_) {
        if (f.name == family) {
            for (const auto& s : f.series) {
                total += static_cast<std::uint64_t>(s.value);
            }
        }
    }
    return total;
}

metrics::histogram::snapshot registry_mark::histogram(std::string_view family,
                                                      std::string_view label_filter) const {
    metrics::histogram::snapshot out;
    for (const auto& f : fams_) {
        if (f.name != family) {
            continue;
        }
        for (const auto& s : f.series) {
            if (label_filter.empty() ||
                s.labels.find(label_filter) != std::string::npos) {
                out.merge(s.hist);
            }
        }
    }
    return out;
}

std::uint64_t counter_delta(const registry_mark& a, const registry_mark& b,
                            std::string_view family) {
    return b.counter(family) - a.counter(family);
}

metrics::histogram::snapshot histogram_delta(const registry_mark& a,
                                             const registry_mark& b,
                                             std::string_view family,
                                             std::string_view label_filter) {
    const auto x = a.histogram(family, label_filter);
    metrics::histogram::snapshot d = b.histogram(family, label_filter);
    for (std::size_t i = 0; i < d.buckets.size(); ++i) {
        d.buckets[i] -= x.buckets[i];
    }
    d.count -= x.count;
    d.sum -= x.sum;
    return d;
}

sim_mark mark_sim(const aurora::sim::simulation& s) {
    sim_mark m;
    m.handoffs = s.stats().context_switches;
    m.events = s.stats().events_notified;
    m.virt_ns = aurora::sim::now();
    m.host_ns = bench_now_ns();
    return m;
}

void record_sim(rep_result& r, const aurora::sim::simulation& s, const sim_mark& a,
                const sim_mark& b, std::uint64_t requests, std::int64_t excluded_host_ns) {
    const double handoffs = double(b.handoffs - a.handoffs);
    const double n = double(std::max<std::uint64_t>(requests, 1));
    r.exact["sim.handoffs_per_req"] = handoffs / n;
    r.exact["sim.events_per_req"] = double(b.events - a.events) / n;
    r.exact["sim.processes"] = double(s.stats().processes_spawned);
    r.virt_elapsed_ns = b.virt_ns - a.virt_ns;
    const double host_ns = double(b.host_ns - a.host_ns - excluded_host_ns);
    r.timed_host_s = host_ns / 1e9;
    r.host["sim.host_ns_per_handoff"] = handoffs > 0 ? host_ns / handoffs : 0.0;
    r.host["sim.host_ns_per_virt_us"] =
        r.virt_elapsed_ns > 0 ? host_ns / (double(r.virt_elapsed_ns) / 1e3) : 0.0;
}

void record_offload(rep_result& r, const registry_mark& a, const registry_mark& b,
                    std::uint64_t requests) {
    const double n = double(std::max<std::uint64_t>(requests, 1));
    r.exact["offload.polls_per_req"] =
        double(counter_delta(a, b, "aurora_backend_polls_total")) / n;
    r.exact["offload.msgs_per_req"] =
        double(counter_delta(a, b, "aurora_offload_messages_total")) / n;
    const auto rtt = histogram_delta(a, b, "aurora_offload_roundtrip_ns");
    r.exact["offload.roundtrip_p50_virt_ns"] = rtt.p50();
    r.exact["offload.roundtrip_p99_virt_ns"] = rtt.p99();
    const auto retransmits = counter_delta(a, b, "aurora_offload_retransmits_total");
    r.exact["offload.retransmits"] = double(retransmits);
    if (retransmits != 0) {
        r.errors.push_back("fault-free run retransmitted " + std::to_string(retransmits) +
                           " messages");
    }
}

std::int64_t virt_now() {
    return aurora::sim::now();
}

void record_span_means(rep_result& r, const std::map<std::string, span_rollup>& roll,
                       const std::string& span_name, const std::string& host_key,
                       const std::string& virt_key) {
    const auto it = roll.find(span_name);
    const span_rollup none;
    const span_rollup& s = it == roll.end() ? none : it->second;
    r.host[host_key] = s.mean_host_ns();
    if (!virt_key.empty()) {
        r.traced_exact[virt_key] = s.mean_virt_ns();
    }
}

} // namespace perfbench
