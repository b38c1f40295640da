// Shared by the four workloads: the per-repetition result, the counters read
// from the program's public surfaces (metrics registry, simulator statistics)
// and the seeded generator.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "ledger.hpp"
#include "machine.hpp"
#include "metrics/metrics.hpp"
#include "sim/engine.hpp"

namespace perfbench {

/// Inputs of one workload run. The program sees only what the workload
/// generates from `seed`.
struct run_config {
    std::uint64_t seed = 1;
    /// Fixed virtual latency limit of the workload (slo_met_pct).
    double latency_limit_us = 0.0;
};

/// Everything one repetition of a workload produced. `exact` holds the
/// values that must repeat bit-for-bit for the same seed (virtual times and
/// counts); `host` holds wall-clock values.
struct rep_result {
    std::uint64_t attempted = 0;
    std::uint64_t ok = 0;       ///< settled successfully and verified
    std::uint64_t failed = 0;   ///< raised, or produced a wrong output
    std::uint64_t shed = 0;     ///< admitted, then cancelled by session close
    std::uint64_t expired = 0;  ///< deadline-cancelled before dispatch
    std::uint64_t rejected = 0; ///< refused at admission
    /// Virtual, one per request settled OK (serving_mixed: latency tenant).
    std::vector<double> latency_ns;
    std::uint64_t slo_attempted = 0;
    std::uint64_t slo_met = 0;
    std::int64_t virt_elapsed_ns = 0; ///< timed phase, virtual
    std::uint64_t bytes_moved = 0;    ///< put + get payload bytes
    double paper_err_pct = std::numeric_limits<double>::quiet_NaN();

    std::map<std::string, double> exact; ///< per-layer virtual values / counts
    std::map<std::string, double> anchors; ///< paper-anchor readings (virtual)

    double setup_s = 0.0;       ///< host: platform + VEOS + runtime (+ cluster)
    double timed_host_s = 0.0;  ///< host: timed phase only
    /// Machine slowdown while the repetition ran (meter_slowdown); host
    /// values divided by it read at the reference machine's speed.
    double slowdown = 1.0;
    double setup_slowdown = 1.0; ///< the same around the set-up only
    machine_speed machine;      ///< mean probe times of the repetition
    std::size_t machine_samples = 0;
    std::map<std::string, double> host; ///< per-layer host values
    /// Per-layer virtual values taken from spans: traced repetitions only,
    /// and bit-identical across them.
    std::map<std::string, double> traced_exact;

    std::vector<span> spans; ///< traced repetitions only
    std::vector<std::string> errors; ///< failed output checks
};

/// A workload runs one complete repetition: fresh platform, set-up, timed
/// phase, checks. `trace` turns on the span recorder.
using workload_fn = std::function<rep_result(const run_config&, bool trace)>;

rep_result run_offload_pingpong(const run_config& cfg, bool trace);
rep_result run_bulk_transfer(const run_config& cfg, bool trace);
rep_result run_serving_mixed(const run_config& cfg, bool trace);
rep_result run_cluster_skew(const run_config& cfg, bool trace);

// --- seeded generator ---------------------------------------------------------

/// splitmix64: the repository's seeded generator idiom.
class rng {
public:
    explicit rng(std::uint64_t seed) : s_(seed) {}
    std::uint64_t next() {
        s_ += 0x9E3779B97F4A7C15ULL;
        std::uint64_t z = s_;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    }
    /// Uniform in [0, n).
    std::uint64_t below(std::uint64_t n) { return next() % n; }
    /// Uniform in [0, 1).
    double unit() { return double(next() >> 11) * 0x1.0p-53; }
    /// Exponential inter-arrival with the given mean.
    double exponential(double mean) { return -mean * std::log1p(-unit()); }

private:
    std::uint64_t s_;
};

/// Stratified uniforms: a seeded permutation of the n equal slices of
/// [0, 1), one jittered draw per slice. The seed moves which draw lands
/// where, while the set of values, and so every percentile, stays steady.
[[nodiscard]] std::vector<double> stratified(std::size_t n, rng& gen);

/// Arrival times of a Poisson process on [0, horizon) conditioned on having
/// exactly `count` arrivals: sorted uniform draws. Every seed offers the
/// same load; the seed moves how it clusters.
[[nodiscard]] std::vector<double> poisson_arrivals(std::size_t count, double horizon,
                                                   rng& gen);

/// Mixes a request id with a key into the value a kernel must return.
[[nodiscard]] constexpr std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
    std::uint64_t z = a * 0x9E3779B97F4A7C15ULL ^ (b + 0x632BE59BD9B4E019ULL);
    z = (z ^ (z >> 29)) * 0xBF58476D1CE4E5B9ULL;
    return z ^ (z >> 32);
}

// --- program counters ---------------------------------------------------------

/// Snapshot of the global metrics registry; deltas between two marks give
/// one timed phase's counts (the registry accumulates process-wide).
class registry_mark {
public:
    registry_mark();
    /// Sum over every series of a counter family.
    [[nodiscard]] std::uint64_t counter(std::string_view family) const;
    /// Merged histogram of a family, over series whose labels contain
    /// `label_filter` (all series when empty).
    [[nodiscard]] aurora::metrics::histogram::snapshot
    histogram(std::string_view family, std::string_view label_filter = {}) const;

private:
    std::vector<aurora::metrics::registry::family_snapshot> fams_;
};

[[nodiscard]] std::uint64_t counter_delta(const registry_mark& a,
                                          const registry_mark& b,
                                          std::string_view family);
[[nodiscard]] aurora::metrics::histogram::snapshot
histogram_delta(const registry_mark& a, const registry_mark& b,
                std::string_view family, std::string_view label_filter = {});

/// Simulator statistics at one instant of the timed phase.
struct sim_mark {
    std::uint64_t handoffs = 0;
    std::uint64_t events = 0;
    std::int64_t virt_ns = 0;
    std::int64_t host_ns = 0;
};
[[nodiscard]] sim_mark mark_sim(const aurora::sim::simulation& s);

/// Fill the `sim.*` metrics and the phase durations of `r` from the timed
/// phase [a, b] serving `requests` requests. `excluded_host_ns` is wall time
/// the benchmark spent checking outputs inside the phase; it is not the
/// program's, so it is taken out of the host clock.
void record_sim(rep_result& r, const aurora::sim::simulation& s, const sim_mark& a,
                const sim_mark& b, std::uint64_t requests,
                std::int64_t excluded_host_ns = 0);

/// Fill the `offload.*` counter metrics of `r` (polls, messages, round-trip
/// percentiles, retransmits) from the timed phase [a, b] serving `requests`
/// requests. A fault-free run must not retransmit: that is a failed check.
void record_offload(rep_result& r, const registry_mark& a, const registry_mark& b,
                    std::uint64_t requests);

/// Virtual clock for the span recorder (valid on simulated processes).
[[nodiscard]] std::int64_t virt_now();

/// Record the mean self time per call of the spans named `span_name`: host
/// nanoseconds under `host_key` in `host`, virtual nanoseconds under
/// `virt_key` (when given) in `traced_exact`.
void record_span_means(rep_result& r, const std::map<std::string, span_rollup>& roll,
                       const std::string& span_name, const std::string& host_key,
                       const std::string& virt_key = "");

} // namespace perfbench
