// offload_pingpong: one client, one request outstanding, synchronous
// offloads on the vedma backend to one VE (the paper's Fig. 9 path).
//
// A quarter of the requests are empty kernels; the rest pass 1..256 words
// by value (8 B..2 KiB messages, log-uniform) and return an 8 B checksum of
// them that the benchmark verifies. The workload bypasses sched, admit, net
// and mem, so their counters must read zero here.
#include <array>
#include <cmath>
#include <cstring>
#include <utility>

#include "layers.hpp"
#include "ham/msg.hpp"
#include "offload/offload.hpp"

namespace perfbench {

namespace {

namespace off = ham::offload;
using aurora::sim::platform;
using aurora::sim::platform_config;

constexpr std::size_t kRequests = 3000;
/// Fig. 9's measurement: 10 warm-up offloads, then the mean of 50 empty
/// offloads, which the cost model calibrates to exactly 6072 ns (single
/// round trips alternate with the VE's poll phase). The paper reports 6.1 us.
constexpr int kWarmup = 10;
constexpr int kCalibration = 50;
constexpr double kEmptyRttNs = 6072.0;
constexpr double kPaperEmptyRttNs = 6100.0;

void empty_kernel() {}

template <std::size_t N>
std::uint64_t words_kernel(std::array<std::uint64_t, N> w, std::uint64_t key) {
    std::uint64_t acc = key;
    for (const std::uint64_t x : w) {
        acc = mix(acc, x);
    }
    return acc;
}

/// Word counts of the by-value kernels: 1..3, then every multiple of 4 up
/// to 256, so message sizes (8 B .. 2 KiB of arguments) are nearly
/// continuous and the virtual percentiles move with the seed.
constexpr std::size_t kClasses = 67;
constexpr std::size_t words_of(std::size_t c) {
    return c < 3 ? c + 1 : 4 * (c - 2);
}

struct request {
    std::uint64_t id = 0;
    int size_class = -1;   ///< -1 = empty kernel, else an index for words_of()
    std::size_t first = 0; ///< offset into the word pool
};

template <typename F, std::size_t... I>
std::uint64_t dispatch(std::size_t c, F& f, std::index_sequence<I...>) {
    std::uint64_t out = 0;
    (void)((c == I ? (out = f.template operator()<words_of(I)>(), true) : false) || ...);
    return out;
}

/// Build the functor of `r` and hand it to `f`.
template <typename F>
std::uint64_t with_functor(const request& r, const std::vector<std::uint64_t>& pool,
                           F&& f) {
    if (r.size_class < 0) {
        return f(ham::f2f<&empty_kernel>());
    }
    auto words = [&]<std::size_t N>() {
        std::array<std::uint64_t, N> a{};
        std::memcpy(a.data(), pool.data() + r.first, N * sizeof(std::uint64_t));
        return f(ham::f2f<&words_kernel<N>>(a, r.id));
    };
    return dispatch(std::size_t(r.size_class), words, std::make_index_sequence<kClasses>{});
}

/// Host-side reference of what the kernel must return.
std::uint64_t expected(const request& r, const std::vector<std::uint64_t>& pool) {
    std::uint64_t acc = r.id;
    const std::size_t n = words_of(std::size_t(r.size_class));
    for (std::size_t i = 0; i < n; ++i) {
        acc = mix(acc, pool[r.first + i]);
    }
    return acc;
}

} // namespace

rep_result run_offload_pingpong(const run_config& cfg, bool trace) {
    rep_result out;
    rng gen(cfg.seed);
    std::vector<request> reqs(kRequests);
    std::vector<std::uint64_t> pool;
    for (std::size_t i = 0; i < kRequests; ++i) {
        reqs[i].id = i + 1;
        if (gen.below(4) != 0) {
            // Log-uniform word count in [1, 256], snapped to a kernel class.
            const double w = std::exp2(8.0 * gen.unit());
            const std::size_t c =
                w < 3.5 ? std::size_t(std::lround(w)) - 1
                        : std::min(kClasses - 1, std::size_t(std::lround(w / 4.0)) + 2);
            reqs[i].size_class = int(c);
            reqs[i].first = pool.size();
            for (std::size_t k = 0; k < words_of(c); ++k) {
                pool.push_back(gen.next());
            }
        }
    }
    std::vector<std::uint64_t> results(kRequests, 0);
    span_recorder rec(trace, &virt_now, &bench_now_ns);
    double calibration_ns = 0.0;

    const std::int64_t setup0 = bench_now_ns();
    platform plat(platform_config::a300_8());
    off::runtime_options opt;
    opt.backend = off::backend_kind::vedma;
    const int rc = off::run(plat, opt, [&] {
        out.setup_s = double(bench_now_ns() - setup0) / 1e9;
        for (int i = 0; i < kWarmup; ++i) {
            off::sync(1, ham::f2f<&empty_kernel>());
        }
        const std::int64_t c0 = aurora::sim::now();
        for (int i = 0; i < kCalibration; ++i) {
            off::sync(1, ham::f2f<&empty_kernel>());
        }
        calibration_ns = double(aurora::sim::now() - c0) / kCalibration;
        if (calibration_ns != kEmptyRttNs) {
            out.errors.push_back("empty-kernel round trip " + json_number(calibration_ns) +
                                 " ns, calibrated " + json_number(kEmptyRttNs));
        }

        const registry_mark m0;
        const sim_mark s0 = mark_sim(plat.sim());
        for (std::size_t i = 0; i < kRequests; ++i) {
            const request& r = reqs[i];
            meter_tick();
            scoped_span sp(rec, "bench.request", r.id);
            const std::int64_t t0 = aurora::sim::now();
            results[i] = with_functor(r, pool, [&](auto f) -> std::uint64_t {
                using R = off::offload_result_t<decltype(f)>;
                off::future<R> fut = [&] {
                    scoped_span a(rec, "offload.async", r.id);
                    return off::async(1, std::move(f));
                }();
                scoped_span g(rec, "offload.get", r.id);
                if constexpr (std::is_void_v<R>) {
                    fut.get();
                    return 0;
                } else {
                    return fut.get();
                }
            });
            out.latency_ns.push_back(double(aurora::sim::now() - t0));
        }
        const sim_mark s1 = mark_sim(plat.sim());
        const registry_mark m1;

        record_sim(out, plat.sim(), s0, s1, kRequests);
        record_offload(out, m0, m1, kRequests);
        const double n = double(kRequests);

        if (trace) {
            // ham layer: serialisation of this workload's own functor mix,
            // outside the timed phase and without touching virtual time.
            off::runtime& rt = *off::runtime::current();
            alignas(16) std::byte buf[ham::default_max_msg_size];
            const std::int64_t h0 = host_now_ns();
            for (const request& r : reqs) {
                (void)with_functor(r, pool, [&](auto f) -> std::uint64_t {
                    return ham::write_message(rt.host_registry(), buf, sizeof(buf), f);
                });
            }
            out.host["ham.serialize_host_ns"] = double(host_now_ns() - h0) / n;
        }
    });
    if (rc != 0) {
        out.errors.push_back("offload::run returned " + std::to_string(rc));
    }

    out.attempted = kRequests;
    for (std::size_t i = 0; i < kRequests; ++i) {
        const request& r = reqs[i];
        if (r.size_class >= 0 && results[i] != expected(r, pool)) {
            ++out.failed;
            if (out.errors.size() < 8) {
                out.errors.push_back("request " + std::to_string(r.id) +
                                     " returned a wrong checksum");
            }
        }
    }
    out.ok = out.attempted - out.failed;
    out.slo_attempted = kRequests;
    for (const double l : out.latency_ns) {
        out.slo_met += l <= cfg.latency_limit_us * 1e3 ? 1 : 0;
    }
    out.anchors["empty_rtt_virt_ns"] = calibration_ns;
    out.paper_err_pct =
        std::abs(calibration_ns - kPaperEmptyRttNs) / kPaperEmptyRttNs * 100.0;

    if (trace) {
        const auto self = self_times(rec.spans());
        const auto roll = roll_up(rec.spans(), self);
        record_span_means(out, roll, "offload.async", "offload.async_host_ns",
                          "offload.async_virt_ns");
        record_span_means(out, roll, "offload.get", "offload.get_host_ns",
                          "offload.get_virt_ns");
        out.spans = rec.spans();
    }
    return out;
}

} // namespace perfbench
