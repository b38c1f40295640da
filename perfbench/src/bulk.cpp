// bulk_transfer: one client, closed loop of put -> kernel -> get on the
// vedma backend with the DMA data path on.
//
// Sizes are log-uniform (stratified) from 4 KiB to 16 MiB, so they straddle
// the 32 KiB zero-copy threshold. Most iterations reuse a set of four
// buffers (DMAATB registration-cache hits); every eighth allocates a fresh
// buffer and frees it again, churning the arena. The kernel flips one word
// per 64 KiB with a per-iteration key and returns a checksum of the words it
// saw; the benchmark verifies the checksum and that the data it gets back is
// exactly the data it put, transformed. The workload bypasses sched, admit
// and net.
#include <algorithm>
#include <cstring>

#include "layers.hpp"
#include "ham/msg.hpp"
#include "offload/offload.hpp"

namespace perfbench {

namespace {

namespace off = ham::offload;
using aurora::sim::platform;
using aurora::sim::platform_config;

constexpr std::size_t kIterations = 1200;
constexpr std::uint64_t kMinBytes = 4096;
constexpr std::uint64_t kMaxBytes = 16ull << 20;
constexpr std::size_t kSlots = 4;
constexpr std::size_t kFreshEvery = 8;
constexpr std::uint64_t kStrideWords = (64 * 1024) / 8;
/// Table IV's VE User DMA peaks, VH => VE and VE => VH (GiB/s), compared
/// with warm put/get rates of transfers of at least 4 MiB.
constexpr double kPaperPutGiBs = 10.6;
constexpr double kPaperGetGiBs = 11.1;
constexpr std::uint64_t kPaperMinBytes = 4ull << 20;
constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kGiB = 1024.0 * kMiB;

std::uint64_t touch_kernel(off::buffer_ptr<std::uint64_t> buf, std::uint64_t words,
                           std::uint64_t key) {
    std::uint64_t acc = key;
    for (std::uint64_t w = 0; w < words; w += kStrideWords) {
        std::uint64_t v = 0;
        buf.read_block(w, &v, 1);
        acc = mix(acc, v);
        v ^= key;
        buf.write_block(w, &v, 1);
    }
    return acc;
}

struct iteration {
    std::uint64_t words = 0;
    std::uint64_t key = 0;
    bool fresh = false;
};

/// True when `got` equals `sent` with the kernel's transformation applied.
bool transformed_equal(const std::uint64_t* sent, const std::uint64_t* got,
                       std::uint64_t words, std::uint64_t key) {
    for (std::uint64_t w = 0; w < words; w += kStrideWords) {
        const std::uint64_t len = std::min(kStrideWords, words - w);
        if (got[w] != (sent[w] ^ key) ||
            std::memcmp(got + w + 1, sent + w + 1, (len - 1) * sizeof(std::uint64_t)) != 0) {
            return false;
        }
    }
    return true;
}

std::uint64_t expected_checksum(const std::uint64_t* sent, std::uint64_t words,
                                std::uint64_t key) {
    std::uint64_t acc = key;
    for (std::uint64_t w = 0; w < words; w += kStrideWords) {
        acc = mix(acc, sent[w]);
    }
    return acc;
}

} // namespace

rep_result run_bulk_transfer(const run_config& cfg, bool trace) {
    rep_result out;
    rng gen(cfg.seed);
    std::vector<iteration> its(kIterations);
    // Stratified: the seed moves the order of sizes (hence cache and arena
    // behaviour), not their distribution.
    const std::vector<double> size_u = stratified(kIterations, gen);
    const double span_log2 = std::log2(double(kMaxBytes) / double(kMinBytes));
    for (std::size_t i = 0; i < kIterations; ++i) {
        const double bytes = double(kMinBytes) * std::exp2(span_log2 * size_u[i]);
        its[i].words = std::max<std::uint64_t>(1, std::uint64_t(bytes) / 8);
        its[i].key = gen.next() | 1;
        its[i].fresh = i % kFreshEvery == kFreshEvery - 1;
    }
    std::vector<std::uint64_t> sent(kMaxBytes / 8);
    for (auto& w : sent) {
        w = gen.next();
    }
    std::vector<std::uint64_t> got(kMaxBytes / 8);
    span_recorder rec(trace, &virt_now, &bench_now_ns);

    const std::int64_t setup0 = bench_now_ns();
    platform plat(platform_config::a300_8());
    off::runtime_options opt;
    opt.backend = off::backend_kind::vedma;
    opt.vedma_dma_data_path = true;
    const int rc = off::run(plat, opt, [&] {
        out.setup_s = double(bench_now_ns() - setup0) / 1e9;
        std::vector<off::buffer_ptr<std::uint64_t>> slots;
        for (std::size_t s = 0; s < kSlots; ++s) {
            slots.push_back(off::allocate<std::uint64_t>(1, kMaxBytes / 8));
        }

        double put_virt_ns = 0, get_virt_ns = 0, put_bytes = 0, get_bytes = 0;
        double big_put_ns = 0, big_get_ns = 0, big_bytes = 0;
        std::int64_t check_ns = 0;
        const registry_mark m0;
        const sim_mark s0 = mark_sim(plat.sim());
        for (std::size_t i = 0; i < kIterations; ++i) {
            const iteration& it = its[i];
            const std::uint64_t id = i + 1;
            const double bytes = double(it.words * 8);
            meter_tick();
            scoped_span sp(rec, "bench.request", id);
            const std::int64_t t0 = aurora::sim::now();
            off::buffer_ptr<std::uint64_t> buf = slots[i % kSlots];
            if (it.fresh) {
                scoped_span a(rec, "mem.alloc", id);
                buf = off::allocate<std::uint64_t>(1, it.words);
            }
            std::int64_t v0 = aurora::sim::now();
            {
                scoped_span p(rec, "offload.put", id);
                off::put(sent.data(), buf, it.words).get();
            }
            const std::int64_t put_ns = aurora::sim::now() - v0;
            std::uint64_t sum = 0;
            {
                off::future<std::uint64_t> fut = [&] {
                    scoped_span a(rec, "offload.async", id);
                    return off::async(1, ham::f2f<&touch_kernel>(buf, it.words, it.key));
                }();
                scoped_span g(rec, "offload.get", id);
                sum = fut.get();
            }
            v0 = aurora::sim::now();
            {
                scoped_span g(rec, "offload.get_data", id);
                off::get(buf, got.data(), it.words).get();
            }
            const std::int64_t get_ns = aurora::sim::now() - v0;
            if (it.fresh) {
                scoped_span f(rec, "mem.free", id);
                off::free(buf);
            }
            out.latency_ns.push_back(double(aurora::sim::now() - t0));

            put_virt_ns += double(put_ns);
            get_virt_ns += double(get_ns);
            put_bytes += bytes;
            get_bytes += bytes;
            if (!it.fresh && it.words * 8 >= kPaperMinBytes) {
                big_put_ns += double(put_ns);
                big_get_ns += double(get_ns);
                big_bytes += bytes;
            }
            const std::int64_t c0 = host_now_ns();
            const bool good = sum == expected_checksum(sent.data(), it.words, it.key) &&
                              transformed_equal(sent.data(), got.data(), it.words, it.key);
            check_ns += host_now_ns() - c0;
            if (!good) {
                ++out.failed;
                if (out.errors.size() < 8) {
                    out.errors.push_back("iteration " + std::to_string(id) +
                                         " got back wrong data or checksum");
                }
            }
        }
        const sim_mark s1 = mark_sim(plat.sim());
        const registry_mark m1;
        if (trace) {
            off::runtime& rt = *off::runtime::current();
            alignas(16) std::byte msg[ham::default_max_msg_size];
            const std::int64_t h0 = host_now_ns();
            for (std::size_t i = 0; i < kIterations; ++i) {
                (void)ham::write_message(
                    rt.host_registry(), msg, sizeof(msg),
                    ham::f2f<&touch_kernel>(slots[i % kSlots], its[i].words, its[i].key));
            }
            out.host["ham.serialize_host_ns"] =
                double(host_now_ns() - h0) / double(kIterations);
        }
        for (auto& b : slots) {
            off::free(b);
        }

        record_sim(out, plat.sim(), s0, s1, kIterations, check_ns);
        record_offload(out, m0, m1, kIterations);
        out.bytes_moved = std::uint64_t(put_bytes + get_bytes);
        out.exact["offload.put_virt_gib_s"] = put_bytes / kGiB / (put_virt_ns / 1e9);
        out.exact["offload.get_virt_gib_s"] = get_bytes / kGiB / (get_virt_ns / 1e9);
        out.exact["offload.data_chunks_per_transfer"] =
            double(counter_delta(m0, m1, "aurora_offload_data_chunks_total")) /
            double(2 * kIterations);
        const double hits = double(counter_delta(m0, m1, "aurora_mem_regcache_hits_total"));
        const double misses =
            double(counter_delta(m0, m1, "aurora_mem_regcache_misses_total"));
        out.exact["mem.regcache_hit_pct"] =
            hits + misses > 0 ? 100.0 * hits / (hits + misses) : 0.0;
        out.exact["mem.region_allocs"] =
            double(counter_delta(m0, m1, "aurora_mem_region_allocs_total"));
        const double put_rate = big_bytes / kGiB / (big_put_ns / 1e9);
        const double get_rate = big_bytes / kGiB / (big_get_ns / 1e9);
        out.anchors["put_ge4mib_virt_gib_s"] = put_rate;
        out.anchors["get_ge4mib_virt_gib_s"] = get_rate;
        out.paper_err_pct = 50.0 * (std::abs(put_rate - kPaperPutGiBs) / kPaperPutGiBs +
                                    std::abs(get_rate - kPaperGetGiBs) / kPaperGetGiBs);
    });
    if (rc != 0) {
        out.errors.push_back("offload::run returned " + std::to_string(rc));
    }
    out.attempted = kIterations;
    out.ok = out.attempted - out.failed;
    out.slo_attempted = kIterations;
    for (const double l : out.latency_ns) {
        out.slo_met += l <= cfg.latency_limit_us * 1e3 ? 1 : 0;
    }

    if (trace) {
        const auto self = self_times(rec.spans());
        const auto roll = roll_up(rec.spans(), self);
        record_span_means(out, roll, "offload.async", "offload.async_host_ns",
                          "offload.async_virt_ns");
        record_span_means(out, roll, "offload.get", "offload.get_host_ns",
                          "offload.get_virt_ns");
        record_span_means(out, roll, "mem.alloc", "mem.alloc_host_ns", "mem.alloc_virt_ns");
        double mib = 0;
        for (const iteration& it : its) {
            mib += double(it.words * 8) / kMiB;
        }
        const auto total = [&](const char* name) {
            const auto f = roll.find(name);
            return f == roll.end() ? 0.0 : f->second.self_host_ns;
        };
        out.host["offload.put_host_ns_per_mib"] = total("offload.put") / mib;
        out.host["offload.get_host_ns_per_mib"] = total("offload.get_data") / mib;
        out.spans = rec.spans();
    }
    return out;
}

} // namespace perfbench
