#include "vedma/lhm_shm.hpp"

#include <cstring>

#include "sim/engine.hpp"
#include "util/check.hpp"

namespace aurora::vedma {

namespace {

void check_on_ve(veos::ve_process& proc) {
    AURORA_CHECK_MSG(sim::in_simulation() && proc.sim_process() == &sim::self(),
                     "LHM/SHM are VE instructions: call from the VE process");
}

dma_resolution resolve_host_words(dmaatb& atb, std::uint64_t vehva,
                                  std::uint64_t bytes) {
    AURORA_CHECK_MSG(vehva % 8 == 0, "LHM/SHM require 8-byte aligned VEHVA");
    AURORA_CHECK_MSG(bytes % 8 == 0, "LHM/SHM move whole 64-bit words");
    const dma_resolution r = atb.resolve(vehva, bytes);
    AURORA_CHECK_MSG(r.k == dma_resolution::kind::vh,
                     "LHM/SHM only access host memory");
    return r;
}

bool crosses(dmaatb& atb, const dma_resolution& r) {
    return atb.proc().plat().topology().crosses_upi(r.vh_socket,
                                                    atb.proc().ve_id());
}

} // namespace

sim::duration_ns lhm_words_time(const sim::cost_model& cm, std::uint64_t words,
                                bool crosses_upi) {
    // Every load is a non-posted PCIe read: a full round trip per word.
    sim::duration_ns per_word = cm.lhm_word_ns;
    if (crosses_upi) {
        per_word += 2 * cm.upi_one_way_ns;
    }
    return sim::duration_ns(words) * per_word;
}

sim::duration_ns shm_words_time(const sim::cost_model& cm, std::uint64_t words,
                                bool crosses_upi) {
    // Posted writes pipeline; the UPI hop delays visibility, not issue rate,
    // so it contributes once per burst.
    sim::duration_ns t = sim::duration_ns(words) * cm.shm_word_ns;
    if (crosses_upi && words > 0) {
        t += cm.upi_one_way_ns;
    }
    return t;
}

lhm_word lhm_resolve64(dmaatb& atb, std::uint64_t vehva) {
    check_on_ve(atb.proc());
    const dma_resolution r = resolve_host_words(atb, vehva, 8);
    return {r.vh_ptr,
            lhm_words_time(atb.proc().plat().costs(), 1, crosses(atb, r))};
}

std::uint64_t lhm_load64(dmaatb& atb, std::uint64_t vehva) {
    const lhm_word w = lhm_resolve64(atb, vehva);
    sim::advance(w.cost);
    return w.peek();
}

void shm_store64(dmaatb& atb, std::uint64_t vehva, std::uint64_t value) {
    check_on_ve(atb.proc());
    const dma_resolution r = resolve_host_words(atb, vehva, 8);
    sim::advance(shm_words_time(atb.proc().plat().costs(), 1, crosses(atb, r)));
    std::memcpy(r.vh_ptr, &value, sizeof(value));
}

void lhm_load(dmaatb& atb, std::uint64_t vehva, void* dst, std::uint64_t bytes) {
    check_on_ve(atb.proc());
    if (bytes == 0) {
        return;
    }
    const dma_resolution r = resolve_host_words(atb, vehva, bytes);
    sim::advance(
        lhm_words_time(atb.proc().plat().costs(), bytes / 8, crosses(atb, r)));
    std::memcpy(dst, r.vh_ptr, bytes);
}

void shm_store(dmaatb& atb, std::uint64_t vehva, const void* src,
               std::uint64_t bytes) {
    check_on_ve(atb.proc());
    if (bytes == 0) {
        return;
    }
    const dma_resolution r = resolve_host_words(atb, vehva, bytes);
    sim::advance(
        shm_words_time(atb.proc().plat().costs(), bytes / 8, crosses(atb, r)));
    std::memcpy(r.vh_ptr, src, bytes);
}

} // namespace aurora::vedma
