// LHM / SHM — Load Host Memory / Store Host Memory instructions.
//
// The VE ISA lets VE code touch DMAATB-registered *host* memory word-wise
// (paper Sec. IV-A): LHM reads one 64-bit word (a full PCIe round trip per
// word — hence the 0.01 GiB/s sustained rate of Table IV), SHM posts one
// 64-bit store (pipelined posted writes — 0.06 GiB/s sustained). The paper's
// DMA protocol uses them for the notification flags.
//
// Batched helpers issue word sequences with a single clock advance, which is
// both faithful (the instruction stream runs back-to-back) and keeps the
// simulator fast for the Fig. 10 bandwidth sweeps.
#pragma once

#include <cstdint>
#include <cstring>

#include "vedma/dmaatb.hpp"

namespace aurora::vedma {

/// One 64-bit host word as LHM sees it, for polling loops that wait through
/// sim::poll_cycle: what one load costs, and a peek at the word that does not
/// advance the clock. lhm_load64() is advance(cost) followed by peek().
struct lhm_word {
    const std::byte* vh_ptr = nullptr;
    sim::duration_ns cost = 0;

    [[nodiscard]] std::uint64_t peek() const noexcept {
        std::uint64_t v;
        std::memcpy(&v, vh_ptr, sizeof(v));
        return v;
    }
};

/// Resolve the registered host word at `vehva` for LHM loads. VE process
/// only; untimed.
[[nodiscard]] lhm_word lhm_resolve64(dmaatb& atb, std::uint64_t vehva);

/// Load one 64-bit word from registered host memory. VE-initiated; timed.
std::uint64_t lhm_load64(dmaatb& atb, std::uint64_t vehva);

/// Store one 64-bit word to registered host memory. VE-initiated; timed.
void shm_store64(dmaatb& atb, std::uint64_t vehva, std::uint64_t value);

/// Batched LHM: read `bytes` (multiple of 8) into `dst`, one word at a time.
void lhm_load(dmaatb& atb, std::uint64_t vehva, void* dst, std::uint64_t bytes);

/// Batched SHM: write `bytes` (multiple of 8) from `src`, one word at a time.
void shm_store(dmaatb& atb, std::uint64_t vehva, const void* src,
               std::uint64_t bytes);

/// Modeled duration of `words` back-to-back LHM loads.
sim::duration_ns lhm_words_time(const sim::cost_model& cm, std::uint64_t words,
                                bool crosses_upi);

/// Modeled duration of `words` back-to-back SHM posted stores.
sim::duration_ns shm_words_time(const sim::cost_model& cm, std::uint64_t words,
                                bool crosses_upi);

} // namespace aurora::vedma
