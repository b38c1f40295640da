// VE-DMA communication backend (paper Sec. IV-B, Fig. 8).
//
// The communication memory lives in a SysV shared-memory segment on the VH,
// "thus rendering all the operations on the host side local memory accesses".
// The VE drives every transfer: it polls the message flags via LHM, fetches
// messages with the user DMA engine, writes results back via DMA (optionally
// SHM stores for small payloads — the Sec. V-B observation, available as an
// extension), and raises result flags with single SHM word stores.
//
// Deployment and bulk data exchange (put/get/allocate) still go through the
// VEO API, exactly as the paper states ("Starting the application,
// initialisation and data exchange are still performed through the VEO API");
// see ve_backend.
#pragma once

#include <cstdint>
#include <vector>

#include "offload/backend_ve.hpp"
#include "vedma/sysv_shm.hpp"

namespace ham::offload {

class backend_vedma final : public ve_backend {
public:
    backend_vedma(aurora::veos::veos_system& sys, int ve_id, node_t node,
                  const runtime_options& opt);

    [[nodiscard]] io_status send_message(std::uint32_t slot, const void* msg,
                                         std::size_t len, protocol::msg_kind kind,
                                         bool retransmit) override;
    bool test_result(std::uint32_t slot, std::vector<std::byte>& out) override;

    void shutdown() override;
    void abandon() override;
    void quiesce() override;
    void respawn(std::uint8_t epoch) override;
    [[nodiscard]] bool inject_stale_flag(std::uint32_t slot,
                                         std::uint8_t epoch) override;

    // --- VE-DMA bulk-data path (extension; see options.hpp) ------------------
    [[nodiscard]] bool has_dma_data_path() const override {
        return opt_.vedma_dma_data_path;
    }
    [[nodiscard]] std::uint32_t staging_chunk_count() const override {
        return opt_.vedma_staging_chunks;
    }
    [[nodiscard]] std::uint64_t staging_chunk_bytes() const override {
        return opt_.vedma_staging_chunk_bytes;
    }
    void stage_put(std::uint32_t chunk, const void* src, std::uint64_t len) override;
    void stage_get(std::uint32_t chunk, void* dst, std::uint64_t len) override;
    [[nodiscard]] bool supports_zero_copy() const override {
        return opt_.vedma_dma_data_path && opt_.vedma_zero_copy;
    }

private:
    [[nodiscard]] std::byte* region(std::uint64_t offset) const {
        return seg_->addr + offset;
    }

    void setup_args(aurora::veo::veo_args& args) const override;
    void destroy_segments();

    /// The shared-memory segments are created once by the constructor and
    /// survive respawns (Sec. IV-B: they belong to the VH). The shm segment
    /// is reused across incarnations, so stale flags of a dead incarnation
    /// genuinely persist in it — the epoch stamped into every flag is what
    /// rejects them.
    aurora::vedma::shm_registry shms_;
    const aurora::vedma::shm_segment* seg_ = nullptr;
    const aurora::vedma::shm_segment* staging_seg_ = nullptr;
};

} // namespace ham::offload
