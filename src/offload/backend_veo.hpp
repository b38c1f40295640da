// VEO communication backend (paper Sec. III-D, Fig. 5).
//
// One-sided protocol driven by the VH: both communication regions (receive
// message buffers + flags, send/result buffers + flags) live in VE memory.
// The host writes offload messages and notification flags through
// veo_write_mem, and polls result flags / fetches result messages through
// veo_read_mem — every step paying the privileged-DMA cost that motivates
// Sec. IV. The VE side polls its local flags between message executions.
//
// Deployment follows Fig. 4 (ve_backend); the setup C-API call
// ham_comm_setup_veo carries the address of the communication area.
#pragma once

#include <cstdint>
#include <vector>

#include "offload/backend_ve.hpp"

namespace ham::offload {

class backend_veo final : public ve_backend {
public:
    backend_veo(aurora::veos::veos_system& sys, int ve_id, node_t node,
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

private:
    /// All communication buffers live in VE memory and are set up and
    /// managed by the host (Sec. III-D); flags start out zeroed.
    void place_comm_area() override;
    void setup_args(aurora::veo::veo_args& args) const override;
    void release_process();

    std::uint64_t comm_addr_ = 0; ///< base of the communication area (VE memory)
};

} // namespace ham::offload
