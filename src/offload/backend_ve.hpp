// Host side shared by the two VE protocols (veo: Fig. 5, vedma: Fig. 8).
//
// Both deploy the target the same way (Fig. 4): the host creates the VE
// process via VEO, loads the application library, pushes the communication
// parameters through a C-API call and starts ham_main asynchronously. Bulk
// data exchange and target memory management go through the VEO API in both
// ("Starting the application, initialisation and data exchange are still
// performed through the VEO API", Sec. IV-B). The slot discipline is
// slot_protocol's; the two backends keep only how message bytes and flags
// move and what their setup call carries.
#pragma once

#include <cstdint>

#include "offload/backend.hpp"
#include "offload/options.hpp"
#include "offload/protocol.hpp"
#include "offload/slot_protocol.hpp"
#include "veo/veo_api.hpp"

namespace ham::offload {

class ve_backend : public backend {
public:
    [[nodiscard]] std::uint32_t slot_count() const override {
        return core_.slots();
    }
    /// The flag read in test_result dominates a poll; only loop bookkeeping
    /// here.
    void poll_pause() override;

    [[nodiscard]] std::uint64_t allocate_bytes(std::uint64_t len) override;
    void free_bytes(std::uint64_t addr) override;
    void put_bytes(const void* src, std::uint64_t dst_addr,
                   std::uint64_t len) override;
    void get_bytes(std::uint64_t src_addr, void* dst, std::uint64_t len) override;

    [[nodiscard]] node_descriptor descriptor() const override;

protected:
    ve_backend(aurora::veos::veos_system& sys, int ve_id, node_t node,
               const runtime_options& opt, const char* name,
               const char* device_type, const char* setup_symbol);

    /// Fig. 4 deployment for the current incarnation: VE process, library,
    /// setup C-API call, async ham_main. Attach failures are recoverable:
    /// the runtime marks the target failed (or schedules another recovery
    /// attempt) and continues with the remaining targets.
    void attach();
    /// Hook of attach(), run once the VEO context is open: place the
    /// communication area if it lives in VE memory.
    virtual void place_comm_area() {}
    /// Hook of attach(): the arguments of this protocol's setup C-API call.
    virtual void setup_args(aurora::veo::veo_args& args) const = 0;

    /// Wait for ham_main to return; a fenced target exits at its next
    /// liveness check. `must_succeed` after the terminate handshake.
    void reap_main(bool must_succeed = false);
    void destroy_process();

    aurora::veos::veos_system& sys_;
    int ve_id_;
    node_t node_;
    runtime_options opt_;
    protocol::comm_layout layout_;
    aurora::veo::veo_proc_handle* proc_ = nullptr;
    aurora::veo::veo_thr_ctxt* ctx_ = nullptr;
    std::uint64_t main_req_ = 0; ///< outstanding ham_main request
    bool quiesced_ = false;      ///< ham_main reaped, comm area kept for the drain
    slot_protocol::host_half core_;
    backend_metrics met_;

private:
    const char* device_type_;
    const char* setup_symbol_;
};

} // namespace ham::offload
