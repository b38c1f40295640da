#include "offload/backend_ve.hpp"

#include <string>

#include "offload/app_image.hpp"
#include "offload/future.hpp"
#include "sim/engine.hpp"
#include "util/check.hpp"

namespace ham::offload {

using namespace aurora::veo;

ve_backend::ve_backend(aurora::veos::veos_system& sys, int ve_id, node_t node,
                       const runtime_options& opt, const char* name,
                       const char* device_type, const char* setup_symbol)
    : sys_(sys),
      ve_id_(ve_id),
      node_(node),
      opt_(opt),
      layout_(protocol::make_comm_layout(opt.msg_slots, opt.msg_size)),
      core_(name, node, opt.msg_slots),
      met_(name, node),
      device_type_(device_type),
      setup_symbol_(setup_symbol) {}

void ve_backend::attach() {
    proc_ = veo_proc_create(sys_, ve_id_, opt_.vh_socket);
    if (proc_ == nullptr) {
        throw target_attach_error("veo_proc_create failed for VE " +
                                  std::to_string(ve_id_));
    }
    const std::uint64_t lib = veo_load_library(proc_, app_image_name);
    if (lib == 0) {
        veo_proc_destroy(proc_);
        proc_ = nullptr;
        throw target_attach_error(std::string("failed to load ") +
                                  app_image_name + " on VE " +
                                  std::to_string(ve_id_));
    }
    ctx_ = veo_context_open(proc_);
    place_comm_area();

    const std::uint64_t sym_setup = veo_get_sym(proc_, lib, setup_symbol_);
    AURORA_CHECK(sym_setup != 0);
    veo_args* args = veo_args_alloc();
    setup_args(*args);
    std::uint64_t ret = 0;
    const std::uint64_t req = veo_call_async(ctx_, sym_setup, args);
    AURORA_CHECK(veo_call_wait_result(ctx_, req, &ret) == VEO_COMMAND_OK);
    AURORA_CHECK_MSG(ret == 0,
                     "heterogeneous binaries have incompatible HAM type tables "
                     "(ABI mismatch, paper Sec. III-E)");
    veo_args_free(args);

    // Start the HAM-Offload runtime on the VE; it returns only after the
    // terminate message (Sec. III-C).
    const std::uint64_t sym_main = veo_get_sym(proc_, lib, sym_ham_main);
    AURORA_CHECK(sym_main != 0);
    main_req_ = veo_call_async(ctx_, sym_main, nullptr);
    AURORA_CHECK(main_req_ != VEO_REQUEST_ID_INVALID);
    quiesced_ = false;
}

void ve_backend::reap_main(bool must_succeed) {
    std::uint64_t ret = 0;
    const int rc = veo_call_wait_result(ctx_, main_req_, &ret);
    AURORA_CHECK(!must_succeed || rc == VEO_COMMAND_OK);
}

void ve_backend::destroy_process() {
    veo_proc_destroy(proc_);
    proc_ = nullptr;
}

void ve_backend::poll_pause() {
    sim::advance(sys_.plat().costs().local_poll_ns);
}

std::uint64_t ve_backend::allocate_bytes(std::uint64_t len) {
    std::uint64_t addr = 0;
    AURORA_CHECK(veo_alloc_mem(proc_, &addr, len) == 0);
    return addr;
}

void ve_backend::free_bytes(std::uint64_t addr) {
    AURORA_CHECK(veo_free_mem(proc_, addr) == 0);
}

void ve_backend::put_bytes(const void* src, std::uint64_t dst_addr,
                           std::uint64_t len) {
    AURORA_CHECK(veo_write_mem(proc_, dst_addr, src, len) == 0);
}

void ve_backend::get_bytes(std::uint64_t src_addr, void* dst, std::uint64_t len) {
    AURORA_CHECK(veo_read_mem(proc_, dst, src_addr, len) == 0);
}

node_descriptor ve_backend::descriptor() const {
    node_descriptor d;
    d.name = "VE" + std::to_string(ve_id_);
    d.device_type = device_type_;
    d.node = node_;
    d.ve_id = ve_id_;
    return d;
}

} // namespace ham::offload
