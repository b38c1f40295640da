#include "offload/backend_vedma.hpp"

#include <cstring>

#include "offload/app_image.hpp"
#include "sim/engine.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"

namespace ham::offload {

using namespace aurora::veo;

namespace {

constexpr int ham_shm_key = 0x48414D;         // "HAM"
constexpr int ham_staging_shm_key = 0x48414E; // "HAN"

} // namespace

backend_vedma::backend_vedma(aurora::veos::veos_system& sys, int ve_id,
                             node_t node, const runtime_options& opt)
    : ve_backend(sys, ve_id, node, opt, "vedma",
                 "NEC VE Type 10B (VE-DMA backend)", sym_setup_vedma),
      shms_(sys.plat()) {
    AURORA_CHECK_MSG(opt.msg_size % 8 == 0,
                     "vedma backend requires 8-byte aligned message sizes");

    // Fig. 7: the VH sets up a SysV shared memory segment (huge pages) that
    // holds *all* communication buffers and flags.
    seg_ = &shms_.create(ham_shm_key, layout_.total_bytes(),
                         sys.plat().config().default_vh_page, opt.vh_socket);
    if (opt_.vedma_dma_data_path) {
        AURORA_CHECK_MSG(opt_.vedma_staging_chunk_bytes % 8 == 0 &&
                             opt_.vedma_staging_chunks > 0,
                         "bad VE-DMA staging geometry");
        staging_seg_ = &shms_.create(
            ham_staging_shm_key,
            opt_.vedma_staging_chunk_bytes * opt_.vedma_staging_chunks,
            sys.plat().config().default_vh_page, opt.vh_socket);
    }

    try {
        attach();
    } catch (...) {
        destroy_segments();
        throw;
    }
}

void backend_vedma::setup_args(veo_args& args) const {
    args.set_u64(0, reinterpret_cast<std::uint64_t>(&shms_));
    args.set_i64(1, ham_shm_key);
    args.set_u64(2, layout_.recv.slots);
    args.set_u64(3, layout_.recv.msg_size);
    args.set_i64(4, node_);
    args.set_u64(5, opt_.vedma_shm_small_results ? 1 : 0);
    args.set_u64(6, opt_.vedma_shm_result_threshold);
    args.set_i64(7, opt_.vedma_dma_data_path ? ham_staging_shm_key : 0);
    args.set_u64(8, opt_.vedma_staging_chunk_bytes);
    args.set_u64(9, ham::handler_registry::build(
                        host_image_options()).fingerprint());
    args.set_i64(10, opt_.target_idle_timeout_ns);
    args.set_u64(11, core_.epoch());
    args.set_u64(12, supports_zero_copy() ? 1 : 0);
    args.set_i64(13, opt_.vh_socket);
}

void backend_vedma::destroy_segments() {
    if (seg_ != nullptr) {
        shms_.destroy(ham_shm_key);
        seg_ = nullptr;
    }
    if (staging_seg_ != nullptr) {
        shms_.destroy(ham_staging_shm_key);
        staging_seg_ = nullptr;
    }
}

io_status backend_vedma::send_message(std::uint32_t slot, const void* msg,
                                      std::size_t len, protocol::msg_kind kind,
                                      bool retransmit) {
    const auto& cm = sys_.plat().costs();
    AURORA_CHECK(slot < layout_.recv.slots);
    AURORA_CHECK_MSG(len <= layout_.recv.msg_size, "message exceeds slot capacity");
    // All host-side operations are local memory accesses (Sec. IV-B): copy
    // the message into the shared segment, then publish the flag.
    AURORA_TRACE_SPAN("backend", "vedma_send");
    const backend_metrics::send_timer timer(met_, len);
    if (!core_.open_send(slot, len)) {
        return io_status::transient;
    }
    // A dropped message skips both stores; the generation still advances so a
    // later retransmission carries the value the VE expects.
    const bool drop = core_.drop();
    if (!drop && len > 0) {
        AURORA_TRACE_SPAN("backend", "msg_copy");
        std::memcpy(region(layout_.recv.buffer_offset(slot)), msg, len);
        sim::advance(sim::transfer_ns(len, cm.vh_memcpy_gib));
    }
    const std::uint64_t raw = core_.stamp(slot, kind, len, retransmit);
    if (drop || core_.lose_flag()) {
        return io_status::ok; // payload may have landed; the flag store is lost
    }
    {
        AURORA_TRACE_SPAN("backend", "flag_write");
        sim::advance(cm.local_poll_ns); // store + fence
        std::memcpy(region(layout_.recv.flag_offset(slot)), &raw, sizeof(raw));
    }
    return io_status::ok;
}

bool backend_vedma::test_result(std::uint32_t slot, std::vector<std::byte>& out) {
    const auto& cm = sys_.plat().costs();
    AURORA_CHECK(slot < layout_.send.slots);
    AURORA_TRACE_COUNTER("backend", "vedma_poll", 1);
    backend_metrics::poll_timer timer(met_);
    // "The VH is now the passive receiver who finds its message already in
    // its local memory as soon as the flag is set by the VE" (Sec. IV-B).
    sim::advance(cm.local_poll_ns);
    std::byte* const flag_at =
        region(layout_.send_base() + layout_.send.flag_offset(slot));
    std::uint64_t raw = 0;
    std::memcpy(&raw, flag_at, sizeof(raw));
    protocol::flag_word flag;
    const slot_protocol::verdict v = core_.collect(slot, raw, flag);
    if (v != slot_protocol::verdict::ready) {
        if (v == slot_protocol::verdict::stale) {
            // A real hazard here, unlike on the other backends: the shm
            // segment (and every flag in it) survives the respawn. Zero the
            // stale flag so the slot polls clean.
            std::memset(flag_at, 0, sizeof(raw));
        }
        return false;
    }
    AURORA_TRACE_SPAN("backend", "vedma_result_fetch");
    out.resize(flag.len);
    if (flag.len > 0) {
        std::memcpy(out.data(),
                    region(layout_.send_base() + layout_.send.buffer_offset(slot)),
                    flag.len);
        sim::advance(sim::transfer_ns(flag.len, cm.vh_memcpy_gib));
    }
    timer.arrived(out.size());
    return true;
}

void backend_vedma::stage_put(std::uint32_t chunk, const void* src,
                              std::uint64_t len) {
    AURORA_CHECK(staging_seg_ != nullptr && chunk < opt_.vedma_staging_chunks);
    AURORA_CHECK(len <= opt_.vedma_staging_chunk_bytes);
    AURORA_TRACE_SPAN("backend", "stage_put");
    sim::advance(sim::transfer_ns(len, sys_.plat().costs().vh_memcpy_gib));
    std::memcpy(staging_seg_->addr + chunk * opt_.vedma_staging_chunk_bytes, src,
                len);
}

void backend_vedma::stage_get(std::uint32_t chunk, void* dst, std::uint64_t len) {
    AURORA_CHECK(staging_seg_ != nullptr && chunk < opt_.vedma_staging_chunks);
    AURORA_CHECK(len <= opt_.vedma_staging_chunk_bytes);
    AURORA_TRACE_SPAN("backend", "stage_get");
    sim::advance(sim::transfer_ns(len, sys_.plat().costs().vh_memcpy_gib));
    std::memcpy(dst, staging_seg_->addr + chunk * opt_.vedma_staging_chunk_bytes,
                len);
}

void backend_vedma::shutdown() {
    if (proc_ == nullptr) {
        return;
    }
    reap_main(/*must_succeed=*/true);
    destroy_process();
    destroy_segments();
}

void backend_vedma::abandon() {
    if (proc_ == nullptr && !quiesced_) {
        return;
    }
    // The runtime fenced this target (injector::kill_now), so ham_main exits
    // at the VE's next liveness check — its channel destructor unregisters the
    // ATB mapping before returning, after which the segments can go away.
    // After a quiesce() the reap already happened; only the segments remain.
    if (proc_ != nullptr) {
        reap_main();
        destroy_process();
    }
    destroy_segments();
    quiesced_ = false;
}

void backend_vedma::quiesce() {
    if (quiesced_) {
        return;
    }
    // Reap ham_main and drop the VE process, but keep the shared-memory
    // segments: every delivered result lives in VH-local memory (Sec. IV-B),
    // so the final drain keeps working without any process at all.
    if (proc_ != nullptr) {
        reap_main();
        destroy_process();
    }
    quiesced_ = true;
}

void backend_vedma::respawn(std::uint8_t epoch) {
    AURORA_CHECK_MSG(proc_ == nullptr && quiesced_,
                     "respawn of a vedma target that was never quiesced");
    // The segments are deliberately NOT cleared: the new incarnation attaches
    // the same shm, where flags of the dead incarnation still sit. Both sides
    // reject them by epoch — that rejection path is load-bearing here.
    core_.respawn(epoch);
    attach();
}

bool backend_vedma::inject_stale_flag(std::uint32_t, std::uint8_t epoch) {
    // The VE channel polls one slot at a time, so the flag must land where
    // its round-robin cursor stands — the slot argument is advisory. The
    // flag is a leftover of incarnation `epoch` in the shared segment.
    const std::uint32_t slot = core_.target_cursor();
    const std::uint64_t raw = core_.stale(slot, epoch);
    std::memcpy(region(layout_.recv.flag_offset(slot)), &raw, sizeof(raw));
    return true;
}

} // namespace ham::offload
