#include "offload/backend_veo.hpp"

#include "offload/app_image.hpp"
#include "sim/engine.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"

namespace ham::offload {

using namespace aurora::veo;

backend_veo::backend_veo(aurora::veos::veos_system& sys, int ve_id, node_t node,
                         const runtime_options& opt)
    : ve_backend(sys, ve_id, node, opt, "veo", "NEC VE Type 10B (VEO backend)",
                 sym_setup_veo) {
    attach();
}

void backend_veo::place_comm_area() {
    AURORA_CHECK(veo_alloc_mem(proc_, &comm_addr_, layout_.total_bytes()) == 0);
}

void backend_veo::setup_args(veo_args& args) const {
    args.set_u64(0, comm_addr_);
    args.set_u64(1, layout_.recv.slots);
    args.set_u64(2, layout_.recv.msg_size);
    args.set_i64(3, node_);
    args.set_u64(4, ham::handler_registry::build(
                        host_image_options()).fingerprint());
    args.set_i64(5, opt_.target_idle_timeout_ns);
    args.set_u64(6, core_.epoch());
}

io_status backend_veo::send_message(std::uint32_t slot, const void* msg,
                                    std::size_t len, protocol::msg_kind kind,
                                    bool retransmit) {
    AURORA_CHECK(slot < layout_.recv.slots);
    AURORA_CHECK_MSG(len <= layout_.recv.msg_size, "message exceeds slot capacity");
    AURORA_CHECK_MSG(kind == protocol::msg_kind::user ||
                         kind == protocol::msg_kind::batch ||
                         kind == protocol::msg_kind::terminate,
                     "the VEO backend has no DMA data path");
    // Fig. 5: write the message into the receive buffer on the VE, then
    // signal completion by setting the corresponding flag — two privileged-
    // DMA writes.
    AURORA_TRACE_SPAN("backend", "veo_send");
    const backend_metrics::send_timer timer(met_, len);
    if (!core_.open_send(slot, len)) {
        return io_status::transient;
    }
    // A dropped message skips both DMA writes; the generation still advances
    // so a later retransmission carries the value the VE expects.
    const bool drop = core_.drop();
    if (!drop && len > 0) {
        AURORA_TRACE_SPAN("backend", "msg_copy");
        veo_write_mem(proc_, comm_addr_ + layout_.recv.buffer_offset(slot), msg,
                      len);
    }
    const std::uint64_t raw = core_.stamp(slot, kind, len, retransmit);
    if (drop || core_.lose_flag()) {
        return io_status::ok; // payload may have landed; the flag write is lost
    }
    {
        AURORA_TRACE_SPAN("backend", "flag_write");
        veo_write_mem(proc_, comm_addr_ + layout_.recv.flag_offset(slot), &raw,
                      sizeof(raw));
    }
    return io_status::ok;
}

bool backend_veo::test_result(std::uint32_t slot, std::vector<std::byte>& out) {
    AURORA_CHECK(slot < layout_.send.slots);
    AURORA_TRACE_COUNTER("backend", "veo_poll", 1);
    backend_metrics::poll_timer timer(met_);
    // Poll the result flag (one expensive veo_read_mem)…
    const std::uint64_t flag_addr =
        comm_addr_ + layout_.send_base() + layout_.send.flag_offset(slot);
    std::uint64_t raw = 0;
    veo_read_mem(proc_, &raw, flag_addr, sizeof(raw));
    protocol::flag_word flag;
    const slot_protocol::verdict v = core_.collect(slot, raw, flag);
    if (v != slot_protocol::verdict::ready) {
        if (v == slot_protocol::verdict::stale) {
            // Defence in depth (veo comm memory is fresh per incarnation):
            // clear the stale flag so the slot polls clean.
            const std::uint64_t zero = 0;
            veo_write_mem(proc_, flag_addr, &zero, sizeof(zero));
        }
        return false;
    }
    // …then fetch the result message (a second veo_read_mem).
    AURORA_TRACE_SPAN("backend", "veo_result_fetch");
    out.resize(flag.len);
    if (flag.len > 0) {
        veo_read_mem(proc_, out.data(),
                     comm_addr_ + layout_.send_base() +
                         layout_.send.buffer_offset(slot),
                     flag.len);
    }
    timer.arrived(out.size());
    return true;
}

void backend_veo::release_process() {
    veo_free_mem(proc_, comm_addr_);
    destroy_process();
}

void backend_veo::shutdown() {
    if (proc_ == nullptr) {
        return;
    }
    // The terminate result was already collected; ham_main returns now.
    reap_main(/*must_succeed=*/true);
    release_process();
}

void backend_veo::abandon() {
    if (proc_ == nullptr) {
        return;
    }
    // The runtime fenced this target (injector::kill_now): reap ham_main,
    // then tear down without the terminate handshake. After a quiesce() the
    // reap already happened.
    if (!quiesced_) {
        reap_main();
    }
    release_process();
    quiesced_ = false;
}

void backend_veo::quiesce() {
    if (proc_ == nullptr || quiesced_) {
        return;
    }
    // Reap ham_main but keep the process (and with it the communication
    // area's memory) so the final drain can still read delivered results
    // through veo_read_mem.
    reap_main();
    quiesced_ = true;
}

void backend_veo::respawn(std::uint8_t epoch) {
    AURORA_CHECK_MSG(quiesced_,
                     "respawn of a veo target that was never quiesced");
    // Tear down the dead incarnation completely — a fresh process gets fresh
    // (zeroed) communication memory — then rerun the Fig. 4 deployment.
    // proc_ may already be null if a previous re-attach attempt failed
    // part-way; a retry then starts straight from the deployment.
    if (proc_ != nullptr) {
        release_process();
    }
    core_.respawn(epoch);
    attach();
}

bool backend_veo::inject_stale_flag(std::uint32_t, std::uint8_t epoch) {
    // The VE channel polls one slot at a time, so the flag must land where
    // its round-robin cursor stands — the slot argument is advisory.
    const std::uint32_t slot = core_.target_cursor();
    const std::uint64_t raw = core_.stale(slot, epoch);
    veo_write_mem(proc_, comm_addr_ + layout_.recv.flag_offset(slot), &raw,
                  sizeof(raw));
    return true;
}

} // namespace ham::offload
