#include "offload/backend_queue.hpp"

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "offload/target_loop.hpp"
#include "sim/event.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"

namespace ham::offload {

queue_wire queue_wire::loopback(const sim::cost_model& cm) {
    queue_wire w{"loopback", "in-process loopback", "loopback_send",
                 "loopback_poll", "loopback_result"};
    w.hop_ns = cm.local_poll_ns;
    return w;
}

queue_wire queue_wire::tcp(const sim::cost_model& cm) {
    queue_wire w{"tcp", "generic TCP/IP peer", "tcp_send", "tcp_poll",
                 "tcp_result"};
    w.hop_ns = cm.tcp_per_msg_ns;
    w.gib_s = cm.tcp_bandwidth_gib;
    w.socket = true;
    w.half_rtt_ns = cm.tcp_half_rtt_ns;
    return w;
}

sim::time_ns queue_wire::hop(std::uint64_t bytes) const {
    sim::advance(hop_ns + (gib_s > 0 ? sim::transfer_ns(bytes, gib_s) : 0));
    return sim::now() + half_rtt_ns;
}

namespace {

/// One message in the inbox.
struct packet {
    std::uint64_t flag = 0;
    std::vector<std::byte> bytes;
    sim::time_ns deliver_at = 0; ///< earliest receive time (socket only)
};

} // namespace

/// State shared between the host-side backend and the target process.
struct queue_backend::shared_state {
    shared_state(sim::simulation& sim, std::uint32_t slots)
        : inbox(sim), results(slots) {}

    sim::sim_queue<packet> inbox;
    struct result_slot {
        std::vector<std::byte> bytes; ///< empty = no result pending
        sim::time_ns deliver_at = 0;
    };
    std::vector<result_slot> results;
};

/// Target-side channel over the shared queues.
class queue_backend::channel final : public target_channel {
public:
    channel(shared_state& s, const queue_wire& wire, node_t node,
            std::uint8_t epoch)
        : s_(s), wire_(wire),
          core_(wire.name, node,
                static_cast<std::uint32_t>(s.results.size()), epoch) {}

    protocol::flag_word recv_next(std::vector<std::byte>& buf) override {
        for (;;) {
            packet p = s_.inbox.pop();
            protocol::flag_word flag;
            // Checked before everything else: a previous incarnation's
            // poison would otherwise kill this one.
            if (!core_.admit(p.flag, flag)) {
                continue;
            }
            if (flag.kind == protocol::msg_kind::poison) {
                // Host-side fence: unwind the loop without answering.
                throw aurora::fault::target_killed{};
            }
            if (wire_.socket) {
                // The packet is readable only after its delivery time, and
                // the read itself costs a syscall.
                sim::sleep_until(p.deliver_at);
                sim::advance(wire_.hop_ns);
            }
            if (!core_.fresh(flag)) {
                continue; // duplicate of a retransmitted message
            }
            buf = std::move(p.bytes);
            return flag;
        }
    }

    void send_result(std::uint32_t result_slot, const void* bytes,
                     std::size_t len) override {
        AURORA_CHECK(result_slot < s_.results.size());
        auto& out = s_.results[result_slot];
        AURORA_CHECK_MSG(out.bytes.empty(),
                         "result slot " << result_slot << " still occupied");
        // The hop keeps result arrival ordered after the send in virtual
        // time.
        const sim::time_ns deliver_at = wire_.hop(len);
        out.bytes.resize(len);
        std::memcpy(out.bytes.data(), bytes, len);
        out.deliver_at = deliver_at;
    }

private:
    shared_state& s_;
    const queue_wire wire_;
    slot_protocol::target_half core_;
};

namespace {

/// Heap-backed target memory: addresses are real pointers.
class heap_memory final : public target_memory {
public:
    void read(std::uint64_t addr, void* dst, std::uint64_t len) override {
        std::memcpy(dst, reinterpret_cast<const void*>(addr), len);
    }
    void write(std::uint64_t addr, const void* src, std::uint64_t len) override {
        std::memcpy(reinterpret_cast<void*>(addr), src, len);
    }
};

} // namespace

queue_backend::queue_backend(sim::simulation& sim,
                             const ham::handler_registry& target_reg,
                             const sim::cost_model& costs,
                             const runtime_options& opt, node_t node,
                             const queue_wire& wire)
    : sim_(sim),
      costs_(costs),
      node_(node),
      msg_size_(opt.msg_size),
      wire_(wire),
      shared_(std::make_shared<shared_state>(sim, opt.msg_slots)),
      target_reg_(&target_reg),
      core_(wire.name, node, opt.msg_slots),
      met_(wire.name, node) {
    spawn_target();
}

void queue_backend::spawn_target() {
    // The target process owns its channel/context/memory objects so they
    // outlive this backend's teardown order safely.
    auto shared = shared_;
    const auto* cm = &costs_;
    const auto* reg = target_reg_;
    const auto msg_size = msg_size_;
    const node_t n = node_;
    const std::uint8_t epoch = core_.epoch();
    const queue_wire wire = wire_;
    target_proc_ = &sim_.spawn(
        std::string(wire_.name) + "-target-" + std::to_string(node_),
        [shared, cm, reg, msg_size, n, epoch, wire] {
            heap_memory mem;
            target_context ctx(n, target_context::device::vh, &mem, cm);
            channel ch(*shared, wire, n, epoch);
            target_loop_config cfg;
            cfg.registry = reg;
            cfg.context = &ctx;
            cfg.costs = cm;
            cfg.msg_size = msg_size;
            try {
                run_target_loop(cfg, ch);
            } catch (const aurora::fault::target_killed&) {
                // simulated target death — exit without answering
            }
        });
}

queue_backend::~queue_backend() = default;

io_status queue_backend::send_message(std::uint32_t slot, const void* msg,
                                      std::size_t len, protocol::msg_kind kind,
                                      bool retransmit) {
    AURORA_CHECK(slot < core_.slots());
    AURORA_CHECK_MSG(len <= msg_size_, "message exceeds slot capacity");
    AURORA_CHECK_MSG(kind == protocol::msg_kind::user ||
                         kind == protocol::msg_kind::batch ||
                         kind == protocol::msg_kind::terminate,
                     "the " << wire_.name << " backend has no DMA data path");
    AURORA_TRACE_SPAN("backend", wire_.send_span);
    const backend_metrics::send_timer timer(met_, len);
    if (!core_.open_send(slot, len)) {
        return io_status::transient;
    }
    packet p;
    p.flag = core_.stamp(slot, kind, len, retransmit);
    p.bytes.resize(len);
    if (len > 0) {
        std::memcpy(p.bytes.data(), msg, len);
    }
    p.deliver_at = wire_.hop(len);
    if (core_.drop() || core_.lose_flag()) {
        // The whole enqueue vanishes (payload and flag travel together).
        return io_status::ok;
    }
    shared_->inbox.push(std::move(p));
    return io_status::ok;
}

bool queue_backend::test_result(std::uint32_t slot, std::vector<std::byte>& out) {
    AURORA_CHECK(slot < core_.slots());
    auto& r = shared_->results[slot];
    if (!wire_.socket && r.bytes.empty()) {
        note_fruitless_poll(); // a free read that found nothing
        return false;
    }
    AURORA_TRACE_COUNTER("backend", wire_.poll_counter, 1);
    backend_metrics::poll_timer timer(met_);
    if (wire_.socket) {
        // A poll is a non-blocking socket read: one syscall.
        sim::advance(wire_.hop_ns);
        if (r.bytes.empty() || sim::now() < r.deliver_at) {
            return false; // nothing on the wire yet
        }
    }
    out = std::move(r.bytes);
    r.bytes.clear();
    timer.arrived(out.size());
    AURORA_TRACE_INSTANT("backend", wire_.result_instant);
    return true;
}

probe_answer queue_backend::result_pending(std::uint32_t slot) const {
    if (wire_.socket || slot >= core_.slots()) {
        return probe_answer::unknown; // a syscall, or test_result() throws
    }
    return shared_->results[slot].bytes.empty() ? probe_answer::no
                                                : probe_answer::yes;
}

void queue_backend::note_fruitless_poll() {
    AURORA_TRACE_COUNTER("backend", wire_.poll_counter, 1);
    met_.count_poll();
}

void queue_backend::poll_pause() {
    sim::advance(costs_.local_poll_ns);
}

std::uint64_t queue_backend::allocate_bytes(std::uint64_t len) {
    AURORA_CHECK(len > 0);
    auto block = std::make_unique<std::byte[]>(len);
    std::memset(block.get(), 0, len);
    const auto addr = reinterpret_cast<std::uint64_t>(block.get());
    heap_.emplace(addr, std::move(block));
    return addr;
}

void queue_backend::free_bytes(std::uint64_t addr) {
    AURORA_CHECK_MSG(heap_.erase(addr) == 1,
                     "free of unknown " << wire_.name << " target buffer");
}

void queue_backend::put_bytes(const void* src, std::uint64_t dst_addr,
                              std::uint64_t len) {
    if (wire_.socket) {
        // Stream the payload; a synchronous put waits for the peer's write.
        sim::sleep_until(wire_.hop(len));
    } else {
        sim::advance(sim::transfer_ns(len, costs_.vh_memcpy_gib));
    }
    std::memcpy(reinterpret_cast<void*>(dst_addr), src, len);
}

void queue_backend::get_bytes(std::uint64_t src_addr, void* dst,
                              std::uint64_t len) {
    if (wire_.socket) {
        // Request out, payload back: a full round trip plus streaming time.
        sim::advance(2 * wire_.hop_ns + 2 * wire_.half_rtt_ns +
                     sim::transfer_ns(len, wire_.gib_s));
    } else {
        sim::advance(sim::transfer_ns(len, costs_.vh_memcpy_gib));
    }
    std::memcpy(dst, reinterpret_cast<const void*>(src_addr), len);
}

node_descriptor queue_backend::descriptor() const {
    node_descriptor d;
    d.name = std::string(wire_.name) + "-" + std::to_string(node_);
    d.device_type = wire_.device_type;
    d.node = node_;
    d.ve_id = -1;
    return d;
}

void queue_backend::shutdown() {
    if (target_proc_ != nullptr) {
        sim::join(*target_proc_);
        target_proc_ = nullptr;
    }
}

void queue_backend::abandon() {
    if (target_proc_ == nullptr) {
        return;
    }
    // In-band poison unblocks a target parked in inbox.pop(); if the process
    // already died the packet is simply never read. It carries the current
    // epoch so a later incarnation can never mistake it for its own fence.
    packet p;
    p.flag = core_.poison();
    shared_->inbox.push(std::move(p));
    sim::join(*target_proc_);
    target_proc_ = nullptr;
}

std::int64_t queue_backend::result_grace_ns() const {
    return wire_.socket ? wire_.half_rtt_ns + wire_.hop_ns : 0;
}

void queue_backend::respawn(std::uint8_t epoch) {
    AURORA_CHECK_MSG(target_proc_ == nullptr, "respawn of a " << wire_.name
                                                  << " target that was never "
                                                     "quiesced");
    core_.respawn(epoch);
    // Results the final drain left behind belong to the dead incarnation.
    // Stale inbox packets stay: the new channel rejects them by epoch.
    for (auto& r : shared_->results) {
        r.bytes.clear();
        r.deliver_at = 0;
    }
    spawn_target();
}

bool queue_backend::inject_stale_flag(std::uint32_t slot, std::uint8_t epoch) {
    AURORA_CHECK(slot < core_.slots());
    // Shape of a delayed retransmit from incarnation `epoch`, deliverable at
    // once.
    packet p;
    p.flag = core_.stale(slot, epoch);
    p.deliver_at = sim::now();
    shared_->inbox.push(std::move(p));
    return true;
}

} // namespace ham::offload
