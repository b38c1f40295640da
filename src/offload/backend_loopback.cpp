#include "offload/backend_loopback.hpp"

#include <algorithm>
#include <cstring>

#include "fault/fault.hpp"
#include "obs/flight.hpp"
#include "offload/heal.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"

namespace ham::offload {

/// State shared between the host-side backend and the target process.
struct backend_loopback::shared_state {
    explicit shared_state(sim::simulation& sim, std::uint32_t slots)
        : inbox(sim), results(slots) {}

    sim::sim_queue<std::pair<protocol::flag_word, std::vector<std::byte>>> inbox;
    std::vector<std::vector<std::byte>> results; ///< empty = no result pending
};

/// Target-side channel over the shared queues.
class backend_loopback::channel final : public target_channel {
public:
    channel(shared_state& s, const sim::cost_model& cm, std::uint8_t epoch,
            node_t node)
        : s_(s), cm_(cm), epoch_(epoch), node_(node),
          recv_gen_(s.results.size(), 0) {}

    protocol::flag_word recv_next(std::vector<std::byte>& buf) override {
        for (;;) {
            auto [flag, bytes] = s_.inbox.pop();
            if (flag.epoch != epoch_) {
                // Leftover of a previous incarnation (stale retransmit or
                // even its poison fence): a recovered target must never act
                // on it. Checked before everything else — a stale poison
                // would otherwise kill the new incarnation.
                heal::note_epoch_reject("loopback", node_);
                continue;
            }
            if (flag.kind == protocol::msg_kind::poison) {
                // Host-side fence: unwind the loop without answering.
                throw aurora::fault::target_killed{};
            }
            const std::uint32_t slot = flag.result_slot_plus1 - 1u;
            if (flag.gen != 0 && slot < recv_gen_.size() &&
                flag.gen == recv_gen_[slot]) {
                continue; // duplicate of a retransmitted message
            }
            if (slot < recv_gen_.size()) {
                recv_gen_[slot] = flag.gen;
            }
            buf = std::move(bytes);
            return flag;
        }
    }

    void send_result(std::uint32_t result_slot, const void* bytes,
                     std::size_t len) override {
        AURORA_CHECK(result_slot < s_.results.size());
        AURORA_CHECK_MSG(s_.results[result_slot].empty(),
                         "result slot " << result_slot << " still occupied");
        // A small modeled delivery latency keeps result arrival ordered
        // after the send in virtual time.
        sim::advance(cm_.local_poll_ns);
        auto& out = s_.results[result_slot];
        out.resize(len);
        std::memcpy(out.data(), bytes, len);
    }

private:
    shared_state& s_;
    const sim::cost_model& cm_;
    std::uint8_t epoch_; ///< incarnation this channel belongs to
    node_t node_;
    std::vector<std::uint8_t> recv_gen_; ///< last generation seen per slot
};

/// Heap-backed target memory: addresses are real pointers.
class backend_loopback::heap_memory final : public target_memory {
public:
    void read(std::uint64_t addr, void* dst, std::uint64_t len) override {
        std::memcpy(dst, reinterpret_cast<const void*>(addr), len);
    }
    void write(std::uint64_t addr, const void* src, std::uint64_t len) override {
        std::memcpy(reinterpret_cast<void*>(addr), src, len);
    }
};

backend_loopback::backend_loopback(sim::simulation& sim,
                                   const ham::handler_registry& target_reg,
                                   const sim::cost_model& costs,
                                   const runtime_options& opt, node_t node)
    : sim_(sim),
      costs_(costs),
      node_(node),
      slots_(opt.msg_slots),
      msg_size_(opt.msg_size),
      shared_(std::make_shared<shared_state>(sim, opt.msg_slots)),
      send_gen_(opt.msg_slots, 0),
      target_reg_(&target_reg),
      met_("loopback", node) {
    spawn_target(target_reg);
}

void backend_loopback::spawn_target(const ham::handler_registry& target_reg) {
    // The target process owns its channel/context/memory objects so they
    // outlive this backend teardown order safely.
    auto shared = shared_;
    const auto* cm = &costs_;
    const auto* reg = &target_reg;
    const auto msg_size = msg_size_;
    const node_t n = node_;
    const std::uint8_t epoch = epoch_;
    target_proc_ = &sim_.spawn(
        "loopback-target-" + std::to_string(node_),
        [shared, cm, reg, msg_size, n, epoch] {
            heap_memory mem;
            target_context ctx(n, target_context::device::vh, &mem, cm);
            channel ch(*shared, *cm, epoch, n);
            target_loop_config cfg;
            cfg.registry = reg;
            cfg.context = &ctx;
            cfg.costs = cm;
            cfg.msg_size = msg_size;
            try {
                run_target_loop(cfg, ch);
            } catch (const aurora::fault::target_killed&) {
                // simulated VE death — exit without answering
            }
        });
}

backend_loopback::~backend_loopback() = default;

io_status backend_loopback::send_message(std::uint32_t slot, const void* msg,
                                         std::size_t len, protocol::msg_kind kind,
                                         bool retransmit) {
    AURORA_CHECK(slot < slots_);
    AURORA_CHECK_MSG(len <= msg_size_, "message exceeds slot capacity");
    AURORA_CHECK_MSG(kind == protocol::msg_kind::user ||
                         kind == protocol::msg_kind::batch ||
                         kind == protocol::msg_kind::terminate,
                     "loopback backend has no DMA data path");
    AURORA_TRACE_SPAN("backend", "loopback_send");
    const backend_metrics::send_timer timer(met_, len);
    aurora::obs::flight_registry::ring_for(static_cast<std::uint16_t>(node_))
        .note(aurora::obs::stage::sent, 0, static_cast<std::uint16_t>(slot),
              epoch_, static_cast<std::uint32_t>(len));
    auto& inj = aurora::fault::injector::instance();
    if (inj.active()) {
        if (const auto spike = inj.delay_spike()) {
            sim::advance(spike);
        }
        if (inj.should_fail_dma_post()) {
            return io_status::transient;
        }
    }
    protocol::flag_word flag;
    flag.kind = kind;
    flag.gen = retransmit ? send_gen_[slot]
                          : (send_gen_[slot] = protocol::next_gen(send_gen_[slot]));
    flag.result_slot_plus1 = static_cast<std::uint16_t>(slot + 1);
    flag.epoch = epoch_;
    flag.len = static_cast<std::uint32_t>(len);
    std::vector<std::byte> bytes(len);
    if (len > 0) {
        std::memcpy(bytes.data(), msg, len);
    }
    sim::advance(costs_.local_poll_ns); // queue handoff
    if (inj.active() && (inj.should_drop() || inj.should_lose_flag())) {
        // The whole enqueue vanishes (payload and flag travel together here).
        return io_status::ok;
    }
    shared_->inbox.push({flag, std::move(bytes)});
    return io_status::ok;
}

bool backend_loopback::test_result(std::uint32_t slot, std::vector<std::byte>& out) {
    AURORA_CHECK(slot < slots_);
    auto& r = shared_->results[slot];
    if (r.empty()) {
        note_fruitless_poll();
        return false;
    }
    AURORA_TRACE_COUNTER("backend", "loopback_poll", 1);
    backend_metrics::poll_timer timer(met_);
    out = std::move(r);
    r.clear();
    timer.arrived(out.size());
    AURORA_TRACE_INSTANT("backend", "loopback_result");
    return true;
}

probe_answer backend_loopback::result_pending(std::uint32_t slot) const {
    if (slot >= slots_) {
        return probe_answer::unknown; // test_result() would throw
    }
    return shared_->results[slot].empty() ? probe_answer::no : probe_answer::yes;
}

void backend_loopback::note_fruitless_poll() {
    AURORA_TRACE_COUNTER("backend", "loopback_poll", 1);
    met_.count_poll();
}

void backend_loopback::poll_pause() {
    sim::advance(costs_.local_poll_ns);
}

std::uint64_t backend_loopback::allocate_bytes(std::uint64_t len) {
    AURORA_CHECK(len > 0);
    auto block = std::make_unique<std::byte[]>(len);
    std::memset(block.get(), 0, len);
    const auto addr = reinterpret_cast<std::uint64_t>(block.get());
    heap_.emplace(addr, std::move(block));
    return addr;
}

void backend_loopback::free_bytes(std::uint64_t addr) {
    AURORA_CHECK_MSG(heap_.erase(addr) == 1, "free of unknown loopback buffer");
}

void backend_loopback::put_bytes(const void* src, std::uint64_t dst_addr,
                                 std::uint64_t len) {
    sim::advance(sim::transfer_ns(len, costs_.vh_memcpy_gib));
    std::memcpy(reinterpret_cast<void*>(dst_addr), src, len);
}

void backend_loopback::get_bytes(std::uint64_t src_addr, void* dst,
                                 std::uint64_t len) {
    sim::advance(sim::transfer_ns(len, costs_.vh_memcpy_gib));
    std::memcpy(dst, reinterpret_cast<const void*>(src_addr), len);
}

node_descriptor backend_loopback::descriptor() const {
    node_descriptor d;
    d.name = "loopback-" + std::to_string(node_);
    d.device_type = "in-process loopback";
    d.node = node_;
    d.ve_id = -1;
    return d;
}

void backend_loopback::shutdown() {
    if (target_proc_ != nullptr) {
        sim::join(*target_proc_);
        target_proc_ = nullptr;
    }
}

void backend_loopback::abandon() {
    if (target_proc_ == nullptr) {
        return;
    }
    // In-band poison unblocks a target parked in inbox.pop(); if the process
    // already died the packet is simply never read. It carries the current
    // epoch so a later incarnation can never mistake it for its own fence.
    protocol::flag_word flag;
    flag.kind = protocol::msg_kind::poison;
    flag.result_slot_plus1 = 1;
    flag.epoch = epoch_;
    shared_->inbox.push({flag, {}});
    sim::join(*target_proc_);
    target_proc_ = nullptr;
}

void backend_loopback::quiesce() {
    // The queue state survives an abandon untouched, so delivered results
    // stay harvestable; only the process is reaped.
    abandon();
}

void backend_loopback::respawn(std::uint8_t epoch) {
    AURORA_CHECK_MSG(target_proc_ == nullptr,
                     "respawn of a loopback target that was never quiesced");
    epoch_ = epoch;
    // Results the final drain left behind belong to the dead incarnation.
    // Stale *inbox* packets stay: the new channel rejects them by epoch.
    for (auto& r : shared_->results) {
        r.clear();
    }
    std::fill(send_gen_.begin(), send_gen_.end(), std::uint8_t{0});
    spawn_target(*target_reg_);
}

bool backend_loopback::inject_stale_flag(std::uint32_t slot, std::uint8_t epoch) {
    AURORA_CHECK(slot < slots_);
    // Shape of a delayed retransmit from incarnation `epoch`: the generation
    // the channel expects next, so only the epoch check can reject it.
    protocol::flag_word flag;
    flag.kind = protocol::msg_kind::user;
    flag.gen = protocol::next_gen(send_gen_[slot]);
    flag.result_slot_plus1 = static_cast<std::uint16_t>(slot + 1);
    flag.epoch = epoch;
    shared_->inbox.push({flag, {}});
    return true;
}

} // namespace ham::offload
