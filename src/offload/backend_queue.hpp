// Queue backends: an offload target reached through an in-order message
// queue instead of slot memory.
//
// Two transports share this one implementation and differ only in their
// costs and delivery time (queue_wire):
//   * loopback — an in-process target over shared queues and heap-backed
//     "target memory". Exists for testing the runtime/API independently of
//     the SX-Aurora stack and as the reference implementation of the backend
//     interface.
//   * tcp — HAM-Offload's generic TCP/IP backend (paper Fig. 1, Sec. I-A and
//     III-A), which "focuses on interoperability rather than performance":
//     a target process behind a local TCP connection. The paper explains
//     why it is unsuitable for the SX-Aurora (the VE has no native OS, so
//     every socket operation would reverse-offload a syscall); the model
//     serves as the reference point for what the specialised protocols buy.
//
// Either way the host spawns a simulated process running the standard
// target message loop, and the slot discipline (generations, epochs, stale
// rejection) is slot_protocol's.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "ham/handler_registry.hpp"
#include "offload/backend.hpp"
#include "offload/options.hpp"
#include "offload/slot_protocol.hpp"
#include "sim/cost_model.hpp"
#include "sim/engine.hpp"

namespace ham::offload {

/// What tells the queue transports apart.
struct queue_wire {
    const char* name;        ///< backend label of metrics and processes
    const char* device_type; ///< node_descriptor::device_type
    const char* send_span;   ///< trace names, kept per transport
    const char* poll_counter;
    const char* result_instant;
    /// Sender-side cost of one message hop: the queue handoff, or the
    /// socket syscall and framing.
    sim::duration_ns hop_ns = 0;
    double gib_s = 0; ///< serialisation bandwidth of a hop; 0 = not modeled
    /// Socket semantics (tcp): a message surfaces half_rtt_ns after its
    /// send, and every read, target receive or host poll, is a hop_ns
    /// syscall. Without them (loopback) a message is readable at once and
    /// reads cost nothing.
    bool socket = false;
    sim::duration_ns half_rtt_ns = 0;

    [[nodiscard]] static queue_wire loopback(const sim::cost_model& cm);
    [[nodiscard]] static queue_wire tcp(const sim::cost_model& cm);

    /// Model one hop of `bytes`: the sender's cost now, the instant the
    /// payload surfaces at the peer returned.
    [[nodiscard]] sim::time_ns hop(std::uint64_t bytes) const;
};

class queue_backend final : public backend {
public:
    queue_backend(sim::simulation& sim, const ham::handler_registry& target_reg,
                  const sim::cost_model& costs, const runtime_options& opt,
                  node_t node, const queue_wire& wire);
    ~queue_backend() override;

    [[nodiscard]] std::uint32_t slot_count() const override {
        return core_.slots();
    }
    [[nodiscard]] io_status send_message(std::uint32_t slot, const void* msg,
                                         std::size_t len, protocol::msg_kind kind,
                                         bool retransmit) override;
    bool test_result(std::uint32_t slot, std::vector<std::byte>& out) override;
    /// Loopback answers: its result slots are plain memory. A socket poll is
    /// a syscall whose answer depends on the delivery time, so tcp cannot.
    [[nodiscard]] probe_answer result_pending(std::uint32_t slot) const override;
    void note_fruitless_poll() override;
    void poll_pause() override;

    [[nodiscard]] std::uint64_t allocate_bytes(std::uint64_t len) override;
    void free_bytes(std::uint64_t addr) override;
    void put_bytes(const void* src, std::uint64_t dst_addr,
                   std::uint64_t len) override;
    void get_bytes(std::uint64_t src_addr, void* dst, std::uint64_t len) override;

    [[nodiscard]] node_descriptor descriptor() const override;
    void shutdown() override;
    void abandon() override;
    /// The queues survive an abandon untouched, so delivered results stay
    /// harvestable; only the process is reaped.
    void quiesce() override { abandon(); }
    void respawn(std::uint8_t epoch) override;
    /// Results written before a socket peer died may still be on the wire:
    /// the final drain gets one half-RTT plus a read syscall of grace.
    [[nodiscard]] std::int64_t result_grace_ns() const override;
    [[nodiscard]] bool inject_stale_flag(std::uint32_t slot,
                                         std::uint8_t epoch) override;

private:
    struct shared_state;
    class channel;

    /// Spawn the target process for the current incarnation.
    void spawn_target();

    sim::simulation& sim_;
    const sim::cost_model& costs_;
    node_t node_;
    std::uint32_t msg_size_;
    queue_wire wire_;
    std::shared_ptr<shared_state> shared_;
    std::map<std::uint64_t, std::unique_ptr<std::byte[]>> heap_;
    sim::process* target_proc_ = nullptr;
    /// Registry the target loop translates through; kept for respawn().
    const ham::handler_registry* target_reg_;
    slot_protocol::host_half core_;
    backend_metrics met_;
};

} // namespace ham::offload
