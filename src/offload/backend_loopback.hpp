// Loopback backend: an in-process offload target.
//
// Spawns a simulated process running the standard target message loop with a
// queue-based channel and heap-backed "target memory". Exists for unit
// testing the runtime/API independently of the SX-Aurora stack and as the
// reference implementation of the backend interface (analogous to the
// paper's generic TCP/IP backend in spirit: interoperability over speed).
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "ham/handler_registry.hpp"
#include "offload/backend.hpp"
#include "offload/options.hpp"
#include "offload/protocol.hpp"
#include "offload/target_loop.hpp"
#include "sim/engine.hpp"
#include "sim/event.hpp"

namespace ham::offload {

class backend_loopback final : public backend {
public:
    backend_loopback(sim::simulation& sim, const ham::handler_registry& target_reg,
                     const sim::cost_model& costs, const runtime_options& opt,
                     node_t node);
    ~backend_loopback() override;

    [[nodiscard]] std::uint32_t slot_count() const override { return slots_; }
    [[nodiscard]] io_status send_message(std::uint32_t slot, const void* msg,
                                         std::size_t len, protocol::msg_kind kind,
                                         bool retransmit) override;
    bool test_result(std::uint32_t slot, std::vector<std::byte>& out) override;
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
    void quiesce() override;
    void respawn(std::uint8_t epoch) override;
    [[nodiscard]] bool inject_stale_flag(std::uint32_t slot,
                                         std::uint8_t epoch) override;

private:
    struct shared_state;
    class channel;
    class heap_memory;

    /// Spawn the target process for the current epoch_ incarnation.
    void spawn_target(const ham::handler_registry& target_reg);

    sim::simulation& sim_;
    const sim::cost_model& costs_;
    node_t node_;
    std::uint32_t slots_;
    std::uint32_t msg_size_;
    std::shared_ptr<shared_state> shared_;
    std::map<std::uint64_t, std::unique_ptr<std::byte[]>> heap_;
    sim::process* target_proc_ = nullptr;
    /// Per-slot send generation; retransmits reuse the current value so the
    /// target channel can discard duplicates.
    std::vector<std::uint8_t> send_gen_;
    /// Current incarnation (aurora::heal); stamped into every flag so the
    /// target channel can reject leftovers of a previous incarnation.
    std::uint8_t epoch_ = 0;
    /// Registry the target loop translates through; kept for respawn().
    const ham::handler_registry* target_reg_;
    backend_metrics met_;
};

} // namespace ham::offload
