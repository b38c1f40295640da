// The slot discipline of the message protocols, in one place.
//
// Both paper protocols (Fig. 5 VEO, Fig. 8 VE-DMA) and the two queue
// transports share it: round-robin message slots, a per-slot generation that
// tells a fresh message from the stale flag of the slot's previous use, and
// a flag word that piggybacks the result slot and the target incarnation
// epoch (protocol.hpp). This module makes every decision of that discipline
// — which flag word a send or a result writes, and whether a flag word that
// was read is a new message, a duplicate or a leftover of another
// incarnation — and leaves all I/O to the backend that owns the transport.
// It takes the words the transport read and returns the words it must
// write: no callbacks, no virtual calls, no allocation per message.
//
// host_half lives in a host backend, target_half in the target channel it
// talks to. Both count a stale-epoch rejection (heal::note_epoch_reject); the
// transport only clears the stale word where one persists.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "offload/protocol.hpp"
#include "offload/types.hpp"

namespace ham::offload::slot_protocol {

/// What a flag word read from the wire means to the side that read it.
enum class verdict : std::uint8_t {
    none,  ///< nothing new: empty, or not the generation expected next
    stale, ///< the expected generation, but another incarnation's: dropped
    ready, ///< a message (or result) of this incarnation: taken
};

/// Host side of one target's slots.
class host_half {
public:
    host_half(const char* backend_name, node_t node, std::uint32_t slots);

    [[nodiscard]] std::uint32_t slots() const noexcept {
        return static_cast<std::uint32_t>(send_gen_.size());
    }
    [[nodiscard]] std::uint8_t epoch() const noexcept { return epoch_; }

    // --- send: the fault prologue and the flag to write ----------------------

    /// Start a send of `len` bytes into `slot`: the flight-ring `sent` note,
    /// then, while fault injection is on, a delay spike (advanced here) and
    /// the transient-post draw. False: the post failed before any state
    /// changed, the caller answers io_status::transient.
    [[nodiscard]] bool open_send(std::uint32_t slot, std::size_t len) const;
    /// Draw whether the whole message is lost, payload and flag.
    [[nodiscard]] static bool drop();
    /// Draw whether the flag write is lost.
    [[nodiscard]] static bool lose_flag();
    /// The flag word a send into `slot` writes. A first transmission steps
    /// the slot's generation and counts toward target_cursor(); a
    /// retransmit keeps the generation, which the receiver still expects.
    [[nodiscard]] std::uint64_t stamp(std::uint32_t slot,
                                      protocol::msg_kind kind, std::size_t len,
                                      bool retransmit);

    // --- results, for transports that read a result flag ---------------------

    /// Judge the result flag `raw` read from `slot`. ready: records its
    /// generation and fills `flag`; stale: counted as an epoch reject, the
    /// caller clears the flag so the slot polls clean.
    [[nodiscard]] verdict collect(std::uint32_t slot, std::uint64_t raw,
                                  protocol::flag_word& flag);

    // --- lifecycle -----------------------------------------------------------

    /// A new incarnation: every slot starts over under `epoch`.
    void respawn(std::uint8_t epoch);
    /// The in-band fence a queue transport pushes to unwind its target.
    [[nodiscard]] std::uint64_t poison() const;

    // --- inject_stale_flag test seam -----------------------------------------

    /// The flag a delayed retransmit from incarnation `epoch` would carry
    /// into `slot`: the generation the target expects next, so only its epoch
    /// check can reject it.
    [[nodiscard]] std::uint64_t stale(std::uint32_t slot,
                                      std::uint8_t epoch) const;
    /// The slot a round-robin polling target looks at next: first
    /// transmissions past the post since the last respawn, modulo the slot
    /// count (host and target advance in lockstep once every result is
    /// harvested).
    [[nodiscard]] std::uint32_t target_cursor() const noexcept {
        return static_cast<std::uint32_t>(sends_ % send_gen_.size());
    }

private:
    const char* name_;
    node_t node_;
    std::uint8_t epoch_ = 0;
    std::uint64_t sends_ = 0;
    std::vector<std::uint8_t> send_gen_;   ///< per slot, last sent
    std::vector<std::uint8_t> result_gen_; ///< per slot, last result taken
};

/// Target side of one incarnation's slots.
class target_half {
public:
    target_half(const char* backend_name, node_t node, std::uint32_t slots,
                std::uint8_t epoch);

    // --- queue transports: messages arrive in send order, any slot -----------

    /// First gate on a received word: false for a leftover of another
    /// incarnation, counted and to be dropped unread (even a stale poison
    /// must not unwind this incarnation). Fills `flag` either way.
    [[nodiscard]] bool admit(std::uint64_t raw, protocol::flag_word& flag) const;
    /// Second gate: false for a duplicate of a retransmitted message already
    /// taken; otherwise records its generation.
    [[nodiscard]] bool fresh(const protocol::flag_word& flag);

    // --- slot-addressed transports: one slot polled at a time ----------------

    /// The slot polled next.
    [[nodiscard]] std::uint32_t cursor() const noexcept { return next_; }
    /// Would take() act on `raw` read at the cursor? Pure, so a
    /// sim::poll_cycle predicate may ask it from the scheduler.
    [[nodiscard]] bool due(std::uint64_t raw) const;
    /// Judge `raw` read at the cursor. ready: the message is taken, its
    /// generation recorded and the cursor advanced; stale: counted, the
    /// caller clears the flag and keeps polling.
    [[nodiscard]] verdict take(std::uint64_t raw, protocol::flag_word& flag);

    // --- results -------------------------------------------------------------

    /// The flag word publishing a result of `len` bytes in `slot`.
    [[nodiscard]] std::uint64_t result(std::uint32_t slot, std::size_t len);

private:
    const char* name_;
    node_t node_;
    std::uint8_t epoch_;
    std::uint32_t next_ = 0;
    std::vector<std::uint8_t> recv_gen_;   ///< per slot, last message taken
    std::vector<std::uint8_t> result_gen_; ///< per slot, last result sent
};

} // namespace ham::offload::slot_protocol
