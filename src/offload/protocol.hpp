// Wire-level protocol encoding shared by the communication backends.
//
// Both protocols (paper Figs. 5 and 8) pair fixed-size message buffers with
// 64-bit notification flags. The flag word piggybacks everything the peer
// needs — "the information which buffer to receive from next, and where to
// send the result is piggybacked through the flags and offload messages"
// (Sec. III-D):
//
//   bits  0..7   control: 0 = empty, 1 = user message, 2 = terminate
//   bits  8..15  generation (wrap-around counter distinguishing a fresh
//                message from the stale flag left by the slot's previous use)
//   bits 16..31  result slot index + 1 (0 when not applicable; result flags
//                echo the request's slot)
//   bits 32..39  target epoch (aurora::heal): which incarnation of the target
//                this message belongs to. 0 is the initial incarnation, so the
//                fault-free encoding is unchanged; after a recovery both sides
//                stamp the new epoch and silently drop anything carrying an
//                older one — stale retransmits and replies cannot cross an
//                incarnation boundary.
//   bits 40..63  payload length in bytes (caps messages at 16 MiB - 1)
//
// Encoding the length in the flag lets the DMA backend fetch the exact
// message with a single LHM of the flag followed by one user-DMA transfer.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace ham::offload::protocol {

enum class msg_kind : std::uint8_t {
    empty = 0,
    user = 1,
    terminate = 2,
    /// Extension (beyond the paper): bulk-data control messages routing
    /// put()/get() through the VE user-DMA engine via staging buffers,
    /// handled transparently inside the vedma channel.
    data_put = 3,
    data_get = 4,
    /// Extension (aurora::sched): several coalesced active messages in one
    /// slot payload, answered by a single result message. Amortises the
    /// per-message protocol cost (Fig. 9) over small tasks.
    batch = 5,
    /// Extension (aurora::fault): host-side fence for a target declared
    /// failed. Queue backends deliver it in-band; the target channel unwinds
    /// its loop without answering.
    poison = 6,
};

/// Payload of a data_put/data_get control message.
///
/// Two shapes share this struct. The staged shape (host_base == 0) moves one
/// chunk through the backend's staging window at `staging_off`. The zero-copy
/// shape (aurora::mem, host_base != 0) names the host user buffer and the VE
/// arena region directly: the VE registers both (through its registration
/// cache) and drives a chained user-DMA burst between them, no staging copy
/// on either side. `len` is then the whole 8-aligned transfer, not a chunk.
struct data_msg {
    std::uint64_t target_addr = 0; ///< VE virtual address of the user buffer
    std::uint64_t staging_off = 0; ///< offset into the host staging segment
    std::uint64_t len = 0;         ///< transfer length in bytes
    std::uint64_t host_base = 0;   ///< VH address of the host buffer (0 = staged)
    std::uint64_t host_len = 0;    ///< registrable window at host_base (>= len)
    std::uint64_t region_base = 0; ///< arena region containing target_addr
    std::uint64_t region_len = 0;  ///< arena region length
};

/// Largest payload length the 24-bit flag field can carry.
inline constexpr std::uint32_t max_flag_len = (1u << 24) - 1;

struct flag_word {
    msg_kind kind = msg_kind::empty;
    std::uint8_t gen = 0;
    std::uint16_t result_slot_plus1 = 0;
    std::uint8_t epoch = 0;
    std::uint32_t len = 0;

    [[nodiscard]] bool present() const noexcept { return kind != msg_kind::empty; }
};

[[nodiscard]] constexpr std::uint64_t encode_flag(flag_word f) {
    return std::uint64_t(static_cast<std::uint8_t>(f.kind)) |
           (std::uint64_t(f.gen) << 8) | (std::uint64_t(f.result_slot_plus1) << 16) |
           (std::uint64_t(f.epoch) << 32) | (std::uint64_t(f.len) << 40);
}

[[nodiscard]] constexpr flag_word decode_flag(std::uint64_t raw) {
    flag_word f;
    f.kind = static_cast<msg_kind>(raw & 0xFF);
    f.gen = static_cast<std::uint8_t>((raw >> 8) & 0xFF);
    f.result_slot_plus1 = static_cast<std::uint16_t>((raw >> 16) & 0xFFFF);
    f.epoch = static_cast<std::uint8_t>((raw >> 32) & 0xFF);
    f.len = static_cast<std::uint32_t>(raw >> 40);
    return f;
}

/// Successive generation value for a slot (0 is reserved for "never used").
[[nodiscard]] constexpr std::uint8_t next_gen(std::uint8_t g) {
    return g == 255 ? std::uint8_t{1} : std::uint8_t(g + 1);
}

/// Successive target epoch. 0 is reserved for the initial incarnation, so a
/// wrapped-around counter can never be mistaken for a never-recovered target.
[[nodiscard]] constexpr std::uint8_t next_epoch(std::uint8_t e) {
    return e == 255 ? std::uint8_t{1} : std::uint8_t(e + 1);
}

/// Result message header preceding the result payload in a send buffer.
struct result_header {
    std::uint64_t status = 0; ///< one of the status:: codes below
};

/// result_header.status codes.
namespace status {
inline constexpr std::uint64_t ok = 0;
/// The offloaded code raised an exception; the what() text follows the header.
inline constexpr std::uint64_t target_exception = 1;
/// Checksum mismatch: the target refused the message without executing it and
/// asks for a retransmission. Consumed inside the runtime, never seen by a
/// future.
inline constexpr std::uint64_t corrupt_retry = 2;
/// Synthesised by the host when the target was declared failed; the failure
/// reason follows the header. futures rethrow it as target_failed_error.
inline constexpr std::uint64_t target_failed = 3;
/// Synthesised by the host (aurora::admit) when a request's deadline passed
/// before dispatch: the work was cancelled, never executed. futures rethrow
/// it as deadline_exceeded_error.
inline constexpr std::uint64_t deadline_exceeded = 4;
} // namespace status

// --- message checksums (aurora::fault) ---------------------------------------
//
// While fault injection is active, user/batch payloads carry an FNV-1a 64
// trailer so in-transit corruption is caught on the target before execution
// (answered with a status::corrupt_retry NACK). The trailer exists only in
// fault mode — the fault-free wire format stays byte-identical to the paper
// protocols.

inline constexpr std::size_t checksum_bytes = 8;

[[nodiscard]] constexpr std::uint64_t fnv1a(const std::byte* data,
                                            std::size_t len) {
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= static_cast<std::uint64_t>(data[i]);
        h *= 0x100000001B3ULL;
    }
    return h;
}

// --- batch message encoding (msg_kind::batch) --------------------------------
//
// Wire format inside one slot payload:
//   [ batch_header ][ entry ]*count
//   entry = [u32 len][u32 pad][len payload bytes, padded to 8]
// Every entry is a complete serialised active message; the target executes
// them in order through its regular translation tables and answers the whole
// batch with one result message. Sub-message result payloads are discarded —
// only void-returning messages belong in a batch.

struct batch_header {
    std::uint32_t count = 0;
    std::uint32_t reserved = 0;
};

/// Wire bytes one entry of payload length `len` occupies.
[[nodiscard]] constexpr std::uint64_t batch_entry_bytes(std::uint64_t len) {
    return 8 + ((len + 7) & ~std::uint64_t{7});
}

/// Incrementally packs serialised messages into one batch payload.
class batch_builder {
public:
    explicit batch_builder(std::uint64_t capacity) : capacity_(capacity) {
        buf_.resize(sizeof(batch_header));
    }

    /// Would a message of `len` bytes still fit within the slot capacity?
    [[nodiscard]] bool fits(std::uint64_t len) const {
        return buf_.size() + batch_entry_bytes(len) <= capacity_;
    }

    void append(const void* msg, std::uint32_t len) {
        const std::size_t at = buf_.size();
        buf_.resize(at + batch_entry_bytes(len), std::byte{0});
        std::memcpy(buf_.data() + at, &len, sizeof(len));
        std::memcpy(buf_.data() + at + 8, msg, len);
        ++count_;
    }

    [[nodiscard]] std::uint32_t count() const noexcept { return count_; }
    [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

    /// Rewind for the next batch, keeping the payload buffer's heap storage
    /// (the scheduler reuses one builder across dispatches instead of paying
    /// an allocation per group).
    void reset() {
        count_ = 0;
        buf_.resize(sizeof(batch_header));
    }

    /// Finalise the header and expose the wire bytes.
    [[nodiscard]] const std::byte* finish() {
        batch_header h;
        h.count = count_;
        std::memcpy(buf_.data(), &h, sizeof(h));
        return buf_.data();
    }

private:
    std::uint64_t capacity_;
    std::uint32_t count_ = 0;
    std::vector<std::byte> buf_;
};

/// Walks the entries of a received batch payload.
class batch_reader {
public:
    batch_reader(const std::byte* data, std::size_t len) : p_(data), end_(data + len) {
        batch_header h;
        if (len >= sizeof(h)) {
            std::memcpy(&h, data, sizeof(h));
            left_ = h.count;
            p_ += sizeof(h);
        }
    }

    [[nodiscard]] std::uint32_t remaining() const noexcept { return left_; }

    /// Advance to the next sub-message; false when exhausted or malformed.
    bool next(const std::byte*& msg, std::uint32_t& len) {
        if (left_ == 0 || p_ + 8 > end_) {
            return false;
        }
        std::memcpy(&len, p_, sizeof(len));
        if (p_ + batch_entry_bytes(len) > end_) {
            return false;
        }
        msg = p_ + 8;
        p_ += batch_entry_bytes(len);
        --left_;
        return true;
    }

private:
    const std::byte* p_;
    const std::byte* end_;
    std::uint32_t left_ = 0;
};

// --- cluster routing header (aurora::net) ------------------------------------
//
// The distributed tier routes active messages VH -> VH -> VE across a modeled
// interconnect. A frame crossing an inter-node link carries a fixed 32-byte
// routing header in front of the ordinary serialised payload:
//
//   [ routing_header : 32 B ][ payload : len bytes ]
//
// The header extends the single-machine address space with a node_id: the
// destination is (dst_node, target) where dst_node names a VH in the cluster
// and target the VE within that VH's own target set (0 = the VH itself, for
// control frames). It travels *alongside* the epoch-stamped wire flags — the
// inner payload is re-framed by the destination VH's own slot protocol with
// its own generations and epochs, so recovery semantics compose unchanged.
//
// Crucially, node 0 (the origin VH — the entire legacy address space) never
// sees a routing header: local sends bypass the cluster tier entirely and a
// frame routed "to node 0" encodes as the bare payload. Single-node runs stay
// byte-identical on the wire (asserted by tests/offload/protocol_test.cpp).

inline constexpr std::uint16_t routing_magic = 0xA77A;
inline constexpr std::uint8_t routing_version = 1;
inline constexpr std::size_t routing_header_bytes = 32;

/// routing_header.flags bits.
namespace routing_flags {
inline constexpr std::uint8_t result = 0x1; ///< result frame (VH <- VH)
}

/// routing_header.obs_flags bits (byte 13; see docs/PROTOCOLS.md).
namespace obs_flags {
inline constexpr std::uint8_t trace_context = 0x1; ///< trace ctx bytes valid
}

struct routing_header {
    std::uint16_t src_node = 0;  ///< originating VH
    std::uint16_t dst_node = 0;  ///< destination VH (0 = origin / legacy)
    std::uint16_t target = 0;    ///< VE within the destination VH (0 = the VH)
    msg_kind kind = msg_kind::user; ///< inner payload kind, forwarded as-is
    std::uint8_t epoch = 0;      ///< origin-visible remote incarnation tag
    std::uint8_t hops = 0;       ///< forwarding hop count
    std::uint8_t flags = 0;      ///< routing_flags bits
    std::uint32_t len = 0;       ///< payload bytes following the header
    std::uint64_t ticket = 0;    ///< origin's remote-completion ticket
    // --- trace context (aurora::obs), bytes 13..15 / 20..23 ----------------
    // All-zero when request tracing is off: the frame stays byte-identical
    // to the pre-obs wire. The full 64-bit trace id is
    // obs::widen_trace_id(trace_lo, src_node) — only the low half travels.
    std::uint8_t obs_flags = 0;     ///< obs_flags bits (byte 13)
    std::uint16_t parent_span = 0;  ///< parent span id (bytes 14..15)
    std::uint32_t trace_lo = 0;     ///< trace id low half (bytes 20..23)

    [[nodiscard]] bool is_result() const noexcept {
        return (flags & routing_flags::result) != 0;
    }
    [[nodiscard]] bool has_trace_context() const noexcept {
        return (obs_flags & protocol::obs_flags::trace_context) != 0;
    }
};

/// Serialise `h` into exactly routing_header_bytes at `out`.
inline void encode_routing(const routing_header& h, std::byte* out) {
    std::memset(out, 0, routing_header_bytes);
    auto put16 = [&](std::size_t at, std::uint16_t v) {
        std::memcpy(out + at, &v, sizeof(v));
    };
    put16(0, routing_magic);
    out[2] = std::byte{routing_version};
    out[3] = std::byte{h.flags};
    put16(4, h.src_node);
    put16(6, h.dst_node);
    put16(8, h.target);
    out[10] = static_cast<std::byte>(h.kind);
    out[11] = std::byte{h.epoch};
    out[12] = std::byte{h.hops};
    // Trace context (aurora::obs): zero whenever request tracing is off, so
    // an untraced frame is byte-identical to the legacy reserved-zero wire.
    out[13] = std::byte{h.obs_flags};
    put16(14, h.parent_span);
    std::memcpy(out + 16, &h.len, sizeof(h.len));
    std::memcpy(out + 20, &h.trace_lo, sizeof(h.trace_lo));
    std::memcpy(out + 24, &h.ticket, sizeof(h.ticket));
}

/// Does `data` start with a well-formed routing header?
[[nodiscard]] inline bool is_routed(const std::byte* data, std::size_t len) {
    if (len < routing_header_bytes) {
        return false;
    }
    std::uint16_t magic = 0;
    std::memcpy(&magic, data, sizeof(magic));
    return magic == routing_magic &&
           data[2] == std::byte{routing_version};
}

/// Deserialise a routing header from `data` (caller checked is_routed()).
[[nodiscard]] inline routing_header decode_routing(const std::byte* data) {
    routing_header h;
    auto get16 = [&](std::size_t at) {
        std::uint16_t v = 0;
        std::memcpy(&v, data + at, sizeof(v));
        return v;
    };
    h.flags = static_cast<std::uint8_t>(data[3]);
    h.src_node = get16(4);
    h.dst_node = get16(6);
    h.target = get16(8);
    h.kind = static_cast<msg_kind>(data[10]);
    h.epoch = static_cast<std::uint8_t>(data[11]);
    h.hops = static_cast<std::uint8_t>(data[12]);
    h.obs_flags = static_cast<std::uint8_t>(data[13]);
    h.parent_span = get16(14);
    std::memcpy(&h.len, data + 16, sizeof(h.len));
    std::memcpy(&h.trace_lo, data + 20, sizeof(h.trace_lo));
    std::memcpy(&h.ticket, data + 24, sizeof(h.ticket));
    return h;
}

/// Frame `payload` for transport to `h.dst_node`. Frames addressed to node 0
/// — the origin VH, i.e. every legacy single-machine address — keep the
/// byte-identical legacy encoding: the bare payload, no header.
[[nodiscard]] inline std::vector<std::byte>
make_routed_frame(routing_header h, const std::byte* payload, std::size_t len) {
    if (h.dst_node == 0 && !h.is_result()) {
        return {payload, payload + len};
    }
    h.len = static_cast<std::uint32_t>(len);
    std::array<std::byte, routing_header_bytes> hdr{};
    encode_routing(h, hdr.data());
    std::vector<std::byte> frame;
    frame.reserve(routing_header_bytes + len);
    frame.insert(frame.end(), hdr.begin(), hdr.end());
    if (len > 0) {
        frame.insert(frame.end(), payload, payload + len);
    }
    return frame;
}

/// Geometry of one direction's communication region:
/// [ flags: slots * 8 B ][ buffers: slots * msg_size ].
struct region_layout {
    std::uint32_t slots = 0;
    std::uint32_t msg_size = 0;

    [[nodiscard]] constexpr std::uint64_t flags_bytes() const {
        return std::uint64_t(slots) * 8;
    }
    [[nodiscard]] constexpr std::uint64_t buffers_bytes() const {
        return std::uint64_t(slots) * msg_size;
    }
    [[nodiscard]] constexpr std::uint64_t total_bytes() const {
        return flags_bytes() + buffers_bytes();
    }
    [[nodiscard]] constexpr std::uint64_t flag_offset(std::uint32_t slot) const {
        return std::uint64_t(slot) * 8;
    }
    [[nodiscard]] constexpr std::uint64_t buffer_offset(std::uint32_t slot) const {
        return flags_bytes() + std::uint64_t(slot) * msg_size;
    }
};

/// Full communication area: a receive region (host -> target messages) then a
/// send region (target -> host results).
struct comm_layout {
    region_layout recv; ///< offload messages, written by the host
    region_layout send; ///< result messages, written by the target

    [[nodiscard]] constexpr std::uint64_t recv_base() const { return 0; }
    [[nodiscard]] constexpr std::uint64_t send_base() const {
        return recv.total_bytes();
    }
    [[nodiscard]] constexpr std::uint64_t total_bytes() const {
        return recv.total_bytes() + send.total_bytes();
    }
};

/// The communication area for `slots` slots of `msg_size` bytes per
/// direction; a result slot carries [result_header][payload].
[[nodiscard]] constexpr comm_layout make_comm_layout(std::uint32_t slots,
                                                     std::uint32_t msg_size) {
    comm_layout lay;
    lay.recv = {slots, msg_size};
    lay.send = {slots,
                msg_size + static_cast<std::uint32_t>(sizeof(result_header))};
    return lay;
}

} // namespace ham::offload::protocol
