#include "offload/slot_protocol.hpp"

#include <algorithm>

#include "fault/fault.hpp"
#include "obs/flight.hpp"
#include "offload/heal.hpp"
#include "sim/engine.hpp"

namespace ham::offload::slot_protocol {

namespace {

[[nodiscard]] std::uint64_t word(protocol::msg_kind kind, std::uint8_t gen,
                                 std::uint32_t slot, std::uint8_t epoch,
                                 std::size_t len) {
    protocol::flag_word f;
    f.kind = kind;
    f.gen = gen;
    f.result_slot_plus1 = static_cast<std::uint16_t>(slot + 1);
    f.epoch = epoch;
    f.len = static_cast<std::uint32_t>(len);
    return protocol::encode_flag(f);
}

} // namespace

// --- host half ---------------------------------------------------------------

host_half::host_half(const char* backend_name, node_t node, std::uint32_t slots)
    : name_(backend_name), node_(node), send_gen_(slots, 0),
      result_gen_(slots, 0) {}

bool host_half::open_send(std::uint32_t slot, std::size_t len) const {
    aurora::obs::flight_registry::ring_for(static_cast<std::uint16_t>(node_))
        .note(aurora::obs::stage::sent, 0, static_cast<std::uint16_t>(slot),
              epoch_, static_cast<std::uint32_t>(len));
    auto& inj = aurora::fault::injector::instance();
    if (inj.active()) {
        if (const auto spike = inj.delay_spike()) {
            sim::advance(spike);
        }
        if (inj.should_fail_dma_post()) {
            return false;
        }
    }
    return true;
}

bool host_half::drop() {
    auto& inj = aurora::fault::injector::instance();
    return inj.active() && inj.should_drop();
}

bool host_half::lose_flag() {
    auto& inj = aurora::fault::injector::instance();
    return inj.active() && inj.should_lose_flag();
}

std::uint64_t host_half::stamp(std::uint32_t slot, protocol::msg_kind kind,
                               std::size_t len, bool retransmit) {
    if (!retransmit) {
        send_gen_[slot] = protocol::next_gen(send_gen_[slot]);
        ++sends_;
    }
    return word(kind, send_gen_[slot], slot, epoch_, len);
}

verdict host_half::collect(std::uint32_t slot, std::uint64_t raw,
                           protocol::flag_word& flag) {
    flag = protocol::decode_flag(raw);
    if (!flag.present() || flag.gen != protocol::next_gen(result_gen_[slot])) {
        return verdict::none;
    }
    if (flag.epoch != epoch_) {
        heal::note_epoch_reject(name_, node_);
        return verdict::stale;
    }
    result_gen_[slot] = flag.gen;
    return verdict::ready;
}

void host_half::respawn(std::uint8_t epoch) {
    epoch_ = epoch;
    sends_ = 0;
    std::fill(send_gen_.begin(), send_gen_.end(), std::uint8_t{0});
    std::fill(result_gen_.begin(), result_gen_.end(), std::uint8_t{0});
}

std::uint64_t host_half::poison() const {
    return word(protocol::msg_kind::poison, 0, 0, epoch_, 0);
}

std::uint64_t host_half::stale(std::uint32_t slot, std::uint8_t epoch) const {
    return word(protocol::msg_kind::user, protocol::next_gen(send_gen_[slot]),
                slot, epoch, 0);
}

// --- target half -------------------------------------------------------------

target_half::target_half(const char* backend_name, node_t node,
                         std::uint32_t slots, std::uint8_t epoch)
    : name_(backend_name), node_(node), epoch_(epoch), recv_gen_(slots, 0),
      result_gen_(slots, 0) {}

bool target_half::admit(std::uint64_t raw, protocol::flag_word& flag) const {
    flag = protocol::decode_flag(raw);
    if (flag.epoch != epoch_) {
        heal::note_epoch_reject(name_, node_);
        return false;
    }
    return true;
}

bool target_half::fresh(const protocol::flag_word& flag) {
    const std::uint32_t slot = flag.result_slot_plus1 - 1u;
    if (slot >= recv_gen_.size()) {
        return true;
    }
    if (flag.gen != 0 && flag.gen == recv_gen_[slot]) {
        return false;
    }
    recv_gen_[slot] = flag.gen;
    return true;
}

bool target_half::due(std::uint64_t raw) const {
    const protocol::flag_word flag = protocol::decode_flag(raw);
    return flag.present() && flag.gen == protocol::next_gen(recv_gen_[next_]);
}

verdict target_half::take(std::uint64_t raw, protocol::flag_word& flag) {
    if (!due(raw)) {
        return verdict::none;
    }
    flag = protocol::decode_flag(raw);
    if (flag.epoch != epoch_) {
        heal::note_epoch_reject(name_, node_);
        return verdict::stale;
    }
    recv_gen_[next_] = flag.gen;
    next_ = (next_ + 1) % static_cast<std::uint32_t>(recv_gen_.size());
    return verdict::ready;
}

std::uint64_t target_half::result(std::uint32_t slot, std::size_t len) {
    result_gen_[slot] = protocol::next_gen(result_gen_[slot]);
    return word(protocol::msg_kind::user, result_gen_[slot], slot, epoch_, len);
}

} // namespace ham::offload::slot_protocol
