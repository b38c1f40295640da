// aurora::net inter-node interconnect model.
//
// One inter_node_channel connects the origin VH (endpoint 0) to one remote
// VH (endpoint 1) with a calibrated full-duplex link. Like the offload
// backends it is sim-engine-driven: a frame posted at virtual time T becomes
// receivable at T + propagation + serialisation, wire occupancy serialises
// back-to-back frames, and a bounded in-flight window provides backpressure
// (try_send() fails; the sender retries after draining completions). All
// state is plain shared memory — the cooperative simulator runs exactly one
// process at a time, so no locking is needed and runs are deterministic.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "metrics/metrics.hpp"
#include "sim/cost_model.hpp"
#include "sim/engine.hpp"

namespace aurora::net {

/// Calibration of one link technology. half_rtt/per-message costs follow the
/// same decomposition as the cost model's TCP backend constants: a
/// propagation half round trip, a per-frame software cost (driver, framing,
/// completion), and a streaming rate for the payload bytes.
struct link_profile {
    std::string name = "ethernet-tcp";
    sim::duration_ns half_rtt_ns = 25'000;
    sim::duration_ns per_msg_ns = 8'000;
    double bandwidth_gib = 2.5;
    /// Frames in flight per direction before try_send() backpressures.
    std::uint32_t window = 8;

    /// InfiniBand HDR-class fabric: RDMA write latency ~1.3 us, kernel
    /// bypass keeps the per-message software cost small.
    [[nodiscard]] static link_profile ib_hdr() {
        return {"ib-hdr", 1'300, 600, 23.0, 32};
    }
    /// RoCE v2 on 100 GbE: RDMA semantics over a routed Ethernet fabric.
    [[nodiscard]] static link_profile roce() {
        return {"roce", 4'000, 1'500, 11.0, 16};
    }
    /// Plain TCP/IP sockets — calibrated to the cost model's generic TCP
    /// backend (tcp_half_rtt_ns / tcp_per_msg_ns / tcp_bandwidth_gib), the
    /// interoperability baseline of paper Fig. 1.
    [[nodiscard]] static link_profile ethernet_tcp() {
        const sim::cost_model cm;
        return {"ethernet-tcp", cm.tcp_half_rtt_ns, cm.tcp_per_msg_ns,
                cm.tcp_bandwidth_gib, 8};
    }
    [[nodiscard]] static link_profile by_name(const std::string& n);
};

/// Full-duplex point-to-point link between the origin VH and one remote VH.
/// Direction 0 carries origin -> remote frames, direction 1 remote -> origin.
class inter_node_channel {
public:
    /// `remote_node` labels the metric series (link="0-<remote_node>").
    inter_node_channel(link_profile profile, int remote_node);

    [[nodiscard]] const link_profile& profile() const noexcept {
        return profile_;
    }
    [[nodiscard]] int remote_node() const noexcept { return remote_node_; }

    /// Post one frame into direction `dir`. False (and no time advances)
    /// when `window` frames are already in flight in that direction —
    /// the caller drains its receive side and retries.
    bool try_send(int dir, std::vector<std::byte> frame);

    /// Deliver the oldest frame of direction `dir` whose modeled arrival
    /// time has been reached. False when nothing is deliverable yet.
    bool try_recv(int dir, std::vector<std::byte>& out);

    /// Whether try_recv(dir) would deliver a frame at virtual time `now`
    /// (pure: usable from a sim::poll_cycle predicate).
    [[nodiscard]] bool deliverable(int dir, sim::time_ns now) const noexcept {
        const auto& frames = wire_[dir].frames;
        return !frames.empty() && frames.front().arrives_at <= now;
    }

    /// Frames posted but not yet received in direction `dir`.
    [[nodiscard]] std::size_t in_flight(int dir) const noexcept {
        return wire_[dir].size();
    }
    /// Deepest in-flight count across both directions (operator surface:
    /// aurora_top's per-node link-depth column reads the mirrored gauge).
    [[nodiscard]] std::size_t queue_depth() const noexcept {
        return wire_[0].size() > wire_[1].size() ? wire_[0].size()
                                                 : wire_[1].size();
    }

private:
    struct in_flight_frame {
        sim::time_ns arrives_at = 0;
        std::vector<std::byte> bytes;
    };
    struct direction {
        std::deque<in_flight_frame> frames;
        sim::time_ns busy_until = 0; ///< wire occupied until (serialisation)
        metrics::counter* sent = nullptr;
        metrics::counter* bytes = nullptr;
        [[nodiscard]] std::size_t size() const noexcept {
            return frames.size();
        }
    };

    link_profile profile_;
    int remote_node_;
    direction wire_[2];
    metrics::counter* backpressure_ = nullptr;
    metrics::gauge* depth_ = nullptr;

    void publish_depth() noexcept;
};

} // namespace aurora::net
