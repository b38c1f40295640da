#include "net/link.hpp"

#include "util/check.hpp"

namespace aurora::net {

link_profile link_profile::by_name(const std::string& n) {
    if (n == "ib-hdr" || n == "ib") {
        return ib_hdr();
    }
    if (n == "roce") {
        return roce();
    }
    if (n == "ethernet-tcp" || n == "tcp" || n == "ethernet") {
        return ethernet_tcp();
    }
    AURORA_CHECK_MSG(false, "unknown link profile: " + n);
    return {};
}

inter_node_channel::inter_node_channel(link_profile profile, int remote_node)
    : profile_(std::move(profile)), remote_node_(remote_node) {
    auto& reg = metrics::registry::global();
    const std::string link = "0-" + std::to_string(remote_node_);
    const char* dir_name[2] = {"out", "in"};
    for (int d = 0; d < 2; ++d) {
        const std::string l = metrics::labels(
            {{"link", link}, {"profile", profile_.name}, {"dir", dir_name[d]}});
        wire_[d].sent = &reg.counter_for(
            "aurora_net_link_frames_total", l,
            "Frames posted onto an inter-node link, by direction.");
        wire_[d].bytes = &reg.counter_for(
            "aurora_net_link_bytes_total", l,
            "Payload bytes posted onto an inter-node link, by direction.");
    }
    const std::string l =
        metrics::labels({{"link", link}, {"profile", profile_.name}});
    backpressure_ = &reg.counter_for(
        "aurora_net_link_backpressure_total", l,
        "Sends refused because the link's in-flight window was full.");
    depth_ = &reg.gauge_for(
        "aurora_net_link_queue_depth", l,
        "Deepest per-direction in-flight frame count of an inter-node link.");
}

bool inter_node_channel::try_send(int dir, std::vector<std::byte> frame) {
    AURORA_CHECK(dir == 0 || dir == 1);
    direction& w = wire_[dir];
    if (w.frames.size() >= profile_.window) {
        backpressure_->add(1);
        return false;
    }
    // The wire serialises frames: transmission starts when the previous
    // frame's last byte left, propagation (half RTT) rides on top.
    const sim::time_ns now = sim::now();
    const sim::time_ns start = now > w.busy_until ? now : w.busy_until;
    const sim::duration_ns serialise =
        profile_.per_msg_ns +
        sim::transfer_ns(frame.size(), profile_.bandwidth_gib);
    w.busy_until = start + serialise;
    w.sent->add(1);
    w.bytes->add(frame.size());
    w.frames.push_back({w.busy_until + profile_.half_rtt_ns, std::move(frame)});
    publish_depth();
    return true;
}

bool inter_node_channel::try_recv(int dir, std::vector<std::byte>& out) {
    AURORA_CHECK(dir == 0 || dir == 1);
    if (!deliverable(dir, sim::now())) {
        return false;
    }
    direction& w = wire_[dir];
    out = std::move(w.frames.front().bytes);
    w.frames.pop_front();
    publish_depth();
    return true;
}

void inter_node_channel::publish_depth() noexcept {
    depth_->set(static_cast<std::int64_t>(queue_depth()));
}

} // namespace aurora::net
