#include "obs/flight.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include "util/env.hpp"

namespace aurora::obs {

namespace {

[[nodiscard]] constexpr std::uint64_t pack_meta(stage s, std::uint16_t slot,
                                                std::uint8_t epoch,
                                                std::uint32_t info) noexcept {
    return std::uint64_t{std::uint8_t(s)} | (std::uint64_t{slot} << 8) |
           (std::uint64_t{epoch} << 24) | (std::uint64_t{info} << 32);
}

} // namespace

void flight_ring::note(stage s, std::uint64_t ticket, std::uint16_t slot,
                       std::uint8_t epoch, std::uint32_t info) noexcept {
    const std::uint64_t h = head_.fetch_add(1, std::memory_order_relaxed);
    entry& e = slots_[h % slots_.size()];
    // Seqlock write: invalidate, fill, publish. A reader sandwiching its
    // payload loads between two acquire loads of `seq` can never use a torn
    // record — any concurrent writer changes seq.
    e.seq.store(0, std::memory_order_release);
    e.ts.store(trace::clock_ns(), std::memory_order_relaxed);
    e.ticket.store(ticket, std::memory_order_relaxed);
    e.meta.store(pack_meta(s, slot, epoch, info), std::memory_order_relaxed);
    e.seq.store(h + 1, std::memory_order_release);
}

std::vector<flight_ring::record> flight_ring::snapshot() const {
    std::vector<record> out;
    out.reserve(slots_.size());
    for (const entry& e : slots_) {
        const std::uint64_t seq1 = e.seq.load(std::memory_order_acquire);
        if (seq1 == 0) {
            continue; // unwritten or mid-write
        }
        record r;
        r.ts_ns = e.ts.load(std::memory_order_relaxed);
        r.ticket = e.ticket.load(std::memory_order_relaxed);
        const std::uint64_t meta = e.meta.load(std::memory_order_relaxed);
        const std::uint64_t seq2 = e.seq.load(std::memory_order_acquire);
        if (seq1 != seq2) {
            continue; // torn by a concurrent wrap-around
        }
        r.seq = seq1;
        r.st = static_cast<stage>(meta & 0xff);
        r.slot = static_cast<std::uint16_t>((meta >> 8) & 0xffff);
        r.epoch = static_cast<std::uint8_t>((meta >> 24) & 0xff);
        r.info = static_cast<std::uint32_t>(meta >> 32);
        out.push_back(r);
    }
    std::sort(out.begin(), out.end(),
              [](const record& a, const record& b) { return a.seq < b.seq; });
    return out;
}

// --- registry ---------------------------------------------------------------

namespace {

struct registry_state {
    std::mutex mu;
    std::map<std::uint16_t, std::unique_ptr<flight_ring>> rings;
};

/// Lock-free fast path: one pointer slot per possible node id. Constant
/// initialized, so the 512 KiB stay in .bss and only the pages of node ids
/// actually used become resident.
constinit std::array<std::atomic<flight_ring*>, 65536> g_cache{};

registry_state& state() {
    static registry_state* s = new registry_state(); // never destroyed
    return *s;
}

std::uint32_t ring_capacity() {
    static const std::uint32_t cap = [] {
        const std::int64_t v =
            env_int_or("HAM_AURORA_OBS_FLIGHT_CAP", 256);
        return v <= 0 ? 1u : static_cast<std::uint32_t>(v);
    }();
    return cap;
}

} // namespace

flight_ring& flight_registry::ring_for(std::uint16_t node) {
    if (flight_ring* r = g_cache[node].load(std::memory_order_acquire)) {
        return *r;
    }
    registry_state& s = state();
    const std::lock_guard<std::mutex> lock(s.mu);
    auto& slot = s.rings[node];
    if (!slot) {
        slot = std::make_unique<flight_ring>(ring_capacity());
        g_cache[node].store(slot.get(), std::memory_order_release);
    }
    return *slot;
}

flight_ring* flight_registry::find(std::uint16_t node) {
    return g_cache[node].load(std::memory_order_acquire);
}

std::vector<std::uint16_t> flight_registry::nodes() {
    registry_state& s = state();
    const std::lock_guard<std::mutex> lock(s.mu);
    std::vector<std::uint16_t> out;
    out.reserve(s.rings.size());
    for (const auto& [node, ring] : s.rings) {
        out.push_back(node);
    }
    return out;
}

void flight_registry::reset() {
    registry_state& s = state();
    const std::lock_guard<std::mutex> lock(s.mu);
    for (const auto& [node, ring] : s.rings) {
        g_cache[node].store(nullptr, std::memory_order_release);
    }
    s.rings.clear();
}

// --- postmortem -------------------------------------------------------------

namespace {

std::string escaped(const std::string& in) {
    std::string out;
    out.reserve(in.size());
    for (const char c : in) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            case '\r': out += "\\r"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

void append_record(std::ostringstream& os, const flight_ring::record& r) {
    os << "{\"seq\":" << r.seq << ",\"ts_ns\":" << r.ts_ns << ",\"stage\":\""
       << to_string(r.st) << "\",\"ticket\":" << r.ticket
       << ",\"slot\":" << r.slot << ",\"epoch\":" << unsigned(r.epoch)
       << ",\"info\":" << r.info << "}";
}

} // namespace

std::string postmortem_json(std::uint16_t node, const char* kind,
                            std::uint8_t epoch, const std::string& reason) {
    std::ostringstream os;
    os << "{\"node\":" << node << ",\"kind\":\"" << escaped(kind)
       << "\",\"epoch\":" << unsigned(epoch) << ",\"reason\":\""
       << escaped(reason) << "\"";
    flight_ring* ring = flight_registry::find(node);
    if (ring == nullptr) {
        os << ",\"recorded\":0,\"dropped\":0,\"events\":[],\"requests\":[]}\n";
        return os.str();
    }
    const std::vector<flight_ring::record> events = ring->snapshot();
    os << ",\"recorded\":" << ring->pushed()
       << ",\"dropped\":" << ring->dropped()
       << ",\"capacity\":" << ring->capacity() << ",\"events\":[";
    for (std::size_t i = 0; i < events.size(); ++i) {
        if (i != 0) {
            os << ",";
        }
        append_record(os, events[i]);
    }
    os << "],\"requests\":[";
    // Partial per-request timelines: the retained events of each ticket, in
    // order. Requests whose early events were overwritten come out partial —
    // that is the black box telling the truth about its bounded memory.
    std::map<std::uint64_t, std::vector<const flight_ring::record*>> by_ticket;
    for (const flight_ring::record& r : events) {
        if (r.ticket != 0) {
            by_ticket[r.ticket].push_back(&r);
        }
    }
    bool first = true;
    for (const auto& [ticket, recs] : by_ticket) {
        if (!first) {
            os << ",";
        }
        first = false;
        bool settled = false;
        for (const flight_ring::record* r : recs) {
            settled = settled || r->st == stage::collect ||
                      r->st == stage::failed;
        }
        os << "{\"ticket\":" << ticket << ",\"settled\":"
           << (settled ? "true" : "false") << ",\"events\":[";
        for (std::size_t i = 0; i < recs.size(); ++i) {
            if (i != 0) {
                os << ",";
            }
            append_record(os, *recs[i]);
        }
        os << "]}";
    }
    os << "]}\n";
    return os.str();
}

std::string dump_postmortem_to_env(std::uint16_t node, const char* kind,
                                   std::uint8_t epoch,
                                   const std::string& reason) {
    const auto dir = env_string("HAM_AURORA_OBS_POSTMORTEM_DIR");
    if (!dir) {
        return {};
    }
    static std::atomic<std::uint32_t> g_next{0};
    const std::uint32_t n = g_next.fetch_add(1, std::memory_order_relaxed);
    std::ostringstream path;
    path << *dir << "/postmortem_node" << node << "_" << n << ".json";
    std::FILE* f = std::fopen(path.str().c_str(), "w");
    if (f == nullptr) {
        return {}; // a missing directory must never take down the runtime
    }
    const std::string json = postmortem_json(node, kind, epoch, reason);
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    return path.str();
}

} // namespace aurora::obs
