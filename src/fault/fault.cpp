#include "fault/fault.hpp"

#include <algorithm>

#include "metrics/metrics.hpp"
#include "util/env.hpp"

namespace aurora::fault {

namespace {

/// Mirror one injected fault into the always-on metrics registry. Fault
/// injections are rare events, so the mutexed find-or-create is fine here.
void mirror_fault(const char* kind) {
    namespace m = aurora::metrics;
    m::registry::global()
        .counter_for("aurora_fault_injected_total",
                     m::labels({{"kind", kind}}),
                     "faults injected by aurora::fault, by kind")
        .add(1);
}

/// splitmix64 — tiny, fast, and plenty for fault scheduling.
std::uint64_t splitmix64(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

std::uint32_t env_pm(const char* name) {
    const std::int64_t v = aurora::env_int_or(name, 0);
    return v < 0 ? 0U : v > 1000 ? 1000U : static_cast<std::uint32_t>(v);
}

} // namespace

config config::from_env() {
    config c;
    c.enabled = aurora::env_flag("HAM_AURORA_FAULT");
    c.seed = static_cast<std::uint64_t>(env_int_or("HAM_AURORA_FAULT_SEED", 1));
    c.drop_permille = env_pm("HAM_AURORA_FAULT_DROP_PM");
    c.corrupt_permille = env_pm("HAM_AURORA_FAULT_CORRUPT_PM");
    c.flag_loss_permille = env_pm("HAM_AURORA_FAULT_FLAG_LOSS_PM");
    c.dma_fail_permille = env_pm("HAM_AURORA_FAULT_DMA_FAIL_PM");
    c.delay_permille = env_pm("HAM_AURORA_FAULT_DELAY_PM");
    c.delay_ns = env_int_or("HAM_AURORA_FAULT_DELAY_NS", 50'000);
    return c;
}

injector& injector::instance() {
    static injector inj;
    return inj;
}

injector::injector() { configure(config::from_env()); }

void injector::configure(const config& cfg) {
    cfg_ = cfg;
    rng_ = cfg.seed;
    jitter_rng_ = cfg.seed ^ 0xA5A5A5A5DEADBEEFULL;
    stats_ = counters{};
    nodes_.clear();
    armed_.store(false, std::memory_order_relaxed);
    active_.store(cfg.enabled, std::memory_order_relaxed);
    aurora::metrics::registry::global()
        .gauge_for("aurora_fault_active", "",
                   "1 while probabilistic fault injection is enabled")
        .set(cfg.enabled ? 1 : 0);
}

void injector::kill_at_time(int node, sim::time_ns when) {
    nodes_[node].kill_times.push_back(when);
    armed_.store(true, std::memory_order_relaxed);
}

void injector::kill_after_messages(int node, std::uint64_t n) {
    nodes_[node].kill_counts.push_back(n);
    armed_.store(true, std::memory_order_relaxed);
}

void injector::kill_now(int node) {
    nodes_[node].fenced = true; // due immediately at the next check
    armed_.store(true, std::memory_order_relaxed);
}

void injector::fail_next_attach(int node) {
    ++nodes_[node].fail_attach;
    armed_.store(true, std::memory_order_relaxed);
}

bool injector::killed(int node) const {
    const auto it = nodes_.find(node);
    return it != nodes_.end() && it->second.killed;
}

bool injector::would_kill(int node, sim::time_ns now) const {
    if (!armed()) {
        return false;
    }
    const auto it = nodes_.find(node);
    if (it == nodes_.end()) {
        return false;
    }
    const node_plan& p = it->second;
    return p.killed || p.fenced ||
           std::any_of(p.kill_times.begin(), p.kill_times.end(),
                       [now](sim::time_ns t) { return now >= t; }) ||
           std::any_of(p.kill_counts.begin(), p.kill_counts.end(),
                       [&p](std::uint64_t n) { return p.msgs_seen >= n; });
}

void injector::revive(int node) {
    const auto it = nodes_.find(node);
    if (it == nodes_.end() || (!it->second.killed && !it->second.fenced)) {
        return;
    }
    it->second.killed = false;
    it->second.fenced = false;
    ++stats_.revivals;
    mirror_fault("revive");
}

bool injector::take_attach_failure(int node) {
    if (!armed()) {
        return false;
    }
    const auto it = nodes_.find(node);
    if (it == nodes_.end() || it->second.fail_attach == 0) {
        return false;
    }
    --it->second.fail_attach;
    ++stats_.attach_failures;
    mirror_fault("attach_fail");
    return true;
}

void injector::count_message(int node) {
    if (!armed()) {
        return;
    }
    const auto it = nodes_.find(node);
    if (it != nodes_.end()) {
        ++it->second.msgs_seen;
    }
}

void injector::check_target_alive(int node) {
    if (!armed()) {
        return;
    }
    const auto it = nodes_.find(node);
    if (it == nodes_.end()) {
        return;
    }
    node_plan& p = it->second;
    if (p.killed) {
        throw target_killed{};
    }
    // One due trigger is consumed per death so a kill chain spans
    // incarnations; the kill_now fence latches until revive().
    bool due = p.fenced;
    if (!due) {
        for (auto t = p.kill_times.begin(); t != p.kill_times.end(); ++t) {
            if (sim::now() >= *t) {
                p.kill_times.erase(t);
                due = true;
                break;
            }
        }
    }
    if (!due) {
        for (auto n = p.kill_counts.begin(); n != p.kill_counts.end(); ++n) {
            if (p.msgs_seen >= *n) {
                p.kill_counts.erase(n);
                due = true;
                break;
            }
        }
    }
    if (due) {
        p.killed = true;
        ++stats_.kills;
        mirror_fault("kill");
        throw target_killed{};
    }
}

std::uint64_t injector::draw() { return splitmix64(rng_); }

bool injector::roll(std::uint32_t permille, std::uint64_t& counter) {
    if (!active() || permille == 0) {
        return false;
    }
    if (draw() % 1000 < permille) {
        ++counter;
        return true;
    }
    return false;
}

bool injector::should_drop() {
    if (!roll(cfg_.drop_permille, stats_.drops)) {
        return false;
    }
    mirror_fault("drop");
    return true;
}

bool injector::should_corrupt() {
    if (!roll(cfg_.corrupt_permille, stats_.corruptions)) {
        return false;
    }
    mirror_fault("corrupt");
    return true;
}

bool injector::should_lose_flag() {
    if (!roll(cfg_.flag_loss_permille, stats_.flag_losses)) {
        return false;
    }
    mirror_fault("flag_loss");
    return true;
}

bool injector::should_fail_dma_post() {
    if (!roll(cfg_.dma_fail_permille, stats_.dma_post_failures)) {
        return false;
    }
    mirror_fault("dma_post_fail");
    return true;
}

std::int64_t injector::delay_spike() {
    if (!roll(cfg_.delay_permille, stats_.delay_spikes)) {
        return 0;
    }
    mirror_fault("delay");
    return cfg_.delay_ns;
}

void injector::note_idle_timeout() {
    ++stats_.idle_timeouts;
    mirror_fault("idle_timeout");
}

void injector::corrupt_byte(std::byte* data, std::size_t len) {
    if (len == 0) {
        return;
    }
    const std::uint64_t r = draw();
    data[r % len] ^= static_cast<std::byte>(1u << ((r >> 32) % 8));
}

std::int64_t injector::jitter_backoff(std::int64_t base_ns, std::int64_t prev_ns,
                                      std::int64_t cap_ns) {
    base_ns = std::max<std::int64_t>(base_ns, 1);
    cap_ns = std::max(cap_ns, base_ns);
    const std::int64_t grown = std::max(base_ns, prev_ns) > cap_ns / 3
                                   ? cap_ns
                                   : std::max(base_ns, prev_ns) * 3;
    const std::int64_t hi = std::min(cap_ns, grown);
    if (hi <= base_ns) {
        return base_ns;
    }
    const auto span = static_cast<std::uint64_t>(hi - base_ns) + 1;
    return base_ns +
           static_cast<std::int64_t>(splitmix64(jitter_rng_) % span);
}

} // namespace aurora::fault
