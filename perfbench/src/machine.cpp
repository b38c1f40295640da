#include "machine.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "ledger.hpp"

namespace perfbench {

namespace {

constexpr int kHandoffRounds = 200;
constexpr std::size_t kCopyBytes = 4u << 20;
/// Wall time between two probes of a repetition.
constexpr std::int64_t kPeriodNs = 50'000'000;

/// The probe's parts on the reference machine: one pinned vCPU of a 4-vCPU
/// KVM guest on an Intel Xeon (Sapphire Rapids), idle host. Any fixed value
/// would do; these keep corrected host metrics close to raw ones there.
constexpr machine_speed kReference = {1.2e6, 0.72e6};

/// Two threads pass a turn back and forth, each waiting on its own
/// condition variable, as the simulator hands the CPU between processes.
double time_handoffs() {
    std::mutex mu;
    std::condition_variable cv[2];
    int turn = 0;
    bool stop = false;
    std::thread other([&] {
        std::unique_lock<std::mutex> lk(mu);
        for (;;) {
            cv[1].wait(lk, [&] { return turn == 1 || stop; });
            if (stop) {
                return;
            }
            turn = 0;
            cv[0].notify_one();
        }
    });
    std::unique_lock<std::mutex> lk(mu);
    // One untimed round, so the other thread is parked before timing.
    turn = 1;
    cv[1].notify_one();
    cv[0].wait(lk, [&] { return turn == 0; });
    const std::int64_t t0 = host_now_ns();
    for (int i = 0; i < kHandoffRounds; ++i) {
        turn = 1;
        cv[1].notify_one();
        cv[0].wait(lk, [&] { return turn == 0; });
    }
    const std::int64_t t1 = host_now_ns();
    stop = true;
    cv[1].notify_one();
    lk.unlock();
    other.join();
    return double(t1 - t0);
}

double time_copy() {
    static std::vector<unsigned char> src(kCopyBytes, 1), dst(kCopyBytes, 0);
    const std::int64_t t0 = host_now_ns();
    std::memcpy(dst.data(), src.data(), kCopyBytes);
    const std::int64_t t1 = host_now_ns();
    src[t1 % kCopyBytes] = dst[t0 % kCopyBytes];
    return double(t1 - t0);
}

struct meter_state {
    std::atomic<std::int64_t> paused_ns{0};
    std::int64_t next_due_ns = 0;
    std::vector<machine_speed> samples;
};
meter_state g_meter;

} // namespace

machine_speed probe_machine() {
    machine_speed m;
    m.handoff_ns = time_handoffs();
    m.copy_ns = time_copy();
    return m;
}

void meter_start() {
    g_meter.samples.clear();
    g_meter.next_due_ns = 0;
    meter_tick();
    g_meter.next_due_ns = 0;
}

void meter_tick() {
    const std::int64_t t0 = host_now_ns();
    if (t0 < g_meter.next_due_ns) {
        return;
    }
    g_meter.samples.push_back(probe_machine());
    const std::int64_t t1 = host_now_ns();
    g_meter.paused_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
    g_meter.next_due_ns = t1 + kPeriodNs;
}

std::size_t meter_samples() {
    return g_meter.samples.size();
}

machine_speed meter_mean(std::size_t first, std::size_t end) {
    end = std::min(end, g_meter.samples.size());
    if (first >= end) {
        return kReference;
    }
    machine_speed m;
    for (std::size_t i = first; i < end; ++i) {
        m.handoff_ns += std::log(g_meter.samples[i].handoff_ns);
        m.copy_ns += std::log(g_meter.samples[i].copy_ns);
    }
    const double n = double(end - first);
    m.handoff_ns = std::exp(m.handoff_ns / n);
    m.copy_ns = std::exp(m.copy_ns / n);
    return m;
}

double meter_slowdown(const probe_mix& mix, std::size_t first, std::size_t end) {
    const machine_speed m = meter_mean(first, end);
    return std::exp(mix.handoff * std::log(m.handoff_ns / kReference.handoff_ns) +
                    mix.copy * std::log(m.copy_ns / kReference.copy_ns));
}

std::int64_t bench_now_ns() {
    return host_now_ns() - g_meter.paused_ns.load(std::memory_order_relaxed);
}

} // namespace perfbench
