// Machine-speed meter. A shared host slows every vCPU down for fractions of
// a second to minutes at a time (co-tenants on the same cores, caches and
// memory bandwidth), by up to 2x, and the program's host clock with it. The
// meter times a fixed probe every 50 ms of a repetition: thread hand-offs
// through a mutex and condition variables (the simulator's process switch)
// and a copy through buffers larger than L2 (bulk payloads). None of it is
// program code, so a faster program still reads faster, while a slower
// machine reads slower on both and cancels out.
//
// The workloads call meter_tick() at points where only the benchmark's own
// code runs (their client loop, or a kernel): the simulator runs one process
// at a time, so nothing else competes for the pinned CPU during the probe.
// The probe's own wall time is taken out of bench_now_ns(), the clock every
// host metric is read from.
#pragma once

#include <cstddef>
#include <cstdint>

namespace perfbench {

/// Host nanoseconds of the probe's two parts, one sample or a mean.
struct machine_speed {
    double handoff_ns = 0.0; ///< 2 threads on one CPU, mutex + condvar ping-pong
    double copy_ns = 0.0;    ///< memcpy through buffers larger than L2
};

/// Weights of the probe's parts in a workload's slowdown; they sum to 1 and
/// follow the host mechanism the workload spends its time in.
struct probe_mix {
    double handoff = 0.0;
    double copy = 0.0;
};

/// Run the probe once (about 2 ms on an idle machine).
[[nodiscard]] machine_speed probe_machine();

/// Start metering a repetition: forget earlier samples and probe once, just
/// before the workload sets up; the next meter_tick() probes again, so the
/// set-up lies between the first two samples.
void meter_start();

/// Probe if the sampling period has passed since the last probe. Call only
/// where no simulated process other than the caller can run.
void meter_tick();

/// Samples taken since meter_start().
[[nodiscard]] std::size_t meter_samples();

/// Geometric means of the parts over samples [first, end) since
/// meter_start() (clipped to those taken).
[[nodiscard]] machine_speed meter_mean(std::size_t first = 0,
                                       std::size_t end = std::size_t(-1));

/// How much slower than the reference machine samples [first, end) ran,
/// weighted by `mix`: 1 = reference speed, 2 = half speed; 1 when the range
/// holds no sample.
[[nodiscard]] double meter_slowdown(const probe_mix& mix, std::size_t first = 0,
                                    std::size_t end = std::size_t(-1));

/// Host wall clock minus the time spent probing.
[[nodiscard]] std::int64_t bench_now_ns();

} // namespace perfbench
