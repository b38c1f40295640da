// Cooperative discrete-event simulation engine.
//
// The engine runs simulated processes (e.g. the Vector Host application
// process and each Vector Engine process) as OS threads, but schedules them
// cooperatively: exactly one process executes at any instant, and the
// scheduler always resumes the runnable process with the smallest virtual
// wake-up time (ties broken by ready order, so runs are deterministic).
//
// Consequences relied upon throughout the codebase:
//   * Shared state touched by multiple simulated processes needs no locking —
//     execution is sequentially consistent by construction.
//   * Virtual time only advances through sim::advance()/sleep/blocking waits,
//     i.e. through explicitly modeled costs. Plain C++ between those calls is
//     "free", which is exactly what we want: functional behaviour is real,
//     timing comes from the calibrated cost model.
//
// Handoff protocol. Every process thread waits on its own condition variable
// until `running_proc_` names it. A process that gives up the CPU (advance,
// a blocking wait, the end of its body) and run() itself hand off in three
// steps:
//   1. decide under mu_: schedule_next_locked() picks the next process and
//      sets `running_proc_` to it, but does not notify it;
//   2. wake after unlock: the caller releases mu_ and only then calls
//      notify_one() on the chosen process's condition variable, so the woken
//      thread does not run straight into a held mutex and block a second
//      time (one context switch per handoff instead of two);
//   3. the wakee re-checks its grant: it re-reads `running_proc_ == &me`
//      under mu_ before it runs, so a notify that arrives before it waits, or
//      a spurious wake-up, loses nothing.
// A grant back to the leaving process needs no wake-up. abort_locked() still
// wakes every process under the lock; each then sees `aborted_`.
// Two faster designs were measured and rejected; do not switch to them
// without first bounding perfbench's per-repetition memory retention:
//   * per-process raw futex words: 1.87-1.93x the `offload_pingpong`
//     `host_rps` of the old notify-under-lock engine (this design: ~1.8x),
//     but the extra repetitions perfbench retains (~35 KiB each) pushed
//     `peak_rss_mib` up 15.3% and 15.4% in two 20 s pairs, past its 15%
//     bound;
//   * std::atomic<bool>::wait (libstdc++ 12): its waiter pool is shared
//     across hashed addresses, and `cluster_skew` fell from 14.2k to 5.7k
//     `host_rps`.
//
// Inline idle probes (sim::poll_cycle). A polling loop that mostly finds
// nothing costs one OS-thread handoff per probe. poll_cycle() lets the
// scheduler run such a probe itself: the poller parks with a cycle of step
// costs and a `ready` predicate, and whenever it is the next process to run,
// schedule_next_locked() evaluates `ready` inline on whichever thread is
// already running the scheduler. A fruitless step re-enqueues the poller at
// `wake + costs[next]` through make_ready_locked() — exactly the call the
// poller's own advance() would make — so ready order, same-instant
// tie-breaks, the global clock and the virtual deadline are identical to the
// plain loop by construction. Contract of `ready(step, now)`:
//   * `now` is the poller's virtual time at the probe; the predicate must not
//     read the clock any other way;
//   * it must be *pure with respect to the simulator*: any sim::self(),
//     now(), advance(), sleep_until(), join(), spawn() or event/condition/
//     queue call fails an AURORA_CHECK and aborts the simulation with that
//     error (it would otherwise self-deadlock on the scheduler mutex);
//   * it may update plain user state (counters, metrics) — the side effects
//     of the fruitless probe it stands in for;
//   * returning true, or throwing anything else, hands control back to the
//     poller, which then runs that step for real on its own thread;
//   * it runs under the scheduler mutex, on another OS thread than the
//     poller's: state it reads was written by simulated processes and is
//     ordered by that mutex.
// Consumers:
//   * net::cluster::gateway_loop — the flight checks of every iteration, and
//     the whole cycle of an iteration that made no progress;
//   * sched::executor's harvest sweep — the front-flight checks of
//     consecutive targets in every drain (so every admit::server poll);
//   * net::cluster_executor::wait_all — every round after one that made no
//     progress: the poll pause, then each origin engine's front check;
//   * the VE side of the veo and vedma protocols (offload/app_image.cpp) —
//     each receive flag probe, a one-step cycle; it fires only when the
//     probe has work or a kill comes due (fault::injector::would_kill).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "sim/time.hpp"

namespace aurora::sim {

class simulation;
class event;
class condition;

/// Predicate of poll_cycle(): true when step `step`, probed at virtual time
/// `now`, needs the poller to run (see the contract at the top of this file).
using poll_ready_fn = std::function<bool(std::size_t step, time_ns now)>;

/// One simulated process. Created through simulation::spawn(); runs its body
/// on a dedicated OS thread under the cooperative scheduler.
class process {
public:
    using body_fn = std::function<void()>;

    process(const process&) = delete;
    process& operator=(const process&) = delete;
    ~process();

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

    /// The process-local clock. Safe to read from within the simulation (only
    /// one process runs at a time) or after simulation::run() returned.
    [[nodiscard]] time_ns now() const noexcept { return now_; }

    [[nodiscard]] bool finished() const noexcept { return st_ == state::finished; }

private:
    friend class simulation;
    friend class event;
    friend class condition;
    friend void advance(duration_ns);
    friend void join(process&);
    friend std::size_t poll_cycle(std::span<const duration_ns>, std::size_t,
                                  const poll_ready_fn&);

    enum class state { ready, running, blocked, finished };

    /// A poll_cycle() in progress: the scheduler advances `step` in place.
    struct poll_state {
        std::span<const duration_ns> costs;
        const poll_ready_fn* ready = nullptr;
        std::size_t step = 0;
    };

    process(simulation& sim, std::uint32_t id, std::string name, body_fn body);
    void thread_main();

    simulation& sim_;
    std::uint32_t id_;
    std::string name_;
    body_fn body_;
    state st_ = state::ready;
    time_ns now_ = 0;          // process-local clock
    time_ns wake_ = 0;         // scheduled resume time while ready
    std::uint64_t ready_seq_ = 0;
    std::condition_variable cv_;
    std::vector<process*> join_waiters_;
    poll_state* poll_ = nullptr; ///< non-null while parked in poll_cycle()
    std::thread thread_;
};

/// Thrown inside process bodies when the simulation aborts (another process
/// failed, or a deadlock was detected). Process code should not catch it.
class simulation_aborted : public std::exception {
public:
    [[nodiscard]] const char* what() const noexcept override {
        return "simulation aborted";
    }
};

/// Error diagnosed by the scheduler (deadlock, misuse).
class simulation_error : public std::runtime_error {
public:
    explicit simulation_error(const std::string& what) : std::runtime_error(what) {}
};

/// The simulation itself: owns processes, the virtual clock, and the
/// cooperative scheduler.
class simulation {
public:
    struct statistics {
        std::uint64_t context_switches = 0; ///< scheduler handoffs between processes
        std::uint64_t processes_spawned = 0;
        std::uint64_t events_notified = 0;
        /// poll_cycle() predicates the scheduler evaluated inline; every
        /// fruitless one is a handoff the plain polling loop would have made.
        std::uint64_t inline_probes = 0;
    };

    simulation();
    simulation(const simulation&) = delete;
    simulation& operator=(const simulation&) = delete;
    ~simulation();

    /// Create a new process. May be called before run() or from inside a
    /// running process (the child starts at the caller's current time).
    process& spawn(std::string name, process::body_fn body);

    /// Run until every process finished. Rethrows the first process error.
    /// Throws simulation_error on deadlock (all processes blocked).
    void run();

    /// Global virtual clock: the largest time granted to any process so far.
    [[nodiscard]] time_ns now() const noexcept { return clock_; }

    /// Abort with simulation_error if virtual time would pass `deadline` —
    /// a guard against runaway polling loops in protocol code. 0 disables
    /// (default).
    void set_virtual_deadline(time_ns deadline) noexcept { deadline_ = deadline; }

    [[nodiscard]] const statistics& stats() const noexcept { return stats_; }

    [[nodiscard]] bool running() const noexcept { return started_ && !done_; }

private:
    friend class process;
    friend class event;
    friend class condition;
    friend process& self();
    friend void advance(duration_ns);
    friend void join(process&);
    friend std::size_t poll_cycle(std::span<const duration_ns>, std::size_t,
                                  const poll_ready_fn&);

    /// Wake `next` (may be null). Call with mu_ released, so the woken
    /// thread does not run straight into a held mutex.
    static void wake(process* next);

    // All private methods below require lk to hold mu_.
    void make_ready_locked(process& p, time_ns wake);
    /// Grant the CPU to the next process (running_proc_) without waking it.
    /// Returns the process the caller must wake() once it has released mu_,
    /// or nullptr when there is none: the grant went back to `leaving`, the
    /// run is over, or it aborted (abort_locked() already woke everyone).
    [[nodiscard]] process* schedule_next_locked(process* leaving);
    /// Evaluate the parked poller `p`'s predicate at its wake time. False
    /// when the step was fruitless and `p` was re-enqueued for the next one.
    [[nodiscard]] bool probe_locked(process& p);
    void abort_locked(std::exception_ptr error);
    void wait_for_grant_locked(std::unique_lock<std::mutex>& lk, process& me);
    /// schedule_next_locked(&me), wake the chosen process with mu_ released,
    /// then wait until `me` is granted the CPU again.
    void hand_off_locked(std::unique_lock<std::mutex>& lk, process& me);
    void block_current_locked(std::unique_lock<std::mutex>& lk, process& me);
    void reschedule_current_locked(std::unique_lock<std::mutex>& lk, process& me,
                                   duration_ns d);
    [[nodiscard]] std::string deadlock_report_locked() const;

    std::mutex mu_;
    std::condition_variable done_cv_;
    std::vector<std::unique_ptr<process>> processes_;
    process* running_proc_ = nullptr;
    time_ns clock_ = 0;
    std::uint64_t ready_seq_counter_ = 0;
    time_ns deadline_ = 0;
    statistics stats_;
    bool started_ = false;
    bool done_ = false;
    bool aborted_ = false;
    std::exception_ptr error_;
};

// --- Context functions (valid only on a simulated process's thread) --------

/// True when called from within a simulated process body.
[[nodiscard]] bool in_simulation() noexcept;

/// The currently running process. Checks in_simulation().
[[nodiscard]] process& self();

/// The current process's virtual clock.
[[nodiscard]] time_ns now();

/// Consume `d` nanoseconds of virtual time (d >= 0). Other runnable processes
/// with earlier wake-up times execute in the meantime.
void advance(duration_ns d);

/// Let other processes scheduled at the same instant run.
inline void yield() { advance(0); }

/// Advance to absolute time `t` (no-op if `t` is in the past).
void sleep_until(time_ns t);

/// Block until `p` finishes. The caller resumes at max(its time, finish time).
void join(process& p);

/// Cyclic idle poll. Means exactly
///   for (i = first;; i = (i + 1) % costs.size()) {
///       advance(costs[i]);
///       if (ready(i, now())) return i;
///   }
/// except that `ready` runs inline in the scheduler, so a fruitless step
/// costs no thread handoff. A throwing `ready` counts as true. `costs` must
/// be non-empty with non-negative entries and outlive the call.
std::size_t poll_cycle(std::span<const duration_ns> costs, std::size_t first,
                       const poll_ready_fn& ready);

} // namespace aurora::sim
