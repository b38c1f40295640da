// aurora::sched executor — a multi-VE task scheduler over ham::offload.
//
// Owns one ready queue and one bounded in-flight window per offload target,
// submits ready tasks as asynchronous active messages, and load-balances
// across the machine's engines:
//
//   * dependency edges resolve through the offload future machinery (a
//     flight's future fires its on_ready callback; successors of the landed
//     tasks enter their ready queues),
//   * submission applies backpressure — when more than max_queued tasks are
//     unfinished, submit() blocks in *virtual* time draining completions
//     instead of failing on slot exhaustion,
//   * placement is locality-aware with optional work stealing (policy.hpp),
//   * consecutive ready tasks bound for the same engine coalesce into one
//     batch message (protocol::msg_kind::batch) when they fit the slot
//     payload, amortising the per-message protocol cost of paper Fig. 9.
//
// Determinism contract: every decision derives from virtual time, submission
// order and stable tie-breaking (lowest node id, FIFO queues) — never host
// wall clock. Two runs of the same workload produce bit-identical schedules
// and virtual timestamps (see docs/SCHEDULER.md).
#pragma once

#include <deque>
#include <initializer_list>
#include <string>
#include <vector>

#include "metrics/metrics.hpp"
#include "offload/future.hpp"
#include "sched/policy.hpp"
#include "sched/task.hpp"
#include "sched/task_graph.hpp"

namespace aurora::sched {

class executor {
public:
    /// Per-engine load counters (index i describes node i+1).
    struct target_load {
        std::uint64_t tasks_executed = 0;
        std::uint64_t messages_sent = 0;  ///< offload messages (incl. batches)
        std::uint64_t batches_sent = 0;   ///< messages carrying >= 2 tasks
        std::uint64_t tasks_stolen_in = 0;///< executed here, homed elsewhere
        std::uint64_t busy_cost_ns = 0;   ///< sum of executed tasks' cost_ns
        std::size_t queue_depth = 0;      ///< current ready-queue length
    };

    struct statistics {
        std::uint64_t host_tasks = 0;
        std::uint64_t steals = 0;              ///< steal transactions
        std::uint64_t backpressure_stalls = 0; ///< submits that had to block
        std::uint64_t batched_tasks = 0;       ///< tasks that rode in batches
        std::uint64_t failovers = 0;           ///< target-failure evacuations
        std::uint64_t tasks_failed_over = 0;   ///< tasks re-routed by failover
        std::uint64_t tasks_shed = 0;     ///< submits rejected (shed mode)
        std::uint64_t tasks_expired = 0;  ///< deadline-cancelled before dispatch
        std::uint64_t tasks_failed = 0;   ///< tasks settled as failed
        std::vector<target_load> per_target;
    };

    /// Must be constructed inside offload::run() (uses runtime::current()).
    explicit executor(executor_config cfg = {});
    executor(const executor&) = delete;
    executor& operator=(const executor&) = delete;

    /// Submit one task; returns immediately unless backpressure applies.
    template <typename Functor>
    task_id submit(Functor f, task_options opts = {},
                   std::initializer_list<task_id> deps = {}) {
        return submit_serialized(detail::serialize_task(f), opts, deps.begin(),
                                 deps.size());
    }
    template <typename Functor>
    task_id submit(Functor f, std::initializer_list<task_id> deps) {
        return submit(std::move(f), task_options{}, deps);
    }
    task_id submit_serialized(std::vector<std::byte> msg, const task_options& opts,
                              const task_id* deps, std::size_t dep_count);

    /// Submit every task of `g` (graph ids stay valid executor ids as long as
    /// the executor was empty) and execute to completion.
    void run(const task_graph& g);

    /// Drive the schedule until every submitted task finished. Rethrows the
    /// first target-side failure as offload_error after in-flight work lands;
    /// tasks not yet dispatched at failure time are skipped.
    void wait_all();

    [[nodiscard]] std::size_t size() const noexcept { return tasks_.size(); }
    [[nodiscard]] task_state state_of(task_id id) const;
    [[nodiscard]] bool finished(task_id id) const {
        const task_state s = state_of(id);
        return s == task_state::done || s == task_state::failed ||
               s == task_state::expired;
    }

    /// One cooperative scheduling tick: run host tasks, harvest completed
    /// flights, refill the dispatch windows. True when anything progressed.
    /// The pump for callers (aurora::admit) that interleave submission with
    /// their own control flow instead of parking in wait_all().
    bool poll() { return drain_once(); }
    /// Submitted tasks not yet settled (done, failed or expired).
    [[nodiscard]] std::size_t unfinished() const noexcept {
        return tasks_.size() - finished_count_;
    }
    /// Tasks settled so far; it only grows, so an unchanged value means no
    /// task settled in between.
    [[nodiscard]] std::size_t settled() const noexcept { return finished_count_; }
    [[nodiscard]] const executor_config& config() const noexcept { return cfg_; }

    /// Counters; per_target queue depths are refreshed on each call.
    [[nodiscard]] const statistics& stats();

    /// Completion records in completion order (successful tasks only).
    [[nodiscard]] const std::vector<completion_record>& trace() const noexcept {
        return trace_;
    }

    /// Per-task completion record (valid once finished(id); executed_on tells
    /// which engine settled it — aurora::admit feeds its breakers with this).
    [[nodiscard]] const completion_record& record_of(task_id id) const {
        return tasks_[id].record;
    }

    /// Why a task settled as task_state::failed (empty for any other state) —
    /// the root cause aurora::admit copies into the request's error so
    /// request::get() rethrows it instead of a generic message.
    [[nodiscard]] const std::string& error_of(task_id id) const {
        return tasks_[id].error;
    }

private:
    struct flight {
        ham::offload::future<void> fut;
        std::uint64_t ticket = 0; ///< the future's, for runtime::idle_probe
        std::uint32_t slot = 0;
        std::vector<task_id> tasks;
        /// Set by the future's on_ready callback; shared_ptr so the callback
        /// stays valid however the deque shuffles its elements.
        std::shared_ptr<bool> completed;
    };

    struct target_queues {
        std::deque<task_id> ready;
        std::deque<flight> inflight;
    };

    [[nodiscard]] node_t node_of(std::size_t t) const {
        return static_cast<node_t>(t + 1);
    }

    void release_ready(task_id id);
    void finish_task(task_id id, task_state outcome, node_t executed_on,
                     std::string error = {});
    /// Deadline set and already in the past?
    [[nodiscard]] bool past_deadline(task_id id) const;
    /// Cancel an undispatched task whose deadline passed (counted, cascades).
    void expire_task(task_id id);
    /// Record a failure: poison the run under fail_fast, else just remember
    /// the first error text for diagnostics.
    void note_failure(const std::string& what);
    bool drain_once();
    void run_host_task(task_id id);
    /// Drain step 2: harvest every target, lowest node first.
    bool harvest_all();
    /// Retire target t's completed flights in FIFO order. `paid`: the
    /// caller already charged the front flight's probe.
    bool harvest_target(std::size_t t, bool paid);
    void retire_flight(std::size_t t, flight& f);
    bool dispatch_target(std::size_t t);
    bool steal_into(std::size_t thief);

    // --- graceful degradation + self-healing (aurora::fault, aurora::heal) --
    // When a target transitions to target_health::failed (terminal — recovery
    // disabled or exhausted) its queued tasks and every un-acked in-flight
    // task re-route to healthy targets; pinned tasks fail. Re-routed tasks may
    // execute more than once if the dead target got partway through them.
    //
    // With recovery enabled a dying target instead passes through `recovering`
    // (the runtime respawns it and replays un-acked flights under a new epoch;
    // the scheduler keeps its queue and flights parked, so every task still
    // completes exactly once) and then `probation`, where the in-flight window
    // ramps from 1 back to the configured size as the clean-result streak
    // grows (reintegration).
    [[nodiscard]] bool target_usable(std::size_t t) const;  ///< dispatchable
    [[nodiscard]] bool target_terminal(std::size_t t) const;///< failed for good
    [[nodiscard]] std::uint32_t effective_window(std::size_t t);
    [[nodiscard]] std::size_t next_healthy();
    void evacuate(std::size_t dead);
    bool reroute_flight(std::size_t dead, flight& f);

    executor_config cfg_;
    ham::offload::runtime& rt_;
    std::size_t num_targets_;
    std::uint32_t window_;

    std::vector<detail::task_rec> tasks_;
    std::vector<target_queues> targets_;
    std::deque<task_id> host_ready_;
    std::size_t finished_count_ = 0;
    /// One counter feeds both start_seq and done_seq, so comparing them
    /// across tasks totally orders dispatch and completion events.
    std::uint64_t event_seq_ = 0;
    std::uint32_t rr_next_ = 0; ///< round-robin placement cursor
    std::uint32_t failover_rr_ = 0; ///< round-robin cursor for re-routed tasks

    bool failed_ = false;
    std::string first_error_;

    /// harvest_all() scratch, kept so a drain allocates nothing: the targets
    /// whose front-flight checks wait in one sim::poll_cycle, and its costs.
    std::vector<std::size_t> sweep_;
    std::vector<aurora::sim::duration_ns> sweep_costs_;

    /// Registry-backed telemetry (always on): scheduler counters plus live
    /// per-target queue-depth / in-flight-window gauges, refreshed every
    /// drain tick. Instruments resolve once at construction.
    struct sched_instruments {
        aurora::metrics::counter* steals = nullptr;
        aurora::metrics::counter* failovers = nullptr;
        aurora::metrics::counter* backpressure_stalls = nullptr;
        aurora::metrics::counter* host_tasks = nullptr;
        aurora::metrics::counter* tasks_completed = nullptr;
        aurora::metrics::counter* tasks_failed_over = nullptr;
        aurora::metrics::counter* tasks_shed = nullptr;
        aurora::metrics::counter* tasks_expired = nullptr;
        std::vector<aurora::metrics::gauge*> queue_depth; ///< index = target
        std::vector<aurora::metrics::gauge*> inflight;    ///< index = target
    };
    sched_instruments met_;

    statistics stats_;
    std::vector<completion_record> trace_;
};

} // namespace aurora::sched
