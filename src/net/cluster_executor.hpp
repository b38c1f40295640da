// aurora::net two-level cluster scheduler.
//
// Extends the aurora::sched executor model to the cluster: every (VH, VE)
// pair is an engine with its own ready queue and bounded in-flight window.
// Placement is two-level — pick the node, then the target within it — and
// work stealing honours sched::steal_scope: an idle engine first takes
// surplus work from its own node's deepest queue, and only crosses an
// inter-node link when no local queue has surplus and some remote queue's
// backlog exceeds the configured threshold (remote steals pay the link's
// latency, so shallow backlogs are not worth stealing).
//
// Engine health feeds in from the same fault/heal machinery as the local
// executor: a recovering engine is not dispatched to, an engine on probation
// ramps its window with runtime::probation_progress(), and a terminally
// failed engine is evacuated — its queued tasks move to the nearest healthy
// engine (same node first), and in-flight work that settles with
// target_failed_error is rerouted (at-least-once for unexecuted replays;
// the heal layer's exactly-once guarantee covers everything it replays).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "ham/functor.hpp"
#include "ham/msg.hpp"
#include "net/cluster.hpp"
#include "sched/policy.hpp"

namespace aurora::net {

struct cluster_executor_config {
    sched::placement_policy policy = sched::placement_policy::work_stealing;
    sched::steal_scope scope = sched::steal_scope::local_then_remote;
    /// Per-engine bound on in-flight offloads. Not clamped: an origin send
    /// the runtime refuses (no free msg slot) is retried the next round, and
    /// frames beyond a remote VE's slots park at its gateway.
    std::uint32_t window = 4;
    /// Minimum victim backlog before a steal crosses an inter-node link.
    std::uint32_t remote_steal_threshold = 4;
};

/// Tenant-facing per-task knobs (aurora::admit plumbs these through when a
/// session's work spills onto the cluster tier).
struct cluster_task_options {
    /// Fair-share weight: a weight-w task enqueues ahead of lower-weight
    /// work on its engine (stable among equals, so the default weight of 1
    /// reproduces plain FIFO byte-identically).
    std::uint32_t weight = 1;
    /// Absolute virtual-time deadline (0 = none). An expired task is
    /// cancelled at its dispatch point — counted in statistics::expired and
    /// settled in completion_order, never silently dropped, never sent.
    std::int64_t deadline_ns = 0;
};

class cluster_executor {
public:
    using task_id = std::uint64_t;

    cluster_executor(cluster& c, cluster_executor_config cfg);

    /// Serialise `f` with the origin image's translation tables and queue it.
    /// affinity (-1, -1) = any engine; (vh, -1) = any VE of that node;
    /// pinned tasks never migrate (no steal, no evacuation, no reroute).
    template <typename Functor>
    task_id submit(Functor f, int affinity_vh = -1, int affinity_ve = -1,
                   bool pinned = false, cluster_task_options topts = {}) {
        alignas(16) std::byte buf[ham::default_max_msg_size];
        const std::size_t len =
            ham::write_message(origin_registry(), buf,
                               std::min<std::size_t>(sizeof(buf), max_msg_), f);
        return submit_bytes({buf, buf + len}, affinity_vh, affinity_ve, pinned,
                            topts);
    }
    task_id submit_bytes(std::vector<std::byte> msg, int affinity_vh,
                         int affinity_ve, bool pinned,
                         cluster_task_options topts = {});

    /// Drive dispatch/harvest/steal rounds until every submitted task
    /// settled. Tasks whose engine failed terminally are rerouted (unpinned)
    /// or counted failed (pinned).
    void wait_all();

    struct statistics {
        std::uint64_t completed = 0;
        std::uint64_t failed = 0;        ///< pinned tasks lost with their engine
        std::uint64_t steals_local = 0;
        std::uint64_t steals_remote = 0;
        std::uint64_t reroutes = 0;      ///< tasks moved off a failed engine
        std::uint64_t expired = 0;       ///< deadline-cancelled before dispatch
        std::vector<std::uint64_t> per_engine; ///< completions by engine index
    };
    [[nodiscard]] const statistics& stats() const noexcept { return stats_; }

    /// Task ids in settlement order — the determinism fingerprint.
    [[nodiscard]] const std::vector<task_id>& completion_order() const noexcept {
        return order_;
    }

    [[nodiscard]] std::size_t num_engines() const noexcept {
        return engines_.size();
    }
    /// Engine index for (vh, ve) — node-major, matching dispatch order.
    [[nodiscard]] std::size_t engine_index(int vh, int ve) const;

private:
    struct queued_task {
        task_id id = 0;
        std::vector<std::byte> msg;
        bool pinned = false;
        std::uint32_t weight = 1;
        std::int64_t deadline_ns = 0; ///< absolute; 0 = none
    };
    struct flight {
        queued_task task;
        ham::offload::future<void> fut;
        std::uint64_t ticket = 0; ///< the future's, for runtime::idle_probe
        std::uint32_t slot = 0;
    };
    struct engine {
        int vh = 0;
        int ve = 0;
        std::deque<queued_task> ready;
        std::deque<flight> inflight;
    };

    static ham::offload::runtime& origin_registry_runtime();
    const ham::handler_registry& origin_registry();
    /// Weight-ordered insert: ahead of strictly lighter work, FIFO among
    /// equals (ready queues stay sorted by non-increasing weight).
    static void enqueue(engine& e, queued_task task);
    /// Deadline set and already in the past?
    [[nodiscard]] static bool past_deadline(const queued_task& task);
    /// Settle a queued task as expired (counted, ordered, never dispatched).
    void expire(queued_task& task);
    [[nodiscard]] std::uint32_t effective_window(engine& e);
    bool dispatch_one(engine& e);
    /// Probe the oldest in-flight entries of `e`; true on any settlement.
    /// `paid`: the caller already charged the front flight's check.
    bool harvest(engine& e, std::size_t idx, bool paid);
    /// Move a failed engine's queue to healthy engines (same node first).
    void evacuate(engine& e);
    bool steal_for(std::size_t thief);
    void settle(engine& e, std::size_t idx, flight& f);
    /// Wait out fruitless rounds in one sim::poll_cycle. False when the
    /// next round cannot be proven fruitless but by running it; otherwise
    /// sets the engine the next round starts at and whether its front
    /// check is already paid.
    bool park(ham::offload::runtime& rt, std::size_t& first, bool& paid);

    cluster& c_;
    cluster_executor_config cfg_;
    std::vector<engine> engines_;
    std::size_t next_any_ = 0; ///< round-robin cursor for unpinned placement
    std::size_t pending_ = 0;  ///< submitted, not yet settled
    task_id next_id_ = 1;
    std::size_t max_msg_ = 0;
    statistics stats_;
    std::vector<task_id> order_;
    metrics::counter* steals_local_ = nullptr;
    metrics::counter* steals_remote_ = nullptr;
    metrics::counter* reroutes_ = nullptr;
    metrics::counter* expired_ = nullptr;
    /// park() scratch, kept so a wait allocates nothing: the origin engines
    /// whose front checks are the cycle's steps after the poll pause, the
    /// step costs, and the remote nodes a round would drain results from.
    std::vector<std::size_t> park_;
    std::vector<sim::duration_ns> park_costs_;
    std::vector<int> park_nodes_;
};

} // namespace aurora::net
