#include "net/cluster_executor.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"
#include "util/check.hpp"

namespace aurora::net {

using ham::offload::target_failed_error;
using ham::offload::target_health;

cluster_executor::cluster_executor(cluster& c, cluster_executor_config cfg)
    : c_(c), cfg_(cfg) {
    // Node-major engine order: (0,1)..(0,V0), (1,1)..(1,V), ... Deterministic
    // tie-breaking everywhere leans on this fixed enumeration.
    const int origin_ves =
        static_cast<int>(origin_registry_runtime().num_nodes()) - 1;
    for (int ve = 1; ve <= origin_ves; ++ve) {
        engines_.push_back({0, ve, {}, {}});
    }
    for (int vh = 1; vh < c_.nodes(); ++vh) {
        for (int ve = 1; ve <= c_.ves_per_node(); ++ve) {
            engines_.push_back({vh, ve, {}, {}});
        }
    }
    AURORA_CHECK_MSG(!engines_.empty(), "cluster has no engines");
    stats_.per_engine.assign(engines_.size(), 0);
    max_msg_ = origin_registry_runtime().options().msg_size;
    auto& reg = metrics::registry::global();
    steals_local_ = &reg.counter_for(
        "aurora_net_steals_total", metrics::labels({{"scope", "local"}}),
        "Work-steal operations by scope (local = within one VH node).");
    steals_remote_ = &reg.counter_for(
        "aurora_net_steals_total", metrics::labels({{"scope", "remote"}}),
        "Work-steal operations by scope (remote = across an inter-node link).");
    reroutes_ = &reg.counter_for(
        "aurora_net_reroutes_total", "",
        "Tasks moved off a terminally failed cluster engine.");
    expired_ = &reg.counter_for(
        "aurora_net_deadline_expired_total", "",
        "Cluster tasks cancelled before dispatch: deadline passed.");
}

ham::offload::runtime& cluster_executor::origin_registry_runtime() {
    ham::offload::runtime* rt = ham::offload::runtime::current();
    AURORA_CHECK_MSG(rt != nullptr,
                     "cluster_executor must run inside offload::run()");
    return *rt;
}

const ham::handler_registry& cluster_executor::origin_registry() {
    return origin_registry_runtime().host_registry();
}

std::size_t cluster_executor::engine_index(int vh, int ve) const {
    for (std::size_t i = 0; i < engines_.size(); ++i) {
        if (engines_[i].vh == vh && engines_[i].ve == ve) {
            return i;
        }
    }
    AURORA_CHECK_MSG(false, "no such engine");
    return 0;
}

void cluster_executor::enqueue(engine& e, queued_task task) {
    // Insertion from the back keeps the queue sorted by non-increasing
    // weight with FIFO order among equals — weight-1 traffic (the default)
    // reduces to a plain push_back, preserving the legacy schedule.
    auto it = e.ready.end();
    while (it != e.ready.begin() && std::prev(it)->weight < task.weight) {
        --it;
    }
    e.ready.insert(it, std::move(task));
}

bool cluster_executor::past_deadline(const queued_task& task) {
    return task.deadline_ns > 0 && sim::now() >= task.deadline_ns;
}

void cluster_executor::expire(queued_task& task) {
    --pending_;
    ++stats_.expired;
    expired_->add(1);
    order_.push_back(task.id);
    aurora::obs::emit_now(aurora::obs::stage::expired, 0, task.id, 0, 0);
}

cluster_executor::task_id cluster_executor::submit_bytes(
    std::vector<std::byte> msg, int affinity_vh, int affinity_ve, bool pinned,
    cluster_task_options topts) {
    AURORA_CHECK_MSG(topts.weight > 0, "task weight must be positive");
    const task_id id = next_id_++;
    std::size_t idx;
    if (affinity_vh < 0) {
        AURORA_CHECK_MSG(!pinned, "a pinned task needs an affinity engine");
        // Two-level deal for tasks without affinity: round-robin across
        // engines in node-major order under round_robin, least-loaded
        // otherwise (node chosen by aggregate backlog, then VE within it).
        if (cfg_.policy == sched::placement_policy::round_robin) {
            idx = next_any_;
            next_any_ = (next_any_ + 1) % engines_.size();
        } else {
            idx = 0;
            std::size_t best = SIZE_MAX;
            for (std::size_t i = 0; i < engines_.size(); ++i) {
                const std::size_t load =
                    engines_[i].ready.size() + engines_[i].inflight.size();
                if (load < best) {
                    best = load;
                    idx = i;
                }
            }
        }
    } else if (affinity_ve < 0) {
        // Node-level affinity: least-loaded VE of that node.
        idx = engine_index(affinity_vh, 1);
        std::size_t best = SIZE_MAX;
        for (std::size_t i = 0; i < engines_.size(); ++i) {
            if (engines_[i].vh != affinity_vh) {
                continue;
            }
            const std::size_t load =
                engines_[i].ready.size() + engines_[i].inflight.size();
            if (load < best) {
                best = load;
                idx = i;
            }
        }
    } else {
        idx = engine_index(affinity_vh, affinity_ve);
    }
    ++pending_;
    queued_task task{id, std::move(msg), pinned, topts.weight,
                     topts.deadline_ns};
    if (past_deadline(task)) {
        expire(task); // dead on arrival: settled typed, never queued
        return id;
    }
    enqueue(engines_[idx], std::move(task));
    return id;
}

std::uint32_t cluster_executor::effective_window(engine& e) {
    switch (c_.engine_health(e.vh, e.ve)) {
        case target_health::failed:
        case target_health::recovering:
            return 0;
        case target_health::probation:
            // Ramp like the local executor: 1 + clean results since
            // reintegration, up to the configured window.
            return std::min(cfg_.window,
                            1 + c_.engine_probation(e.vh, e.ve));
        case target_health::healthy:
        case target_health::degraded:
            break;
    }
    return cfg_.window;
}

bool cluster_executor::dispatch_one(engine& e) {
    queued_task task = std::move(e.ready.front());
    e.ready.pop_front();
    // Cancellation point: expired work is dropped here, before it can spend
    // an in-flight window slot or cross a link.
    if (past_deadline(task)) {
        expire(task);
        return true;
    }
    if (e.vh == 0) {
        // The origin runtime's non-blocking primitive: a refused send puts
        // the task back for the next round instead of blocking the loop.
        ham::offload::runtime& rt = origin_registry_runtime();
        ham::offload::runtime::sent_message sent;
        if (!rt.try_send_message(e.ve, task.msg.data(), task.msg.size(),
                                 sent)) {
            e.ready.push_front(std::move(task));
            return false;
        }
        auto fut = ham::offload::future<void>::remote(rt, e.ve, sent.ticket,
                                                      sent.slot);
        e.inflight.push_back(
            {std::move(task), std::move(fut), sent.ticket, sent.slot});
        return true;
    }
    const cluster::routed_send s =
        c_.submit_raw(e.vh, e.ve, task.msg.data(), task.msg.size());
    auto fut = ham::offload::future<void>::remote(c_, s.source_node, s.ticket,
                                                  s.slot);
    e.inflight.push_back({std::move(task), std::move(fut), s.ticket, s.slot});
    return true;
}

void cluster_executor::settle(engine& e, std::size_t idx, flight& f) {
    --pending_;
    try {
        f.fut.get();
        ++stats_.completed;
        ++stats_.per_engine[idx];
        order_.push_back(f.task.id);
    } catch (const target_failed_error&) {
        if (f.task.pinned) {
            ++stats_.failed;
            order_.push_back(f.task.id);
            return;
        }
        // The engine settled this synthetically without executing it (heal
        // replays anything that might have run) — reroute to a healthy
        // engine, same node first.
        ++stats_.reroutes;
        reroutes_->add(1);
        ++pending_;
        queued_task task = std::move(f.task);
        if (past_deadline(task)) {
            expire(task); // its deadline passed while the engine was dying
            return;
        }
        for (int pass = 0; pass < 2; ++pass) {
            for (std::size_t i = 0; i < engines_.size(); ++i) {
                engine& cand = engines_[i];
                const bool same_node = cand.vh == e.vh;
                if ((pass == 0) != same_node || (&cand == &e)) {
                    continue;
                }
                if (c_.engine_health(cand.vh, cand.ve) !=
                    target_health::failed) {
                    enqueue(cand, std::move(task));
                    return;
                }
            }
        }
        // Every engine failed: give up on the task.
        --pending_;
        ++stats_.failed;
        order_.push_back(task.id);
    }
    // offload_error (a target-side exception) propagates to the caller —
    // same contract as the local executor.
}

bool cluster_executor::harvest(engine& e, std::size_t idx, bool paid) {
    bool any = false;
    while (!e.inflight.empty()) {
        flight& f = e.inflight.front();
        const bool landed = paid ? f.fut.test_paid() : f.fut.test();
        paid = false;
        if (!landed) {
            break;
        }
        flight done = std::move(e.inflight.front());
        e.inflight.pop_front();
        settle(e, idx, done);
        any = true;
    }
    return any;
}

void cluster_executor::evacuate(engine& e) {
    if (e.ready.empty()) {
        return;
    }
    AURORA_TRACE("net", "evacuating " << e.ready.size() << " tasks from VH"
                                      << e.vh << "/VE" << e.ve);
    std::deque<queued_task> moved = std::move(e.ready);
    e.ready.clear();
    for (auto& task : moved) {
        if (task.pinned) {
            --pending_;
            ++stats_.failed;
            order_.push_back(task.id);
            continue;
        }
        if (past_deadline(task)) {
            expire(task);
            continue;
        }
        ++stats_.reroutes;
        reroutes_->add(1);
        bool placed = false;
        for (int pass = 0; pass < 2 && !placed; ++pass) {
            for (std::size_t i = 0; i < engines_.size() && !placed; ++i) {
                engine& cand = engines_[i];
                const bool same_node = cand.vh == e.vh;
                if ((pass == 0) != same_node || (&cand == &e)) {
                    continue;
                }
                if (c_.engine_health(cand.vh, cand.ve) !=
                    target_health::failed) {
                    enqueue(cand, std::move(task));
                    placed = true;
                }
            }
        }
        if (!placed) {
            --pending_;
            ++stats_.failed;
            order_.push_back(task.id);
        }
    }
}

bool cluster_executor::steal_for(std::size_t thief) {
    engine& t = engines_[thief];
    // Victim selection: deepest unpinned backlog, ties toward the lowest
    // engine index; local pass first, then (scope permitting) remote queues
    // whose depth clears the threshold.
    auto surplus = [](const engine& v) {
        std::size_t n = 0;
        for (const auto& task : v.ready) {
            n += task.pinned ? 0 : 1;
        }
        return n;
    };
    auto take_half = [&](engine& v, bool remote) {
        const std::size_t want = (surplus(v) + 1) / 2;
        // Youngest first, from the back — the victim keeps the work it will
        // reach soonest (same discipline as the local executor).
        std::size_t taken = 0;
        for (std::size_t i = v.ready.size(); i > 0 && taken < want; --i) {
            queued_task& task = v.ready[i - 1];
            if (task.pinned) {
                continue;
            }
            queued_task moved = std::move(task);
            v.ready.erase(v.ready.begin() + static_cast<std::ptrdiff_t>(i - 1));
            enqueue(t, std::move(moved));
            ++taken;
        }
        if (taken > 0) {
            if (remote) {
                stats_.steals_remote += taken;
                steals_remote_->add(taken);
            } else {
                stats_.steals_local += taken;
                steals_local_->add(taken);
            }
        }
        return taken > 0;
    };

    std::size_t best = engines_.size();
    std::size_t best_depth = 1; // need at least 2 unpinned tasks to share
    for (std::size_t i = 0; i < engines_.size(); ++i) {
        if (i == thief || engines_[i].vh != t.vh) {
            continue;
        }
        const std::size_t d = surplus(engines_[i]);
        if (d > best_depth) {
            best_depth = d;
            best = i;
        }
    }
    if (best < engines_.size()) {
        return take_half(engines_[best], /*remote=*/false);
    }
    if (cfg_.scope != sched::steal_scope::local_then_remote) {
        return false;
    }
    best = engines_.size();
    best_depth = std::max<std::size_t>(cfg_.remote_steal_threshold, 2) - 1;
    for (std::size_t i = 0; i < engines_.size(); ++i) {
        if (engines_[i].vh == t.vh) {
            continue;
        }
        const std::size_t d = surplus(engines_[i]);
        if (d > best_depth) {
            best_depth = d;
            best = i;
        }
    }
    if (best < engines_.size()) {
        return take_half(engines_[best], /*remote=*/true);
    }
    return false;
}

void cluster_executor::wait_all() {
    ham::offload::runtime& rt = origin_registry_runtime();
    std::size_t first = 0; ///< engine the round starts at
    bool paid = false;     ///< its front check already charged
    while (pending_ > 0) {
        bool progress = false;
        for (std::size_t i = first; i < engines_.size(); ++i) {
            engine& e = engines_[i];
            progress = harvest(e, i, paid && i == first) || progress;
            if (c_.engine_health(e.vh, e.ve) == target_health::failed) {
                evacuate(e);
                continue;
            }
            const std::uint32_t window = effective_window(e);
            while (e.inflight.size() < window && !e.ready.empty()) {
                if (!dispatch_one(e)) {
                    break;
                }
                progress = true;
            }
            if (cfg_.policy == sched::placement_policy::work_stealing &&
                e.ready.empty() && e.inflight.size() < window && window > 0) {
                progress = steal_for(i) || progress;
            }
        }
        first = 0;
        paid = false;
        if (!progress && !park(rt, first, paid)) {
            sim::advance(rt.costs().local_poll_ns);
        }
    }
}

bool cluster_executor::park(ham::offload::runtime& rt, std::size_t& first,
                            bool& paid) {
    // A round after a fruitless one repeats it, probes aside, as long as
    // every engine stays healthy (no evacuation, no window ramp) and no
    // engine holds ready work with window space (an origin send the runtime
    // refused, whose retry may succeed or expire). Then the round is the
    // poll pause, one ham_future_check_ns front check per origin engine with
    // a flight out (engine order), and the remote harvests, which charge
    // nothing and run at the instant of the last origin check.
    park_.clear();
    park_nodes_.clear();
    for (std::size_t i = 0; i < engines_.size(); ++i) {
        const engine& e = engines_[i];
        if (c_.engine_health(e.vh, e.ve) != target_health::healthy ||
            (!e.ready.empty() && e.inflight.size() < cfg_.window)) {
            return false;
        }
        if (e.inflight.empty()) {
            continue;
        }
        if (e.vh == 0) {
            park_.push_back(i);
        } else if (park_nodes_.empty() || park_nodes_.back() != e.vh) {
            park_nodes_.push_back(e.vh);
        }
    }
    park_costs_.assign(park_.size() + 1, rt.costs().ham_future_check_ns);
    park_costs_[0] = rt.costs().local_poll_ns;
    // The scheduler evaluates this inline, on another OS thread: it uses the
    // runtime captured above, never runtime::current() (thread_local). A
    // step fires on any health change (early is exact: the round then runs
    // for real), the last one also on a result frame a remote harvest would
    // drain, and an origin check when idle_probe cannot prove it fruitless.
    // idle_probe comes last: it counts the poll it stands in for, which the
    // resumed round would count again.
    const sim::poll_ready_fn fires = [this, &rt](std::size_t step,
                                                 sim::time_ns now) {
        for (const engine& e : engines_) {
            if (c_.engine_health(e.vh, e.ve) != target_health::healthy) {
                return true;
            }
        }
        if (step + 1 == park_costs_.size() &&
            std::any_of(park_nodes_.begin(), park_nodes_.end(),
                        [&](int vh) { return c_.result_deliverable(vh, now); })) {
            return true;
        }
        if (step == 0) {
            return false;
        }
        const engine& e = engines_[park_[step - 1]];
        const flight& f = e.inflight.front();
        return !rt.idle_probe(e.ve, f.ticket, f.slot);
    };
    const std::size_t step = sim::poll_cycle(park_costs_, 0, fires);
    first = step == 0 ? 0 : park_[step - 1];
    paid = step > 0;
    return true;
}

} // namespace aurora::net
