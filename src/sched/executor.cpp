#include "sched/executor.hpp"

#include <algorithm>

#include "fault/fault.hpp"
#include "ham/msg.hpp"
#include "obs/obs.hpp"
#include "offload/protocol.hpp"
#include "sim/engine.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"

namespace aurora::sched {

namespace {

/// Largest payload a single message may carry (slot buffer size). Under fault
/// injection every user/batch message also carries an FNV-1a trailer, so the
/// batch builder must leave room for it.
[[nodiscard]] std::size_t slot_capacity(const ham::offload::runtime& rt) {
    std::size_t cap = rt.options().msg_size;
    if (aurora::fault::injector::instance().active()) {
        cap -= ham::offload::protocol::checksum_bytes;
    }
    return cap;
}

} // namespace

executor::executor(executor_config cfg)
    : cfg_(cfg), rt_(detail::rt()), num_targets_(rt_.num_nodes() - 1) {
    AURORA_CHECK_MSG(num_targets_ > 0, "executor needs at least one target");
    AURORA_CHECK_MSG(cfg_.window > 0, "executor window must be positive");
    AURORA_CHECK_MSG(cfg_.max_queued > 0, "max_queued must be positive");
    window_ = std::min(cfg_.window, rt_.options().msg_slots);
    if (cfg_.max_batch == 0) {
        cfg_.max_batch = 1;
    }
    targets_.resize(num_targets_);
    stats_.per_target.resize(num_targets_);

    namespace m = aurora::metrics;
    auto& reg = m::registry::global();
    met_.steals = &reg.counter_for("aurora_sched_steals_total", "",
                                   "work-stealing transactions");
    met_.failovers = &reg.counter_for("aurora_sched_failovers_total", "",
                                      "target-failure evacuations/reroutes");
    met_.backpressure_stalls =
        &reg.counter_for("aurora_sched_backpressure_stalls_total", "",
                         "submits that had to block draining completions");
    met_.host_tasks = &reg.counter_for("aurora_sched_host_tasks_total", "",
                                       "tasks executed inline on the host");
    met_.tasks_completed =
        &reg.counter_for("aurora_sched_tasks_completed_total", "",
                         "tasks retired from target flights");
    met_.tasks_failed_over =
        &reg.counter_for("aurora_sched_tasks_failed_over_total", "",
                         "tasks re-routed away from failed targets");
    met_.tasks_shed =
        &reg.counter_for("aurora_sched_shed_total", "",
                         "submissions rejected at the backpressure bound");
    met_.tasks_expired =
        &reg.counter_for("aurora_sched_deadline_expired_total", "",
                         "tasks cancelled before dispatch: deadline passed");
    met_.queue_depth.resize(num_targets_);
    met_.inflight.resize(num_targets_);
    for (std::size_t t = 0; t < num_targets_; ++t) {
        const std::string lbl =
            m::labels({{"node", std::to_string(node_of(t))}});
        met_.queue_depth[t] = &reg.gauge_for(
            "aurora_sched_queue_depth", lbl, "ready tasks queued per target");
        met_.inflight[t] = &reg.gauge_for(
            "aurora_sched_inflight", lbl,
            "flights in the bounded in-flight window per target");
    }
}

task_id executor::submit_serialized(std::vector<std::byte> msg,
                                    const task_options& opts, const task_id* deps,
                                    std::size_t dep_count) {
    AURORA_TRACE_SPAN("sched", "submit");
    // Shed mode rejects BEFORE any state exists for the task: one drain pass
    // first, so completions that merely have not been harvested yet never
    // cause a spurious shed.
    if (cfg_.backpressure == backpressure_mode::shed &&
        tasks_.size() - finished_count_ >= cfg_.max_queued) {
        drain_once();
        const std::size_t backlog = tasks_.size() - finished_count_;
        if (backlog >= cfg_.max_queued) {
            ++stats_.tasks_shed;
            met_.tasks_shed->add(1);
            AURORA_TRACE_COUNTER("sched", "tasks_shed", 1);
            // Hint: the virtual time one per-target share of the backlog
            // takes to dispatch — deterministic, and roughly when a slot
            // opens if completions keep pace.
            const auto hint = static_cast<std::int64_t>(
                static_cast<std::uint64_t>(rt_.costs().ham_msg_dispatch_ns) *
                (backlog / std::max<std::size_t>(num_targets_, 1) + 1));
            throw ham::offload::admission_error(
                "scheduler queue full: " + std::to_string(backlog) + " of " +
                    std::to_string(cfg_.max_queued) + " unfinished tasks",
                hint);
        }
    }
    const auto id = static_cast<task_id>(tasks_.size());
    AURORA_CHECK_MSG(id != invalid_task, "executor full");
    AURORA_CHECK_MSG(opts.affinity == any_node ||
                         (opts.affinity >= 0 &&
                          static_cast<std::size_t>(opts.affinity) <= num_targets_),
                     "task affinity " << opts.affinity << " is not a node (have "
                                      << num_targets_ << " targets)");

    detail::task_rec rec;
    rec.msg = std::move(msg);
    rec.opts = opts;
    rec.record.id = id;

    // Placement: affinity 0 always means the host queue; otherwise the policy
    // decides. Round-robin deliberately ignores affinity (it is the static
    // baseline the benchmarks compare against).
    if (opts.affinity == 0) {
        rec.home = 0;
    } else if (cfg_.policy == placement_policy::round_robin ||
               opts.affinity == any_node) {
        rec.home = node_of(rr_next_++ % num_targets_);
    } else {
        rec.home = opts.affinity;
    }

    for (std::size_t i = 0; i < dep_count; ++i) {
        const task_id d = deps[i];
        AURORA_CHECK_MSG(d < id, "task dependency " << d
                                                    << " is not an earlier task");
        detail::task_rec& dep = tasks_[d];
        if (dep.state == task_state::done || dep.state == task_state::failed ||
            dep.state == task_state::expired) {
            // Already settled: nothing to wait for, but finish_task has
            // already walked this dep's successor list, so the outcome must
            // propagate here — otherwise a failed/expired dep linked after
            // the fact would leave the task blocked forever (unmet never
            // reaches zero) or execute despite a failed dependency.
            if (dep.state == task_state::failed && !rec.dep_failed) {
                rec.dep_failed = true;
                rec.error = "dependency task " + std::to_string(d) +
                            " failed: " + dep.error;
            }
            rec.dep_expired =
                rec.dep_expired || dep.state == task_state::expired;
            continue;
        }
        dep.succs.push_back(id);
        ++rec.unmet;
    }

    const bool ready = rec.unmet == 0;
    tasks_.push_back(std::move(rec));
    if (past_deadline(id)) {
        // Dead on arrival: settle (and count) it instead of queueing work
        // that would only be cancelled at dispatch.
        expire_task(id);
        return id;
    }
    if (ready) {
        release_ready(id);
    }

    // Backpressure: block in virtual time until the backlog drains below the
    // configured bound — submission never fails on slot exhaustion.
    if (tasks_.size() - finished_count_ > cfg_.max_queued) {
        AURORA_TRACE_SPAN("sched", "backpressure_stall");
        AURORA_TRACE_COUNTER("sched", "backpressure_stalls", 1);
        ++stats_.backpressure_stalls;
        met_.backpressure_stalls->add(1);
        while (tasks_.size() - finished_count_ > cfg_.max_queued) {
            drain_once();
        }
    }
    return id;
}

void executor::run(const task_graph& g) {
    for (const task_graph::node& n : g.nodes_) {
        submit_serialized(n.msg, n.opts, n.deps.data(), n.deps.size());
    }
    wait_all();
}

void executor::wait_all() {
    AURORA_TRACE_SPAN("sched", "wait_all");
    while (finished_count_ < tasks_.size()) {
        const bool progress = drain_once();
        if (progress) {
            continue;
        }
        // No completions, no dispatches. Legal only while work is in flight
        // (the poll itself advanced virtual time, the targets will get there)
        // or a target is mid-recovery (each dispatch probe advances virtual
        // time towards its re-attach deadline); otherwise the dependency
        // graph cannot make progress.
        bool inflight = false;
        for (std::size_t t = 0; t < num_targets_; ++t) {
            inflight = inflight || !targets_[t].inflight.empty() ||
                       rt_.health(node_of(t)) ==
                           ham::offload::target_health::recovering;
        }
        AURORA_CHECK_MSG(inflight,
                         "executor stalled with "
                             << (tasks_.size() - finished_count_)
                             << " unfinished tasks: dependency cycle?");
    }
    if (failed_) {
        failed_ = false; // report once; the executor stays usable for queries
        throw ham::offload::offload_error(first_error_);
    }
}

task_state executor::state_of(task_id id) const {
    AURORA_CHECK_MSG(id < tasks_.size(), "unknown task id " << id);
    return tasks_[id].state;
}

const executor::statistics& executor::stats() {
    for (std::size_t t = 0; t < num_targets_; ++t) {
        stats_.per_target[t].queue_depth = targets_[t].ready.size();
    }
    return stats_;
}

bool executor::past_deadline(task_id id) const {
    const task_options& o = tasks_[id].opts;
    return o.deadline_ns > 0 && aurora::sim::now() >= o.deadline_ns;
}

void executor::expire_task(task_id id) {
    ++stats_.tasks_expired;
    met_.tasks_expired->add(1);
    AURORA_TRACE_COUNTER("sched", "tasks_expired", 1);
    finish_task(id, task_state::expired, tasks_[id].home);
}

void executor::note_failure(const std::string& what) {
    if (first_error_.empty()) {
        first_error_ = what;
    }
    // fail_fast poisons the whole run (wait_all rethrows); serving mode
    // settles only the task and its dependents.
    if (cfg_.fail_fast) {
        failed_ = true;
    }
}

void executor::release_ready(task_id id) {
    detail::task_rec& rec = tasks_[id];
    if (rec.dep_expired || past_deadline(id)) {
        // An expired predecessor can never feed this task (or its own
        // deadline already passed while blocked): cascade the cancellation.
        expire_task(id);
        return;
    }
    if (failed_ || rec.dep_failed) {
        // A prior failure poisons everything not yet dispatched (fail_fast) or
        // just this dependency chain: settle the task as failed and cascade to
        // its successors so wait_all terminates. A dep-cascade cause is
        // already recorded on rec.error; finish_task keeps it.
        finish_task(id, task_state::failed, rec.home,
                    "skipped after earlier failure: " + first_error_);
        return;
    }
    if (rec.home != 0 &&
        target_terminal(static_cast<std::size_t>(rec.home) - 1)) {
        // The home target died for good before this task became ready. (A
        // merely recovering home keeps its queue — the task waits for the
        // respawn and dispatches during probation.)
        if (rec.opts.pinned) {
            std::string why = "pinned task " + std::to_string(id) +
                              " lost its target: " +
                              rt_.failure_reason(rec.home);
            note_failure(why);
            finish_task(id, task_state::failed, rec.home, std::move(why));
            return;
        }
        const std::size_t h = next_healthy();
        if (h == num_targets_) {
            note_failure("no healthy offload targets left");
            finish_task(id, task_state::failed, rec.home,
                        "no healthy offload targets left");
            return;
        }
        rec.home = node_of(h);
        ++stats_.tasks_failed_over;
        met_.tasks_failed_over->add(1);
    }
    rec.state = task_state::ready;
    rec.ready_at_ns = static_cast<std::uint64_t>(aurora::sim::now());
    if (rec.home == 0) {
        host_ready_.push_back(id);
    } else {
        targets_[static_cast<std::size_t>(rec.home) - 1].ready.push_back(id);
    }
}

void executor::finish_task(task_id id, task_state outcome, node_t executed_on,
                           std::string error) {
    detail::task_rec& rec = tasks_[id];
    rec.state = outcome;
    rec.record.executed_on = executed_on;
    rec.record.done_seq = event_seq_++;
    rec.record.done_time_ns = static_cast<std::uint64_t>(aurora::sim::now());
    rec.msg = {}; // the message was delivered (or never will be); drop it
    ++finished_count_;
    if (outcome == task_state::done) {
        trace_.push_back(rec.record);
    } else if (outcome == task_state::failed) {
        ++stats_.tasks_failed;
        if (rec.error.empty()) { // keep a dep-cascade cause recorded earlier
            rec.error = std::move(error);
        }
    }
    for (const task_id s : rec.succs) {
        detail::task_rec& succ = tasks_[s];
        if (outcome == task_state::failed && !succ.dep_failed) {
            succ.dep_failed = true;
            succ.error = "dependency task " + std::to_string(id) +
                         " failed: " + rec.error;
        }
        succ.dep_expired = succ.dep_expired || outcome == task_state::expired;
        AURORA_CHECK(succ.unmet > 0);
        if (--succ.unmet == 0) {
            release_ready(s);
        }
    }
}

bool executor::drain_once() {
    bool progress = false;

    // 1. Host tasks run inline on the VH process (scatter/gather phases).
    while (!host_ready_.empty()) {
        const task_id id = host_ready_.front();
        host_ready_.pop_front();
        if (past_deadline(id)) {
            expire_task(id);
        } else {
            run_host_task(id);
        }
        progress = true;
    }

    // 2. Harvest completed flights (lowest node first, FIFO per target).
    progress = harvest_all() || progress;

    // 3. Fill the in-flight windows.
    for (std::size_t t = 0; t < num_targets_; ++t) {
        progress = dispatch_target(t) || progress;
    }

    // Mirror the live queue state into the gauges once per tick.
    for (std::size_t t = 0; t < num_targets_; ++t) {
        met_.queue_depth[t]->set(
            static_cast<std::int64_t>(targets_[t].ready.size()));
        met_.inflight[t]->set(
            static_cast<std::int64_t>(targets_[t].inflight.size()));
    }
    return progress;
}

void executor::run_host_task(task_id id) {
    AURORA_TRACE_SPAN("sched", "host_task");
    detail::task_rec& rec = tasks_[id];
    rec.state = task_state::inflight;
    rec.record.start_seq = event_seq_++;
    ++stats_.host_tasks;
    met_.host_tasks->add(1);

    aurora::sim::advance(rt_.costs().ham_msg_dispatch_ns);
    std::byte result[sizeof(ham::offload::protocol::result_header)];
    std::size_t result_size = 0;
    bool ok = true;
    std::string err;
    try {
        ham::execute_message(rt_.host_registry(), rec.msg.data(), result,
                             sizeof(result), &result_size);
    } catch (const std::exception& e) {
        ok = false;
        err = std::string("host task failed: ") + e.what();
        note_failure(err);
    }
    finish_task(id, ok ? task_state::done : task_state::failed, 0,
                std::move(err));
}

bool executor::harvest_all() {
    // The front-flight checks of consecutive targets wait in one
    // sim::poll_cycle, one ham_future_check_ns step per target: the
    // scheduler proves a fruitless check with runtime::idle_probe instead of
    // handing the CPU back to this process. The last step always fires; the
    // target whose step fired is probed for real, its check already paid.
    // No flight is completed between drains (harvest_target retires a
    // flight as soon as its probe completes it), so every target with a
    // flight out owes its front flight one check.
    const aurora::sim::poll_ready_fn fires = [this](std::size_t step,
                                                    aurora::sim::time_ns) {
        if (step + 1 == sweep_.size()) {
            return true;
        }
        const std::size_t t = sweep_[step];
        const flight& f = targets_[t].inflight.front();
        return !rt_.idle_probe(node_of(t), f.ticket, f.slot);
    };
    bool progress = false;
    for (std::size_t t = 0; t < num_targets_;) {
        sweep_.clear();
        for (std::size_t u = t; u < num_targets_; ++u) {
            if (!targets_[u].inflight.empty()) {
                sweep_.push_back(u);
            }
        }
        if (sweep_.empty()) {
            break;
        }
        sweep_costs_.assign(sweep_.size(), rt_.costs().ham_future_check_ns);
        const std::size_t fired =
            sweep_[aurora::sim::poll_cycle(sweep_costs_, 0, fires)];
        progress = harvest_target(fired, true) || progress;
        t = fired + 1;
    }
    return progress;
}

bool executor::harvest_target(std::size_t t, bool paid) {
    target_queues& tq = targets_[t];
    bool progress = false;
    // The target loop serves messages in send order, so flights complete
    // FIFO: only the front flight can be newly done. Probing just that one
    // keeps the poll cost (and thus virtual time) independent of the window.
    while (!tq.inflight.empty()) {
        flight& f = tq.inflight.front();
        if (!*f.completed) {
            // on_ready marks `completed` when the result lands.
            static_cast<void>(paid ? f.fut.test_paid() : f.fut.test());
            paid = false;
        }
        if (!*f.completed) {
            break;
        }
        retire_flight(t, f);
        tq.inflight.pop_front();
        progress = true;
    }
    return progress;
}

void executor::retire_flight(std::size_t t, flight& f) {
    AURORA_TRACE_SPAN("sched", "complete");
    bool ok = true;
    std::string err;
    try {
        f.fut.get();
    } catch (const ham::offload::target_failed_error& e) {
        // The target died with this flight un-acked: re-route its tasks to the
        // surviving targets instead of failing them. Delivery is at-least-once
        // — the dead target may have executed part of the flight already.
        if (reroute_flight(t, f)) {
            return;
        }
        ok = false;
        err = e.what();
        note_failure(err);
    } catch (const ham::offload::offload_error& e) {
        ok = false;
        err = e.what();
        note_failure(err);
    }
    AURORA_TRACE_COUNTER("sched", "tasks_completed", f.tasks.size());
    met_.tasks_completed->add(f.tasks.size());
    target_load& load = stats_.per_target[t];
    for (const task_id id : f.tasks) {
        if (ok) {
            ++load.tasks_executed;
            load.busy_cost_ns += tasks_[id].opts.cost_ns;
            if (tasks_[id].home != node_of(t)) {
                ++load.tasks_stolen_in;
            }
        }
        finish_task(id, ok ? task_state::done : task_state::failed, node_of(t),
                    err);
    }
}

bool executor::dispatch_target(std::size_t t) {
    target_queues& tq = targets_[t];
    const node_t node = node_of(t);
    if (target_terminal(t)) {
        // A dead target dispatches nothing; anything still queued here moves
        // to the survivors (its in-flight work re-routes via retire_flight).
        const bool moved = !tq.ready.empty();
        evacuate(t);
        return moved;
    }
    if (rt_.health(node) == ham::offload::target_health::recovering) {
        // Drive the heal state machine (the probe advances virtual time
        // towards the re-attach deadline and performs the respawn + replay
        // when it arrives); queued tasks and parked flights wait it out.
        static_cast<void>(rt_.slots_available(node));
        return false;
    }
    const std::uint32_t win = effective_window(t);
    // Nothing to send: the window is full, or the queue is empty and there
    // is nothing to steal. Most drains end here, before the allocations
    // below. (A successful steal fills the queue, so the loop's first pass
    // does not steal again.)
    if (tq.inflight.size() >= win ||
        (tq.ready.empty() &&
         (cfg_.policy != placement_policy::work_stealing || !steal_into(t)))) {
        return false;
    }
    bool progress = false;

    // One payload builder for this call: reset() rewinds it but keeps its
    // heap buffer. Each sent group still allocates: its task list moves into
    // the flight, and the flight allocates its future and completion flag.
    std::vector<task_id> group;
    ham::offload::protocol::batch_builder batch{slot_capacity(rt_)};
    while (tq.inflight.size() < win) {
        if (tq.ready.empty()) {
            if (cfg_.policy != placement_policy::work_stealing ||
                !steal_into(t)) {
                break;
            }
        }

        // Cancellation point: expired work is dropped here, before it can
        // consume a message slot — counted, and its dependents cascade.
        while (!tq.ready.empty() && past_deadline(tq.ready.front())) {
            const task_id late = tq.ready.front();
            tq.ready.pop_front();
            expire_task(late);
            progress = true;
        }
        if (tq.ready.empty()) {
            continue; // the purge emptied the queue; try to steal again
        }

        // Gather a group from the queue front: one task, or — with batching —
        // as many consecutive ones as fit the slot payload and max_batch.
        group.clear();
        batch.reset();
        group.push_back(tq.ready.front());
        tq.ready.pop_front();
        if (cfg_.batching && cfg_.max_batch > 1 &&
            batch.fits(tasks_[group.front()].msg.size())) {
            batch.append(tasks_[group.front()].msg.data(),
                         static_cast<std::uint32_t>(
                             tasks_[group.front()].msg.size()));
            while (group.size() < cfg_.max_batch && !tq.ready.empty() &&
                   !past_deadline(tq.ready.front()) &&
                   batch.fits(tasks_[tq.ready.front()].msg.size())) {
                const task_id next = tq.ready.front();
                tq.ready.pop_front();
                batch.append(tasks_[next].msg.data(),
                             static_cast<std::uint32_t>(tasks_[next].msg.size()));
                group.push_back(next);
            }
        }

        // Send: a lone task goes out as a plain user message, two or more as
        // one batch message (a second construction cost pays for the wrapper).
        AURORA_TRACE_SPAN("sched", "dispatch");
        ham::offload::runtime::sent_message sent;
        bool sent_ok = false;
        if (group.size() == 1) {
            const std::vector<std::byte>& m = tasks_[group.front()].msg;
            sent_ok = rt_.try_send_message(node, m.data(), m.size(), sent);
        } else {
            aurora::sim::advance(rt_.costs().ham_msg_construct_ns);
            sent_ok = rt_.try_send_message(
                node, batch.finish(), batch.size(), sent,
                ham::offload::protocol::msg_kind::batch);
        }
        if (!sent_ok) {
            // The round-robin slot is busy (e.g. host-task put/get traffic).
            // Put the group back in order and retry on the next drain.
            for (auto it = group.rbegin(); it != group.rend(); ++it) {
                tq.ready.push_front(*it);
            }
            break;
        }

        target_load& load = stats_.per_target[t];
        ++load.messages_sent;
        if (group.size() > 1) {
            ++load.batches_sent;
            stats_.batched_tasks += group.size();
            AURORA_TRACE_COUNTER("sched", "batched_tasks", group.size());
        }
        for (const task_id id : group) {
            tasks_[id].state = task_state::inflight;
            tasks_[id].record.start_seq = event_seq_++;
        }
        if (aurora::obs::enabled()) {
            // The submit touchpoint carries the ticket the runtime just
            // assigned, back-dated to when the group's earliest task entered
            // its ready queue: queue_wait = submit..post.
            std::uint64_t ready_ns = tasks_[group.front()].ready_at_ns;
            for (const task_id id : group) {
                ready_ns = std::min(ready_ns, tasks_[id].ready_at_ns);
            }
            aurora::obs::emit(
                aurora::obs::stage::submit,
                static_cast<std::uint16_t>(rt_.options().node_base + int(node)),
                sent.ticket, static_cast<std::uint16_t>(sent.slot),
                rt_.target_epoch(node), ready_ns);
        }

        flight f;
        f.fut = ham::offload::future<void>::remote(rt_, node, sent.ticket,
                                                   sent.slot);
        f.ticket = sent.ticket;
        f.slot = sent.slot;
        f.tasks = std::move(group);
        f.completed = std::make_shared<bool>(false);
        f.fut.on_ready([done = f.completed] { *done = true; });
        tq.inflight.push_back(std::move(f));
        progress = true;
    }
    return progress;
}

bool executor::steal_into(std::size_t thief) {
    // Victim: the target with the most stealable (unpinned) ready tasks;
    // ties break towards the lowest node id for determinism.
    std::size_t victim = num_targets_;
    std::size_t best = 0;
    for (std::size_t t = 0; t < num_targets_; ++t) {
        if (t == thief) {
            continue;
        }
        std::size_t stealable = 0;
        for (const task_id id : targets_[t].ready) {
            stealable += tasks_[id].opts.pinned ? 0U : 1U;
        }
        if (stealable > best) {
            best = stealable;
            victim = t;
        }
    }
    if (victim == num_targets_) {
        return false;
    }

    // Take up to half the victim's stealable backlog (at least one task,
    // at most one batch worth) from the *back* of its queue — the oldest
    // tasks stay local, the youngest migrate, as in classic work stealing.
    const std::size_t want = std::min<std::size_t>(
        std::max<std::size_t>(best / 2, 1), std::max<std::uint32_t>(cfg_.max_batch, 1));
    std::deque<task_id>& vq = targets_[victim].ready;
    std::vector<task_id> taken;
    for (auto it = vq.rbegin(); it != vq.rend() && taken.size() < want;) {
        const task_id id = *it;
        if (tasks_[id].opts.pinned) {
            ++it;
            continue;
        }
        it = std::make_reverse_iterator(vq.erase(std::next(it).base()));
        taken.push_back(id);
    }
    AURORA_CHECK(!taken.empty());
    // `taken` holds youngest-first; append oldest-first to preserve order.
    for (auto it = taken.rbegin(); it != taken.rend(); ++it) {
        targets_[thief].ready.push_back(*it);
    }
    ++stats_.steals;
    met_.steals->add(1);
    AURORA_TRACE_INSTANT("sched", "steal");
    AURORA_TRACE_COUNTER("sched", "stolen_tasks", taken.size());
    return true;
}

bool executor::target_usable(std::size_t t) const {
    const auto h = rt_.health(node_of(t));
    return h != ham::offload::target_health::failed &&
           h != ham::offload::target_health::recovering;
}

bool executor::target_terminal(std::size_t t) const {
    return rt_.health(node_of(t)) == ham::offload::target_health::failed;
}

std::uint32_t executor::effective_window(std::size_t t) {
    // Reintegration ramp: a target fresh out of recovery starts with a window
    // of one and earns the full window back linearly as its clean-result
    // streak approaches recovery_streak (the same streak that later promotes
    // it to healthy).
    if (rt_.health(node_of(t)) != ham::offload::target_health::probation) {
        return window_;
    }
    const std::uint32_t streak =
        std::max<std::uint32_t>(rt_.options().recovery_streak, 1);
    const std::uint32_t progress =
        std::min(rt_.probation_progress(node_of(t)), streak);
    return 1 + (window_ - 1) * progress / streak;
}

std::size_t executor::next_healthy() {
    for (std::size_t i = 0; i < num_targets_; ++i) {
        const std::size_t t = (failover_rr_ + i) % num_targets_;
        if (target_usable(t)) {
            failover_rr_ = static_cast<std::uint32_t>((t + 1) % num_targets_);
            return t;
        }
    }
    // No dispatchable target, but a recovering one will take queued work once
    // its respawn lands — park the task there rather than failing the run.
    for (std::size_t i = 0; i < num_targets_; ++i) {
        const std::size_t t = (failover_rr_ + i) % num_targets_;
        if (!target_terminal(t)) {
            failover_rr_ = static_cast<std::uint32_t>((t + 1) % num_targets_);
            return t;
        }
    }
    return num_targets_;
}

void executor::evacuate(std::size_t dead) {
    target_queues& tq = targets_[dead];
    if (tq.ready.empty()) {
        return;
    }
    AURORA_TRACE_INSTANT("sched", "evacuate");
    ++stats_.failovers;
    met_.failovers->add(1);
    std::deque<task_id> orphans;
    orphans.swap(tq.ready);
    std::uint64_t moved = 0;
    for (const task_id id : orphans) {
        detail::task_rec& rec = tasks_[id];
        if (rec.opts.pinned) {
            std::string why = "pinned task " + std::to_string(id) +
                              " lost its target: " +
                              rt_.failure_reason(node_of(dead));
            note_failure(why);
            finish_task(id, task_state::failed, rec.home, std::move(why));
            continue;
        }
        const std::size_t h = next_healthy();
        if (h == num_targets_) {
            note_failure("no healthy offload targets left");
            finish_task(id, task_state::failed, rec.home,
                        "no healthy offload targets left");
            continue;
        }
        rec.home = node_of(h);
        targets_[h].ready.push_back(id);
        ++moved;
    }
    stats_.tasks_failed_over += moved;
    met_.tasks_failed_over->add(moved);
    AURORA_TRACE_COUNTER("sched", "tasks_failed_over", moved);
}

bool executor::reroute_flight(std::size_t dead, flight& f) {
    bool any = false;
    for (std::size_t t = 0; t < num_targets_; ++t) {
        any = any || (t != dead && target_usable(t));
    }
    if (!any) {
        return false; // nowhere to go; the caller fails the flight
    }
    AURORA_TRACE_INSTANT("sched", "failover");
    ++stats_.failovers;
    met_.failovers->add(1);
    std::uint64_t moved = 0;
    for (const task_id id : f.tasks) {
        detail::task_rec& rec = tasks_[id];
        if (rec.opts.pinned) {
            std::string why = "pinned task " + std::to_string(id) +
                              " lost its target: " +
                              rt_.failure_reason(node_of(dead));
            note_failure(why);
            finish_task(id, task_state::failed, node_of(dead), std::move(why));
            continue;
        }
        const std::size_t h = next_healthy();
        AURORA_CHECK(h != num_targets_); // pre-scan found a healthy target
        rec.home = node_of(h);
        rec.state = task_state::ready;
        targets_[h].ready.push_back(id);
        ++moved;
    }
    stats_.tasks_failed_over += moved;
    met_.tasks_failed_over->add(moved);
    AURORA_TRACE_COUNTER("sched", "tasks_failed_over", moved);
    return true;
}

} // namespace aurora::sched
