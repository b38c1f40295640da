#include "admit/server.hpp"

#include <algorithm>
#include <iterator>
#include <limits>

#include "obs/obs.hpp"
#include "offload/runtime.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"

namespace aurora::admit {

namespace {

using ham::offload::admission_error;
using phase = detail::request_state::phase;

/// The executor configuration serving mode requires, whatever the caller
/// passed: the shared capacity is the backpressure bound, rejections are
/// typed (never blocking — the server pre-checks room, so the executor's own
/// shed path is a safety net), and one tenant's failure must not poison
/// another tenant's independent work.
sched::executor_config serving_exec(const server::config& cfg) {
    sched::executor_config e = cfg.exec;
    e.max_queued = cfg.capacity;
    e.backpressure = sched::backpressure_mode::shed;
    e.fail_fast = false;
    // No cross-request coalescing: a batch fails as a unit, so one tenant's
    // raising kernel would take down whatever happened to ride in its batch.
    e.batching = false;
    return e;
}

} // namespace

// --- request handle ---------------------------------------------------------

bool request::settled() const {
    return valid() && s_->ph != phase::queued && s_->ph != phase::inflight;
}

bool request::test() {
    AURORA_CHECK_MSG(valid(), "test() on an invalid request");
    if (!settled()) {
        srv_->poll();
    }
    return settled();
}

void request::wait() {
    AURORA_CHECK_MSG(valid(), "wait() on an invalid request");
    while (!settled()) {
        // Each poll advances virtual time (executor harvest / backend poll),
        // so queued deadlines fire and in-flight work lands; an admitted
        // request always settles (see drain()).
        srv_->poll();
    }
}

void request::get() {
    wait();
    switch (s_->ph) {
        case phase::done:
            return;
        case phase::expired:
            throw ham::offload::deadline_exceeded_error(s_->error);
        case phase::shed:
            throw admission_error(s_->error, s_->retry_after_ns);
        default:
            throw ham::offload::offload_error(s_->error);
    }
}

// --- server -----------------------------------------------------------------

server::server(config cfg) : cfg_(cfg), exec_(serving_exec(cfg)) {
    AURORA_CHECK_MSG(cfg_.capacity > 0, "admit capacity must be positive");
    auto* rt = ham::offload::runtime::current();
    AURORA_CHECK_MSG(rt != nullptr,
                     "admit::server must be constructed inside offload::run()");
    num_targets_ = rt->num_nodes() - 1;
    dispatch_window_ = cfg_.dispatch_window != 0
                           ? cfg_.dispatch_window
                           : std::max<std::size_t>(cfg_.capacity / 4, 1);
    dispatch_cost_ns_ = rt->costs().ham_msg_dispatch_ns;
    breakers_.reserve(num_targets_);
    for (std::size_t t = 0; t < num_targets_; ++t) {
        breakers_.emplace_back(cfg_.breaker);
    }

    namespace m = aurora::metrics;
    auto& reg = m::registry::global();
    for (std::size_t c = 0; c < num_qos_classes; ++c) {
        latency_ns_[c] = &reg.histogram_for(
            "aurora_admit_latency_ns",
            m::labels({{"class", to_string(static_cast<qos_class>(c))}}),
            "virtual ns from admission to successful settlement, per QoS class");
    }
    breaker_gauges_.resize(num_targets_);
    breaker_trips_.resize(num_targets_);
    for (std::size_t t = 0; t < num_targets_; ++t) {
        const std::string lbl =
            m::labels({{"node", std::to_string(t + 1)}});
        breaker_gauges_[t] = &reg.gauge_for(
            "aurora_admit_breaker_state", lbl,
            "admission breaker state (0=closed, 1=open, 2=half-open)");
        breaker_trips_[t] = &reg.counter_for(
            "aurora_admit_breaker_trips_total", lbl,
            "admission breaker trips (consecutive-failure threshold crossed)");
    }
    backlog_gauge_ = &reg.gauge_for(
        "aurora_admit_backlog", "",
        "requests queued in sessions plus unfinished in the scheduler");
    reg.gauge_for("aurora_admit_capacity", "",
                  "configured shared backlog capacity")
        .set(static_cast<std::int64_t>(cfg_.capacity));
}

server::tenant_instruments& server::instruments_for(const std::string& tenant) {
    const auto [it, inserted] = tenants_.try_emplace(tenant);
    if (inserted) {
        namespace m = aurora::metrics;
        auto& reg = m::registry::global();
        const std::string lbl = m::labels({{"tenant", tenant}});
        tenant_instruments& ti = it->second;
        ti.admitted = &reg.counter_for("aurora_admit_admitted_total", lbl,
                                       "requests accepted into tenant queues");
        ti.shed = &reg.counter_for(
            "aurora_admit_shed_total", lbl,
            "requests rejected or cancelled by admission control");
        ti.expired = &reg.counter_for(
            "aurora_admit_deadline_missed_total", lbl,
            "requests cancelled before dispatch: deadline passed");
        ti.completed = &reg.counter_for("aurora_admit_completed_total", lbl,
                                        "tenant requests executed successfully");
        ti.failed = &reg.counter_for("aurora_admit_failed_total", lbl,
                                     "tenant requests settled as failed");
        ti.queue_depth =
            &reg.gauge_for("aurora_admit_queue_depth", lbl,
                           "requests waiting in the tenant's session queues");
        ti.sessions_open = &reg.gauge_for("aurora_admit_sessions_open", lbl,
                                          "open sessions billed to the tenant");
    }
    return it->second;
}

session_id server::open(session_options opts) {
    AURORA_CHECK_MSG(opts.weight > 0, "session weight must be positive");
    AURORA_CHECK_MSG(opts.max_queued > 0, "session max_queued must be positive");
    const session_id sid = next_sid_++;
    session_rec rec;
    rec.opts = std::move(opts);
    rec.open = true;
    rec.met = &instruments_for(rec.opts.tenant);
    rec.met->sessions_open->add(1);
    ++open_sessions_;
    sessions_.emplace(sid, std::move(rec));
    AURORA_TRACE("admit", "session " << sid << " opened");
    return sid;
}

void server::close(session_id sid) {
    session_rec& s = rec_for(sid);
    if (!s.open) {
        return; // idempotent
    }
    s.open = false;
    --open_sessions_;
    s.met->sessions_open->add(-1);
    // Queued work settles as shed — typed and counted; a waiting handle gets
    // admission_error from get(). In-flight work runs to completion.
    for (const request_ptr& r : s.queue) {
        r->ph = phase::shed;
        r->error =
            "session " + std::to_string(sid) + " closed before dispatch";
        r->msg = {};
        ++s.shed;
        ++stats_.shed;
        s.met->shed->add(1);
        if (r->probe) {
            breakers_[static_cast<std::size_t>(r->topts.affinity) - 1]
                .abort_probe();
        }
        aurora::obs::emit_now(aurora::obs::stage::shed, 0, r->serial, 0, 0);
    }
    s.met->queue_depth->add(-static_cast<std::int64_t>(s.queue.size()));
    queued_total_ -= s.queue.size();
    s.queue.clear();
    active_.erase(sid);
    AURORA_TRACE("admit", "session " << sid << " closed");
}

session_stats server::stats(session_id sid) const {
    const auto it = sessions_.find(sid);
    AURORA_CHECK_MSG(it != sessions_.end(), "unknown session " << sid);
    const session_rec& s = it->second;
    session_stats out;
    out.admitted = s.admitted;
    out.shed = s.shed;
    out.expired = s.expired;
    out.completed = s.completed;
    out.failed = s.failed;
    out.queued = s.queue.size();
    out.open = s.open;
    return out;
}

server::session_rec& server::rec_for(session_id sid) {
    const auto it = sessions_.find(sid);
    AURORA_CHECK_MSG(it != sessions_.end(), "unknown session " << sid);
    return it->second;
}

void server::shed(session_rec& s, const std::string& why,
                  std::int64_t retry_after_ns) {
    ++s.shed;
    ++stats_.shed;
    s.met->shed->add(1);
    AURORA_TRACE_COUNTER("admit", "shed", 1);
    aurora::obs::emit_now(aurora::obs::stage::shed, 0, next_serial_++, 0, 0);
    throw admission_error(why, retry_after_ns);
}

std::int64_t server::occupancy_retry_hint() const {
    // One per-target share of the backlog at the dispatch cost — roughly the
    // virtual time until the backlog drains below the shed threshold if
    // completions keep pace. Deterministic by construction.
    return dispatch_cost_ns_ *
           static_cast<std::int64_t>(
               backlog() / std::max<std::size_t>(num_targets_, 1) + 1);
}

request server::submit_serialized(session_id sid, std::vector<std::byte> msg,
                                  const request_options& ro) {
    session_rec& s = rec_for(sid);
    if (!s.open) {
        shed(s, "session " + std::to_string(sid) + " is closed", 0);
    }
    if (s.opts.quota != 0 && s.admitted >= s.opts.quota) {
        shed(s,
             "session " + std::to_string(sid) + " quota exhausted (" +
                 std::to_string(s.opts.quota) + " requests)",
             0);
    }
    if (s.queue.size() >= s.opts.max_queued) {
        shed(s,
             "session " + std::to_string(sid) + " queue full (" +
                 std::to_string(s.opts.max_queued) + " queued)",
             occupancy_retry_hint());
    }
    // Priority-aware occupancy shedding: background gives way first, batch
    // next, latency only when the shared backlog is truly full.
    const std::size_t bl = backlog();
    const std::size_t cap = cfg_.capacity;
    switch (s.opts.cls) {
        case qos_class::background:
            if (bl * 100 >= cap * cfg_.shed_background_pct) {
                shed(s,
                     "backlog " + std::to_string(bl) + "/" +
                         std::to_string(cap) +
                         " above the background shed threshold",
                     occupancy_retry_hint());
            }
            break;
        case qos_class::batch:
            if (bl * 100 >= cap * cfg_.shed_batch_pct) {
                shed(s,
                     "backlog " + std::to_string(bl) + "/" +
                         std::to_string(cap) +
                         " above the batch shed threshold",
                     occupancy_retry_hint());
            }
            break;
        case qos_class::latency:
            if (bl >= cap) {
                shed(s,
                     "backlog full (" + std::to_string(bl) + "/" +
                         std::to_string(cap) + ")",
                     occupancy_retry_hint());
            }
            break;
    }
    // Breaker check last, so allow() marks a half-open probe only when every
    // other admission gate already passed.
    bool is_probe = false;
    if (ro.affinity != sched::any_node && ro.affinity > 0) {
        AURORA_CHECK_MSG(static_cast<std::size_t>(ro.affinity) <= num_targets_,
                         "request affinity " << ro.affinity
                                             << " is not a target node");
        breaker& b = breakers_[static_cast<std::size_t>(ro.affinity) - 1];
        const bool half_open = b.state() == breaker_state::half_open;
        if (!b.allow()) {
            // Open: the remaining cooldown. Half-open with the probe slot
            // taken: retry_after() is 0, but every resubmission sheds until
            // the probe settles — hint one dispatch cost so well-behaved
            // clients back off instead of spinning.
            shed(s,
                 "circuit breaker open for node " +
                     std::to_string(ro.affinity),
                 std::max<std::int64_t>(b.retry_after(), dispatch_cost_ns_));
        }
        is_probe = half_open; // allow() passed in half_open: this IS the probe
    }

    auto r = std::make_shared<detail::request_state>();
    r->sid = sid;
    r->cls = s.opts.cls;
    r->serial = next_serial_++;
    r->submitted_at = sim::now();
    r->deadline_ns = ro.deadline_ns != 0
                         ? ro.deadline_ns
                         : s.opts.default_deadline_ns > 0
                               ? sim::now() + s.opts.default_deadline_ns
                               : 0;
    r->msg = std::move(msg);
    r->probe = is_probe;
    r->topts.affinity = ro.affinity;
    r->topts.pinned = ro.pinned;
    r->topts.cost_ns = ro.cost_ns;
    r->topts.deadline_ns = r->deadline_ns;
    s.queue.push_back(r);
    if (r->deadline_ns > 0) {
        deadline_floor_ = std::min(deadline_floor_, r->deadline_ns);
    }
    if (s.queue.size() == 1) {
        active_.emplace(sid, &s);
    }
    ++queued_total_;
    s.met->queue_depth->add(1);
    ++s.admitted;
    ++stats_.admitted;
    s.met->admitted->add(1);
    // Opportunistic dispatch: an unloaded server gets sub-poll latency.
    dispatch_queued();
    return request(this, r);
}

void server::expire_request(session_rec& s, const request_ptr& r) {
    r->ph = phase::expired;
    r->error = "request deadline exceeded before dispatch (queued in session " +
               std::to_string(r->sid) + ")";
    r->msg = {};
    ++s.expired;
    ++stats_.expired;
    s.met->expired->add(1);
    AURORA_TRACE_COUNTER("admit", "expired", 1);
    if (r->probe) {
        breakers_[static_cast<std::size_t>(r->topts.affinity) - 1].abort_probe();
    }
    aurora::obs::emit_now(aurora::obs::stage::expired, 0, r->serial, 0, 0);
}

bool server::expire_queued() {
    const sim::time_ns now = sim::now();
    if (now < deadline_floor_) {
        return false; // no queued deadline can be due yet
    }
    deadline_floor_ = std::numeric_limits<sim::time_ns>::max();
    bool progress = false;
    for (auto ait = active_.begin(); ait != active_.end();) {
        session_rec& s = *ait->second;
        for (auto it = s.queue.begin(); it != s.queue.end();) {
            const request_ptr& r = *it;
            if (r->deadline_ns > 0 && now >= r->deadline_ns) {
                expire_request(s, r);
                s.met->queue_depth->add(-1);
                it = s.queue.erase(it);
                --queued_total_;
                progress = true;
            } else {
                if (r->deadline_ns > 0) {
                    deadline_floor_ = std::min(deadline_floor_, r->deadline_ns);
                }
                ++it;
            }
        }
        ait = s.queue.empty() ? active_.erase(ait) : std::next(ait);
    }
    return progress;
}

std::size_t server::exec_room() const noexcept {
    const std::size_t unfinished = exec_.unfinished();
    return dispatch_window_ > unfinished ? dispatch_window_ - unfinished : 0;
}

bool server::dispatch_queued() {
    bool progress = false;
    // Strict priority across classes; deficit weighted round robin within
    // one. A turn grants the session `weight` dispatch credits; when the
    // window fills mid-turn the leftover credit persists and the cursor
    // stays before the session, so it resumes first once room frees —
    // weights hold even when capacity opens one slot at a time. Only the
    // sessions with queued work are visited, in sid order; a cursor naming a
    // session that has since left the index still resumes after its sid.
    for (std::size_t c = 0; c < num_qos_classes; ++c) {
        const auto cls = static_cast<qos_class>(c);
        bool round_progress = true;
        while (round_progress && exec_room() > 0) {
            round_progress = false;
            // One full rotation starting after the cursor. Only the session
            // being visited can leave the index, after `start` moved past it,
            // so the size at rotation start bounds the rotation.
            auto start = active_.upper_bound(rr_after_[c]);
            const std::size_t rotation = active_.size();
            for (std::size_t step = 0; step < rotation && exec_room() > 0;
                 ++step) {
                if (start == active_.end()) {
                    start = active_.begin();
                }
                auto it = start++;
                session_rec& s = *it->second;
                if (s.opts.cls != cls) {
                    continue;
                }
                if (s.quantum == 0) {
                    s.quantum = s.opts.weight;
                }
                while (s.quantum > 0 && !s.queue.empty() && exec_room() > 0) {
                    const request_ptr r = s.queue.front();
                    s.queue.pop_front();
                    --queued_total_;
                    s.met->queue_depth->add(-1);
                    if (r->deadline_ns > 0 && sim::now() >= r->deadline_ns) {
                        // Expiry costs the session no credit — it freed the
                        // slot rather than using it.
                        expire_request(s, r);
                        continue;
                    }
                    try {
                        r->tid = exec_.submit_serialized(std::move(r->msg),
                                                         r->topts, nullptr, 0);
                    } catch (const admission_error& e) {
                        // Defensive: the room check makes this unreachable,
                        // but never let an admitted request vanish.
                        r->ph = phase::shed;
                        r->error = e.what();
                        r->retry_after_ns = e.retry_after_ns();
                        ++s.shed;
                        ++stats_.shed;
                        s.met->shed->add(1);
                        if (r->probe) {
                            breakers_[static_cast<std::size_t>(
                                          r->topts.affinity) -
                                      1]
                                .abort_probe();
                        }
                        continue;
                    }
                    r->ph = phase::inflight;
                    r->msg = {};
                    inflight_.push_back(r);
                    --s.quantum;
                    progress = true;
                    round_progress = true;
                }
                if (exec_room() == 0 && s.quantum > 0 && !s.queue.empty()) {
                    // Window filled mid-turn: keep the cursor and the credit
                    // so this session is served first when capacity frees.
                    return progress;
                }
                s.quantum = 0;
                rr_after_[c] = it->first;
                if (s.queue.empty()) {
                    active_.erase(it);
                }
            }
        }
    }
    return progress;
}

bool server::reconcile() {
    if (exec_.settled() == reconciled_at_) {
        return false; // nothing settled since the last pass
    }
    reconciled_at_ = exec_.settled();
    bool progress = false;
    for (auto it = inflight_.begin(); it != inflight_.end();) {
        const request_ptr r = *it;
        if (!exec_.finished(r->tid)) {
            ++it;
            continue;
        }
        session_rec& s = rec_for(r->sid);
        const sched::task_state st = exec_.state_of(r->tid);
        const sched::node_t on = exec_.record_of(r->tid).executed_on;
        breaker* b = on >= 1 && static_cast<std::size_t>(on) <= breakers_.size()
                         ? &breakers_[static_cast<std::size_t>(on) - 1]
                         : nullptr;
        // While a breaker is half-open only its probe's outcome moves it:
        // an unpinned request that happened to run there proves nothing.
        if (b != nullptr && b->state() == breaker_state::half_open &&
            !(r->probe && on == r->topts.affinity)) {
            b = nullptr;
        }
        // A probe that never reached its engine (rerouted, expired) settles
        // the outcome breaker normally but must free the probe slot on the
        // engine it was probing, or that breaker wedges half-open.
        if (r->probe && on != r->topts.affinity) {
            breakers_[static_cast<std::size_t>(r->topts.affinity) - 1]
                .abort_probe();
        }
        switch (st) {
            case sched::task_state::done:
                r->ph = phase::done;
                ++s.completed;
                ++stats_.completed;
                s.met->completed->add(1);
                latency_ns_[static_cast<std::size_t>(r->cls)]->record(
                    static_cast<std::uint64_t>(
                        std::max<std::int64_t>(sim::now() - r->submitted_at, 0)));
                if (b != nullptr) {
                    b->record_success();
                }
                break;
            case sched::task_state::expired:
                r->ph = phase::expired;
                r->error =
                    "request deadline exceeded before dispatch (scheduler "
                    "queue, node " +
                    std::to_string(on) + ")";
                ++s.expired;
                ++stats_.expired;
                s.met->expired->add(1);
                if (r->probe && b != nullptr) {
                    b->abort_probe();
                }
                aurora::obs::emit_now(aurora::obs::stage::expired, 0, r->serial,
                                      0, 0);
                break;
            default: { // failed
                r->ph = phase::failed;
                // Carry the executor's root cause so request::get() rethrows
                // it, matching the diagnostics of the non-serving wait_all().
                const std::string& why = exec_.error_of(r->tid);
                r->error = "request failed on node " + std::to_string(on) +
                           (why.empty() ? "" : ": " + why);
                ++s.failed;
                ++stats_.failed;
                s.met->failed->add(1);
                if (b != nullptr) {
                    b->record_failure();
                }
                break;
            }
        }
        it = inflight_.erase(it);
        progress = true;
    }
    return progress;
}

void server::refresh_gauges() {
    for (std::size_t t = 0; t < num_targets_; ++t) {
        breaker_gauges_[t]->set(
            static_cast<std::int64_t>(breakers_[t].state()));
        const std::uint64_t trips = breakers_[t].trips();
        const std::uint64_t seen = breaker_trips_[t]->value();
        if (trips > seen) {
            breaker_trips_[t]->add(trips - seen);
        }
    }
    backlog_gauge_->set(static_cast<std::int64_t>(backlog()));
}

breaker_state server::breaker_of(sched::node_t node) {
    AURORA_CHECK_MSG(node >= 1 &&
                         static_cast<std::size_t>(node) <= breakers_.size(),
                     "node " << node << " has no breaker");
    return breakers_[static_cast<std::size_t>(node) - 1].state();
}

bool server::poll() {
    bool progress = expire_queued();
    progress = dispatch_queued() || progress;
    progress = exec_.poll() || progress;
    progress = reconcile() || progress;
    refresh_gauges();
    return progress;
}

void server::drain() {
    AURORA_TRACE_SPAN("admit", "drain");
    while (queued_total_ > 0 || !inflight_.empty()) {
        poll();
    }
    // Settle anything the executor still tracks (e.g. work submitted through
    // scheduler() directly) so the underlying runtime can quiesce too.
    while (exec_.unfinished() > 0) {
        exec_.poll();
    }
}

} // namespace aurora::admit
