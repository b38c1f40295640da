#include "sim/engine.hpp"

#include <algorithm>
#include <sstream>

#include "util/check.hpp"

namespace aurora::sim {

namespace {
thread_local process* tl_current = nullptr;

/// One inline evaluation of a poll_cycle() predicate on this thread.
struct probe_frame {
    std::exception_ptr violation; ///< the predicate made a simulation call
};
thread_local probe_frame* tl_probe = nullptr;

/// Installs a probe_frame for the duration of one predicate call; restores
/// the thread's state on every exit path.
class probe_scope {
public:
    explicit probe_scope(probe_frame& f) noexcept { tl_probe = &f; }
    ~probe_scope() { tl_probe = nullptr; }
    probe_scope(const probe_scope&) = delete;
    probe_scope& operator=(const probe_scope&) = delete;
};

/// Simulation calls from inside a predicate would re-enter the scheduler
/// (and its mutex) that is evaluating it: fail loudly instead.
void check_not_probing() {
    if (tl_probe == nullptr) {
        return;
    }
    try {
        AURORA_CHECK_MSG(tl_probe == nullptr,
                         "simulation call inside a poll_cycle predicate: the "
                         "predicate runs in the scheduler, so it must use its "
                         "`now` argument and never block, spawn or signal");
    } catch (...) {
        tl_probe->violation = std::current_exception();
        throw;
    }
}

const char* state_name(int s) {
    switch (s) {
        case 0: return "ready";
        case 1: return "running";
        case 2: return "blocked";
        case 3: return "finished";
        default: return "?";
    }
}
} // namespace

// --- process ----------------------------------------------------------------

process::process(simulation& sim, std::uint32_t id, std::string name, body_fn body)
    : sim_(sim), id_(id), name_(std::move(name)), body_(std::move(body)) {}

process::~process() {
    // Threads are joined by the owning simulation before destruction.
    AURORA_ASSERT(!thread_.joinable());
}

void process::thread_main() {
    tl_current = this;
    std::exception_ptr err;
    try {
        {
            std::unique_lock<std::mutex> lk(sim_.mu_);
            sim_.wait_for_grant_locked(lk, *this);
        }
        body_();
    } catch (const simulation_aborted&) {
        // Orderly unwind after abort; nothing to record.
    } catch (...) {
        err = std::current_exception();
    }

    std::unique_lock<std::mutex> lk(sim_.mu_);
    if (err != nullptr) {
        sim_.abort_locked(err);
    }
    st_ = state::finished;
    for (process* w : join_waiters_) {
        sim_.make_ready_locked(*w, std::max(w->now_, now_));
    }
    join_waiters_.clear();
    process* next = sim_.schedule_next_locked(this);
    lk.unlock();
    simulation::wake(next);
}

// --- simulation -------------------------------------------------------------

simulation::simulation() = default;

simulation::~simulation() {
    {
        std::unique_lock<std::mutex> lk(mu_);
        if (!done_ && !processes_.empty()) {
            aborted_ = true;
            for (auto& p : processes_) {
                p->cv_.notify_all();
            }
        }
    }
    for (auto& p : processes_) {
        if (p->thread_.joinable()) {
            p->thread_.join();
        }
    }
}

process& simulation::spawn(std::string name, process::body_fn body) {
    check_not_probing();
    std::unique_lock<std::mutex> lk(mu_);
    AURORA_CHECK_MSG(!done_ && !aborted_, "spawn on a finished simulation");
    const auto id = static_cast<std::uint32_t>(processes_.size());
    time_ns start = 0;
    if (started_) {
        AURORA_CHECK_MSG(tl_current != nullptr && running_proc_ == tl_current,
                         "spawn during run() must come from the running process");
        start = tl_current->now_;
    }
    // Constructor is private; cannot use make_unique.
    auto owned = std::unique_ptr<process>(new process(*this, id, std::move(name),
                                                      std::move(body)));
    process& p = *owned;
    processes_.push_back(std::move(owned));
    make_ready_locked(p, start);
    ++stats_.processes_spawned;
    p.thread_ = std::thread(&process::thread_main, &p);
    return p;
}

void simulation::run() {
    std::unique_lock<std::mutex> lk(mu_);
    AURORA_CHECK_MSG(!started_, "simulation::run() may only be called once");
    started_ = true;
    process* first = schedule_next_locked(nullptr);
    lk.unlock();
    wake(first);
    lk.lock();
    done_cv_.wait(lk, [&] { return done_; });
    lk.unlock();
    for (auto& p : processes_) {
        if (p->thread_.joinable()) {
            p->thread_.join();
        }
    }
    if (error_ != nullptr) {
        std::rethrow_exception(error_);
    }
}

void simulation::make_ready_locked(process& p, time_ns wake) {
    if (p.st_ == process::state::finished) {
        return; // e.g. a join waiter unwound by an abort before its wake-up
    }
    p.st_ = process::state::ready;
    p.wake_ = wake;
    p.ready_seq_ = ++ready_seq_counter_;
}

process* simulation::schedule_next_locked(process* leaving) {
    for (;;) {
        if (aborted_) {
            running_proc_ = nullptr;
            const bool all_finished = std::all_of(
                processes_.begin(), processes_.end(),
                [](const auto& p) { return p->st_ == process::state::finished; });
            if (all_finished) {
                done_ = true;
                done_cv_.notify_all();
            }
            return nullptr;
        }

        process* best = nullptr;
        for (auto& p : processes_) {
            if (p->st_ != process::state::ready) {
                continue;
            }
            if (best == nullptr || p->wake_ < best->wake_ ||
                (p->wake_ == best->wake_ && p->ready_seq_ < best->ready_seq_)) {
                best = p.get();
            }
        }
        if (best == nullptr) {
            break;
        }
        if (deadline_ != 0 && best->wake_ > deadline_) {
            abort_locked(std::make_exception_ptr(simulation_error(
                "virtual deadline of " + std::to_string(deadline_) +
                " ns exceeded (next wake-up at " + std::to_string(best->wake_) +
                " ns in '" + best->name_ + "')")));
            return nullptr;
        }
        clock_ = std::max(clock_, best->wake_);
        if (best->poll_ != nullptr && !probe_locked(*best)) {
            continue; // fruitless idle probe: no handoff, pick again
        }
        if (best != leaving) {
            ++stats_.context_switches;
        }
        running_proc_ = best;
        return best == leaving ? nullptr : best;
    }

    running_proc_ = nullptr;
    const bool all_finished =
        std::all_of(processes_.begin(), processes_.end(), [](const auto& p) {
            return p->st_ == process::state::finished;
        });
    if (all_finished) {
        done_ = true;
        done_cv_.notify_all();
        return nullptr;
    }
    abort_locked(std::make_exception_ptr(simulation_error(deadlock_report_locked())));
    return nullptr;
}

void simulation::wake(process* next) {
    if (next != nullptr) {
        next->cv_.notify_one();
    }
}

bool simulation::probe_locked(process& p) {
    process::poll_state& ps = *p.poll_;
    p.now_ = p.wake_;
    ++stats_.inline_probes;
    probe_frame frame;
    bool fire = true;
    {
        const probe_scope scope(frame);
        try {
            fire = (*ps.ready)(ps.step, p.wake_);
        } catch (...) {
            fire = true; // let the poller run the step for real
        }
    }
    if (frame.violation != nullptr) {
        abort_locked(frame.violation);
        return false;
    }
    if (fire) {
        return true;
    }
    // Exactly what the poller's own advance(costs[next]) would do.
    ps.step = (ps.step + 1) % ps.costs.size();
    make_ready_locked(p, p.wake_ + ps.costs[ps.step]);
    return false;
}

void simulation::abort_locked(std::exception_ptr error) {
    if (error_ == nullptr) {
        error_ = std::move(error);
    }
    aborted_ = true;
    for (auto& p : processes_) {
        p->cv_.notify_all();
    }
    done_cv_.notify_all();
}

void simulation::wait_for_grant_locked(std::unique_lock<std::mutex>& lk, process& me) {
    while (running_proc_ != &me && !aborted_) {
        me.cv_.wait(lk);
    }
    if (aborted_) {
        throw simulation_aborted{};
    }
    me.st_ = process::state::running;
    me.now_ = me.wake_;
}

void simulation::hand_off_locked(std::unique_lock<std::mutex>& lk, process& me) {
    if (process* next = schedule_next_locked(&me)) {
        lk.unlock();
        wake(next);
        lk.lock();
    }
    wait_for_grant_locked(lk, me);
}

void simulation::block_current_locked(std::unique_lock<std::mutex>& lk, process& me) {
    AURORA_ASSERT(running_proc_ == &me);
    me.st_ = process::state::blocked;
    hand_off_locked(lk, me);
}

void simulation::reschedule_current_locked(std::unique_lock<std::mutex>& lk, process& me,
                                           duration_ns d) {
    AURORA_ASSERT(running_proc_ == &me);
    make_ready_locked(me, me.now_ + d);
    hand_off_locked(lk, me);
}

std::string simulation::deadlock_report_locked() const {
    std::ostringstream os;
    os << "simulation deadlock: no runnable process at t=" << clock_ << " ns;";
    for (const auto& p : processes_) {
        os << " [" << p->id_ << ':' << p->name_ << ' '
           << state_name(static_cast<int>(p->st_)) << " t=" << p->now_ << ']';
    }
    return os.str();
}

// --- context functions ------------------------------------------------------

bool in_simulation() noexcept {
    return tl_current != nullptr;
}

process& self() {
    check_not_probing();
    AURORA_CHECK_MSG(tl_current != nullptr,
                     "sim context function called outside a simulated process");
    return *tl_current;
}

time_ns now() {
    return self().now();
}

void advance(duration_ns d) {
    AURORA_CHECK_MSG(d >= 0, "advance duration must be non-negative, got " << d);
    process& me = self();
    std::unique_lock<std::mutex> lk(me.sim_.mu_);
    me.sim_.reschedule_current_locked(lk, me, d);
}

void sleep_until(time_ns t) {
    const time_ns cur = now();
    advance(t > cur ? t - cur : 0);
}

void join(process& p) {
    process& me = self();
    AURORA_CHECK_MSG(&p != &me, "a process cannot join itself");
    std::unique_lock<std::mutex> lk(me.sim_.mu_);
    if (p.st_ == process::state::finished) {
        return;
    }
    p.join_waiters_.push_back(&me);
    me.sim_.block_current_locked(lk, me);
}

std::size_t poll_cycle(std::span<const duration_ns> costs, std::size_t first,
                       const poll_ready_fn& ready) {
    AURORA_CHECK_MSG(first < costs.size(),
                     "poll_cycle needs a non-empty cycle containing step "
                         << first);
    AURORA_CHECK_MSG(std::all_of(costs.begin(), costs.end(),
                                 [](duration_ns d) { return d >= 0; }),
                     "poll_cycle step costs must be non-negative");
    process& me = self();
    std::unique_lock<std::mutex> lk(me.sim_.mu_);
    process::poll_state ps{costs, &ready, first};
    me.poll_ = &ps;
    // Unpark on every exit, including the unwind of an aborted simulation.
    struct unpark {
        process& p;
        ~unpark() { p.poll_ = nullptr; }
    } const guard{me};
    me.sim_.reschedule_current_locked(lk, me, costs[first]);
    return ps.step;
}

} // namespace aurora::sim
