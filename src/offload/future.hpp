// future<T> — lazy synchronisation with an asynchronous offload (Table II).
//
// Provides non-blocking test() and blocking get(). Futures are produced by
// offload::async() (remote results, collected through the runtime) and by
// data-transfer operations (immediately-ready futures).
#pragma once

#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "offload/protocol.hpp"
#include "offload/types.hpp"
#include "sim/engine.hpp"
#include "util/check.hpp"

namespace ham::offload {

namespace detail {

/// Implemented by the runtime: per-slot result collection.
class result_source {
public:
    virtual ~result_source() = default;
    /// Non-blocking: true when the result for `ticket` arrived; fills `out`
    /// with [result_header][payload].
    virtual bool try_collect(node_t node, std::uint64_t ticket, std::uint32_t slot,
                             std::vector<std::byte>& out) = 0;
    /// try_collect() without the probe's cost, for a caller that already
    /// paid it (e.g. in a sim::poll_cycle step).
    virtual bool collect_probe(node_t node, std::uint64_t ticket,
                               std::uint32_t slot, std::vector<std::byte>& out) = 0;
    /// Blocking variant.
    virtual void wait_collect(node_t node, std::uint64_t ticket, std::uint32_t slot,
                              std::vector<std::byte>& out) = 0;
    /// Bounded variant: poll until the result arrives or virtual time reaches
    /// `deadline_ns`; false on timeout (the request stays outstanding).
    virtual bool wait_collect_until(node_t node, std::uint64_t ticket,
                                    std::uint32_t slot, std::vector<std::byte>& out,
                                    sim::time_ns deadline_ns) = 0;
};

} // namespace detail

/// Thrown by future<T>::get() when the offloaded code raised an exception on
/// the target.
class offload_error : public std::runtime_error {
public:
    explicit offload_error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when the target that holds (or would run) the offload transitioned
/// to target_health::failed — it died, its backend never attached, or it
/// exhausted the retry budget. The scheduler catches this to re-route work.
class target_failed_error : public offload_error {
public:
    using offload_error::offload_error;
};

/// target_failed_error for a backend that could not be constructed (e.g.
/// veo_proc_create returned null or the application library failed to load).
class target_attach_error : public target_failed_error {
public:
    using target_failed_error::target_failed_error;
};

/// Thrown when the control plane rejects new work instead of queueing it —
/// a tenant exceeded its quota, the shared queues are saturated, or a
/// circuit breaker is shedding for a struggling target (aurora::admit), or
/// the scheduler's bounded queues are full in shed mode (aurora::sched).
/// The work was NOT accepted; retry_after_ns() is a virtual-time hint for
/// when resubmission is likely to be admitted.
class admission_error : public offload_error {
public:
    admission_error(const std::string& what, std::int64_t retry_after_ns)
        : offload_error(what), retry_after_ns_(retry_after_ns) {}

    [[nodiscard]] std::int64_t retry_after_ns() const noexcept {
        return retry_after_ns_;
    }

private:
    std::int64_t retry_after_ns_;
};

/// Thrown when a request's deadline expired: either the work was cancelled
/// before dispatch (settled with protocol::status::deadline_exceeded — it
/// never executed), or a bounded wait (future::get_until) timed out before
/// the result landed (the request itself stays outstanding).
class deadline_exceeded_error : public offload_error {
public:
    using offload_error::offload_error;
};

template <typename T>
class future {
    static_assert(std::is_void_v<T> || std::is_trivially_copyable_v<T>,
                  "offload results travel as raw bytes");

    struct empty {};
    using storage = std::conditional_t<std::is_void_v<T>, empty, T>;

    struct state {
        detail::result_source* src = nullptr;
        node_t node = 0;
        std::uint64_t ticket = 0;
        std::uint32_t slot = 0;
        bool ready = false;
        bool failed = false;
        std::uint64_t status = 0; ///< result_header status of a failed result
        std::string error_text;
        storage value{};
        std::function<void()> on_ready;
        /// An exception the on_ready callback raised during settlement. It is
        /// parked here instead of escaping the poll that happened to deliver
        /// the result (which may be settling a whole batch of waiters, e.g.
        /// fail_target's synthetic results) and rethrown from get().
        std::exception_ptr callback_error;
    };

public:
    future() = default;

    /// A future waiting on a remote result.
    static future remote(detail::result_source& src, node_t node,
                         std::uint64_t ticket, std::uint32_t slot) {
        future f;
        f.s_ = std::make_shared<state>();
        f.s_->src = &src;
        f.s_->node = node;
        f.s_->ticket = ticket;
        f.s_->slot = slot;
        return f;
    }

    /// An already-satisfied future (e.g. a completed synchronous transfer).
    template <typename U = T>
    static future ready(U&& value)
        requires(!std::is_void_v<T>)
    {
        future f;
        f.s_ = std::make_shared<state>();
        f.s_->ready = true;
        f.s_->value = std::forward<U>(value);
        return f;
    }
    static future ready()
        requires(std::is_void_v<T>)
    {
        future f;
        f.s_ = std::make_shared<state>();
        f.s_->ready = true;
        return f;
    }

    [[nodiscard]] bool valid() const noexcept { return s_ != nullptr; }

    /// Register a completion callback, invoked exactly once from within the
    /// test()/get() call that observes the result (or immediately, when the
    /// future is already satisfied). The callback must not block; it runs on
    /// the host process while the runtime is mid-poll. One callback per
    /// future — the scheduling-layer hook for dependency resolution. An
    /// exception thrown by the callback never escapes the delivering poll
    /// (settlement must reach every waiter); it is rethrown by get().
    void on_ready(std::function<void()> cb) {
        AURORA_CHECK_MSG(valid(), "on_ready() on an invalid future");
        AURORA_CHECK_MSG(!s_->on_ready, "future already has an on_ready callback");
        if (s_->ready) {
            invoke_callback(std::move(cb));
            return;
        }
        s_->on_ready = std::move(cb);
    }

    /// Non-blocking readiness probe.
    [[nodiscard]] bool test() { return probe(&detail::result_source::try_collect); }

    /// test() whose probe cost the caller already paid, e.g. in the
    /// sim::poll_cycle step that found this future worth probing.
    [[nodiscard]] bool test_paid() {
        return probe(&detail::result_source::collect_probe);
    }

    /// Bounded readiness wait on *virtual* time: poll until the result lands
    /// or sim::now() reaches `deadline_ns`. True when the future became ready.
    bool wait_until(sim::time_ns deadline_ns) {
        AURORA_CHECK_MSG(valid(), "wait_until() on an invalid future");
        if (s_->ready) {
            return true;
        }
        std::vector<std::byte> bytes;
        if (!s_->src->wait_collect_until(s_->node, s_->ticket, s_->slot, bytes,
                                         deadline_ns)) {
            return false;
        }
        absorb(bytes);
        return true;
    }

    /// wait_until() relative to the current virtual time.
    bool wait_for(sim::duration_ns timeout_ns) {
        return wait_until(sim::now() + timeout_ns);
    }

    /// Blocking accessor; rethrows target-side failures as offload_error
    /// (target_failed_error when the target itself was declared failed).
    T get() {
        AURORA_CHECK_MSG(valid(), "get() on an invalid future");
        if (!s_->ready) {
            std::vector<std::byte> bytes;
            s_->src->wait_collect(s_->node, s_->ticket, s_->slot, bytes);
            absorb(bytes);
        }
        if (s_->callback_error) {
            std::rethrow_exception(s_->callback_error);
        }
        if (s_->failed) {
            if (s_->status == protocol::status::target_failed) {
                std::string what =
                    "offload target node " + std::to_string(s_->node) + " failed";
                if (!s_->error_text.empty()) {
                    what += ": " + s_->error_text;
                }
                throw target_failed_error(what);
            }
            if (s_->status == protocol::status::deadline_exceeded) {
                std::string what = "offload request to node " +
                                   std::to_string(s_->node) +
                                   " cancelled: deadline exceeded before dispatch";
                if (!s_->error_text.empty()) {
                    what += ": " + s_->error_text;
                }
                throw deadline_exceeded_error(what);
            }
            std::string what = "offloaded function raised an exception on node " +
                               std::to_string(s_->node);
            if (!s_->error_text.empty()) {
                what += ": " + s_->error_text;
            }
            throw offload_error(what);
        }
        if constexpr (!std::is_void_v<T>) {
            return s_->value;
        }
    }

    /// Deadline-bounded get(): wait until virtual time `deadline_ns`, then
    /// give up with deadline_exceeded_error. On timeout the request itself
    /// stays outstanding — a later get()/test() can still collect it.
    T get_until(sim::time_ns deadline_ns) {
        AURORA_CHECK_MSG(valid(), "get_until() on an invalid future");
        if (!wait_until(deadline_ns)) {
            throw deadline_exceeded_error(
                "offload result from node " + std::to_string(s_->node) +
                " not ready by its deadline (request still outstanding)");
        }
        return get();
    }

private:
    using collect_fn = bool (detail::result_source::*)(
        node_t, std::uint64_t, std::uint32_t, std::vector<std::byte>&);

    bool probe(collect_fn collect) {
        AURORA_CHECK_MSG(valid(), "test() on an invalid future");
        if (s_->ready) {
            return true;
        }
        std::vector<std::byte> bytes;
        if (!(s_->src->*collect)(s_->node, s_->ticket, s_->slot, bytes)) {
            return false;
        }
        absorb(bytes);
        return true;
    }

    void absorb(const std::vector<std::byte>& bytes) {
        AURORA_CHECK(bytes.size() >= sizeof(protocol::result_header));
        protocol::result_header h;
        std::memcpy(&h, bytes.data(), sizeof(h));
        s_->failed = h.status != protocol::status::ok;
        s_->status = h.status;
        if (s_->failed && bytes.size() > sizeof(h)) {
            // Failed results carry the target exception's what() text.
            s_->error_text.assign(
                reinterpret_cast<const char*>(bytes.data() + sizeof(h)),
                bytes.size() - sizeof(h));
        }
        if constexpr (!std::is_void_v<T>) {
            if (!s_->failed) {
                AURORA_CHECK_MSG(bytes.size() >= sizeof(h) + sizeof(T),
                                 "offload result smaller than the expected type");
                std::memcpy(&s_->value, bytes.data() + sizeof(h), sizeof(T));
            }
        }
        s_->ready = true;
        if (s_->on_ready) {
            // Cleared before invoking so the callback observes a plain ready
            // future; it must not destroy the future it was registered on.
            std::function<void()> cb = std::move(s_->on_ready);
            s_->on_ready = nullptr;
            invoke_callback(std::move(cb));
        }
    }

    void invoke_callback(std::function<void()> cb) {
        try {
            cb();
        } catch (...) {
            s_->callback_error = std::current_exception();
        }
    }

    std::shared_ptr<state> s_;
};

} // namespace ham::offload
