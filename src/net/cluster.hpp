// aurora::net cluster — a simulated multi-VH tier for HAM-Offload.
//
// A cluster models N vector hosts. Node 0 is the *origin*: the ambient VH
// application process (offload::run), whose runtime and VEs keep their exact
// single-machine behaviour and wire encoding. Nodes 1..N-1 are *remote* VHs:
// each runs a gateway process owning its own ham::offload::runtime with its
// own VE target set, reachable from the origin over a modeled
// inter_node_channel (link.hpp).
//
// Active messages route VH -> VH -> VE: the origin frames the serialised
// message with a protocol::routing_header (dst_node, target), the link
// delivers it after its calibrated latency, and the destination gateway
// re-posts the payload through its own runtime — slot discipline,
// generations, epochs, fault injection, heal recovery and metrics all apply
// on the remote node exactly as they do locally. Results travel back as
// routed result frames correlated by an origin-issued ticket; the cluster
// implements detail::result_source, so remote completions flow through the
// ordinary future<T>/on_ready machinery.
//
// Identity: VH `k`'s VE `i` has the cluster-unique global id k*V + i
// (V = ves_per_node). The gateway runtime is constructed with
// runtime_options::node_base = k*V, so remote target contexts, fault
// schedules and metric labels all see the global id — a buffer_ptr
// serialised at the origin with a global id dereferences correctly on the
// remote VE, and aurora::fault can kill a specific remote VE
// deterministically.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ham/functor.hpp"
#include "ham/msg.hpp"
#include "net/link.hpp"
#include "obs/obs.hpp"
#include "offload/buffer_ptr.hpp"
#include "offload/future.hpp"
#include "offload/options.hpp"
#include "offload/protocol.hpp"
#include "offload/runtime.hpp"
#include "offload/types.hpp"
#include "sim/platform.hpp"

namespace aurora::net {

struct cluster_options {
    /// Total VH nodes including the origin (>= 1).
    int nodes = 2;
    /// VE targets per VH node (>= 1). The origin's own targets come from its
    /// ambient runtime; remote nodes get `ves_per_node` loopback VEs each.
    int ves_per_node = 4;
    /// Interconnect calibration, one link origin <-> each remote VH.
    link_profile link = link_profile::ib_hdr();
    /// Options for each remote gateway's runtime (backend forced to
    /// loopback, targets/node_base overwritten per node).
    ham::offload::runtime_options remote;
};

/// One VH node's aggregate health, derived from its per-VE health states.
struct node_status {
    ham::offload::target_health health =
        ham::offload::target_health::healthy;
    int ves_total = 0;
    int ves_healthy = 0;
    int ves_recovering = 0;
    int ves_failed = 0;
    std::size_t link_depth = 0; ///< deepest in-flight direction (0 for node 0)
};

class cluster : public ham::offload::detail::result_source {
public:
    /// Construct on the origin VH process, inside offload::run() (the origin
    /// runtime must be installed). Spawns one gateway process per remote
    /// node; the destructor routes terminate frames and joins them.
    cluster(sim::platform& plat, cluster_options opt);
    ~cluster() override;
    cluster(const cluster&) = delete;
    cluster& operator=(const cluster&) = delete;

    [[nodiscard]] int nodes() const noexcept { return opt_.nodes; }
    [[nodiscard]] int ves_per_node() const noexcept {
        return opt_.ves_per_node;
    }
    [[nodiscard]] const link_profile& link() const noexcept {
        return opt_.link;
    }

    /// Cluster-unique identity of VH `vh`'s VE `ve` (ve in 1..ves_per_node).
    /// Node 0 ids equal the legacy local ids.
    [[nodiscard]] ham::offload::node_t global_id(int vh, int ve) const {
        return static_cast<ham::offload::node_t>(vh * opt_.ves_per_node + ve);
    }

    // --- active messages ------------------------------------------------------
    /// Route one pre-serialised active message to (vh, ve). vh == 0 posts
    /// through the origin runtime (legacy wire path, byte-identical);
    /// otherwise the message is framed with a routing header and sent over
    /// the node's link, blocking in virtual time under backpressure.
    /// Returns the ticket a future must wait on, and the result_source node
    /// token to construct it with.
    struct routed_send {
        ham::offload::node_t source_node = 0; ///< future<T>::remote node arg
        std::uint64_t ticket = 0;
        std::uint32_t slot = 0;
    };
    routed_send submit_raw(int vh, int ve, const void* msg, std::size_t len,
                           ham::offload::protocol::msg_kind kind =
                               ham::offload::protocol::msg_kind::user);

    /// Typed offload to (vh, ve): serialise `f` with the origin image's
    /// translation tables and route it. The future completes through this
    /// cluster (remote) or the origin runtime (vh == 0).
    template <typename Functor>
    [[nodiscard]] auto async(int vh, int ve, Functor f)
        -> ham::offload::future<std::invoke_result_t<Functor>> {
        using R = std::invoke_result_t<Functor>;
        ham::offload::runtime& rt = origin();
        alignas(16) std::byte buf[ham::default_max_msg_size];
        sim::advance(rt.costs().ham_msg_construct_ns);
        const std::size_t len = ham::write_message(
            rt.host_registry(), buf,
            std::min<std::size_t>(sizeof(buf), rt.options().msg_size), f);
        const routed_send s = submit_raw(vh, ve, buf, len);
        if (vh == 0) {
            return ham::offload::future<R>::remote(rt, s.source_node, s.ticket,
                                                   s.slot);
        }
        return ham::offload::future<R>::remote(*this, s.source_node, s.ticket,
                                               s.slot);
    }

    // --- remote memory (Table II, cluster-extended) ---------------------------
    /// Allocate on (vh, ve); the returned buffer_ptr carries the global id,
    /// so it dereferences on the owning VE and serialises into functors.
    template <typename T>
    [[nodiscard]] ham::offload::buffer_ptr<T> allocate(int vh, int ve,
                                                       std::size_t count) {
        const std::uint64_t addr = allocate_raw(vh, ve, count * sizeof(T));
        return ham::offload::buffer_ptr<T>(addr, global_id(vh, ve));
    }
    template <typename T>
    void free(int vh, ham::offload::buffer_ptr<T> p) {
        free_raw(vh, local_ve(vh, p.node()), p.addr());
    }
    template <typename T>
    void put(const T* src, int vh, ham::offload::buffer_ptr<T> dst,
             std::size_t count) {
        put_raw(vh, local_ve(vh, dst.node()), src, dst.addr(),
                count * sizeof(T));
    }
    template <typename T>
    void get(int vh, ham::offload::buffer_ptr<T> src, T* dst,
             std::size_t count) {
        get_raw(vh, local_ve(vh, src.node()), src.addr(), dst,
                count * sizeof(T));
    }

    std::uint64_t allocate_raw(int vh, int ve, std::uint64_t bytes);
    void free_raw(int vh, int ve, std::uint64_t addr);
    void put_raw(int vh, int ve, const void* src, std::uint64_t dst,
                 std::uint64_t len);
    void get_raw(int vh, int ve, std::uint64_t src, void* dst,
                 std::uint64_t len);

    // --- health / introspection ----------------------------------------------
    /// Health of (vh, ve): the origin runtime's view for node 0, the remote
    /// gateway runtime's view otherwise (control-plane read; the data plane
    /// is strictly framed — see docs/CLUSTER.md).
    [[nodiscard]] ham::offload::target_health engine_health(int vh, int ve);
    /// Probation ramp of (vh, ve) — mirrors runtime::probation_progress().
    [[nodiscard]] std::uint32_t engine_probation(int vh, int ve);
    /// Last remote incarnation observed in a result frame from (vh, ve).
    [[nodiscard]] std::uint8_t observed_epoch(int vh, int ve) const;
    /// Node rollup (health gauge also published as aurora_net_node_health).
    [[nodiscard]] node_status status(int vh);

    /// Origin-side tickets still waiting for a routed result from `vh`.
    [[nodiscard]] std::size_t outstanding(int vh) const;

    // --- detail::result_source (routed completions) ---------------------------
    bool try_collect(ham::offload::node_t node, std::uint64_t ticket,
                     std::uint32_t slot, std::vector<std::byte>& out) override;
    /// try_collect() itself: it charges no probe cost of its own.
    bool collect_probe(ham::offload::node_t node, std::uint64_t ticket,
                       std::uint32_t slot, std::vector<std::byte>& out) override {
        return try_collect(node, ticket, slot, out);
    }
    void wait_collect(ham::offload::node_t node, std::uint64_t ticket,
                      std::uint32_t slot, std::vector<std::byte>& out) override;
    bool wait_collect_until(ham::offload::node_t node, std::uint64_t ticket,
                            std::uint32_t slot, std::vector<std::byte>& out,
                            sim::time_ns deadline_ns) override;

private:
    /// Remote-memory control frame, carried as a routed payload addressed to
    /// the gateway itself (routing target == the VE the operation acts on,
    /// kind data_put/data_get; see docs/PROTOCOLS.md).
    struct mem_request {
        enum class op : std::uint8_t { alloc, free_mem, put, get };
        op o = op::alloc;
        std::uint16_t ve = 0;
        std::uint64_t addr = 0;
        std::uint64_t len = 0;
    };

    struct gateway; // one remote VH (cluster.cpp)

    /// Gateway process body: boots a runtime for this node's VEs, then
    /// forwards routed frames until the terminate frame arrives.
    void run_gateway(gateway& g);
    void gateway_loop(gateway& g, ham::offload::runtime& rt);
    /// Wrap result `bytes` for (vh, ve, origin ticket) in a routing header,
    /// echoing the request's trace context (all-zero when absent).
    std::vector<std::byte>
    result_frame(gateway& g, int ve, std::uint64_t origin_ticket,
                 const std::vector<std::byte>& bytes,
                 const aurora::obs::trace_context& ctx);
    /// Execute one mem_request on the gateway runtime; returns the reply.
    static std::vector<std::byte>
    serve_mem_request(ham::offload::runtime& rt,
                      const std::vector<std::byte>& payload);

    ham::offload::runtime& origin();
    [[nodiscard]] int local_ve(int vh, ham::offload::node_t gid) const;
    gateway& gw(int vh);
    const gateway& gw(int vh) const;
    /// Drain every deliverable inbound frame of `g` into its arrived map.
    void drain_results(gateway& g);
    /// Frame + send over `g`'s link, blocking (virtual time) on backpressure.
    std::uint64_t route_frame(gateway& g, int ve,
                              ham::offload::protocol::msg_kind kind,
                              const void* payload, std::size_t len);
    /// Synchronous control round trip; returns the reply payload.
    std::vector<std::byte> mem_roundtrip(int vh, const mem_request& req,
                                         const void* data, std::size_t len);
    void publish_node_health(int vh);
    /// Aggregate health of a remote node, as its gateway publishes it.
    ham::offload::target_health gateway_health(gateway& g);

    sim::platform& plat_;
    cluster_options opt_;
    ham::offload::runtime* origin_ = nullptr;
    std::vector<std::unique_ptr<gateway>> gateways_; ///< [vh-1]
};

} // namespace aurora::net
