#include "offload/app_image.hpp"

#include <cstring>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "fault/fault.hpp"
#include "mem/reg_cache.hpp"
#include "mem/sg.hpp"
#include "offload/protocol.hpp"
#include "offload/slot_protocol.hpp"
#include "offload/target_loop.hpp"
#include "sim/engine.hpp"
#include "util/check.hpp"
#include "vedma/dmaatb.hpp"
#include "vedma/lhm_shm.hpp"
#include "vedma/sysv_shm.hpp"
#include "vedma/userdma.hpp"
#include "veos/ve_process.hpp"

namespace ham::offload {

namespace {

constexpr std::uint64_t round_up8(std::uint64_t v) {
    return (v + 7) & ~std::uint64_t{7};
}

// --- per-process configuration stored by the setup C-API ---------------------

/// What both VE channels are set up with.
struct ve_link_cfg {
    protocol::comm_layout layout{};
    node_t node = 0;
    std::int64_t idle_timeout_ns = 0; ///< 0 = poll forever
    std::uint8_t epoch = 0;           ///< incarnation (aurora::heal)
};

struct veo_target_cfg : ve_link_cfg {
    std::uint64_t comm_addr = 0;
};

struct vedma_target_cfg : ve_link_cfg {
    const aurora::vedma::shm_registry* shms = nullptr;
    int shm_key = 0;
    bool shm_small_results = false;
    std::uint32_t shm_result_threshold = 0;
    int staging_shm_key = 0; ///< 0 = DMA data path disabled
    std::uint64_t staging_chunk_bytes = 0;
    bool zero_copy = false; ///< accept zero-copy data_msg shapes (aurora::mem)
    int vh_socket = 0;      ///< socket of the host's user buffers
};

using target_cfg = std::variant<veo_target_cfg, vedma_target_cfg>;

// --- target memory over the VE process's simulated HBM2 ----------------------

class ve_target_memory final : public target_memory {
public:
    explicit ve_target_memory(aurora::veos::ve_process& proc) : proc_(proc) {}
    void read(std::uint64_t addr, void* dst, std::uint64_t len) override {
        proc_.mem().read(addr, dst, len);
    }
    void write(std::uint64_t addr, const void* src, std::uint64_t len) override {
        proc_.mem().write(addr, src, len);
    }

private:
    aurora::veos::ve_process& proc_;
};

// --- the VE half of both protocols --------------------------------------------

/// The VE side of a slot protocol: the round-robin receive flag poll and the
/// result publish, over a `Wire` that moves the bytes and flags. A Wire has
///   name                          backend label of epoch-reject counts
///   recv_flag(slot)               the receive flag at `slot`: .peek() reads
///                                 it untimed, .cost is one timed probe,
///                                 .clear() zeroes it
///   fetch(slot, dst, len)         copy a received message in
///   control(flag, buf)            consume a channel-internal message (true)
///   put_result(slot, bytes, len)  write a result message out
///   raise(slot, raw)              publish a result flag
template <class Wire>
class ve_channel final : public target_channel {
public:
    template <class... Args>
    explicit ve_channel(const ve_link_cfg& link, Args&&... args)
        : link_(link),
          core_(Wire::name, link.node, link.layout.recv.slots, link.epoch),
          wire_(std::forward<Args>(args)...) {}

    protocol::flag_word recv_next(std::vector<std::byte>& buf) override {
        for (;;) {
            const std::uint32_t slot = core_.cursor();
            const protocol::flag_word flag = await(wire_.recv_flag(slot));
            buf.resize(flag.len);
            if (flag.len > 0) {
                wire_.fetch(slot, buf.data(), flag.len);
            }
            if (wire_.control(flag, buf)) {
                // Handled inside the channel and acknowledged through the
                // regular result path; the message loop never sees it.
                const protocol::result_header ack{};
                send_result(slot, &ack, sizeof(ack));
                continue;
            }
            return flag;
        }
    }

    void send_result(std::uint32_t result_slot, const void* bytes,
                     std::size_t len) override {
        AURORA_CHECK(result_slot < link_.layout.send.slots);
        AURORA_CHECK(len <= link_.layout.send.msg_size);
        wire_.put_result(result_slot, bytes, len);
        wire_.raise(result_slot, core_.result(result_slot, len));
    }

private:
    /// The VE's idle deadline (0 = none) has passed at `now`.
    [[nodiscard]] bool idle_expired(sim::time_ns idle_start,
                                    sim::time_ns now) const {
        return link_.idle_timeout_ns > 0 &&
               now - idle_start >= link_.idle_timeout_ns;
    }

    /// "Every time the runtime on the VE runs idle ... it polls the
    /// notification flag of the next receive buffer" (Sec. III-D). Each probe
    /// waits in a one-step sim::poll_cycle: the scheduler peeks the flag
    /// inline and wakes this process only for a probe the plain poll would
    /// act on. That is when the liveness check that follows would kill the
    /// VE (it must throw on the VE's thread), when the expected generation is
    /// there (a message, or a stale-epoch flag to clear), or when the idle
    /// deadline has passed.
    template <class Flag>
    protocol::flag_word await(const Flag& f) {
        auto& inj = aurora::fault::injector::instance();
        const int node = int(link_.node);
        const sim::time_ns idle_start = sim::now();
        const sim::duration_ns step[] = {f.cost};
        const sim::poll_ready_fn ready = [&](std::size_t, sim::time_ns now) {
            return inj.would_kill(node, now) || core_.due(f.peek()) ||
                   idle_expired(idle_start, now);
        };
        for (;;) {
            inj.check_target_alive(node);
            sim::poll_cycle(step, 0, ready);
            protocol::flag_word flag;
            const slot_protocol::verdict v = core_.take(f.peek(), flag);
            if (v == slot_protocol::verdict::ready) {
                return flag;
            }
            if (v == slot_protocol::verdict::stale) {
                f.clear(); // never execute it; the slot polls clean again
            }
            if (idle_expired(idle_start, sim::now())) {
                // The host went silent for the configured deadline: presume
                // it is gone and exit the loop instead of polling forever.
                inj.note_idle_timeout();
                throw aurora::fault::target_killed{};
            }
        }
    }

    ve_link_cfg link_;
    slot_protocol::target_half core_;
    Wire wire_;
};

// --- VE side of the VEO protocol (Fig. 5) ------------------------------------

/// Both regions live in the VE's own memory: every flag probe and copy is a
/// local memory access — the cheap side of this protocol. A stale flag there
/// is defence in depth: each incarnation's memory starts zeroed.
class veo_wire {
public:
    static constexpr const char* name = "veo";

    veo_wire(aurora::veos::ve_process& proc, const veo_target_cfg& cfg)
        : proc_(proc), cfg_(cfg) {}

    struct flag_ref {
        aurora::veos::ve_process* proc;
        std::uint64_t addr;
        sim::duration_ns cost;
        [[nodiscard]] std::uint64_t peek() const {
            return proc->mem().load_u64(addr);
        }
        void clear() const { proc->mem().store_u64(addr, 0); }
    };

    [[nodiscard]] flag_ref recv_flag(std::uint32_t slot) const {
        const auto& lay = cfg_.layout;
        return {&proc_,
                cfg_.comm_addr + lay.recv_base() + lay.recv.flag_offset(slot),
                proc_.plat().costs().local_poll_ns};
    }

    void fetch(std::uint32_t slot, void* dst, std::uint32_t len) {
        const auto& lay = cfg_.layout;
        proc_.mem().read(cfg_.comm_addr + lay.recv_base() +
                             lay.recv.buffer_offset(slot),
                         dst, len);
        sim::advance(sim::transfer_ns(len, proc_.plat().costs().ve_memcpy_gib));
    }

    static bool control(const protocol::flag_word&, const std::vector<std::byte>&) {
        return false;
    }

    void put_result(std::uint32_t slot, const void* bytes, std::size_t len) {
        const auto& cm = proc_.plat().costs();
        const auto& lay = cfg_.layout;
        // Result message into the send buffer, then the flag (both local).
        proc_.mem().write(cfg_.comm_addr + lay.send_base() +
                              lay.send.buffer_offset(slot),
                          bytes, len);
        sim::advance(sim::transfer_ns(len, cm.ve_memcpy_gib) + cm.local_poll_ns);
    }

    void raise(std::uint32_t slot, std::uint64_t raw) {
        const auto& lay = cfg_.layout;
        proc_.mem().store_u64(
            cfg_.comm_addr + lay.send_base() + lay.send.flag_offset(slot), raw);
    }

private:
    aurora::veos::ve_process& proc_;
    veo_target_cfg cfg_;
};

// --- VE side of the DMA protocol (Fig. 8) -------------------------------------

/// Adapts the channel's DMAATB to the aurora::mem registration cache: VH
/// entries map a host user buffer (at the host's socket), VE entries map an
/// arena region. Each install pays dmaatb_register_ns — the cost the cache
/// exists to amortise.
class dmaatb_registrar final : public aurora::mem::registrar {
public:
    dmaatb_registrar(aurora::vedma::dmaatb& atb, int vh_socket)
        : atb_(atb), vh_socket_(vh_socket) {}

    std::uint64_t do_register(std::uint64_t space, std::uint64_t addr,
                              std::uint64_t len) override {
        if (space == aurora::mem::reg_cache::space_vh) {
            return atb_.register_vh(reinterpret_cast<std::byte*>(addr), len,
                                    vh_socket_);
        }
        return atb_.register_ve(addr, len);
    }
    void do_unregister(std::uint64_t handle) override { atb_.unregister(handle); }

private:
    aurora::vedma::dmaatb& atb_;
    int vh_socket_;
};

/// Registration-cache entry budget per channel: well under dmaatb::max_entries
/// so the channel's fixed comm/staging registrations (and any second channel
/// on the same card) always fit.
constexpr std::size_t ve_reg_cache_capacity = 64;

/// The communication area lives in host memory: the VE "now needs to
/// actively fetch its messages" (Sec. IV-B), polling flags via LHM, moving
/// messages and results with the user DMA engine (or SHM stores for small
/// results) and raising result flags with single SHM word stores. A stale
/// flag there is a real hazard: the shm segment survives respawns, so
/// leftovers of the dead incarnation sit exactly where this one polls.
class vedma_wire {
public:
    static constexpr const char* name = "vedma";

    vedma_wire(aurora::veos::ve_process& proc, const vedma_target_cfg& cfg)
        : proc_(proc),
          cfg_(cfg),
          atb_(proc),
          dma_(atb_),
          registrar_(atb_, cfg.vh_socket),
          cache_(registrar_, ve_reg_cache_capacity,
                 "ve-node" + std::to_string(cfg.node)) {
        // The "rather complex setup process" of Sec. IV-A: attach the host's
        // SysV segment, register it in the DMAATB, and register local staging
        // memory so the user DMA engine can reach both ends.
        AURORA_CHECK(cfg_.shms != nullptr);
        comm_vehva_ = atb_.attach_shm(*cfg_.shms, cfg_.shm_key);

        const std::uint64_t stage_bytes =
            round_up8(cfg_.layout.recv.msg_size) +
            round_up8(sizeof(protocol::result_header) + cfg_.layout.send.msg_size);
        stage_vaddr_ = proc_.ve_alloc(stage_bytes);
        stage_vehva_ = atb_.register_ve(stage_vaddr_, stage_bytes);
        stage_result_off_ = round_up8(cfg_.layout.recv.msg_size);

        // Optional bulk-data path: attach the host staging segment and set up
        // a VE-side staging chunk for user-DMA data movement.
        if (cfg_.staging_shm_key != 0) {
            data_host_vehva_ = atb_.attach_shm(*cfg_.shms, cfg_.staging_shm_key);
            data_stage_vaddr_ = proc_.ve_alloc(cfg_.staging_chunk_bytes);
            data_stage_vehva_ =
                atb_.register_ve(data_stage_vaddr_, cfg_.staging_chunk_bytes);
        }
    }

    ~vedma_wire() {
        // Cached data-path registrations go first; the fixed channel windows
        // below never enter the cache.
        cache_.clear();
        if (cfg_.staging_shm_key != 0) {
            atb_.unregister(data_stage_vehva_);
            atb_.unregister(data_host_vehva_);
            proc_.ve_free(data_stage_vaddr_);
        }
        atb_.unregister(stage_vehva_);
        atb_.unregister(comm_vehva_);
        proc_.ve_free(stage_vaddr_);
    }

    vedma_wire(const vedma_wire&) = delete;
    vedma_wire& operator=(const vedma_wire&) = delete;

    struct flag_ref {
        aurora::vedma::lhm_word word; ///< resolved once per receive
        aurora::vedma::dmaatb* atb;
        std::uint64_t vehva;
        sim::duration_ns cost; ///< one LHM: a PCIe round trip
        [[nodiscard]] std::uint64_t peek() const { return word.peek(); }
        void clear() const { aurora::vedma::shm_store64(*atb, vehva, 0); }
    };

    [[nodiscard]] flag_ref recv_flag(std::uint32_t slot) {
        const auto& lay = cfg_.layout;
        const std::uint64_t vehva =
            comm_vehva_ + lay.recv_base() + lay.recv.flag_offset(slot);
        const aurora::vedma::lhm_word word =
            aurora::vedma::lhm_resolve64(atb_, vehva);
        return {word, &atb_, vehva, word.cost};
    }

    void fetch(std::uint32_t slot, void* dst, std::uint32_t len) {
        // The flag carried the length: fetch the exact message via DMA.
        const auto& lay = cfg_.layout;
        dma_.dma_sync(stage_vehva_,
                      comm_vehva_ + lay.recv_base() + lay.recv.buffer_offset(slot),
                      round_up8(len));
        proc_.mem().read(stage_vaddr_, dst, len);
    }

    /// Bulk-data control messages (data_put/data_get) are executed here.
    bool control(const protocol::flag_word& flag,
                 const std::vector<std::byte>& buf) {
        if (flag.kind != protocol::msg_kind::data_put &&
            flag.kind != protocol::msg_kind::data_get) {
            return false;
        }
        handle_data(flag, buf);
        return true;
    }

    void put_result(std::uint32_t slot, const void* bytes, std::size_t len) {
        const std::uint64_t dst = comm_vehva_ + cfg_.layout.send_base() +
                                  cfg_.layout.send.buffer_offset(slot);
        if (cfg_.shm_small_results && len <= cfg_.shm_result_threshold) {
            // Extension (Sec. V-B): small VE->VH payloads are faster through
            // SHM posted stores than through a DMA transfer.
            alignas(8) std::byte word_buf[8];
            const std::uint64_t whole = len / 8 * 8;
            aurora::vedma::shm_store(atb_, dst, bytes, whole);
            if (len % 8 != 0) {
                std::memset(word_buf, 0, sizeof(word_buf));
                std::memcpy(word_buf, static_cast<const std::byte*>(bytes) + whole,
                            len % 8);
                aurora::vedma::shm_store64(
                    atb_, dst + whole,
                    *reinterpret_cast<const std::uint64_t*>(word_buf));
            }
        } else {
            proc_.mem().write(stage_vaddr_ + stage_result_off_, bytes, len);
            dma_.dma_sync(dst, stage_vehva_ + stage_result_off_, round_up8(len));
        }
    }

    void raise(std::uint32_t slot, std::uint64_t raw) {
        // Notify through a single SHM word store.
        aurora::vedma::shm_store64(atb_,
                                   comm_vehva_ + cfg_.layout.send_base() +
                                       cfg_.layout.send.flag_offset(slot),
                                   raw);
    }

private:
    /// Execute one data_put/data_get control message (extension): move a
    /// staged chunk with the user DMA engine.
    void handle_data(const protocol::flag_word& flag,
                     const std::vector<std::byte>& buf) {
        AURORA_CHECK_MSG(cfg_.staging_shm_key != 0,
                         "data message without a configured staging path");
        AURORA_CHECK(buf.size() >= sizeof(protocol::data_msg));
        protocol::data_msg m;
        std::memcpy(&m, buf.data(), sizeof(m));
        if (m.host_base != 0) {
            handle_data_zero_copy(flag, m);
            return;
        }
        AURORA_CHECK(m.len <= cfg_.staging_chunk_bytes);
        const auto& cm = proc_.plat().costs();

        if (flag.kind == protocol::msg_kind::data_put) {
            // Host staging -> VE staging (user DMA) -> user buffer (HBM2).
            dma_.dma_sync(data_stage_vehva_, data_host_vehva_ + m.staging_off,
                          round_up8(m.len));
            std::vector<std::byte> tmp(m.len);
            proc_.mem().read(data_stage_vaddr_, tmp.data(), m.len);
            proc_.mem().write(m.target_addr, tmp.data(), m.len);
            sim::advance(sim::transfer_ns(m.len, cm.ve_memcpy_gib));
        } else {
            // User buffer -> VE staging -> host staging (user DMA).
            std::vector<std::byte> tmp(m.len);
            proc_.mem().read(m.target_addr, tmp.data(), m.len);
            proc_.mem().write(data_stage_vaddr_, tmp.data(), m.len);
            sim::advance(sim::transfer_ns(m.len, cm.ve_memcpy_gib));
            dma_.dma_sync(data_host_vehva_ + m.staging_off, data_stage_vehva_,
                          round_up8(m.len));
        }
    }

    /// Zero-copy shape (aurora::mem): translate the host user buffer and the
    /// VE arena region through the registration cache, then drive one chained
    /// user-DMA burst between them — no staging copy on either side. The
    /// scatter/gather plan splits the transfer into engine descriptors of at
    /// most staging_chunk_bytes each; the uniform run goes out as a single
    /// chained post, a short final descriptor rides alongside it.
    void handle_data_zero_copy(const protocol::flag_word& flag,
                               const protocol::data_msg& m) {
        AURORA_CHECK_MSG(cfg_.zero_copy,
                         "zero-copy data message but the channel was set up "
                         "without it");
        AURORA_CHECK(m.len > 0 && m.len % 8 == 0 && m.host_base % 8 == 0);
        AURORA_CHECK(m.host_len >= m.len && m.region_len > 0);
        AURORA_CHECK_MSG(m.target_addr >= m.region_base &&
                             m.target_addr + m.len <=
                                 m.region_base + m.region_len,
                         "zero-copy transfer leaves its arena region");

        const std::uint64_t host_vehva = cache_.lookup(
            aurora::mem::reg_cache::space_vh, m.host_base, m.host_len);
        const std::uint64_t region_vehva = cache_.lookup(
            aurora::mem::reg_cache::space_ve, m.region_base, m.region_len);
        const std::uint64_t ve_vehva =
            region_vehva + (m.target_addr - m.region_base);

        aurora::mem::sg_list sg(cfg_.staging_chunk_bytes);
        if (flag.kind == protocol::msg_kind::data_put) {
            sg.add(host_vehva, ve_vehva, m.len);
        } else {
            sg.add(ve_vehva, host_vehva, m.len);
        }
        const auto& es = sg.entries();
        // All descriptors but possibly the last share one length; hand that
        // uniform run to the engine as a single chained (strided) post.
        const std::uint64_t desc = es.front().len;
        std::size_t uniform = es.size();
        if (es.size() > 1 && es.back().len != desc) {
            --uniform;
        }
        aurora::vedma::ve_dma_handle chain{};
        aurora::vedma::ve_dma_handle tail{};
        if (uniform > 0) {
            AURORA_CHECK(dma_.dma_post_2d(es.front().dst, desc, es.front().src,
                                          desc, desc, uniform, chain) == 0);
        }
        if (uniform < es.size()) {
            const aurora::mem::sg_entry& last = es.back();
            AURORA_CHECK(dma_.dma_post(last.dst, last.src, last.len, tail) == 0);
        }
        if (chain.in_flight) {
            dma_.dma_wait(chain);
        }
        if (tail.in_flight) {
            dma_.dma_wait(tail);
        }
    }

    aurora::veos::ve_process& proc_;
    vedma_target_cfg cfg_;
    aurora::vedma::dmaatb atb_;
    aurora::vedma::user_dma_engine dma_;
    /// Zero-copy data path (aurora::mem): registration cache over the DMAATB.
    /// Declared after atb_ so its destructor (which unregisters) runs first.
    dmaatb_registrar registrar_;
    aurora::mem::reg_cache cache_;
    std::uint64_t comm_vehva_ = 0;
    std::uint64_t stage_vaddr_ = 0;
    std::uint64_t stage_vehva_ = 0;
    std::uint64_t stage_result_off_ = 0;
    std::uint64_t data_host_vehva_ = 0;
    std::uint64_t data_stage_vaddr_ = 0;
    std::uint64_t data_stage_vehva_ = 0;
};

// --- the C-API and ham_main ----------------------------------------------------

/// ABI guard (Sec. III-E): compare the host binary's type-table fingerprint
/// against this image's. 0 = compatible, 1 = mismatch.
std::uint64_t check_abi(std::uint64_t host_fingerprint) {
    const ham::handler_registry probe =
        ham::handler_registry::build(ve_image_options());
    return probe.fingerprint() == host_fingerprint ? 0 : 1;
}

std::uint64_t c_api_setup_veo(aurora::veos::ve_call_context& ctx) {
    veo_target_cfg cfg;
    cfg.comm_addr = ctx.arg_u64(0);
    cfg.layout = protocol::make_comm_layout(
        static_cast<std::uint32_t>(ctx.arg_u64(1)),
        static_cast<std::uint32_t>(ctx.arg_u64(2)));
    cfg.node = static_cast<node_t>(ctx.arg_i64(3));
    if (ctx.arg_count() > 4 && check_abi(ctx.arg_u64(4)) != 0) {
        return 1;
    }
    if (ctx.arg_count() > 5) {
        cfg.idle_timeout_ns = ctx.arg_i64(5);
    }
    if (ctx.arg_count() > 6) {
        cfg.epoch = static_cast<std::uint8_t>(ctx.arg_u64(6));
    }
    ctx.proc().user_state() = target_cfg(cfg);
    return 0;
}

std::uint64_t c_api_setup_vedma(aurora::veos::ve_call_context& ctx) {
    vedma_target_cfg cfg;
    // Simulation glue: the registry pointer stands in for the kernel's SysV
    // namespace the real shmget/shmat would consult.
    cfg.shms =
        reinterpret_cast<const aurora::vedma::shm_registry*>(ctx.arg_u64(0));
    cfg.shm_key = static_cast<int>(ctx.arg_i64(1));
    cfg.layout = protocol::make_comm_layout(
        static_cast<std::uint32_t>(ctx.arg_u64(2)),
        static_cast<std::uint32_t>(ctx.arg_u64(3)));
    cfg.node = static_cast<node_t>(ctx.arg_i64(4));
    cfg.shm_small_results = ctx.arg_u64(5) != 0;
    cfg.shm_result_threshold = static_cast<std::uint32_t>(ctx.arg_u64(6));
    if (ctx.arg_count() > 7) {
        cfg.staging_shm_key = static_cast<int>(ctx.arg_i64(7));
        cfg.staging_chunk_bytes = ctx.arg_u64(8);
    }
    if (ctx.arg_count() > 9 && check_abi(ctx.arg_u64(9)) != 0) {
        return 1;
    }
    if (ctx.arg_count() > 10) {
        cfg.idle_timeout_ns = ctx.arg_i64(10);
    }
    if (ctx.arg_count() > 11) {
        cfg.epoch = static_cast<std::uint8_t>(ctx.arg_u64(11));
    }
    if (ctx.arg_count() > 12) {
        cfg.zero_copy = ctx.arg_u64(12) != 0;
    }
    if (ctx.arg_count() > 13) {
        cfg.vh_socket = static_cast<int>(ctx.arg_i64(13));
    }
    ctx.proc().user_state() = target_cfg(cfg);
    return 0;
}

std::uint64_t c_api_ham_main(aurora::veos::ve_call_context& ctx) {
    aurora::veos::ve_process& proc = ctx.proc();
    auto* cfg = std::any_cast<target_cfg>(&proc.user_state());
    AURORA_CHECK_MSG(cfg != nullptr,
                     "ham_main called before the communication setup C-API");

    // The VE binary builds its own translation tables at startup (Fig. 6).
    const ham::handler_registry registry =
        ham::handler_registry::build(ve_image_options());

    ve_target_memory memory(proc);
    const ve_link_cfg& link =
        std::visit([](const ve_link_cfg& c) -> const ve_link_cfg& { return c; },
                   *cfg);
    target_context tctx(link.node, target_context::device::ve, &memory,
                        &proc.plat().costs());

    target_loop_config loop_cfg;
    loop_cfg.registry = &registry;
    loop_cfg.context = &tctx;
    loop_cfg.costs = &proc.plat().costs();
    loop_cfg.msg_size = link.layout.recv.msg_size;

    // A simulated VE death (aurora::fault) unwinds the loop here; the channel
    // destructors still run, so DMAATB registrations are released before the
    // host tears the shared segments down. ham_main returning 2 tells the
    // host-side reaper the process died rather than terminated cleanly.
    try {
        if (const auto* veo_cfg = std::get_if<veo_target_cfg>(cfg)) {
            ve_channel<veo_wire> channel(*veo_cfg, proc, *veo_cfg);
            run_target_loop(loop_cfg, channel);
        } else {
            const auto& dma_cfg = std::get<vedma_target_cfg>(*cfg);
            ve_channel<vedma_wire> channel(dma_cfg, proc, dma_cfg);
            run_target_loop(loop_cfg, channel);
        }
    } catch (const aurora::fault::target_killed&) {
        return 2;
    }
    return 0;
}

} // namespace

const aurora::veos::program_image& ham_app_image() {
    static const aurora::veos::program_image image = [] {
        aurora::veos::program_image img(app_image_name);
        img.add_symbol(sym_setup_veo, c_api_setup_veo);
        img.add_symbol(sym_setup_vedma, c_api_setup_vedma);
        img.add_symbol(sym_ham_main, c_api_ham_main);
        return img;
    }();
    return image;
}

ham::handler_registry::options host_image_options() {
    // Conventional x86 text-segment base; catalog order (GCC layout).
    return {.address_base = 0x400000, .layout_seed = 0};
}

ham::handler_registry::options ve_image_options() {
    // A distinct synthetic code base and a shuffled layout stand in for the
    // NCC-built VE binary: identical type names, different local addresses.
    return {.address_base = 0x7E0000000000, .layout_seed = 0x5EEDABCD1234ULL};
}

} // namespace ham::offload
