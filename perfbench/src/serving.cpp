// serving_mixed: an open loop in virtual time through admit::server over
// four loopback VEs. Three tenants arrive on seeded Poisson schedules:
//
//   latency    four long-lived sessions; short kernels with deadlines;
//   batch      sessions that open, send a few medium kernels and close
//              (work still queued at close is shed, as clients that leave do);
//   background one session flooded in bursts that push the backlog past the
//              background shed threshold.
//
// Arrivals are Poisson conditioned on their count and kernel costs are
// stratified, so every seed offers the same load and the seed moves only
// how it clusters. Each request is timed from when it was due, so a stall of the loop counts
// against every request it delays, and the loop's own lateness is reported.
// The request latency percentiles are those of the latency tenant, the one
// with a latency limit; goodput counts every tenant.
// Kernels record that they ran, once, with the tag they were sent; every
// session must balance admitted + rejected == completed + failed + expired +
// shed. Loopback keeps the device protocol small so the control plane
// (admit, sched) does most of the host work. The workload bypasses net and
// mem.
#include <algorithm>
#include <map>

#include "admit/server.hpp"
#include "ham/msg.hpp"
#include "layers.hpp"
#include "offload/offload.hpp"

namespace perfbench {

namespace {

namespace off = ham::offload;
namespace admit = aurora::admit;
namespace sim = aurora::sim;

constexpr std::size_t kTargets = 4;
constexpr std::int64_t kHorizonNs = 200'000'000; // arrivals stop here (virtual)
constexpr std::size_t kLatencySessions = 4;
constexpr double kLatencyGapNs = 25'000;         // 40 k requests/s
constexpr std::int64_t kLatencyDeadlineNs = 1'000'000;
constexpr double kBatchSessionGapNs = 1'000'000; // 1 k sessions/s
constexpr double kBatchRequestGapNs = 50'000;
constexpr std::int64_t kBatchLingerNs = 400'000; // close this long after the last request
constexpr double kBurstGapNs = 5'000'000;        // 200 bursts/s
constexpr std::size_t kBurstSize = 100;
/// Idle-loop step when a poll neither progressed nor advanced virtual time.
constexpr std::int64_t kIdlePollNs = 100;

/// What the serving kernels record; installed for one repetition.
struct kernel_ledger {
    std::vector<std::uint32_t> runs;
    std::vector<std::uint64_t> tags;
};
kernel_ledger* g_ledger = nullptr;

void serve_kernel(std::uint64_t id, std::int64_t cost_ns, std::uint64_t tag) {
    sim::advance(cost_ns);
    if (g_ledger != nullptr && id < g_ledger->runs.size()) {
        ++g_ledger->runs[id];
        g_ledger->tags[id] = tag;
    }
}

enum class tenant : std::uint8_t { latency, batch, background };

struct event {
    enum class kind : std::uint8_t { open, submit, close };
    std::int64_t due = 0;
    kind what = kind::submit;
    tenant who = tenant::latency;
    std::size_t session = 0; ///< latency: 0..3; batch: batch index; background: 0
    std::int64_t cost_ns = 0;
    std::uint64_t id = 0;    ///< request id (submits), assigned in due order
};

std::vector<event> make_schedule(std::uint64_t seed, std::size_t& batch_sessions) {
    rng gen(seed);
    std::vector<event> ev;
    const auto count = [](double gap) { return std::size_t(double(kHorizonNs) / gap); };
    const std::vector<double> lat_t = poisson_arrivals(count(kLatencyGapNs), kHorizonNs, gen);
    const std::vector<double> lat_u = stratified(lat_t.size(), gen);
    for (std::size_t i = 0; i < lat_t.size(); ++i) {
        ev.push_back({std::int64_t(lat_t[i]), event::kind::submit, tenant::latency,
                      gen.below(kLatencySessions), std::int64_t(5'000 + 15'000 * lat_u[i]),
                      0});
    }
    const std::vector<double> batch_t =
        poisson_arrivals(count(kBatchSessionGapNs), kHorizonNs, gen);
    const std::vector<double> batch_u = stratified(batch_t.size(), gen);
    batch_sessions = batch_t.size();
    for (std::size_t b = 0; b < batch_t.size(); ++b) {
        ev.push_back({std::int64_t(batch_t[b]), event::kind::open, tenant::batch, b, 0, 0});
        const std::size_t n = 4 + std::size_t(9.0 * batch_u[b]);
        double r = batch_t[b];
        for (std::size_t k = 0; k < n; ++k) {
            ev.push_back({std::int64_t(r), event::kind::submit, tenant::batch, b,
                          std::int64_t(50'000 + gen.below(100'001)), 0});
            r += gen.exponential(kBatchRequestGapNs);
        }
        ev.push_back({std::int64_t(r) + kBatchLingerNs, event::kind::close,
                      tenant::batch, b, 0, 0});
    }
    for (const double t : poisson_arrivals(count(kBurstGapNs), kHorizonNs, gen)) {
        for (std::size_t k = 0; k < kBurstSize; ++k) {
            ev.push_back({std::int64_t(t), event::kind::submit, tenant::background, 0,
                          20'000, 0});
        }
    }
    // Due order; at one instant a session opens before its requests and
    // closes after them. Generation order breaks the remaining ties.
    std::stable_sort(ev.begin(), ev.end(), [](const event& a, const event& b) {
        return a.due != b.due ? a.due < b.due : a.what < b.what;
    });
    std::uint64_t id = 0;
    for (event& e : ev) {
        if (e.what == event::kind::submit) {
            e.id = ++id;
        }
    }
    return ev;
}

struct pending {
    admit::request handle;
    const event* ev = nullptr;
};

enum class outcome : std::uint8_t { none, done, failed, expired, shed, rejected };

} // namespace

rep_result run_serving_mixed(const run_config& cfg, bool trace) {
    rep_result out;
    std::size_t batch_count = 0;
    const std::vector<event> schedule = make_schedule(cfg.seed, batch_count);
    std::uint64_t requests = 0;
    for (const event& e : schedule) {
        requests += e.what == event::kind::submit ? 1 : 0;
    }
    kernel_ledger ledger;
    ledger.runs.assign(requests + 1, 0);
    ledger.tags.assign(requests + 1, 0);
    g_ledger = &ledger;
    std::vector<outcome> outcomes(requests + 1, outcome::none);
    std::vector<double> gen_lag_ns;
    span_recorder rec(trace, &virt_now, &bench_now_ns);
    const double limit_ns = cfg.latency_limit_us * 1e3;

    const std::int64_t setup0 = bench_now_ns();
    sim::platform plat(sim::platform_config::test_machine());
    off::runtime_options opt;
    opt.backend = off::backend_kind::loopback;
    opt.targets.assign(kTargets, 0);
    const int rc = off::run(plat, opt, [&] {
        admit::server::config scfg;
        scfg.capacity = 128;
        scfg.dispatch_window = 8;
        admit::server srv(scfg);
        std::vector<admit::session_id> latency_sids;
        for (std::size_t s = 0; s < kLatencySessions; ++s) {
            admit::session_options so;
            so.tenant = "latency";
            so.cls = admit::qos_class::latency;
            so.weight = 2;
            latency_sids.push_back(srv.open(so));
        }
        admit::session_options bo;
        bo.tenant = "background";
        bo.cls = admit::qos_class::background;
        bo.max_queued = scfg.capacity;
        const admit::session_id background_sid = srv.open(bo);
        std::vector<admit::session_id> batch_sids(batch_count, admit::invalid_session);
        std::map<admit::session_id, std::uint64_t> rejected;
        out.setup_s = double(bench_now_ns() - setup0) / 1e9;

        std::vector<pending> inflight;
        std::uint64_t polls = 0;
        std::size_t max_backlog = 0;
        const auto settle = [&](const pending& p) {
            const event& e = *p.ev;
            admit::request h = p.handle;
            outcome o = outcome::done;
            try {
                h.get();
            } catch (const off::deadline_exceeded_error&) {
                o = outcome::expired;
            } catch (const off::admission_error&) {
                o = outcome::shed;
            } catch (const off::offload_error&) {
                o = outcome::failed;
            }
            outcomes[e.id] = o;
            const double latency = double(sim::now() - e.due);
            if (e.who == tenant::latency && o == outcome::done) {
                out.latency_ns.push_back(latency);
                out.slo_met += latency <= limit_ns ? 1 : 0;
            }
        };
        const auto harvest = [&] {
            for (std::size_t i = 0; i < inflight.size();) {
                if (inflight[i].handle.settled()) {
                    settle(inflight[i]);
                    inflight[i] = inflight.back();
                    inflight.pop_back();
                } else {
                    ++i;
                }
            }
        };
        const auto session_of = [&](const event& e) {
            switch (e.who) {
                case tenant::latency: return latency_sids[e.session];
                case tenant::batch: return batch_sids[e.session];
                case tenant::background: break;
            }
            return background_sid;
        };

        const registry_mark m0;
        const sim_mark s0 = mark_sim(plat.sim());
        std::size_t next = 0;
        while (next < schedule.size() || !inflight.empty()) {
            meter_tick();
            if (next < schedule.size() && schedule[next].due <= sim::now()) {
                const event& e = schedule[next++];
                if (e.what == event::kind::open) {
                    admit::session_options so;
                    so.tenant = "batch";
                    so.cls = admit::qos_class::batch;
                    batch_sids[e.session] = srv.open(so);
                    continue;
                }
                if (e.what == event::kind::close) {
                    srv.close(batch_sids[e.session]);
                    harvest();
                    continue;
                }
                gen_lag_ns.push_back(double(sim::now() - e.due));
                out.slo_attempted += e.who == tenant::latency ? 1 : 0;
                const admit::session_id sid = session_of(e);
                try {
                    admit::request_options ro;
                    if (e.who == tenant::latency) {
                        ro.deadline_ns = e.due + kLatencyDeadlineNs;
                    }
                    scoped_span sp(rec, "admit.submit", e.id);
                    inflight.push_back({srv.submit(sid,
                                                   ham::f2f<&serve_kernel>(
                                                       e.id, e.cost_ns, mix(cfg.seed, e.id)),
                                                   ro),
                                        &e});
                } catch (const off::admission_error&) {
                    outcomes[e.id] = outcome::rejected;
                    ++rejected[sid];
                }
                max_backlog = std::max(max_backlog, srv.backlog());
                continue;
            }
            const std::int64_t before = sim::now();
            bool progress = false;
            {
                scoped_span sp(rec, "admit.poll", 0);
                progress = srv.poll();
            }
            ++polls;
            max_backlog = std::max(max_backlog, srv.backlog());
            if (progress) {
                harvest();
            } else if (next < schedule.size() && srv.backlog() == 0) {
                sim::sleep_until(schedule[next].due);
            } else if (sim::now() == before) {
                sim::advance(kIdlePollNs);
            }
        }
        for (const admit::session_id sid : latency_sids) {
            srv.close(sid);
        }
        srv.close(background_sid);
        srv.drain();
        harvest();
        const sim_mark s1 = mark_sim(plat.sim());
        const registry_mark m1;

        record_sim(out, plat.sim(), s0, s1, requests);
        record_offload(out, m0, m1, requests);
        const auto& st = srv.scheduler().stats();
        out.exact["sched.steals"] = double(st.steals);
        out.exact["sched.tasks_shed"] = double(st.tasks_shed);
        out.exact["sched.tasks_expired"] = double(st.tasks_expired);
        out.exact["sched.backpressure_stalls"] = double(st.backpressure_stalls);
        out.exact["admit.polls_per_req"] = double(polls) / double(requests);
        out.exact["admit.max_backlog"] = double(max_backlog);
        const auto lat = histogram_delta(m0, m1, "aurora_admit_latency_ns",
                                         "class=\"latency\"");
        out.exact["admit.latency_p99_virt_us"] = lat.p99() / 1e3;
        out.exact["bench.gen_lag_p99_virt_us"] = summarize(gen_lag_ns).p99 / 1e3;

        // Every session balances; nothing is left queued or in flight.
        std::vector<admit::session_id> all = latency_sids;
        all.push_back(background_sid);
        all.insert(all.end(), batch_sids.begin(), batch_sids.end());
        for (const admit::session_id sid : all) {
            const admit::session_stats ss = srv.stats(sid);
            if (ss.queued != 0 || ss.admitted + rejected[sid] !=
                                      ss.completed + ss.failed + ss.expired + ss.shed) {
                out.errors.push_back("session " + std::to_string(sid) +
                                     " does not balance its settlements");
            }
        }
        if (srv.backlog() != 0 || !inflight.empty()) {
            out.errors.push_back("requests left unsettled after drain");
        }

        if (trace) {
            off::runtime& rt = *off::runtime::current();
            alignas(16) std::byte msg[ham::default_max_msg_size];
            const std::int64_t h0 = host_now_ns();
            for (const event& e : schedule) {
                if (e.what == event::kind::submit) {
                    (void)ham::write_message(
                        rt.host_registry(), msg, sizeof(msg),
                        ham::f2f<&serve_kernel>(e.id, e.cost_ns, mix(cfg.seed, e.id)));
                }
            }
            out.host["ham.serialize_host_ns"] =
                double(host_now_ns() - h0) / double(requests);
        }
    });
    g_ledger = nullptr;
    if (rc != 0) {
        out.errors.push_back("offload::run returned " + std::to_string(rc));
    }

    out.attempted = requests;
    for (std::uint64_t id = 1; id <= requests; ++id) {
        const outcome o = outcomes[id];
        const bool ran = ledger.runs[id] != 0;
        const bool ran_once_right = ledger.runs[id] == 1 && ledger.tags[id] == mix(cfg.seed, id);
        // Done: ran exactly once with its tag. Never dispatched (expired,
        // shed, rejected): never ran. A failure may or may not have run.
        bool consistent = !ran;
        switch (o) {
            case outcome::done: consistent = ran_once_right; break;
            case outcome::failed: consistent = true; ++out.failed; break;
            case outcome::expired: ++out.expired; break;
            case outcome::shed: ++out.shed; break;
            case outcome::rejected: ++out.rejected; break;
            case outcome::none: consistent = false; break;
        }
        if (consistent && o == outcome::done) {
            ++out.ok;
        } else if (!consistent) {
            ++out.failed;
            if (out.errors.size() < 8) {
                out.errors.push_back("request " + std::to_string(id) +
                                     " settled inconsistently with its kernel runs");
            }
        }
    }
    out.exact["admit.shed_pct"] =
        100.0 * double(out.rejected + out.shed) / double(std::max<std::uint64_t>(requests, 1));
    out.exact["admit.expired"] = double(out.expired);

    if (trace) {
        const auto self = self_times(rec.spans());
        const auto roll = roll_up(rec.spans(), self);
        record_span_means(out, roll, "admit.submit", "admit.submit_host_ns",
                          "admit.submit_virt_ns");
        record_span_means(out, roll, "admit.poll", "admit.poll_host_ns");
        out.spans = rec.spans();
    }
    return out;
}

} // namespace perfbench
