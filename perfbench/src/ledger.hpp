// Helpers of the two-clock benchmark that depend on nothing in the program
// under test: percentile summaries, the span recorder, span self times and
// the JSON writer. tests/ledger_test.cpp covers them.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// --- percentiles ------------------------------------------------------------

/// Fewest samples that must lie beyond a reported percentile.
inline constexpr std::size_t min_samples_beyond = 10;

/// Nearest-rank percentile of `sorted` (ascending), q in [0, 100]:
/// the value at rank ceil(q/100 * n), clamped to [1, n]. 0 when empty.
[[nodiscard]] double percentile_sorted(const std::vector<double>& sorted, double q);

/// Samples strictly beyond the nearest-rank q-th percentile of n samples.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// Highest percentile q (in hundredths of a percent) whose nearest rank
/// leaves at least `beyond` samples after it; 0 when n <= beyond.
[[nodiscard]] double highest_supported_percentile(std::size_t n,
                                                  std::size_t beyond = min_samples_beyond);

struct percentile_summary {
    std::size_t count = 0;
    double p50 = 0.0;
    double p99 = 0.0;
    /// p99 has at least min_samples_beyond samples beyond it.
    bool p99_supported = false;
    /// Highest percentile with min_samples_beyond samples beyond it, and its
    /// value (0/0 when there are too few samples).
    double tail_q = 0.0;
    double tail_value = 0.0;
};

[[nodiscard]] percentile_summary summarize(std::vector<double> samples);

/// Median (mean of the middle pair for even counts); 0 when empty.
[[nodiscard]] double median(std::vector<double> v);

// --- spans --------------------------------------------------------------------

/// One timed call the benchmark made into a layer, on both clocks.
struct span {
    const char* name = "";     ///< string literal, e.g. "offload.async"
    std::uint64_t request = 0; ///< request the call served (0 = none)
    std::int32_t parent = -1;  ///< index of the enclosing span, -1 = root
    std::int64_t host_begin_ns = 0;
    std::int64_t host_end_ns = 0;
    std::int64_t virt_begin_ns = 0;
    std::int64_t virt_end_ns = 0;
};

struct self_time {
    std::int64_t host_ns = 0;
    std::int64_t virt_ns = 0;
};

/// Self time of every span: its duration minus the part of its interval that
/// its direct children cover (children are clipped to the parent and their
/// overlaps counted once), separately on each clock.
[[nodiscard]] std::vector<self_time> self_times(const std::vector<span>& spans);

/// Per-name rollup of self times.
struct span_rollup {
    std::uint64_t calls = 0;
    double self_host_ns = 0.0; ///< summed over calls
    double self_virt_ns = 0.0;
    [[nodiscard]] double mean_host_ns() const {
        return calls == 0 ? 0.0 : self_host_ns / double(calls);
    }
    [[nodiscard]] double mean_virt_ns() const {
        return calls == 0 ? 0.0 : self_virt_ns / double(calls);
    }
};

[[nodiscard]] std::map<std::string, span_rollup>
roll_up(const std::vector<span>& spans, const std::vector<self_time>& self);

[[nodiscard]] inline std::int64_t host_now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Keeps spans in memory while a run executes. Disabled recorders cost one
/// branch per call and record nothing. The clocks are passed in so the
/// recorder does not depend on the simulator or on how host time is read.
class span_recorder {
public:
    using clock = std::int64_t (*)();

    span_recorder(bool enabled, clock virt, clock host = &host_now_ns)
        : on_(enabled), clock_(virt), host_(host) {}

    [[nodiscard]] bool enabled() const noexcept { return on_; }

    /// Open a span as a child of the innermost open one; -1 when disabled.
    std::int32_t open(const char* name, std::uint64_t request);
    /// Close the span `open` returned (must be the innermost open one).
    void close(std::int32_t idx);

    [[nodiscard]] const std::vector<span>& spans() const noexcept { return spans_; }

private:
    bool on_;
    clock clock_;
    clock host_;
    std::vector<span> spans_;
    std::vector<std::int32_t> stack_;
};

/// RAII span around one call.
class scoped_span {
public:
    scoped_span(span_recorder& rec, const char* name, std::uint64_t request)
        : rec_(rec), idx_(rec.open(name, request)) {}
    ~scoped_span() { rec_.close(idx_); }
    scoped_span(const scoped_span&) = delete;
    scoped_span& operator=(const scoped_span&) = delete;

private:
    span_recorder& rec_;
    std::int32_t idx_;
};

/// Write spans and their self times as tab-separated text. False on I/O error.
bool write_spans(const std::string& path, const std::vector<span>& spans,
                 const std::vector<self_time>& self);

// --- JSON ---------------------------------------------------------------------

/// Quote and escape a string for JSON.
[[nodiscard]] std::string json_string(const std::string& s);

/// Shortest text that reads back as exactly `v` ("null" for NaN/inf).
[[nodiscard]] std::string json_number(double v);

} // namespace perfbench
