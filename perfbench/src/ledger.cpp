#include "ledger.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {

/// 1-based nearest rank of the q-th percentile of n samples. q * n is formed
/// before the division so whole percentiles of round counts stay exact.
std::size_t nearest_rank(std::size_t n, double q) {
    const double r = std::ceil(q * double(n) / 100.0 - 1e-9);
    return std::clamp<std::size_t>(r < 1.0 ? 1 : static_cast<std::size_t>(r), 1, n);
}

} // namespace

double percentile_sorted(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) {
        return 0.0;
    }
    return sorted[nearest_rank(sorted.size(), q) - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
    return n == 0 ? 0 : n - nearest_rank(n, q);
}

double highest_supported_percentile(std::size_t n, std::size_t beyond) {
    if (n <= beyond) {
        return 0.0;
    }
    // Largest q on a 0.01 grid whose rank leaves `beyond` samples after it.
    double q = std::floor(10000.0 * double(n - beyond) / double(n)) / 100.0;
    while (q > 0.0 && samples_beyond(n, q) < beyond) {
        q = std::round(q * 100.0 - 1.0) / 100.0;
    }
    return std::max(q, 0.0);
}

percentile_summary summarize(std::vector<double> samples) {
    percentile_summary s;
    std::sort(samples.begin(), samples.end());
    s.count = samples.size();
    s.p50 = percentile_sorted(samples, 50.0);
    s.p99 = percentile_sorted(samples, 99.0);
    s.p99_supported = samples_beyond(s.count, 99.0) >= min_samples_beyond;
    s.tail_q = highest_supported_percentile(s.count);
    s.tail_value = s.tail_q > 0.0 ? percentile_sorted(samples, s.tail_q) : 0.0;
    return s;
}

double median(std::vector<double> v) {
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

std::vector<self_time> self_times(const std::vector<span>& spans) {
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::int32_t p = spans[i].parent;
        if (p >= 0 && std::size_t(p) < spans.size() && std::size_t(p) != i) {
            children[std::size_t(p)].push_back(i);
        }
    }
    // Length of [begin, end) covered by the union of the children intervals.
    auto covered = [](std::int64_t begin, std::int64_t end,
                      std::vector<std::pair<std::int64_t, std::int64_t>> iv) {
        std::sort(iv.begin(), iv.end());
        std::int64_t total = 0;
        std::int64_t reach = begin;
        for (auto [b, e] : iv) {
            b = std::max(b, reach);
            e = std::min(e, end);
            if (e > b) {
                total += e - b;
                reach = e;
            }
        }
        return total;
    };
    std::vector<self_time> out(spans.size());
    std::vector<std::pair<std::int64_t, std::int64_t>> host_iv, virt_iv;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const span& s = spans[i];
        host_iv.clear();
        virt_iv.clear();
        for (const std::size_t c : children[i]) {
            host_iv.emplace_back(spans[c].host_begin_ns, spans[c].host_end_ns);
            virt_iv.emplace_back(spans[c].virt_begin_ns, spans[c].virt_end_ns);
        }
        out[i].host_ns = (s.host_end_ns - s.host_begin_ns) -
                         covered(s.host_begin_ns, s.host_end_ns, host_iv);
        out[i].virt_ns = (s.virt_end_ns - s.virt_begin_ns) -
                         covered(s.virt_begin_ns, s.virt_end_ns, virt_iv);
    }
    return out;
}

std::map<std::string, span_rollup> roll_up(const std::vector<span>& spans,
                                           const std::vector<self_time>& self) {
    std::map<std::string, span_rollup> out;
    for (std::size_t i = 0; i < spans.size() && i < self.size(); ++i) {
        span_rollup& r = out[spans[i].name];
        ++r.calls;
        r.self_host_ns += double(self[i].host_ns);
        r.self_virt_ns += double(self[i].virt_ns);
    }
    return out;
}

std::int32_t span_recorder::open(const char* name, std::uint64_t request) {
    if (!on_) {
        return -1;
    }
    span s;
    s.name = name;
    s.request = request;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.virt_begin_ns = clock_();
    s.host_begin_ns = host_();
    const auto idx = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(s);
    stack_.push_back(idx);
    return idx;
}

void span_recorder::close(std::int32_t idx) {
    if (idx < 0) {
        return;
    }
    span& s = spans_[std::size_t(idx)];
    s.host_end_ns = host_();
    s.virt_end_ns = clock_();
    if (!stack_.empty() && stack_.back() == idx) {
        stack_.pop_back();
    }
}

bool write_spans(const std::string& path, const std::vector<span>& spans,
                 const std::vector<self_time>& self) {
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
        return false;
    }
    out << "index\tname\trequest\tparent\thost_begin_ns\thost_end_ns"
           "\tvirt_begin_ns\tvirt_end_ns\tself_host_ns\tself_virt_ns\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const span& s = spans[i];
        out << i << '\t' << s.name << '\t' << s.request << '\t' << s.parent
            << '\t' << s.host_begin_ns << '\t' << s.host_end_ns << '\t'
            << s.virt_begin_ns << '\t' << s.virt_end_ns << '\t'
            << (i < self.size() ? self[i].host_ns : 0) << '\t'
            << (i < self.size() ? self[i].virt_ns : 0) << '\n';
    }
    out.flush();
    return bool(out);
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out + "\"";
}

std::string json_number(double v) {
    if (!std::isfinite(v)) {
        return "null";
    }
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

} // namespace perfbench
