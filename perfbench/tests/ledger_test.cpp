// Tests of the benchmark's own helpers: the percentile summary (sample
// count, p99 support, highest percentile with ten samples beyond it) and the
// span self-time computation. Exit code 0 = all checks passed.
#include <cstdio>
#include <vector>

#include "ledger.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                            \
    do {                                                                       \
        if (!(cond)) {                                                         \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,       \
                         __LINE__, #cond);                                     \
            ++failures;                                                        \
        }                                                                      \
    } while (false)

using perfbench::span;

std::vector<double> one_to(int n) {
    std::vector<double> v;
    for (int i = n; i >= 1; --i) { // descending: summarize must sort
        v.push_back(double(i));
    }
    return v;
}

void test_nearest_rank() {
    const std::vector<double> s = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    CHECK(perfbench::percentile_sorted(s, 50.0) == 5.0);
    CHECK(perfbench::percentile_sorted(s, 90.0) == 9.0);
    CHECK(perfbench::percentile_sorted(s, 91.0) == 10.0);
    CHECK(perfbench::percentile_sorted(s, 0.0) == 1.0);
    CHECK(perfbench::percentile_sorted(s, 100.0) == 10.0);
    CHECK(perfbench::percentile_sorted({}, 50.0) == 0.0);
    CHECK(perfbench::median({3, 1, 2}) == 2.0);
    CHECK(perfbench::median({4, 1, 2, 3}) == 2.5);
}

void test_samples_beyond() {
    CHECK(perfbench::samples_beyond(1000, 99.0) == 10);
    CHECK(perfbench::samples_beyond(999, 99.0) == 9);
    CHECK(perfbench::samples_beyond(100, 50.0) == 50);
    CHECK(perfbench::samples_beyond(0, 50.0) == 0);
}

void test_highest_supported() {
    CHECK(perfbench::highest_supported_percentile(1000) == 99.0);
    CHECK(perfbench::highest_supported_percentile(4000) == 99.75);
    CHECK(perfbench::highest_supported_percentile(10) == 0.0);
    // Odd counts: the grid value must still leave ten samples beyond.
    for (std::size_t n : {11u, 37u, 999u, 1234u, 4321u, 100003u}) {
        const double q = perfbench::highest_supported_percentile(n);
        CHECK(q > 0.0);
        CHECK(perfbench::samples_beyond(n, q) >= 10);
        CHECK(perfbench::samples_beyond(n, q + 0.01) < 10 || q >= 99.99);
    }
}

void test_summarize() {
    const auto s = perfbench::summarize(one_to(2000));
    CHECK(s.count == 2000);
    CHECK(s.p50 == 1000.0);
    CHECK(s.p99 == 1980.0);
    CHECK(s.p99_supported);
    CHECK(s.tail_q == 99.5);
    CHECK(s.tail_value == 1990.0);

    const auto small = perfbench::summarize(one_to(500));
    CHECK(!small.p99_supported);
    CHECK(small.tail_q == 98.0);
    CHECK(small.tail_value == 490.0);

    const auto empty = perfbench::summarize({});
    CHECK(empty.count == 0 && empty.p50 == 0.0 && empty.tail_q == 0.0);
}

span make(const char* name, std::int32_t parent, std::int64_t hb, std::int64_t he,
          std::int64_t vb, std::int64_t ve) {
    span s;
    s.name = name;
    s.parent = parent;
    s.host_begin_ns = hb;
    s.host_end_ns = he;
    s.virt_begin_ns = vb;
    s.virt_end_ns = ve;
    return s;
}

void test_self_times() {
    std::vector<span> spans = {
        make("request", -1, 0, 100, 0, 1000),  // 0
        make("async", 0, 10, 30, 100, 300),    // 1
        make("get", 0, 40, 90, 300, 1000),     // 2: covers the virt tail
        make("inner", 2, 50, 60, 400, 500),    // 3: grandchild
        make("other", -1, 200, 210, 2000, 2000),
    };
    const auto self = perfbench::self_times(spans);
    CHECK(self.size() == spans.size());
    CHECK(self[0].host_ns == 100 - 20 - 50); // grandchild not subtracted twice
    CHECK(self[0].virt_ns == 1000 - 200 - 700);
    CHECK(self[1].host_ns == 20 && self[1].virt_ns == 200);
    CHECK(self[2].host_ns == 40 && self[2].virt_ns == 600);
    CHECK(self[3].host_ns == 10 && self[3].virt_ns == 100);
    CHECK(self[4].host_ns == 10 && self[4].virt_ns == 0);

    // Overlapping children count once; a child sticking out is clipped.
    std::vector<span> odd = {
        make("p", -1, 0, 100, 0, 100),
        make("a", 0, 10, 50, 10, 50),
        make("b", 0, 30, 70, 30, 70),
        make("c", 0, 90, 150, -20, 5),
    };
    const auto s2 = perfbench::self_times(odd);
    CHECK(s2[0].host_ns == 100 - 60 - 10);
    CHECK(s2[0].virt_ns == 100 - 60 - 5);

    const auto roll = perfbench::roll_up(spans, self);
    CHECK(roll.at("request").calls == 1);
    CHECK(roll.at("get").mean_virt_ns() == 600.0);
}

std::int64_t fake_clock_value = 0;
std::int64_t fake_clock() { return fake_clock_value; }
/// A host clock running ten times as fast as the virtual one.
std::int64_t fake_host_clock() { return 10 * fake_clock_value; }

void test_recorder() {
    perfbench::span_recorder off(false, &fake_clock);
    {
        perfbench::scoped_span s(off, "x", 1);
    }
    CHECK(off.spans().empty());

    perfbench::span_recorder rec(true, &fake_clock, &fake_host_clock);
    {
        fake_clock_value = 10;
        perfbench::scoped_span outer(rec, "outer", 7);
        {
            fake_clock_value = 20;
            perfbench::scoped_span inner(rec, "inner", 7);
            fake_clock_value = 25;
        }
        fake_clock_value = 40;
    }
    CHECK(rec.spans().size() == 2);
    CHECK(rec.spans()[0].parent == -1);
    CHECK(rec.spans()[1].parent == 0);
    CHECK(rec.spans()[1].request == 7);
    const auto self = perfbench::self_times(rec.spans());
    CHECK(self[0].virt_ns == 30 - 5);
    CHECK(self[1].virt_ns == 5);
    CHECK(self[0].host_ns == 10 * (30 - 5));
    CHECK(self[1].host_ns == 10 * 5);
}

void test_json() {
    CHECK(perfbench::json_number(0.1) == "0.1");
    CHECK(perfbench::json_number(6072.0) == "6072");
    CHECK(perfbench::json_string("a\"b") == "\"a\\\"b\"");
}

} // namespace

int main() {
    test_nearest_rank();
    test_samples_beyond();
    test_highest_supported();
    test_summarize();
    test_self_times();
    test_recorder();
    test_json();
    if (failures != 0) {
        std::fprintf(stderr, "%d check(s) failed\n", failures);
        return 1;
    }
    std::printf("perfbench helper tests passed\n");
    return 0;
}
