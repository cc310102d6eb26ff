// Self-test of the benchmark's own statistics and tracer. Exits 0 when
// every check holds; prints each failed check otherwise.

#include <cstdio>
#include <vector>

#include "bench_util.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what);
  }
}

void TestNearestRank() {
  std::vector<double> ten;
  for (int i = 10; i >= 1; --i) ten.push_back(i);  // unsorted on purpose
  Expect(Percentile(ten, 50) == 5, "p50 of 1..10 is 5 (nearest rank)");
  Expect(Percentile(ten, 90) == 9, "p90 of 1..10 is 9");
  Expect(Percentile(ten, 91) == 10, "p91 of 1..10 rounds up to 10");
  Expect(Percentile(ten, 100) == 10, "p100 is the maximum");
  Expect(Percentile({7.0}, 99) == 7, "any percentile of one sample");
  Expect(Percentile({}, 50) == 0, "empty sample reads 0");
  Expect(Median({3, 1, 2}) == 2, "median of three");
  Expect(Median({4, 1, 3, 2}) == 2, "even count takes the lower middle");
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  Expect(Percentile(thousand, 99) == 990, "p99 of 1..1000 is 990");
  Expect(NearestRankIndex(1000, 99) == 990, "exact rank does not round up");
}

void TestTailRule() {
  Expect(SamplesBeyond(1000, 99) == 10, "1000 samples leave 10 beyond p99");
  Expect(TailSupported(1000, 99), "p99 reported at 1000 samples");
  Expect(!TailSupported(999, 99), "p99 not reported at 999 samples");
  Expect(!TailSupported(7, 99), "p99 not reported for a handful of ops");
  Expect(TailSupported(100, 90), "p90 reported at 100 samples");
  Expect(!TailSupported(0, 50), "nothing reported without samples");
}

bool Near(double a, double b) { return a - b < 1e-9 && b - a < 1e-9; }

void TestHistogram() {
  LatencyHistogram a;
  LatencyHistogram b;
  for (int i = 1; i <= 10; ++i) a.Record(i * 10.0 + 0.05);  // bucket centres
  b.Record(25000.0);  // past the last bucket: kept exactly
  Expect(Near(a.PercentileUs(50), 50.05), "histogram p50 is the nearest rank");
  Expect(Near(a.PercentileUs(100), 100.05), "histogram p100 is the maximum");
  a.Merge(b);
  Expect(a.count() == 11, "merge adds the counts");
  Expect(a.PercentileUs(100) == 25000.0, "overflow values are exact");
  Expect(Near(a.PercentileUs(50), 60.05), "merged p50 moves one rank");
  Expect(LatencyHistogram().PercentileUs(50) == 0, "empty histogram reads 0");
}

void TestSelfTime() {
  Tracer t(true);
  // op [0, 100] with children [10, 30] and [40, 90]; the second child has
  // its own child [50, 60].
  const int op = t.Add("op", 0, 100, -1, 1);
  t.Add("a", 10, 30, op, 1);
  const int b = t.Add("b", 40, 90, op, 1);
  t.Add("c", 50, 60, b, 1);
  const std::vector<int64_t> self = SelfTimesNs(t.spans());
  Expect(self[0] == 30, "self = span minus its children (100 - 20 - 50)");
  Expect(self[1] == 20, "leaf self time is its duration");
  Expect(self[2] == 40, "grandchildren count only against their parent");
  Expect(self[3] == 10, "nested leaf");

  Tracer overlap(true);
  const int p = overlap.Add("p", 0, 100, -1, 2);
  overlap.Add("x", 10, 50, p, 2);
  overlap.Add("y", 30, 70, p, 2);      // overlaps x: covered once
  overlap.Add("z", 90, 120, p, 2);     // runs past the parent: clipped
  Expect(SelfTimesNs(overlap.spans())[0] == 100 - 60 - 10,
         "overlapping children cover their union, clipped to the parent");

  const auto summary = Summarize({&t, &overlap});
  Expect(summary.at("op").calls == 1, "summary counts calls per name");
  Expect(summary.at("op").self_ms * 1e6 == 30, "summary self time");
  Expect(summary.at("p").total_ms * 1e6 == 100, "summary total time");

  Tracer scoped(true);
  {
    ScopedSpan outer(&scoped, "outer", 3);
    ScopedSpan inner(&scoped, "inner", 3);
  }
  Expect(scoped.spans().size() == 2 && scoped.spans()[1].parent == 0,
         "a scoped span nests under the open one");
  Expect(scoped.spans()[0].end_ns >= scoped.spans()[1].end_ns,
         "the outer span closes last");

  Tracer off(false);
  { ScopedSpan span(&off, "ignored", 4); }
  Expect(off.spans().empty(), "a disabled tracer records nothing");
}

void TestRoundTripDecomposition() {
  // The client's round trip is the server's total plus what no server
  // stage accounts for.
  const int64_t server_total = 180;
  const int64_t round_trip = 245;
  const int64_t unaccounted = UnaccountedUs(round_trip, server_total);
  Expect(unaccounted == 65, "unaccounted = round trip - server total");
  Expect(server_total + unaccounted == round_trip,
         "round trip = server total + unaccounted");
}

void TestSteal() {
  CpuTimes a{10, 1000};
  CpuTimes b{30, 2000};
  Expect(StealPercent(a, b) == 2.0, "steal share of the elapsed CPU time");
  Expect(StealPercent(a, a) == 0.0, "no elapsed time reads 0");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestNearestRank();
  perfbench::TestTailRule();
  perfbench::TestHistogram();
  perfbench::TestSelfTime();
  perfbench::TestRoundTripDecomposition();
  perfbench::TestSteal();
  if (perfbench::failures == 0) std::printf("selftest: all checks passed\n");
  return perfbench::failures == 0 ? 0 : 1;
}
