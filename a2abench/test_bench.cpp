/// \file test_bench.cpp
/// Tests of the benchmark's own helpers: the statistics it reports with,
/// and the checks that turn a wrong payload byte or a simulator repetition
/// that disagrees with the first into a counted failure.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "runtime/collectives.hpp"
#include "smp/smp_runtime.hpp"
#include "transpose.hpp"

namespace a2abench {
namespace {

TEST(Stats, Mean) {
  EXPECT_EQ(mean({}), 0.0);
  EXPECT_EQ(mean({2.0, 4.0, 9.0}), 5.0);
}

TEST(Stats, MedianOddEvenTiesEmpty) {
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(median({7.0}), 7.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({5.0, 5.0, 1.0, 5.0}), 5.0);
}

TEST(Stats, QuartilesMatchPythonExclusive) {
  // Hand-checked against statistics.quantiles(v, n=4).
  using Q = std::array<double, 3>;
  EXPECT_EQ(quartiles({1.0, 2.0, 3.0, 4.0}), (Q{1.25, 2.5, 3.75}));
  EXPECT_EQ(quartiles({5.0, 1.0, 3.0, 2.0, 4.0}), (Q{1.5, 3.0, 4.5}));
  // Two samples extrapolate past both ends, as Python does.
  EXPECT_EQ(quartiles({3.0, 1.0}), (Q{0.5, 2.0, 3.5}));
  EXPECT_EQ(quartiles({2.0, 7.0, 2.0, 2.0}), (Q{2.0, 2.0, 5.75}));
  EXPECT_EQ(quartiles({9.0}), (Q{9.0, 9.0, 9.0}));
  EXPECT_EQ(quartiles({}), (Q{0.0, 0.0, 0.0}));
}

TEST(Stats, PercentileNearestRank) {
  EXPECT_EQ(percentile({}, 0.5), 0.0);
  EXPECT_EQ(percentile({7.0}, 0.5), 7.0);
  const std::vector<double> odd{5.0, 1.0, 3.0, 2.0, 4.0};
  // n=5: p50 → rank ⌈2.5⌉=3; p99 → rank 5; p0 → the minimum.
  EXPECT_EQ(percentile(odd, 0.50), 3.0);
  EXPECT_EQ(percentile(odd, 0.99), 5.0);
  EXPECT_EQ(percentile(odd, 0.0), 1.0);
  EXPECT_EQ(percentile(odd, 1.0), 5.0);
  // n=4: p50 → rank 2, an observed sample, never an interpolation.
  EXPECT_EQ(percentile({4.0, 2.0, 6.0, 8.0}, 0.5), 4.0);
  EXPECT_EQ(percentile({1.0, 1.0, 1.0, 9.0}, 0.75), 1.0);
}

TEST(Verify, CleanBlocksPassAndOneCorruptByteCounts) {
  for (const std::size_t block : {kSmallBlock, kLargeBlock}) {
    const int p = 4;
    const int me = 2;
    // What rank `me` should receive: block s is what rank s stamped for it.
    std::vector<std::byte> recv(static_cast<std::size_t>(p) * block);
    for (int s = 0; s < p; ++s) {
      fill_block(recv.data() + static_cast<std::size_t>(s) * block, block,
                 block_tag(42, s, me, 9));
    }
    Tally clean;
    verify_recv(recv.data(), p, block, me, 9, 42, clean);
    EXPECT_EQ(clean.attempted, 4u);
    EXPECT_EQ(clean.failed, 0u);

    recv[block + block / 2] ^= std::byte{0x10};
    Tally bad;
    verify_recv(recv.data(), p, block, me, 9, 42, bad);
    EXPECT_EQ(bad.attempted, 4u);
    EXPECT_EQ(bad.failed, 1u) << "block " << block;

    // Right bytes under the wrong exchange index are wrong too.
    recv[block + block / 2] ^= std::byte{0x10};
    Tally stale;
    verify_recv(recv.data(), p, block, me, 10, 42, stale);
    EXPECT_EQ(stale.failed, 4u);
  }
}

TEST(Verify, CorruptedByteAfterRealSmpExchangeIsCounted) {
  // The workload's own path: plan, stamp, execute, then one flipped byte on
  // one rank before the check.
  mca2a::smp::SmpRuntime rt(kTransposeRanks);
  std::vector<Tally> tallies(kTransposeRanks);
  rt.run([&](mca2a::rt::Comm& w) -> mca2a::rt::Task<void> {
    double plan_s[kSizes];
    RankState st = make_rank_state(w, nullptr, plan_s);
    const int me = w.rank();
    for (int s = 0; s < kSizes; ++s) {
      const auto k = static_cast<std::size_t>(s);
      stamp_send(st.send[k].data(), w.size(), kBlocks[s], me, 3, 7);
      co_await mca2a::rt::barrier(w);
      co_await st.plans[k].execute(mca2a::rt::ConstView(st.send[k].view()),
                                   st.recv[k].view());
      if (me == 1 && s == 1) {
        st.recv[k].data()[kBlocks[s] * 3 + 5] ^= std::byte{1};
      }
      verify_recv(st.recv[k].data(), w.size(), kBlocks[s], me, 3, 7,
                  tallies[static_cast<std::size_t>(me)]);
    }
  });
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Tally& t : tallies) {
    attempted += t.attempted;
    failed += t.failed;
  }
  EXPECT_EQ(attempted, 2u * kTransposeRanks * kTransposeRanks);
  EXPECT_EQ(failed, 1u);
  EXPECT_EQ(tallies[1].failed, 1u);
}

TEST(Verify, SimRepetitionMismatchIsCounted) {
  const SimBehaviour first{326.65152e-6, 100352, 5, 4};
  Tally t;
  check_repeat(first, first, t);
  EXPECT_EQ(t.failed, 0u);
  SimBehaviour drift = first;
  drift.virt_s = std::nextafter(first.virt_s, 1.0);  // one ulp is a change
  check_repeat(first, drift, t);
  SimBehaviour extra = first;
  extra.msgs += 1;
  check_repeat(first, extra, t);
  EXPECT_EQ(t.attempted, 3u);
  EXPECT_EQ(t.failed, 2u);
}

/// The last line print_report writes for `r`, and the failures it counted.
std::string result_line(const Report& r, std::uint64_t* failed) {
  testing::internal::CaptureStdout();
  *failed = print_report(r);
  std::string out = testing::internal::GetCapturedStdout();
  out.pop_back();  // the final newline
  return out.substr(out.rfind('\n') + 1);
}

TEST(Report, DetailsStayOutOfTheResultLine) {
  Report r;
  EndToEnd e;
  e.setup_s = 0.5;
  e.small_us = 6.0;
  add_end_to_end(r, e);
  r.detail("smp.memcpy_large_us", 2.0, "us");
  r.tally.check(true);
  std::uint64_t failed = 1;
  const std::string line = result_line(r, &failed);
  EXPECT_EQ(failed, 0u);
  for (const char* name : {"setup_s", "peak_rss_mib", "small_us", "large_us",
                           "cpu_us_per_exchange"}) {
    EXPECT_NE(line.find(std::string("\"") + name + "\""), std::string::npos)
        << name;
  }
  EXPECT_EQ(line.find("memcpy"), std::string::npos);
}

TEST(Report, PerLayerSpanNeverCalledIsAFailure) {
  Report r;
  PerLayer l;
  l.spans.calls[static_cast<std::size_t>(SpanId::kStart)] = 1;
  l.spans.self_s[static_cast<std::size_t>(SpanId::kStart)] = 2e-6;
  add_per_layer(r, l);
  r.tally.check(true);
  std::uint64_t failed = 0;
  const std::string line = result_line(r, &failed);
  // make_plan and execute were never called: two result metrics without a
  // value, each one failure.
  EXPECT_EQ(failed, 2u);
  EXPECT_NE(line.find("\"span.start.self_us\": {\"value\": 2"),
            std::string::npos);
  EXPECT_NE(line.find("\"correct\": false"), std::string::npos);
}

}  // namespace
}  // namespace a2abench
