/// Thread-scaling study for the shared-memory backend's mailbox
/// transports: wall-clock time of one alltoall / alltoallv exchange as the
/// rank-thread count grows, with the lock-free SPSC ring transport and the
/// mutex-guarded baseline as paired series, at 64 B and 64 KiB per rank
/// pair. The config is passed to the cluster explicitly (never through the
/// environment), so both transports run in one process under identical
/// conditions; the gap between the paired curves is the mailbox's
/// contribution to many-core scaling. At 64 B the ring carries payloads
/// inline; at 64 KiB it lends them (single copy by the receiver), while
/// the mutex transport copies every payload eagerly.
///
/// Thread counts sweep 4 -> max(16, hardware_concurrency) by doubling
/// (A2A_FAST: 4 and 8 only); counts above the core count run
/// oversubscribed. Each point runs warm-up exchanges, then kReps timed
/// ones behind barriers in one cluster; a repetition's time is the max
/// over ranks of their elapsed time (the slowest rank sets a collective's
/// time). A point reports the median repetition as its time, and its
/// quartiles as the q1_us / q3_us counters of the benchmark row.
///
/// Always writes machine-readable BENCH_thread_scaling.json (medians; into
/// $A2A_BENCH_JSON if set, else the build tree's bench/ directory); --list
/// and --help work like every other figure bench.

#include "bench_common.hpp"
#include "coll_ext/alltoallv.hpp"
#include "core/alltoall.hpp"
#include "runtime/collectives.hpp"
#include "runtime/env.hpp"
#include "smp/smp_runtime.hpp"
#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

using namespace mca2a;

namespace {

constexpr int kWarmup = 2;

/// One series point: which exchange, how big, over which transport.
struct Point {
  bool vector = false;  ///< uniform alltoallv instead of alltoall
  std::size_t block = 0;  ///< bytes per rank pair
  smp::MailboxConfig cfg;
  int threads = 0;
};

/// Time `reps` warm exchanges of `pt` in one cluster; returns, per
/// repetition, the max over ranks of elapsed seconds.
std::vector<double> exchange_seconds(const Point& pt, int reps) {
  const int p = pt.threads;
  const std::size_t block = pt.block;
  std::vector<std::vector<double>> elapsed(
      static_cast<std::size_t>(p),
      std::vector<double>(static_cast<std::size_t>(reps)));
  smp::run_threads(p, pt.cfg, [&](rt::Comm& world) -> rt::Task<void> {
    const int me = world.rank();
    const std::vector<std::size_t> counts(static_cast<std::size_t>(p), block);
    const auto displs = coll::displs_from_counts(counts);
    rt::Buffer send = rt::Buffer::real(block * static_cast<std::size_t>(p));
    rt::Buffer recv = rt::Buffer::real(block * static_cast<std::size_t>(p));
    for (std::byte& b : send.typed<std::byte>()) {
      b = static_cast<std::byte>(me);
    }
    for (int rep = -kWarmup; rep < reps; ++rep) {
      co_await rt::barrier(world);
      const auto t0 = std::chrono::steady_clock::now();
      if (pt.vector) {
        // Nonblocking direct algorithm: the count/displacement machinery
        // is the point.
        co_await coll::run_alltoallv(coll::AlltoallvAlgo::kNonblocking, world,
                                     nullptr, rt::ConstView(send.view()),
                                     counts, displs, recv.view(), counts,
                                     displs);
      } else {
        co_await coll::alltoall_nonblocking(world, send.view(), recv.view(),
                                            block);
      }
      if (rep >= 0) {
        elapsed[static_cast<std::size_t>(me)][static_cast<std::size_t>(rep)] =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
      }
    }
  });
  std::vector<double> worst(static_cast<std::size_t>(reps), 0.0);
  for (const std::vector<double>& mine : elapsed) {
    for (std::size_t r = 0; r < worst.size(); ++r) {
      worst[r] = std::max(worst[r], mine[r]);
    }
  }
  return worst;
}

/// The `q`-quantile of sorted samples (nearest rank, q in [0, 1]).
double quantile(const std::vector<double>& sorted, double q) {
  const auto i = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[i];
}

void register_point(bench::Figure& fig, const std::string& series,
                    const Point& pt, int reps) {
  const std::string bname =
      "thread_scaling/" + series + "/t" + std::to_string(pt.threads);
  benchmark::RegisterBenchmark(
      bname.c_str(),
      [&fig, series, pt, reps](benchmark::State& state) {
        double median = 0.0;
        for (auto _ : state) {
          std::vector<double> secs = exchange_seconds(pt, reps);
          std::sort(secs.begin(), secs.end());
          median = quantile(secs, 0.5);
          state.SetIterationTime(median);
          state.counters["q1_us"] = quantile(secs, 0.25) * 1e6;
          state.counters["q3_us"] = quantile(secs, 0.75) * 1e6;
        }
        fig.add(series, static_cast<double>(pt.threads), median);
      })
      ->UseManualTime()
      ->Iterations(1)  // one cluster per point; the reps live inside it
      ->Unit(benchmark::kMicrosecond);
}

}  // namespace

int main(int argc, char** argv) {
  const bool fast = rt::env::get_flag("A2A_FAST");
  const int reps = fast ? 5 : 31;
  bench::Figure fig("thread_scaling",
                    "Mailbox transport scaling: ring vs mutex, median "
                    "exchange (smp backend, 64 B and 64 KiB per rank pair)",
                    "Rank threads");
  std::vector<int> threads;
  if (fast) {
    threads = {4, 8};
  } else {
    const unsigned hw = std::thread::hardware_concurrency();
    const int max_t = static_cast<int>(std::max(16u, hw == 0 ? 1u : hw));
    for (int t = 4; t <= max_t; t *= 2) {
      threads.push_back(t);
    }
    if (threads.back() != max_t) {
      threads.push_back(max_t);
    }
  }
  smp::MailboxConfig ring;  // the defaults: kind = kRing
  smp::MailboxConfig mutex;
  mutex.kind = smp::MailboxKind::kMutex;
  struct Size {
    std::size_t bytes;
    const char* label;
  };
  for (int t : threads) {
    for (const Size size : {Size{64, "64B"}, Size{64 * 1024, "64KiB"}}) {
      for (const bool vector : {false, true}) {
        const std::string op =
            std::string(vector ? "alltoallv " : "alltoall ") + size.label;
        register_point(fig, op + " ring", {vector, size.bytes, ring, t}, reps);
        register_point(fig, op + " mutex", {vector, size.bytes, mutex, t},
                       reps);
      }
    }
  }
  // figure_main always writes BENCH_thread_scaling.json (build tree by
  // default, $A2A_BENCH_JSON overrides).
  return benchx::figure_main(argc, argv, fig);
}
