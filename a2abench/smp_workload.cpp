/// \file smp_workload.cpp
/// smp_transpose: the transpose loop on 4 rank threads of one process, each
/// pinned to its own CPU. The smp mailbox, runtime coroutines and plan
/// execution do all the work: 4 B per pair travels inline in ring slots
/// (per-message cost), 64 KiB per pair as heap blocks (bytes).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/alltoall.hpp"
#include "core/tuner.hpp"
#include "model/presets.hpp"
#include "smp/smp_runtime.hpp"
#include "transpose.hpp"

namespace a2abench {

using namespace mca2a;

namespace {

constexpr int kRanks = kTransposeRanks;

/// Median one-way time of a 64 KiB memcpy between two warm buffers: the
/// floor under a 64 KiB-per-pair exchange.
double memcpy_floor_s(int iters) {
  std::vector<std::byte> a(kLargeBlock, std::byte{1});
  std::vector<std::byte> b(kLargeBlock, std::byte{0});
  std::vector<double> t;
  t.reserve(static_cast<std::size_t>(iters));
  for (int i = 0; i < iters + 50; ++i) {
    const Clock::time_point t0 = Clock::now();
    std::memcpy(b.data(), a.data(), kLargeBlock);
    asm volatile("" : : "r"(b.data()) : "memory");  // keep the copy
    const Clock::time_point t1 = Clock::now();
    if (i >= 50) {
      t.push_back(seconds_between(t0, t1));
    }
  }
  return median(t);
}

}  // namespace

Report run_smp_transpose(const Options& o) {
  const Clock::time_point begin = Clock::now();
  const std::vector<int> cpus = rank_cpus(kRanks);
  const IdleSpinners spinners(cpus);  // forked while single-threaded
  // Ring mailboxes at the library's default sizes. The receive spin is
  // raised from the default 64 polls, after which a waiting rank parks on a
  // futex, to 1000 (about the length of one exchange): with 64, nearly
  // every wait parked and the 4 B p50 flipped between 11 and 60 us from run
  // to run; with 1000 a rank parks only when the loop stalls.
  smp::MailboxConfig cfg{};
  cfg.spin = 1000;
  Report r;
  std::atomic<int> not_realtime{raise_to_fifo() ? 0 : 1};
  auto place = [&](int rank) {
    if (!place_rank(cpus[static_cast<std::size_t>(rank)])) {
      not_realtime.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::vector<Tally> tallies(kRanks);
  std::vector<SpanLog> logs(kRanks + 1);  // one per rank, plus this thread
  SpanLog* const main_log = o.trace ? &logs[kRanks] : nullptr;
  auto rank_log = [&](int rank) { return o.trace ? &logs[static_cast<std::size_t>(rank)] : nullptr; };

  // --- cold set-ups: runtime start plus both plans, median of many --------
  // setup_s is the CPU the set-up costs (this thread plus every rank thread
  // up to its last plan); the wall-clock set-up moves with other tenants'
  // load and is reported beside it, ungated.
  constexpr int kSetups = 200;
  std::vector<double> setup_s, wall_s, start_s, build_s[kSizes];
  for (int k = 0; k < kSetups; ++k) {
    double started[kRanks] = {};
    double planned[kRanks] = {};
    double cpu[kRanks] = {};
    double plan_s[kRanks][kSizes] = {};
    Span root(main_log, SpanId::kSetup);
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = thread_cpu_seconds();
    std::optional<smp::SmpRuntime> rt;
    {
      Span sp(main_log, SpanId::kStart);
      rt.emplace(kRanks, cfg);
    }
    rt->run([&](rt::Comm& w) -> rt::Task<void> {
      const int me = w.rank();
      place(me);
      started[me] = seconds_between(t0, Clock::now());
      RankState st = make_rank_state(w, rank_log(me), plan_s[me]);
      planned[me] = seconds_between(t0, Clock::now());
      cpu[me] = thread_cpu_seconds();  // a fresh thread: all of it is set-up
      co_return;
    });
    double total_cpu = thread_cpu_seconds() - cpu0;
    for (const double c : cpu) {
      total_cpu += c;
    }
    setup_s.push_back(total_cpu);
    wall_s.push_back(*std::max_element(planned, planned + kRanks));
    start_s.push_back(*std::max_element(started, started + kRanks));
    for (int s = 0; s < kSizes; ++s) {
      double worst = 0.0;
      for (int me = 0; me < kRanks; ++me) {
        worst = std::max(worst, plan_s[me][s]);
      }
      build_s[s].push_back(worst);
    }
  }

  // --- the timed loops ------------------------------------------------------
  smp::SmpRuntime rt(kRanks, cfg);
  std::vector<std::optional<RankState>> states(kRanks);
  double unused[kRanks][kSizes] = {};
  auto pinned = [&](auto body) {
    rt.run([&](rt::Comm& w) -> rt::Task<void> {
      place(w.rank());
      co_await body(w);
    });
  };
  pinned([&](rt::Comm& w) -> rt::Task<void> {
    const int me = w.rank();
    states[static_cast<std::size_t>(me)].emplace(make_rank_state(w, nullptr, unused[me]));
    LoopArgs a;
    a.world = &w;
    a.state = &*states[static_cast<std::size_t>(me)];
    a.tally = &tallies[static_cast<std::size_t>(me)];
    a.seed = o.seed;
    a.seconds = 0.2;  // warm-up: caches, rings, scratch arenas
    co_await timed_loop(a);
  });

  const double spent = seconds_between(begin, Clock::now());
  // Untraced runs spend the rest of their time in the loop; traced runs
  // alternate untraced and traced rounds in it, then run the pingpongs.
  const double left = std::max(1.0, o.seconds - spent);
  const double loop_s = o.trace ? left * 0.8 : left;

  auto results = std::make_unique<LoopResults>();
  std::unique_ptr<LoopResults> traced;
  if (o.trace) {
    traced = std::make_unique<LoopResults>();
  }
  for (int me = 0; me < kRanks; ++me) {
    results->touch_row(me);
    if (traced) {
      traced->touch_row(me);
    }
  }
  const auto c0 = read_loop_counters();
  pinned([&](rt::Comm& w) -> rt::Task<void> {
    const int me = w.rank();
    LoopArgs a;
    a.world = &w;
    a.state = &*states[static_cast<std::size_t>(me)];
    a.results = results.get();
    a.traced = traced.get();
    a.log = rank_log(me);
    a.tally = &tallies[static_cast<std::size_t>(me)];
    a.seed = o.seed;
    a.rep_base = std::uint64_t{1} << 40;
    a.seconds = loop_s;
    co_await timed_loop(a);
  });
  const auto c1 = read_loop_counters();
  // Before the samples are post-processed: those copies grow with the
  // number of exchanges, which depends on the host's speed.
  const double rss_mib = peak_rss_mib();

  const std::vector<double> small = per_exchange_max(*results, 0);
  const std::vector<double> large = per_exchange_max(*results, 1);
  const plan::CollectivePlan& ps = states[0]->plans[0];
  const plan::CollectivePlan& pl = states[0]->plans[1];
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "config workload=smp_transpose ranks=%d machine=generic(2,2) "
                "model=test_params algo=tuner cpus=%d,%d,%d,%d sched=%s "
                "mailbox=%s ring_slots=%u ring_inline=%u spin=%d "
                "blocks=%zu,%zu",
                kRanks, cpus[0], cpus[1], cpus[2], cpus[3],
                not_realtime.load() == 0 ? "fifo" : "other(fifo refused)",
                cfg.kind == smp::MailboxKind::kRing ? "ring" : "mutex",
                cfg.ring_slots, cfg.ring_inline, cfg.spin, kSmallBlock,
                kLargeBlock);
  r.note(buf);
  std::snprintf(buf, sizeof buf,
                "timed exchanges=%zu per size; small=%s g=%d large=%s g=%d",
                small.size(), std::string(coll::algo_name(ps.algo())).c_str(),
                ps.group_size(), std::string(coll::algo_name(pl.algo())).c_str(),
                pl.group_size());
  r.note(buf);
  r.note(quartile_note(small, large));

  if (!o.trace) {
    EndToEnd e;
    e.setup_s = median(setup_s);
    e.peak_rss_mib = rss_mib;
    e.small_us = percentile(small, 0.5) * 1e6;
    e.large_us = percentile(large, 0.5) * 1e6;
    e.cpu_us_per_exchange = cpu_per_exchange(*results) * 1e6;
    add_end_to_end(r, e);
  } else {
    std::vector<double> p2p[kSizes];
    double memcpy_s = 0.0;
    pinned([&](rt::Comm& w) -> rt::Task<void> {
      const int me = w.rank();
      co_await pingpong(w, kSmallBlock, 20000, nullptr, &p2p[0]);
      co_await pingpong(w, kLargeBlock, 5000, nullptr, &p2p[1]);
      // Spans only: the one-way times come from the untraced pingpongs.
      co_await pingpong(w, kSmallBlock, 2000, rank_log(me), nullptr);
      co_await pingpong(w, kLargeBlock, 500, rank_log(me), nullptr);
      if (me == 0) {
        memcpy_s = memcpy_floor_s(20000);
      }
    });

    const double small_p50 = percentile(small, 0.5);
    const double large_p50 = percentile(large, 0.5);
    const std::vector<double> tr_small_v = per_exchange_max(*traced, 0);
    const double tr_small = percentile(tr_small_v, 0.5);
    const double tr_large = percentile(per_exchange_max(*traced, 1), 0.5);
    // Both halves of the loop count: the registry does not know which
    // rounds were traced.
    const auto exchanges =
        static_cast<double>(2 * (small.size() + tr_small_v.size()));
    const topo::Machine machine = transpose_machine();
    const model::NetParams net = model::test_params();
    auto pred_err = [&](const plan::CollectivePlan& p, double measured) {
      const double pred = coll::predict_alltoall_seconds(
          p.algo(), machine, net, p.block(), p.group_size());
      return std::abs(pred - measured) / measured;
    };
    auto per_exchange = [&](std::size_t i) {
      return static_cast<double>(c1[i] - c0[i]) / exchanges;
    };
    const double p2p_small = median(p2p[0]);
    const double p2p_large = median(p2p[1]);
    SpanTotals totals;
    std::string events;
    bool first = true;
    for (int t = 0; t <= kRanks; ++t) {
      totals.merge(logs[static_cast<std::size_t>(t)].totals());
      logs[static_cast<std::size_t>(t)].append_json(events, 0, t, first);
    }
    PerLayer l;
    l.setup_wall_s = median(wall_s);
    l.backend_start_s = median(start_s);
    l.msg_small_us = p2p_small * 1e6;
    l.msg_large_us = p2p_large * 1e6;
    l.msgs_per_exchange = per_exchange(0) + per_exchange(1);  // ring + overflow
    l.build_s[0] = median(build_s[0]);
    l.build_s[1] = median(build_s[1]);
    l.algo[0] = ps.algo_id();
    l.algo[1] = pl.algo_id();
    l.pred_err[0] = pred_err(ps, small_p50);
    l.pred_err[1] = pred_err(pl, large_p50);
    l.p99_us[0] = percentile(small, 0.99) * 1e6;
    l.p99_us[1] = percentile(large, 0.99) * 1e6;
    l.trace_overhead_pct[0] = (tr_small / small_p50 - 1.0) * 100.0;
    l.trace_overhead_pct[1] = (tr_large / large_p50 - 1.0) * 100.0;
    l.spans = totals;
    add_per_layer(r, l);
    r.detail("smp.memcpy_large_us", memcpy_s * 1e6, "us");
    r.detail("smp.ring_sends_per_exchange", per_exchange(0), "count");
    r.detail("smp.overflow_sends_per_exchange", per_exchange(1), "count");
    r.detail("smp.sleeps_per_exchange", per_exchange(2), "count");
    r.detail("smp.wakeups_per_exchange", per_exchange(3), "count");
    add_span_details(r, totals);
    const std::string path = o.out_dir + "/smp_transpose.spans.json";
    r.note(std::string(write_trace_file(path, events) ? "spans written to "
                                                      : "could not write ") +
           path);

    std::snprintf(buf, sizeof buf,
                  "floors, large: memcpy 64 KiB %.3f us | smp p2p one-way %.3f us "
                  "| smp_transpose large_us (p50) %.3f us",
                  memcpy_s * 1e6, p2p_large * 1e6, large_p50 * 1e6);
    r.note(buf);
    std::snprintf(buf, sizeof buf,
                  "floors, small: smp p2p one-way %.3f us | smp_transpose "
                  "small_us (p50) %.3f us",
                  p2p_small * 1e6, small_p50 * 1e6);
    r.note(buf);
  }

  // Plans go on their own rank threads, before the runtime.
  pinned([&](rt::Comm& w) -> rt::Task<void> {
    states[static_cast<std::size_t>(w.rank())].reset();
    co_return;
  });
  for (const Tally& t : tallies) {
    r.tally.attempted += t.attempted;
    r.tally.failed += t.failed;
  }
  return r;
}

}  // namespace a2abench
