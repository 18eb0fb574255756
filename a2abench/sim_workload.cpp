/// \file sim_workload.cpp
/// sim_dane32: the paper's headline configuration, 32 Dane nodes (3584
/// ranks, Omni-Path model, virtual buffers), three planned exchanges per
/// repetition, each in a fresh sim::Cluster:
///   small  — the tuner's pick at 4 B per pair (Fig 11's metric);
///   sysmpi — System MPI at 4 B, the paper's baseline;
///   large  — Locality-Aware, groups of 4, at 4096 B (Fig 12's metric).
/// Every exchange follows bench::run_sim's protocol (barrier, then the
/// timed execute; virtual time = last end - first start), so its virtual
/// time and message count must equal run_sim's for the same spec — which
/// the run cross-checks once for small and large.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/alltoall.hpp"
#include "core/tuner.hpp"
#include "harness/sweep.hpp"
#include "model/presets.hpp"
#include "plan/plan.hpp"
#include "runtime/collectives.hpp"
#include "sim/cluster.hpp"
#include "sim/sim_comm.hpp"
#include "topo/presets.hpp"

namespace a2abench {
namespace {

using namespace mca2a;

constexpr int kNodes = 32;

struct SimPoint {
  const char* name;
  std::optional<coll::Algo> algo;  ///< nullopt: the tuner picks
  int group_size;                  ///< for an explicit locality algorithm
  std::size_t block;
};

const SimPoint kSmall{"small", std::nullopt, 0, 4};
const SimPoint kSysMpi{"sysmpi", coll::Algo::kSystemMpi, 0, 4};
const SimPoint kLarge{"large", coll::Algo::kLocalityAware, 4, 4096};

struct SimOutcome {
  SimBehaviour b;
  double build_s = 0.0;  ///< host: Cluster construction
  double plan_s = 0.0;   ///< host: every rank's make_plan
  /// Host CPU of the barrier plus the exchange. CPU rather than wall time:
  /// time the hypervisor takes from the virtual CPU is not the simulator's.
  double run_s = 0.0;
  double setup_cpu_s = 0.0;  ///< host CPU of the construction and the plans
};

SimOutcome simulate(const SimPoint& pt, SpanLog* log) {
  const topo::Machine machine_spec = topo::dane(kNodes);
  const model::NetParams net = model::omni_path();
  sim::ClusterConfig cfg;
  cfg.machine = machine_spec.desc();
  cfg.net = net;
  cfg.carry_data = false;
  cfg.noise_seed = 1;

  SimOutcome out;
  const double cpu0 = thread_cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  std::optional<sim::Cluster> cluster;
  {
    Span s(log, SpanId::kStart);
    cluster.emplace(cfg);
  }
  const Clock::time_point t1 = Clock::now();

  const topo::Machine& machine = cluster->machine();
  const int p = machine.total_ranks();
  const std::size_t total = static_cast<std::size_t>(p) * pt.block;
  // Declared after the cluster: plans hold its communicators, so they go
  // first.
  std::vector<rt::Buffer> sbuf(static_cast<std::size_t>(p));
  std::vector<rt::Buffer> rbuf(static_cast<std::size_t>(p));
  std::vector<std::optional<plan::CollectivePlan>> plans(
      static_cast<std::size_t>(p));
  {
    Span s(log, SpanId::kClusterRun);
    cluster->run([&](rt::Comm& w) -> rt::Task<void> {
      const auto me = static_cast<std::size_t>(w.rank());
      if (pt.algo == coll::Algo::kSystemMpi) {
        // The vendor-tuned baseline runs with System MPI's CPU multiplier,
        // as in run_sim.
        dynamic_cast<sim::SimComm&>(w).set_cost_scale(net.vendor_factor);
      }
      sbuf[me] = w.alloc_buffer(total);
      rbuf[me] = w.alloc_buffer(total);
      coll::AlltoallDesc desc;
      desc.block = pt.block;
      desc.algo = pt.algo;
      plan::PlanOptions popts;
      popts.group_size = pt.group_size;
      Span ms(log, SpanId::kMakePlan);
      plans[me].emplace(plan::make_plan(w, machine, net, desc, popts));
      co_return;
    });
  }
  const Clock::time_point t2 = Clock::now();
  const double cpu2 = thread_cpu_seconds();
  out.setup_cpu_s = cpu2 - cpu0;

  std::vector<double> start(static_cast<std::size_t>(p), 0.0);
  std::vector<double> end(static_cast<std::size_t>(p), 0.0);
  {
    Span s(log, SpanId::kExecute);
    cluster->run([&](rt::Comm& w) -> rt::Task<void> {
      const auto me = static_cast<std::size_t>(w.rank());
      co_await rt::barrier(w);
      start[me] = w.now();
      co_await plans[me]->execute(rt::ConstView(sbuf[me].view()),
                                  rbuf[me].view());
      end[me] = w.now();
    });
  }
  out.run_s = thread_cpu_seconds() - cpu2;

  out.b.virt_s = *std::max_element(end.begin(), end.end()) -
               *std::min_element(start.begin(), start.end());
  out.b.msgs = cluster->messages_sent();
  out.build_s = seconds_between(t0, t1);
  out.plan_s = seconds_between(t1, t2);
  out.b.algo = plans[0]->algo_id();
  out.b.group = plans[0]->group_size();
  return out;
}

/// run_sim for the same spec, with the algorithm the exchange resolved.
bench::RunResult run_sim_reference(const SimPoint& pt, const SimOutcome& got) {
  bench::RunSpec spec;
  spec.machine = topo::dane(kNodes).desc();
  spec.net = model::omni_path();
  spec.algo = static_cast<coll::Algo>(got.b.algo);
  spec.group_size = got.b.group;
  spec.block = pt.block;
  spec.use_plan = true;
  return bench::run_sim(spec);
}

/// CPU seconds of a fixed compute-bound kernel: the host's current speed.
/// On the shared host the simulator's CPU time per exchange moved by up to
/// a fifth between runs minutes apart, and this kernel moved with it: the
/// ratio of the 4 B pick's CPU to the kernel's held within 3% while both
/// rose by a fifth. So the host-time metrics are scaled by it.
double reference_kernel_s() {
  const double c0 = thread_cpu_seconds();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < (1 << 24); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  asm volatile("" : : "r"(x));  // keep the loop
  return thread_cpu_seconds() - c0;
}

/// The kernel's CPU seconds at the speed host times are scaled to: a round
/// figure near its time on the 4-vCPU host described in the README.
constexpr double kReferenceKernelS = 0.04;

struct Series {
  std::vector<SimOutcome> reps;
  std::vector<double> field(double SimOutcome::*f) const {
    std::vector<double> v;
    for (const SimOutcome& o : reps) {
      v.push_back(o.*f);
    }
    return v;
  }
};

}  // namespace

Report run_sim_dane32(const Options& o) {
  // The simulator is one thread; it gets one CPU the way a rank does.
  const bool realtime = place_rank(rank_cpus(1)[0]);
  Report r;
  r.note("config workload=sim_dane32 machine=dane(" + std::to_string(kNodes) +
         ") ranks=" + std::to_string(topo::dane(kNodes).total_ranks()) +
         " model=omni_path carry_data=0 noise_sigma=0 exchanges=small(tuner,4B),"
         "sysmpi(System MPI,4B),large(Locality-Aware g=4,4096B) sched=" +
         (realtime ? "fifo" : "other(fifo refused)"));

  const SimPoint* points[] = {&kSmall, &kSysMpi, &kLarge};
  Series series[3];
  // setup_s is CPU time (the simulator is single-threaded, so this is its
  // wall time minus any time other processes held the CPU).
  std::vector<double> setups;
  std::vector<double> setup_walls;
  std::vector<double> builds;
  std::vector<double> kernel_s;  // reference kernel, once per simulation
  const Clock::time_point begin = Clock::now();
  // The host CPU of one simulated exchange on a shared host switches
  // between two levels up to 1.7x apart every few seconds, with no page
  // faults and while fixed compute and pointer-chasing loops on the same
  // CPU move far less. So every exchange is simulated in at least five
  // fresh clusters per run, the shorter ones several times per repetition
  // (the 4 B pick takes a tenth of a second, System MPI two seconds,
  // Locality-Aware three), and host_* is the mean over them, total CPU per
  // exchange: a mean averages the two levels where a median jumps between
  // them.
  constexpr int kMinReps = 5;
  constexpr int kTimes[3] = {4, 2, 1};  // per repetition: small, sysmpi, large
  for (int rep = 0;
       rep < kMinReps || seconds_between(begin, Clock::now()) < o.seconds;
       ++rep) {
    double setup = 0.0;
    double setup_wall = 0.0;
    for (int i = 0; i < 3; ++i) {
      for (int t = 0; t < kTimes[i]; ++t) {
        kernel_s.push_back(reference_kernel_s());
        SimOutcome got;
        try {
          got = simulate(*points[i], nullptr);
        } catch (const std::exception& e) {
          r.note(std::string("error: ") + points[i]->name + ": " + e.what());
          r.tally.check(false);
          continue;
        }
        if (t == 0) {  // one cold set-up per exchange in setup_s
          setup += got.setup_cpu_s;
          setup_wall += got.build_s + got.plan_s;
        }
        builds.push_back(got.build_s);
        check_repeat(series[i].reps.empty() ? got.b : series[i].reps.front().b,
                     got.b, r.tally);
        series[i].reps.push_back(got);
      }
    }
    setups.push_back(setup);
    setup_walls.push_back(setup_wall);
  }
  for (const Series& s : series) {
    if (s.reps.empty()) {
      r.note("error: an exchange never completed");
      return r;
    }
  }
  const SimOutcome& small = series[0].reps.front();
  const SimOutcome& sysmpi = series[1].reps.front();
  const SimOutcome& large = series[2].reps.front();

  // Cross-check against bench::run_sim once, outside the timed part.
  for (int i : {0, 2}) {
    const SimOutcome& got = series[i].reps.front();
    try {
      const bench::RunResult ref = run_sim_reference(*points[i], got);
      const bool ok = ref.seconds == got.b.virt_s && ref.messages == got.b.msgs;
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "cross-check %s vs bench::run_sim: %.17g s / %llu msgs vs "
                    "%.17g s / %llu msgs: %s",
                    points[i]->name, got.b.virt_s,
                    static_cast<unsigned long long>(got.b.msgs), ref.seconds,
                    static_cast<unsigned long long>(ref.messages),
                    ok ? "OK" : "MISMATCH");
      r.note(buf);
      r.tally.check(ok);
    } catch (const std::exception& e) {
      r.note(std::string("error: run_sim cross-check: ") + e.what());
      r.tally.check(false);
    }
  }

  char buf[256];
  std::snprintf(buf, sizeof buf,
                "repetitions=%zu small=%s g=%d sysmpi=%s large=%s g=%d",
                series[2].reps.size(),
                std::string(coll::algo_name(static_cast<coll::Algo>(small.b.algo))).c_str(),
                small.b.group,
                std::string(coll::algo_name(static_cast<coll::Algo>(sysmpi.b.algo))).c_str(),
                std::string(coll::algo_name(static_cast<coll::Algo>(large.b.algo))).c_str(),
                large.b.group);
  r.note(buf);

  // Host CPU seconds scaled to the reference kernel's nominal speed.
  const double scale = kReferenceKernelS / mean(kernel_s);
  auto host_s = [&](int i) {
    return mean(series[i].field(&SimOutcome::run_s)) * scale;
  };
  std::snprintf(buf, sizeof buf,
                "reference kernel %.4f s (nominal %.4f s): host CPU times "
                "scaled by %.4f",
                mean(kernel_s), kReferenceKernelS, scale);
  r.note(buf);

  const double host_small = host_s(0);
  const double host_sysmpi = host_s(1);
  const double host_large = host_s(2);
  if (!o.trace) {
    EndToEnd e;
    e.setup_s = median(setups) * scale;
    e.peak_rss_mib = peak_rss_mib();
    e.small_us = host_small * 1e6;
    e.large_us = host_large * 1e6;
    // Every exchange kind counts once, System MPI's Bruck bookkeeping too.
    e.cpu_us_per_exchange = (host_small + host_sysmpi + host_large) / 3.0 * 1e6;
    add_end_to_end(r, e);
    r.detail("sim.host_sysmpi_small_us", host_sysmpi * 1e6, "us");
    r.detail("model.virt_small_us", small.b.virt_s * 1e6, "virt_us");
    r.detail("model.virt_large_us", large.b.virt_s * 1e6, "virt_us");
    return r;
  }

  // Traced run: one more repetition with spans on; the host times and
  // their tails come from the untraced repetitions above.
  SpanLog log(1000);
  double traced_run_s[3] = {};
  for (int i = 0; i < 3; ++i) {
    try {
      traced_run_s[i] = simulate(*points[i], &log).run_s;
    } catch (const std::exception& e) {
      r.note(std::string("error: traced ") + points[i]->name + ": " + e.what());
      r.tally.check(false);
    }
  }
  const topo::Machine machine = topo::dane(kNodes);
  const model::NetParams net = model::omni_path();
  auto pred_err = [&](const SimOutcome& got, std::size_t block) {
    const double pred = coll::predict_alltoall_seconds(
        static_cast<coll::Algo>(got.b.algo), machine, net, block, got.b.group);
    return std::abs(pred - got.b.virt_s) / got.b.virt_s;
  };
  // Tails of the scaled host CPU per simulated exchange.
  auto p99_us = [&](int i) {
    return percentile(series[i].field(&SimOutcome::run_s), 0.99) * scale * 1e6;
  };
  // Traced against untraced, both unscaled.
  auto overhead_pct = [&](int i) {
    return (traced_run_s[i] / mean(series[i].field(&SimOutcome::run_s)) - 1.0) *
           100.0;
  };
  const auto msgs_small = static_cast<double>(small.b.msgs);
  const auto msgs_large = static_cast<double>(large.b.msgs);
  PerLayer l;
  l.setup_wall_s = median(setup_walls);
  l.backend_start_s = median(builds);
  l.msg_small_us = host_small * 1e6 / msgs_small;
  l.msg_large_us = host_large * 1e6 / msgs_large;
  l.msgs_per_exchange = (msgs_small + msgs_large) / 2.0;
  l.build_s[0] = median(series[0].field(&SimOutcome::plan_s));
  l.build_s[1] = median(series[2].field(&SimOutcome::plan_s));
  l.algo[0] = small.b.algo;
  l.algo[1] = large.b.algo;
  l.pred_err[0] = pred_err(small, kSmall.block);
  l.pred_err[1] = pred_err(large, kLarge.block);
  l.p99_us[0] = p99_us(0);
  l.p99_us[1] = p99_us(2);
  l.trace_overhead_pct[0] = overhead_pct(0);
  l.trace_overhead_pct[1] = overhead_pct(2);
  l.spans = log.totals();
  add_per_layer(r, l);
  r.detail("sim.msgs_small", msgs_small, "count");
  r.detail("sim.msgs_sysmpi_small", static_cast<double>(sysmpi.b.msgs), "count");
  r.detail("sim.msgs_large", msgs_large, "count");
  r.detail("sim.host_sysmpi_small_us", host_sysmpi * 1e6, "us");
  r.detail("sim.host_ns_per_msg_sysmpi_small",
           host_sysmpi * 1e9 / static_cast<double>(sysmpi.b.msgs), "ns");
  r.detail("sim.reference_kernel_s", mean(kernel_s), "s");
  r.detail("model.virt_small_us", small.b.virt_s * 1e6, "virt_us");
  r.detail("model.virt_large_us", large.b.virt_s * 1e6, "virt_us");
  r.detail("model.virt_sysmpi_small_us", sysmpi.b.virt_s * 1e6, "virt_us");
  r.detail("model.speedup_small", sysmpi.b.virt_s / small.b.virt_s, "x");
  add_span_details(r, log.totals());
  std::string events;
  bool first = true;
  log.append_json(events, 0, 0, first);
  const std::string path = o.out_dir + "/sim_dane32.spans.json";
  r.note(std::string(write_trace_file(path, events) ? "spans written to "
                                                    : "could not write ") +
         path);
  return r;
}

}  // namespace a2abench
