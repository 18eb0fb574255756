/// \file net_workload.cpp
/// net_transpose: the transpose loop on 4 forked rank processes over
/// loopback TCP, each single-threaded and pinned to its own CPU. The net
/// endpoint, wire and socket layers do all the work: 4 B per pair takes the
/// eager path, 64 KiB (above eager_max) the RTS/CTS/DATA rendezvous.
///
/// The parent stays single-threaded and idle while ranks run; ranks report
/// through one MAP_SHARED block and exit with _exit, so nothing the parent
/// set up runs twice.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <new>
#include <numeric>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/alltoall.hpp"
#include "core/tuner.hpp"
#include "model/presets.hpp"
#include "net/net_comm.hpp"
#include "net/socket.hpp"
#include "transpose.hpp"

namespace a2abench {

using namespace mca2a;

namespace {

constexpr int kRanks = kTransposeRanks;
/// A rank tree that has not finished by then is killed and counted failed.
constexpr unsigned kChildTimeoutS = 150;

/// The backend defaults, written out so the report records them and a
/// change of default does not silently change what is measured.
net::NetOptions base_options() {
  net::NetOptions opts;
  opts.size = kRanks;
  opts.rails = 2;
  opts.eager_max = 16 * 1024;
  opts.stripe_min = 256 * 1024;
  opts.timeout_s = 60.0;
  return opts;
}

double mono_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

/// What forked ranks report. Lives in one MAP_SHARED mapping.
struct Shared {
  // Cold set-up, per rank: monotonic seconds (one clock for all processes).
  double started[kRanks];
  double connected[kRanks];
  double planned[kRanks];
  double setup_cpu_s[kRanks];  ///< CPU since fork, at `planned`
  double plan_s[kRanks][kSizes];
  int algo[kSizes];
  int group[kSizes];
  std::size_t block[kSizes];
  double peak_rss_mib[kRanks];
  std::uint64_t attempted[kRanks];
  std::uint64_t failed[kRanks];
  int error[kRanks];
  int not_realtime[kRanks];  ///< SCHED_FIFO refused
  char message[kRanks][200];
  double p2p_s[kSizes];    ///< NetComm pingpong one-way medians (rank 0)
  double floor_s[kSizes];  ///< raw TCP pingpong one-way medians
  LoopCounters counters[kRanks];  ///< registry deltas over the timed loop
  SpanTotals spans[kRanks];
  LoopResults loop;
  LoopResults traced;
};

class SharedMap {
 public:
  SharedMap() {
    void* p = ::mmap(nullptr, sizeof(Shared), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) {
      throw std::runtime_error("a2abench: mmap of the shared block failed");
    }
    sh_ = new (p) Shared;
  }
  ~SharedMap() { ::munmap(sh_, sizeof(Shared)); }
  SharedMap(const SharedMap&) = delete;
  SharedMap& operator=(const SharedMap&) = delete;
  Shared* operator->() const noexcept { return sh_; }
  Shared& operator*() const noexcept { return *sh_; }

 private:
  Shared* sh_;
};

// Children of the current fork round, for the timeout handler.
volatile sig_atomic_t g_children_n = 0;
pid_t g_children[kRanks];

void kill_children(int) {
  for (int i = 0; i < g_children_n; ++i) {
    ::kill(g_children[i], SIGKILL);
  }
}

/// Fork `n` children running `body(rank)` (whose return value is the exit
/// code), wait for all of them and return true when every one exited 0.
/// A child still running after kChildTimeoutS is killed.
template <typename Body>
bool fork_ranks(int n, Body body) {
  std::fflush(stdout);
  std::fflush(stderr);
  g_children_n = 0;
  for (int rank = 0; rank < n; ++rank) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      kill_children(0);
      break;
    }
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      int rc = 1;
      try {
        rc = body(rank);
      } catch (...) {
        rc = 1;
      }
      ::_exit(rc);
    }
    g_children[rank] = pid;
    g_children_n = rank + 1;
  }
  struct sigaction sa {};
  sa.sa_handler = kill_children;
  ::sigaction(SIGALRM, &sa, nullptr);
  ::alarm(kChildTimeoutS);
  bool ok = g_children_n == n;
  for (int i = 0; i < g_children_n; ++i) {
    int status = 0;
    pid_t got = -1;
    do {
      got = ::waitpid(g_children[i], &status, 0);
    } while (got < 0 && errno == EINTR);
    if (got < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      if (ok) {
        kill_children(0);  // one rank failed: the rest cannot finish
      }
      ok = false;
    }
  }
  ::alarm(0);
  g_children_n = 0;
  return ok;
}

void record_error(Shared& sh, int rank, const char* what) {
  sh.error[rank] = 1;
  std::snprintf(sh.message[rank], sizeof sh.message[rank], "%s", what);
}

enum class Mode { kSetupOnly, kMeasure, kMeasureTraced };

std::string span_file(const Options& o, int rank) {
  return o.out_dir + "/net_transpose.rank" + std::to_string(rank) +
         ".spans.json";
}

struct RankJob {
  Shared* sh;
  const std::vector<int>* cpus;
  int rend_fd;
  std::uint16_t rend_port;
  Mode mode;
  const Options* o;
  double loop_s;
};

/// One rank process: pin, connect, plan; then the loops the mode asks for.
int rank_main(const RankJob& job, int me) {
  Shared& sh = *job.sh;
  try {
    sh.not_realtime[me] = place_rank((*job.cpus)[static_cast<std::size_t>(me)]) ? 0 : 1;
    if (me != 0) {
      ::close(job.rend_fd);
    }
    SpanLog log;
    SpanLog* lg = job.mode == Mode::kMeasureTraced ? &log : nullptr;
    net::NetOptions opts = base_options();
    opts.rank = me;
    opts.rendezvous = net::Address{"127.0.0.1", job.rend_port};
    opts.rendezvous_fd = me == 0 ? job.rend_fd : -1;
    sh.started[me] = mono_s();
    std::unique_ptr<net::NetComm> world;
    {
      Span sp(lg, SpanId::kStart);
      world = net::NetComm::connect_world(opts);
    }
    sh.connected[me] = mono_s();
    RankState st = make_rank_state(*world, lg, sh.plan_s[me]);
    sh.planned[me] = mono_s();
    sh.setup_cpu_s[me] = process_cpu_seconds();
    if (me == 0) {
      for (int s = 0; s < kSizes; ++s) {
        sh.algo[s] = st.plans[static_cast<std::size_t>(s)].algo_id();
        sh.group[s] = st.plans[static_cast<std::size_t>(s)].group_size();
        sh.block[s] = st.plans[static_cast<std::size_t>(s)].block();
      }
    }
    if (job.mode != Mode::kSetupOnly) {
      const bool traced = job.mode == Mode::kMeasureTraced;
      sh.loop.touch_row(me);
      if (traced) {
        sh.traced.touch_row(me);
      }
      Tally tally;
      LoopArgs a;
      a.world = world.get();
      a.state = &st;
      a.tally = &tally;
      a.seed = job.o->seed;
      a.seconds = 0.2;  // warm-up
      rt::sync_wait(timed_loop(a));
      const auto c0 = read_loop_counters();
      a.results = &sh.loop;
      a.traced = traced ? &sh.traced : nullptr;
      a.log = lg;
      a.rep_base = std::uint64_t{1} << 40;
      a.seconds = job.loop_s;
      rt::sync_wait(timed_loop(a));
      const auto c1 = read_loop_counters();
      for (std::size_t i = 0; i < kNumLoopCounters; ++i) {
        sh.counters[me][i] = c1[i] - c0[i];
      }
      if (traced) {
        std::vector<double> p2p[kSizes];
        rt::sync_wait(pingpong(*world, kSmallBlock, 5000, nullptr, &p2p[0]));
        rt::sync_wait(pingpong(*world, kLargeBlock, 2000, nullptr, &p2p[1]));
        rt::sync_wait(pingpong(*world, kSmallBlock, 1000, lg, nullptr));
        rt::sync_wait(pingpong(*world, kLargeBlock, 400, lg, nullptr));
        if (me == 0) {
          sh.p2p_s[0] = median(p2p[0]);
          sh.p2p_s[1] = median(p2p[1]);
        }
      }
      sh.attempted[me] = tally.attempted;
      sh.failed[me] = tally.failed;
    }
    st = RankState{};
    world->shutdown();
    world.reset();
    sh.spans[me] = log.totals();
    if (lg != nullptr) {
      std::string events;
      bool first = true;
      log.append_json(events, me, 0, first);
      write_trace_file(span_file(*job.o, me), events);
    }
    sh.peak_rss_mib[me] = peak_rss_mib();
    return 0;
  } catch (const std::exception& e) {
    record_error(sh, me, e.what());
  } catch (...) {
    record_error(sh, me, "unknown exception");
  }
  return 1;
}

/// Fork one 4-rank job in `mode`; returns true when every rank succeeded.
bool run_job(Shared& sh, const std::vector<int>& cpus, Mode mode,
             const Options& o, double loop_s) {
  auto [listener, port] = net::listen_tcp("127.0.0.1", 0, 16);
  const RankJob job{&sh, &cpus, listener.get(), port, mode, &o, loop_s};
  return fork_ranks(kRanks, [&](int rank) { return rank_main(job, rank); });
}

/// The benchmark's own blocking-TCP pingpong between two pinned processes:
/// the raw-socket floor under the net endpoint. Rank 0 writes the one-way
/// median to `*out`.
bool tcp_floor(Shared& sh, const std::vector<int>& cpus, std::size_t bytes,
               int iters, double* out) {
  auto [listener, port] = net::listen_tcp("127.0.0.1", 0, 4);
  const int lfd = listener.get();
  return fork_ranks(2, [&](int rank) {
    try {
      place_rank(cpus[static_cast<std::size_t>(rank)]);
      net::Fd conn = rank == 0 ? net::accept_tcp(lfd)
                               : net::connect_tcp({"127.0.0.1", port}, 10.0);
      std::vector<char> buf(bytes, 'x');
      auto xfer = [&](bool send) {
        std::size_t done = 0;
        while (done < bytes) {
          const ssize_t n = send ? ::send(conn.get(), buf.data() + done, bytes - done, 0)
                                 : ::recv(conn.get(), buf.data() + done, bytes - done, 0);
          if (n <= 0) {
            if (n < 0 && errno == EINTR) {
              continue;
            }
            throw std::runtime_error("tcp floor: connection lost");
          }
          done += static_cast<std::size_t>(n);
        }
      };
      std::vector<double> t;
      for (int it = 0; it < iters + 50; ++it) {
        const Clock::time_point t0 = Clock::now();
        xfer(rank == 0);
        xfer(rank != 0);
        if (rank == 0 && it >= 50) {
          t.push_back(seconds_between(t0, Clock::now()) / 2.0);
        }
      }
      if (rank == 0) {
        *out = median(t);
      }
      return 0;
    } catch (const std::exception& e) {
      record_error(sh, rank, e.what());
      return 1;
    }
  });
}

std::string first_error(const Shared& sh) {
  for (int r = 0; r < kRanks; ++r) {
    if (sh.error[r] != 0) {
      return "rank " + std::to_string(r) + ": " + sh.message[r];
    }
  }
  return "a rank process died or timed out";
}

}  // namespace

Report run_net_transpose(const Options& o) {
  const Clock::time_point begin = Clock::now();
  const std::vector<int> cpus = rank_cpus(kRanks);
  const IdleSpinners spinners(cpus);
  const net::NetOptions base = base_options();
  Report r;
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "config workload=net_transpose ranks=%d machine=generic(2,2) "
                "model=test_params algo=tuner transport=tcp-loopback "
                "cpus=%d,%d,%d,%d rails=%d eager_max=%zu stripe_min=%zu "
                "blocks=%zu,%zu",
                kRanks, cpus[0], cpus[1], cpus[2], cpus[3], base.rails,
                base.eager_max, base.stripe_min, kSmallBlock, kLargeBlock);
  r.note(buf);

  SharedMap sh;
  const bool parent_realtime = raise_to_fifo();

  // --- cold set-ups: fork, connect_world and both plans, median of many ----
  // setup_s is the CPU the set-up costs (the forking parent plus every
  // rank up to its last plan): wall-clock set-up on a shared host moves
  // with other tenants' load and is reported beside it, ungated.
  constexpr int kSetups = 150;
  std::vector<double> setup_s, wall_s, bootstrap_s, build_s[kSizes];
  for (int k = 0; k < kSetups; ++k) {
    const double t0 = mono_s();
    const double cpu0 = process_cpu_seconds();
    if (!run_job(*sh, cpus, Mode::kSetupOnly, o, 0.0)) {
      r.note("error: set-up: " + first_error(*sh));
      r.tally.check(false);
      return r;
    }
    double cpu = process_cpu_seconds() - cpu0;
    double boot = 0.0;
    double build[kSizes] = {};
    for (int me = 0; me < kRanks; ++me) {
      cpu += sh->setup_cpu_s[me];
      boot = std::max(boot, sh->connected[me] - sh->started[me]);
      for (int s = 0; s < kSizes; ++s) {
        build[s] = std::max(build[s], sh->plan_s[me][s]);
      }
    }
    setup_s.push_back(cpu);
    wall_s.push_back(*std::max_element(sh->planned, sh->planned + kRanks) - t0);
    bootstrap_s.push_back(boot);
    for (int s = 0; s < kSizes; ++s) {
      build_s[s].push_back(build[s]);
    }
  }

  // --- the timed loops ------------------------------------------------------
  const double spent = seconds_between(begin, Clock::now());
  const double left = std::max(1.0, o.seconds - spent - 0.5);
  // Traced runs alternate untraced and traced rounds in the loop, then run
  // the pingpongs and the raw-TCP floor.
  const double loop_s = o.trace ? left * 0.75 : left;
  const bool ok = run_job(*sh, cpus, o.trace ? Mode::kMeasureTraced : Mode::kMeasure,
                          o, loop_s);
  for (int me = 0; me < kRanks; ++me) {
    r.tally.attempted += sh->attempted[me];
    r.tally.failed += sh->failed[me];
  }
  if (!ok) {
    r.note("error: timed run: " + first_error(*sh));
    r.tally.check(false);
    return r;
  }

  const std::vector<double> small = per_exchange_max(sh->loop, 0);
  const std::vector<double> large = per_exchange_max(sh->loop, 1);
  r.note(parent_realtime &&
                 std::accumulate(sh->not_realtime, sh->not_realtime + kRanks,
                                 0) == 0
             ? "sched=fifo"
             : "sched=other(fifo refused)");
  std::snprintf(buf, sizeof buf,
                "timed exchanges=%zu per size; small=%s g=%d large=%s g=%d",
                small.size(),
                std::string(coll::algo_name(static_cast<coll::Algo>(sh->algo[0]))).c_str(),
                sh->group[0],
                std::string(coll::algo_name(static_cast<coll::Algo>(sh->algo[1]))).c_str(),
                sh->group[1]);
  r.note(buf);
  r.note(quartile_note(small, large));

  if (!o.trace) {
    double rss = 0.0;
    for (int me = 0; me < kRanks; ++me) {
      rss = std::max(rss, sh->peak_rss_mib[me]);
    }
    EndToEnd e;
    e.setup_s = median(setup_s);
    e.peak_rss_mib = rss;
    e.small_us = percentile(small, 0.5) * 1e6;
    e.large_us = percentile(large, 0.5) * 1e6;
    e.cpu_us_per_exchange = cpu_per_exchange(sh->loop) * 1e6;
    add_end_to_end(r, e);
    return r;
  }

  if (!tcp_floor(*sh, cpus, kSmallBlock, 20000, &sh->floor_s[0]) ||
      !tcp_floor(*sh, cpus, kLargeBlock, 5000, &sh->floor_s[1])) {
    r.note("error: tcp floor: " + first_error(*sh));
    r.tally.check(false);
  }
  const double* floor_s = sh->floor_s;

  const double small_p50 = percentile(small, 0.5);
  const double large_p50 = percentile(large, 0.5);
  const std::vector<double> tr_small_v = per_exchange_max(sh->traced, 0);
  const double tr_small = percentile(tr_small_v, 0.5);
  const double tr_large = percentile(per_exchange_max(sh->traced, 1), 0.5);
  // Both halves of the loop count: the registry does not know which rounds
  // were traced.
  const auto exchanges =
      static_cast<double>(2 * (small.size() + tr_small_v.size()));
  const topo::Machine machine = transpose_machine();
  const model::NetParams net = model::test_params();
  auto pred_err = [&](int s, double measured) {
    const double pred = coll::predict_alltoall_seconds(
        static_cast<coll::Algo>(sh->algo[s]), machine, net, sh->block[s],
        sh->group[s]);
    return std::abs(pred - measured) / measured;
  };
  auto per_exchange = [&](std::size_t i) {
    double sum = 0.0;
    for (int me = 0; me < kRanks; ++me) {
      sum += static_cast<double>(sh->counters[me][i]);
    }
    return sum / exchanges;
  };
  SpanTotals totals;
  for (int me = 0; me < kRanks; ++me) {
    totals.merge(sh->spans[me]);
  }
  PerLayer l;
  l.setup_wall_s = median(wall_s);
  l.backend_start_s = median(bootstrap_s);
  l.msg_small_us = sh->p2p_s[0] * 1e6;
  l.msg_large_us = sh->p2p_s[1] * 1e6;
  l.msgs_per_exchange = per_exchange(4);  // frames, all ranks
  l.build_s[0] = median(build_s[0]);
  l.build_s[1] = median(build_s[1]);
  l.algo[0] = sh->algo[0];
  l.algo[1] = sh->algo[1];
  l.pred_err[0] = pred_err(0, small_p50);
  l.pred_err[1] = pred_err(1, large_p50);
  l.p99_us[0] = percentile(small, 0.99) * 1e6;
  l.p99_us[1] = percentile(large, 0.99) * 1e6;
  l.trace_overhead_pct[0] = (tr_small / small_p50 - 1.0) * 100.0;
  l.trace_overhead_pct[1] = (tr_large / large_p50 - 1.0) * 100.0;
  l.spans = totals;
  add_per_layer(r, l);
  r.detail("net.tcp_floor_small_us", floor_s[0] * 1e6, "us");
  r.detail("net.tcp_floor_large_us", floor_s[1] * 1e6, "us");
  r.detail("net.eager_tx_per_exchange", per_exchange(5), "count");
  r.detail("net.rndv_tx_per_exchange", per_exchange(6), "count");
  add_span_details(r, totals);
  r.note("spans written by each rank to " + span_file(o, 0) + " .. rank" +
         std::to_string(kRanks - 1));

  std::snprintf(buf, sizeof buf,
                "floors, small: raw TCP one-way %.3f us | NetComm p2p one-way "
                "%.3f us | net_transpose small_us (p50) %.3f us (p2p = %.2fx raw)",
                floor_s[0] * 1e6, sh->p2p_s[0] * 1e6, small_p50 * 1e6,
                sh->p2p_s[0] / floor_s[0]);
  r.note(buf);
  std::snprintf(buf, sizeof buf,
                "floors, large: raw TCP one-way %.3f us | NetComm p2p one-way "
                "%.3f us | net_transpose large_us (p50) %.3f us (p2p = %.2fx raw)",
                floor_s[1] * 1e6, sh->p2p_s[1] * 1e6, large_p50 * 1e6,
                sh->p2p_s[1] / floor_s[1]);
  r.note(buf);
  return r;
}

}  // namespace a2abench
