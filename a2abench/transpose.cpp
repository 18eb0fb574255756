#include "transpose.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "model/presets.hpp"
#include "obs/metrics.hpp"
#include "runtime/collectives.hpp"
#include "topo/presets.hpp"

namespace a2abench {

using namespace mca2a;

LoopCounters read_loop_counters() {
  LoopCounters v{};
  for (std::size_t i = 0; i < kNumLoopCounters; ++i) {
    v[i] = obs::metrics().counter_value(kLoopCounters[i]);
  }
  return v;
}

void LoopResults::touch_row(int rank) {
  std::memset(&rows[rank], 0, sizeof(Row));
}

std::vector<double> per_exchange_max(const LoopResults& res, int s) {
  std::uint64_t n = res.rows[0].count;
  for (const LoopResults::Row& row : res.rows) {
    n = std::min(n, row.count);
  }
  std::vector<double> out(n, 0.0);
  for (std::uint64_t i = 0; i < n; ++i) {
    for (const LoopResults::Row& row : res.rows) {
      out[i] = std::max(out[i], static_cast<double>(row.elapsed[s][i]));
    }
  }
  return out;
}

std::string quartile_note(const std::vector<double>& small,
                          const std::vector<double>& large) {
  const std::array<double, 3> s = quartiles(small);
  const std::array<double, 3> l = quartiles(large);
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "exchange time quartiles (us): small %.3f / %.3f / %.3f, "
                "large %.3f / %.3f / %.3f",
                s[0] * 1e6, s[1] * 1e6, s[2] * 1e6, l[0] * 1e6, l[1] * 1e6,
                l[2] * 1e6);
  return buf;
}

double cpu_per_exchange(const LoopResults& res) {
  std::uint64_t n = res.rows[0].count;
  for (const LoopResults::Row& row : res.rows) {
    n = std::min(n, row.count);
  }
  double sum = 0.0;
  for (int s = 0; s < kSizes; ++s) {
    std::vector<double> per(n, 0.0);
    for (std::uint64_t i = 0; i < n; ++i) {
      for (const LoopResults::Row& row : res.rows) {
        per[i] += static_cast<double>(row.cpu[s][i]);
      }
    }
    sum += median(per);
  }
  return sum / kSizes;
}

topo::Machine transpose_machine() {
  return topo::generic(2, kTransposeRanks / 2);
}

RankState make_rank_state(rt::Comm& world, SpanLog* log,
                          double plan_s[kSizes]) {
  const topo::Machine machine = transpose_machine();
  const model::NetParams net = model::test_params();
  RankState st;
  st.plans.reserve(kSizes);
  for (int s = 0; s < kSizes; ++s) {
    coll::AlltoallDesc desc;
    desc.block = kBlocks[s];  // algorithm left empty: the tuner picks
    const Clock::time_point t0 = Clock::now();
    {
      Span sp(log, SpanId::kMakePlan);
      st.plans.push_back(plan::make_plan(world, machine, net, desc));
    }
    plan_s[s] = seconds_between(t0, Clock::now());
    const std::size_t total = static_cast<std::size_t>(world.size()) * kBlocks[s];
    st.send.push_back(rt::Buffer::real(total));
    st.recv.push_back(rt::Buffer::real(total));
  }
  return st;
}

rt::Task<void> timed_loop(LoopArgs a) {
  rt::Comm& w = *a.world;
  const int me = w.rank();
  const int p = w.size();
  // Rounds of this many iterations between continue decisions: long enough
  // that the decision's broadcast is a small share of the loop.
  constexpr int kRound = 32;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(a.seconds));
  std::uint64_t rep = a.rep_base;
  std::uint64_t n[2] = {0, 0};  // exchanges per size: [untraced, traced]
  std::byte go{1};
  for (std::uint64_t round = 0; go == std::byte{1}; ++round) {
    // With a traced block, odd rounds are traced: both halves see the same
    // host conditions, so their p50s differ only by the spans' cost.
    const int t = a.traced != nullptr && round % 2 == 1 ? 1 : 0;
    LoopResults* res = t == 1 ? a.traced : a.results;
    LoopResults::Row* row = res != nullptr ? &res->rows[me] : nullptr;
    SpanLog* log = t == 1 ? a.log : nullptr;
    Span round_span(log, SpanId::kExchangeLoop);
    for (int k = 0; k < kRound && n[t] < LoopResults::kCap; ++k, ++n[t]) {
      for (int s = 0; s < kSizes; ++s, ++rep) {
        const auto si = static_cast<std::size_t>(s);
        const rt::MutView recv = a.state->recv[si].view();
        stamp_send(a.state->send[si].data(), p, kBlocks[s], me, rep, a.seed);
        const double c0 = thread_cpu_seconds();
        {
          Span sp(log, SpanId::kBarrier);
          co_await rt::barrier(w);
        }
        const Clock::time_point t0 = Clock::now();
        {
          Span sp(log, SpanId::kExecute);
          co_await a.state->plans[si].execute(
              rt::ConstView(a.state->send[si].view()), recv);
        }
        const Clock::time_point t1 = Clock::now();
        const double c1 = thread_cpu_seconds();
        if (row != nullptr) {
          row->elapsed[s][n[t]] = static_cast<float>(seconds_between(t0, t1));
          row->cpu[s][n[t]] = static_cast<float>(c1 - c0);
        }
        verify_recv(recv.ptr, p, kBlocks[s], me, rep, a.seed, *a.tally);
      }
    }
    if (me == 0) {
      const bool room = n[0] < LoopResults::kCap && n[1] < LoopResults::kCap;
      go = Clock::now() < deadline && room ? std::byte{1} : std::byte{0};
    }
    co_await rt::bcast(w, rt::MutView{&go, 1}, 0);
  }
  if (a.results != nullptr) {
    a.results->rows[me].count = n[0];
  }
  if (a.traced != nullptr) {
    a.traced->rows[me].count = n[1];
  }
}

rt::Task<void> pingpong(rt::Comm& w, std::size_t bytes, int iters,
                        SpanLog* log, std::vector<double>* oneway) {
  constexpr int kTag = 7;  // user tag, below rt::kInternalTagBase
  constexpr int kWarmup = 50;
  const int me = w.rank();
  if (me <= 1) {
    const int peer = 1 - me;
    rt::Buffer buf = rt::Buffer::real(bytes);
    auto wait = [&](rt::Request r) {
      Span sp(log, SpanId::kWaitTry);
      if (!w.wait_try({&r, 1})) {
        throw std::logic_error("pingpong: wait_try did not complete");
      }
    };
    Span loop(log, SpanId::kPingpong);
    for (int it = 0; it < kWarmup + iters; ++it) {
      const Clock::time_point t0 = Clock::now();
      for (int leg = 0; leg < 2; ++leg) {
        rt::Request r;
        if ((leg == 0) == (me == 0)) {
          Span sp(log, SpanId::kIsend);
          r = w.isend(rt::ConstView(buf.view()), peer, kTag);
        } else {
          Span sp(log, SpanId::kIrecv);
          r = w.irecv(buf.view(), peer, kTag);
        }
        wait(r);
      }
      if (me == 0 && it >= kWarmup && oneway != nullptr) {
        oneway->push_back(seconds_between(t0, Clock::now()) / 2.0);
      }
    }
  }
  co_await rt::barrier(w);
}

}  // namespace a2abench
