/// Concurrency stress and ordering-property tests for the many-core smp
/// fast path: the lock-free SPSC ring mailboxes (against an in-test
/// matching oracle and the mutex baseline), wildcard floods, ring-full
/// overflow, concurrent collectives on overlapping sub-communicators, and
/// cross-thread hammering of the sharded plan cache and profiler.
///
/// The MailboxOrder oracle works because ring-mode drain order is
/// deterministic once sends are quiesced (mailbox.cpp): overflow is folded
/// into the per-lane reorder stashes first, then lanes are pumped in
/// source order, each in strict per-pair sequence order — so the arrival
/// order entering matching is (source-major, send-index-minor), and MPI
/// first-eligible matching over that order is fully predictable. The tests
/// quiesce with a std::barrier between the send and receive phases and pin
/// the predicted match order for every seeded script, on the default ring
/// and on deliberately tiny rings that force the overflow path and lent
/// (single-copy) payloads, with receives posted both before the sends and
/// after them. Senders hold their requests across the quiesce barrier and
/// wait only after the receives, since a lent send completes only when
/// rank 0 copies it. Mutex-mode arrival order is send-interleaving order
/// (nondeterministic across sources), so for that transport the same
/// floods assert completeness and per-source FIFO only.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstddef>
#include <random>
#include <span>
#include <sstream>
#include <thread>
#include <vector>

#include "autotune/profiler.hpp"
#include "core/alltoall.hpp"
#include "plan/plan.hpp"
#include "plan/sharded_cache.hpp"
#include "runtime/collectives.hpp"
#include "smp/mailbox.hpp"
#include "smp/smp_runtime.hpp"
#include "test_util.hpp"

namespace mca2a {
namespace {

using rt::Buffer;
using rt::Comm;
using rt::Task;

// --- seeded ordering oracle (satellite: isend/irecv property test) ----------

struct ScriptMsg {
  int src = 0;
  int idx = 0;  ///< per-source send index (payload word 1)
  int tag = 0;
};

struct ScriptRecv {
  int src = 0;  ///< rank or rt::kAnySource
  int tag = 0;  ///< tag or rt::kAnyTag
};

struct Script {
  std::vector<std::vector<ScriptMsg>> sends;  ///< indexed by source rank
  std::vector<ScriptRecv> early;  ///< posted before any send
  std::vector<ScriptMsg> expect_early;
  std::vector<ScriptRecv> recvs;  ///< posted after the sends quiesced
  std::vector<ScriptMsg> expect;  ///< oracle-predicted match order
};

bool eligible(const ScriptRecv& r, const ScriptMsg& m) {
  return (r.src == rt::kAnySource || r.src == m.src) &&
         (r.tag == rt::kAnyTag || r.tag == m.tag);
}

/// A random specific/wildcard receive that `aim` satisfies.
ScriptRecv aimed_recv(std::mt19937& rng, const ScriptMsg& aim) {
  switch (rng() % 4) {
    case 0:
      return {rt::kAnySource, rt::kAnyTag};
    case 1:
      return {aim.src, rt::kAnyTag};
    case 2:
      return {rt::kAnySource, aim.tag};
    default:
      return {aim.src, aim.tag};
  }
}

/// Build a deterministic script: ranks first_src..ranks-1 each send
/// `msgs_per_sender` tagged messages to rank 0 (first_src = 0: rank 0
/// sends to itself too). Rank 0 first posts up to
/// `early` receives before any send, then, once the sends quiesced, a
/// random mix of specific/wildcard receives, each guaranteed completable.
/// The oracle replays matching over the quiesced arrival order
/// (source-major, index-minor): each arrival completes the first eligible
/// early receive in posting order, else parks; each later receive takes
/// the first eligible parked arrival.
Script make_script(int ranks, int msgs_per_sender, unsigned seed,
                   int early = 0, int first_src = 1) {
  std::mt19937 rng(seed);
  Script s;
  s.sends.resize(static_cast<std::size_t>(ranks));
  std::vector<ScriptMsg> arrivals;  // quiesced arrival order
  for (int src = first_src; src < ranks; ++src) {
    for (int i = 0; i < msgs_per_sender; ++i) {
      const ScriptMsg m{src, i, static_cast<int>(rng() % 4)};
      s.sends[static_cast<std::size_t>(src)].push_back(m);
      arrivals.push_back(m);
    }
  }
  std::vector<ScriptRecv> pre;
  for (int i = 0; i < early; ++i) {
    pre.push_back(aimed_recv(rng, arrivals[rng() % arrivals.size()]));
  }
  std::vector<int> matched(pre.size(), -1);  // arrival index per receive
  std::vector<ScriptMsg> rem;                // parked arrivals
  for (std::size_t a = 0; a < arrivals.size(); ++a) {
    std::size_t j = 0;
    while (j < pre.size() &&
           (matched[j] >= 0 || !eligible(pre[j], arrivals[a]))) {
      ++j;
    }
    if (j < pre.size()) {
      matched[j] = static_cast<int>(a);
    } else {
      rem.push_back(arrivals[a]);
    }
  }
  // An early receive no arrival reached was never anyone's first eligible
  // candidate, so leaving it out changes no other match.
  for (std::size_t j = 0; j < pre.size(); ++j) {
    if (matched[j] >= 0) {
      s.early.push_back(pre[j]);
      s.expect_early.push_back(arrivals[static_cast<std::size_t>(matched[j])]);
    }
  }
  while (!rem.empty()) {
    // Aim the spec at a random remaining message so every receive matches
    // at least one candidate; the oracle decides which actually wins.
    const ScriptMsg& aim = rem[rng() % rem.size()];
    const ScriptRecv r = aimed_recv(rng, aim);
    const auto it = std::find_if(
        rem.begin(), rem.end(),
        [&](const ScriptMsg& m) { return eligible(r, m); });
    s.recvs.push_back(r);
    s.expect.push_back(*it);
    rem.erase(it);
  }
  return s;
}

/// Oracle-case variations beyond the mailbox config.
struct OracleShape {
  int early = 0;            ///< receives rank 0 posts before any send
  std::size_t big_len = 0;  ///< nonzero: odd-index messages take this size
  bool self = false;        ///< rank 0 sends its own share to itself
};

/// Size of one scripted message: two words (source, index), or `big_len`
/// bytes for odd indices, whose last word repeats the index.
std::size_t script_len(const OracleShape& shape, const ScriptMsg& m) {
  return shape.big_len != 0 && m.idx % 2 == 1 ? shape.big_len : 8;
}

/// Check one received scripted message against the oracle's prediction.
void expect_msg(const Buffer& b, const OracleShape& shape,
                const ScriptMsg& want, const char* phase, std::size_t i,
                unsigned seed, int ranks) {
  const std::span<const int> w = b.typed<int>();
  EXPECT_EQ(w[0], want.src) << phase << " recv " << i << " seed " << seed
                            << " ranks " << ranks;
  EXPECT_EQ(w[1], want.idx) << phase << " recv " << i << " seed " << seed
                            << " ranks " << ranks;
  const std::size_t len = script_len(shape, want);
  if (len > 8) {
    EXPECT_EQ(w[len / sizeof(int) - 1], want.idx) << phase << " recv " << i;
  }
}

/// Run one scripted flood under `cfg` and assert the ring transport
/// reproduces the oracle's match order exactly.
void run_oracle_case(int ranks, const smp::MailboxConfig& cfg, unsigned seed,
                     const OracleShape& shape = {}) {
  const Script script =
      make_script(ranks, 30, seed, shape.early, shape.self ? 0 : 1);
  const std::size_t stride = std::max<std::size_t>(8, shape.big_len);
  std::barrier<> start(ranks);
  std::barrier<> quiesce(ranks);
  smp::run_threads(ranks, cfg, [&](Comm& c) -> Task<void> {
    // One buffer region per message: a lent payload stays the sender's
    // until rank 0 copies it, after the quiesce barrier. Rank 0's own
    // messages (shape.self) are self-sends, which stay eager.
    const auto& sends = script.sends[static_cast<std::size_t>(c.rank())];
    Buffer out = Buffer::real(stride * sends.size());
    std::vector<rt::Request> reqs;
    const auto send_all = [&] {
      for (std::size_t i = 0; i < sends.size(); ++i) {
        const ScriptMsg& m = sends[i];
        const std::size_t len = script_len(shape, m);
        const std::span<int> w =
            out.typed<int>().subspan(i * stride / sizeof(int));
        w[0] = m.src;
        w[1] = m.idx;
        if (len > 8) {
          w[len / sizeof(int) - 1] = m.idx;
        }
        reqs.push_back(c.isend(out.view(i * stride, len), 0, m.tag));
      }
    };
    if (c.rank() != 0) {
      start.arrive_and_wait();
      send_all();
      quiesce.arrive_and_wait();
      co_await c.wait_all(reqs);
    } else {
      std::vector<Buffer> early_bufs;
      std::vector<rt::Request> early_reqs;
      for (const ScriptRecv& r : script.early) {
        early_bufs.push_back(Buffer::real(stride));
        early_reqs.push_back(c.irecv(early_bufs.back().view(), r.src, r.tag));
      }
      start.arrive_and_wait();
      send_all();
      for (const rt::Request& r : reqs) {
        EXPECT_FALSE(r.valid()) << "a self-send must complete at once";
      }
      quiesce.arrive_and_wait();  // all sends happened-before this point
      Buffer b = Buffer::real(stride);
      // Every receive is posted even after a divergence: a lent send
      // completes only when rank 0 copies it. EXPECT (not ASSERT): gtest's
      // fatal form returns, which a coroutine forbids; one divergence
      // implies a flood of them, so checking stops at the first.
      for (std::size_t i = 0; i < script.recvs.size(); ++i) {
        co_await c.recv(b.view(), script.recvs[i].src, script.recvs[i].tag);
        if (!testing::Test::HasFailure()) {
          expect_msg(b, shape, script.expect[i], "late", i, seed, ranks);
        }
      }
      co_await c.wait_all(early_reqs);
      for (std::size_t i = 0; i < early_bufs.size(); ++i) {
        if (!testing::Test::HasFailure()) {
          expect_msg(early_bufs[i], shape, script.expect_early[i], "early",
                     i, seed, ranks);
        }
      }
    }
  });
}

TEST(MailboxOrder, OracleMatchOrderDefaultRing) {
  const smp::MailboxConfig cfg;  // ring, default sizing
  for (const int ranks : {2, 4, 8, 16}) {
    for (const unsigned seed : {1u, 2u, 3u}) {
      run_oracle_case(ranks, cfg, seed);
    }
  }
}

TEST(MailboxOrder, OracleMatchOrderTinyRingOverflow) {
  // Two-slot lanes: most of the flood takes the overflow path, and the
  // consumer must merge ring + overflow back into per-pair order.
  smp::MailboxConfig cfg;
  cfg.ring_slots = 2;
  cfg.ring_inline = 8;
  for (const int ranks : {4, 8}) {
    for (const unsigned seed : {1u, 2u, 3u}) {
      run_oracle_case(ranks, cfg, seed);
    }
  }
}

TEST(MailboxOrder, OracleMatchOrderHeapPayloads) {
  // Zero inline bytes: every payload is lent and copied once by rank 0.
  smp::MailboxConfig cfg;
  cfg.ring_slots = 4;
  cfg.ring_inline = 0;
  for (const int ranks : {4, 8}) {
    for (const unsigned seed : {1u, 2u, 3u}) {
      run_oracle_case(ranks, cfg, seed);
    }
  }
}

TEST(MailboxOrder, OracleMatchOrderLentPayloadsPostedEarly) {
  // Every payload lent, two-slot lanes (most descriptors take the
  // overflow list and the reorder stash), and a third of the receives
  // posted before any send, so lent messages are copied both at arrival
  // (posted receive) and at post time (parked arrival), with wildcards.
  smp::MailboxConfig cfg;
  cfg.ring_slots = 2;
  cfg.ring_inline = 0;
  for (const int ranks : {4, 8}) {
    for (const unsigned seed : {1u, 2u, 3u}) {
      run_oracle_case(ranks, cfg, seed, {.early = 10 * (ranks - 1)});
    }
  }
}

TEST(MailboxOrder, OracleMatchOrderMixedEagerAndLent) {
  // Each lane interleaves inline (8 B) and lent (64 B) messages through
  // two-slot rings and the overflow list; order and bytes must survive.
  smp::MailboxConfig cfg;
  cfg.ring_slots = 2;
  cfg.ring_inline = 8;
  for (const int ranks : {4, 8}) {
    for (const unsigned seed : {4u, 5u}) {
      run_oracle_case(ranks, cfg, seed,
                      {.early = 5 * (ranks - 1), .big_len = 64});
    }
  }
}

TEST(MailboxOrder, OracleMatchOrderWithEagerSelfSends) {
  // Rank 0 also floods itself, with odd-index payloads above the inline
  // budget: such a self-send stays eager, as an owned copy in the
  // overflow list, and must keep its place among the inline self-sends
  // (and not write past the slot). Covers the default ring and a
  // zero-inline ring, where every self-send with bytes takes that path.
  smp::MailboxConfig tiny;
  tiny.ring_slots = 2;
  tiny.ring_inline = 0;
  for (const smp::MailboxConfig& cfg : {smp::MailboxConfig{}, tiny}) {
    for (const unsigned seed : {6u, 7u}) {
      run_oracle_case(4, cfg, seed,
                      {.early = 10, .big_len = 1024, .self = true});
    }
  }
}

TEST(MailboxOrder, RingFullNeverBlocksAndKeepsOrder) {
  // Both peers flood each other through two-slot lanes before either
  // receives: publishing must never block (the overflow list is
  // unbounded), and content/order must survive the ring -> overflow ->
  // stash merge. Message sizes straddle the inline threshold so inline,
  // lent and overflow payloads interleave; the senders hold their
  // requests (lent buffers) until after their own receives.
  constexpr int kN = 200;
  smp::MailboxConfig cfg;
  cfg.ring_slots = 2;
  cfg.ring_inline = 8;
  const auto len_of = [](int i) {
    return static_cast<std::size_t>(1 + (i * 37) % 300);
  };
  smp::run_threads(2, cfg, [&](Comm& c) -> Task<void> {
    const int peer = 1 - c.rank();
    Buffer out = Buffer::real(512 * kN);
    std::vector<rt::Request> reqs;
    for (int i = 0; i < kN; ++i) {
      const std::size_t len = len_of(i);
      std::byte* msg = out.data() + 512 * static_cast<std::size_t>(i);
      for (std::size_t k = 0; k < len; ++k) {
        msg[k] = test::pattern(c.rank(), i, k);
      }
      reqs.push_back(
          c.isend(out.view(512 * static_cast<std::size_t>(i), len), peer, 0));
    }
    Buffer in = Buffer::real(512);
    for (int i = 0; i < kN; ++i) {
      const std::size_t len = len_of(i);
      co_await c.recv(in.view(0, len), peer, 0);
      // Keep receiving after a mismatch: the peer's lent sends complete
      // only when copied.
      for (std::size_t k = 0; k < len && !testing::Test::HasFailure(); ++k) {
        EXPECT_EQ(in.data()[k], test::pattern(peer, i, k))
            << "msg " << i << " byte " << k;
      }
    }
    co_await c.wait_all(reqs);
  });
}

// --- concurrent floods (no quiesce: live sleep/wake and drain paths) --------

/// Ranks 1..p-1 flood rank 0 with tagged messages while rank 0 receives
/// with full wildcards concurrently. Asserts completeness and per-source
/// FIFO — the guarantees both transports share under live interleaving.
void run_wildcard_flood(const smp::MailboxConfig& cfg) {
  constexpr int kRanks = 8;
  constexpr int kMsgs = 50;
  smp::run_threads(kRanks, cfg, [&](Comm& c) -> Task<void> {
    if (c.rank() != 0) {
      std::mt19937 rng(static_cast<unsigned>(c.rank()) * 7919u);
      Buffer b = Buffer::real(8);
      for (int i = 0; i < kMsgs; ++i) {
        b.typed<int>()[0] = c.rank();
        b.typed<int>()[1] = i;
        co_await c.send(b.view(), 0, static_cast<int>(rng() % 5));
      }
    } else {
      std::vector<int> last(kRanks, -1);
      std::vector<int> count(kRanks, 0);
      Buffer b = Buffer::real(8);
      for (int i = 0; i < (kRanks - 1) * kMsgs; ++i) {
        co_await c.recv(b.view(), rt::kAnySource, rt::kAnyTag);
        const int src = b.typed<int>()[0];
        const int idx = b.typed<int>()[1];
        EXPECT_GE(src, 1);
        EXPECT_LT(src, kRanks);
        if (src < 1 || src >= kRanks) {
          co_return;
        }
        EXPECT_GT(idx, last[static_cast<std::size_t>(src)])
            << "per-source FIFO violated for source " << src;
        last[static_cast<std::size_t>(src)] = idx;
        ++count[static_cast<std::size_t>(src)];
      }
      for (int src = 1; src < kRanks; ++src) {
        EXPECT_EQ(count[static_cast<std::size_t>(src)], kMsgs);
      }
    }
  });
}

TEST(ConcurrencyStress, WildcardFloodRing) {
  run_wildcard_flood(smp::MailboxConfig{});
}

TEST(ConcurrencyStress, WildcardFloodRingNoSpin) {
  // spin = 0 parks the receiver on the doorbell immediately: every message
  // delivery exercises the Dekker sleep/wake pairing.
  smp::MailboxConfig cfg;
  cfg.spin = 0;
  run_wildcard_flood(cfg);
}

TEST(ConcurrencyStress, WildcardFloodMutexBaseline) {
  smp::MailboxConfig cfg;
  cfg.kind = smp::MailboxKind::kMutex;
  run_wildcard_flood(cfg);
}

TEST(ConcurrencyStress, OverlappingSubcommCollectives) {
  // Every rank belongs to two overlapping sub-communicators (parity and
  // half) plus the world; repeated verified exchanges run on all three,
  // so lanes of different communicators interleave on every thread pair.
  constexpr int kRanks = 8;
  constexpr std::size_t kBlock = 32;
  constexpr int kRounds = 5;
  smp::run_threads(kRanks, [&](Comm& c) -> Task<void> {
    const int me = c.rank();
    std::vector<int> parity;
    for (int r = me % 2; r < kRanks; r += 2) {
      parity.push_back(r);
    }
    std::vector<int> half;
    for (int r = (me / 4) * 4; r < (me / 4) * 4 + 4; ++r) {
      half.push_back(r);
    }
    auto sub_parity = c.create_subcomm(parity);
    auto sub_half = c.create_subcomm(half);
    const auto exchange = [&](Comm& comm) -> Task<void> {
      const int p = comm.size();
      Buffer s = Buffer::real(kBlock * static_cast<std::size_t>(p));
      Buffer r = Buffer::real(kBlock * static_cast<std::size_t>(p));
      test::fill_send(s, comm.rank(), p, kBlock);
      co_await coll::alltoall_nonblocking(comm, s.view(), r.view(), kBlock);
      EXPECT_TRUE(test::check_recv(r, comm.rank(), p, kBlock));
    };
    for (int round = 0; round < kRounds; ++round) {
      co_await exchange(c);
      co_await exchange(*sub_parity);
      co_await exchange(*sub_half);
    }
  });
}

// --- sharded hot-path state under cross-thread hammering --------------------

TEST(ConcurrencyStress, SharedShardedCacheHammer) {
  // Eight rank threads share one ShardedPlanCache sized to thrash: five
  // rotating plan keys per thread against four-entry shards forces
  // evictions under concurrent insert, while the block-16 plan executes a
  // verified exchange every round.
  constexpr int kRanks = 8;
  constexpr int kRounds = 6;
  const topo::Machine machine = topo::generic(1, kRanks);
  const std::vector<std::size_t> blocks{4, 8, 16, 32, 64};
  plan::ShardedPlanCache cache(16, 4);
  ASSERT_EQ(cache.shard_count(), 4u);
  std::atomic<std::uint64_t> gets{0};
  smp::run_threads(kRanks, [&](Comm& world) -> Task<void> {
    plan::PlanOptions popts;
    popts.algo = coll::Algo::kPairwiseDirect;  // plan construction is local
    const int p = world.size();
    Buffer send = world.alloc_buffer(static_cast<std::size_t>(p) * 16);
    Buffer recv = world.alloc_buffer(static_cast<std::size_t>(p) * 16);
    test::fill_send(send, world.rank(), p, 16);
    for (int round = 0; round < kRounds; ++round) {
      for (const std::size_t block : blocks) {
        auto plan = cache.get_or_create(world, machine, model::test_params(),
                                        block, popts);
        gets.fetch_add(1, std::memory_order_relaxed);
        if (block == 16) {
          co_await plan->execute(rt::ConstView(send.view()), recv.view());
          EXPECT_TRUE(test::check_recv(recv, world.rank(), p, 16));
        }
      }
    }
    co_await rt::barrier(world);
    // Entries key on this endpoint's address; drop them before the
    // communicator dies (the cache outlives run_threads).
    cache.erase_comm(world);
  });
  const plan::PlanCache::Stats st = cache.stats();
  EXPECT_EQ(st.hits + st.misses, gets.load());
  EXPECT_EQ(st.constructions, st.misses);
  EXPECT_GT(st.evictions, 0u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ConcurrencyStress, ProfilerShardMergeBitIdentical) {
  // Eight writer threads with disjoint keys against a shared 8-shard
  // profiler, vs a serial profiler fed the identical per-key sequences:
  // the merged snapshot serialization must match byte for byte (Chan
  // merging is exact, and the fixed shard fold order plus sticky
  // thread->shard pinning make it reproducible).
  constexpr int kThreads = 8;
  constexpr int kSamples = 200;
  const topo::Machine machine = topo::generic(2, 4);
  const auto key_for = [&](int t) {
    return autotune::make_profile_key(machine, coll::OpKind::kAlltoall,
                                      std::size_t{64} << t, /*algo=*/1,
                                      /*group_size=*/4, "test");
  };
  const auto value = [](int t, int i) {
    const unsigned mix = static_cast<unsigned>(t) * 1315423911u +
                         static_cast<unsigned>(i) * 2654435761u;
    return 1e-6 * static_cast<double>(mix % 100000 + 1);
  };
  autotune::ExecutionProfiler shared(kThreads);
  {
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&, t] {
        const autotune::ProfileKey k = key_for(t);
        for (int i = 0; i < kSamples; ++i) {
          shared.record(k, value(t, i));
        }
      });
    }
    for (std::thread& w : writers) {
      w.join();
    }
  }
  autotune::ExecutionProfiler serial(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    const autotune::ProfileKey k = key_for(t);
    for (int i = 0; i < kSamples; ++i) {
      serial.record(k, value(t, i));
    }
  }
  std::ostringstream a;
  std::ostringstream b;
  autotune::write_profile_section(a, shared);
  autotune::write_profile_section(b, serial);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_FALSE(a.str().empty());
  // Re-serializing the same quiesced profiler must reproduce the bytes.
  std::ostringstream again;
  autotune::write_profile_section(again, shared);
  EXPECT_EQ(a.str(), again.str());
}

TEST(ConcurrencyStress, ProfilerSameKeyMultiWriterExact) {
  // All threads hammer ONE key: per-key stats then span shards, and the
  // exact (order-independent) fields must still come out right while the
  // order-dependent ones stay reproducible across snapshots.
  constexpr int kThreads = 8;
  constexpr int kSamples = 100;
  const topo::Machine machine = topo::generic(2, 4);
  const autotune::ProfileKey key = autotune::make_profile_key(
      machine, coll::OpKind::kAlltoallv, 4096, /*algo=*/0, /*group_size=*/1,
      "test");
  autotune::ExecutionProfiler prof(kThreads);
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kSamples; ++i) {
        prof.record(key, 1.0 + t + 1e-3 * i);
      }
    });
  }
  for (std::thread& w : writers) {
    w.join();
  }
  const auto stats = prof.lookup(key);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->n, static_cast<std::uint64_t>(kThreads) * kSamples);
  EXPECT_EQ(stats->min, 1.0);  // thread 0's first sample, exact
  EXPECT_EQ(prof.samples(key), stats->n);
  EXPECT_EQ(prof.size(), 1u);
  std::ostringstream a;
  std::ostringstream b;
  autotune::write_profile_section(a, prof);
  autotune::write_profile_section(b, prof);
  EXPECT_EQ(a.str(), b.str());
}

}  // namespace
}  // namespace mca2a
