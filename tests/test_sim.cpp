/// Tests for the discrete-event simulator: point-to-point semantics,
/// matching rules, virtual time properties, resources, rendezvous protocol,
/// determinism, deadlock detection, sub-communicators.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "core/alltoall.hpp"
#include "model/cost.hpp"
#include "sim/event_queue.hpp"
#include "test_util.hpp"

namespace mca2a {
namespace {

using rt::Buffer;
using rt::Comm;
using rt::ConstView;
using rt::MutView;
using rt::Request;
using rt::Task;
using test::run_sim;
using test::run_sim_flat;

TEST(EventQueue, OrdersByTimeThenSequence) {
  sim::EventQueue q;
  q.push(2.0, sim::EventKind::kMsgArrival, 1);
  q.push(1.0, sim::EventKind::kMsgArrival, 2);
  q.push(1.0, sim::EventKind::kRtsArrival, 3);
  q.push(3.0, sim::EventKind::kMsgArrival, 4);
  ASSERT_EQ(q.size(), 4u);
  EXPECT_EQ(q.pop().msg, 2u);  // t=1, earlier sequence
  EXPECT_EQ(q.pop().msg, 3u);  // t=1, later sequence
  EXPECT_EQ(q.pop().msg, 1u);
  EXPECT_EQ(q.pop().msg, 4u);
  EXPECT_TRUE(q.empty());
}

TEST(SimP2P, PingPongDeliversPayload) {
  run_sim_flat(2, [](Comm& c) -> Task<void> {
    Buffer buf = Buffer::real(8);
    if (c.rank() == 0) {
      for (int i = 0; i < 8; ++i) buf.data()[i] = static_cast<std::byte>(i);
      co_await c.send(buf.view(), 1, 7);
    } else {
      co_await c.recv(buf.view(), 0, 7);
      for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(buf.data()[i], static_cast<std::byte>(i));
      }
      EXPECT_GT(c.now(), 0.0);
    }
  });
}

TEST(SimP2P, TagsSelectMessages) {
  run_sim_flat(2, [](Comm& c) -> Task<void> {
    Buffer a = Buffer::real(1);
    Buffer b = Buffer::real(1);
    if (c.rank() == 0) {
      a.data()[0] = std::byte{1};
      b.data()[0] = std::byte{2};
      co_await c.send(a.view(), 1, 10);
      co_await c.send(b.view(), 1, 20);
    } else {
      // Receive in reverse tag order; matching must be by tag, not arrival.
      co_await c.recv(b.view(), 0, 20);
      co_await c.recv(a.view(), 0, 10);
      EXPECT_EQ(a.data()[0], std::byte{1});
      EXPECT_EQ(b.data()[0], std::byte{2});
    }
  });
}

TEST(SimP2P, AnySourceReceives) {
  run_sim_flat(3, [](Comm& c) -> Task<void> {
    Buffer buf = Buffer::real(4);
    if (c.rank() != 0) {
      buf.typed<int>()[0] = c.rank();
      co_await c.send(buf.view(), 0, 5);
    } else {
      int seen = 0;
      for (int i = 0; i < 2; ++i) {
        co_await c.recv(buf.view(), rt::kAnySource, 5);
        seen += buf.typed<int>()[0];
      }
      EXPECT_EQ(seen, 3);  // ranks 1 and 2
    }
  });
}

TEST(SimP2P, AnyTagReceives) {
  run_sim_flat(2, [](Comm& c) -> Task<void> {
    Buffer buf = Buffer::real(1);
    if (c.rank() == 0) {
      buf.data()[0] = std::byte{9};
      co_await c.send(buf.view(), 1, 1234);
    } else {
      co_await c.recv(buf.view(), 0, rt::kAnyTag);
      EXPECT_EQ(buf.data()[0], std::byte{9});
    }
  });
}

TEST(SimP2P, PairNonOvertaking) {
  // Two same-tag messages must arrive in send order.
  run_sim_flat(2, [](Comm& c) -> Task<void> {
    Buffer a = Buffer::real(1);
    Buffer b = Buffer::real(1);
    if (c.rank() == 0) {
      a.data()[0] = std::byte{1};
      b.data()[0] = std::byte{2};
      co_await c.send(a.view(), 1, 3);
      co_await c.send(b.view(), 1, 3);
    } else {
      co_await c.recv(a.view(), 0, 3);
      co_await c.recv(b.view(), 0, 3);
      EXPECT_EQ(a.data()[0], std::byte{1});
      EXPECT_EQ(b.data()[0], std::byte{2});
    }
  });
}

TEST(SimP2P, UnexpectedThenPostedBothWork) {
  // Rank 1 receives late (unexpected path) then early (posted path).
  run_sim_flat(2, [](Comm& c) -> Task<void> {
    Buffer buf = Buffer::real(1);
    if (c.rank() == 0) {
      buf.data()[0] = std::byte{5};
      co_await c.send(buf.view(), 1, 1);
      buf.data()[0] = std::byte{6};
      co_await c.send(buf.view(), 1, 2);
    } else {
      Request r2 = c.irecv(buf.view(), 0, 2);
      co_await c.wait(r2);  // arrives second but posted first
      EXPECT_EQ(buf.data()[0], std::byte{6});
      Buffer other = Buffer::real(1);
      co_await c.recv(other.view(), 0, 1);  // already unexpected
      EXPECT_EQ(other.data()[0], std::byte{5});
    }
  });
}

TEST(SimP2P, ZeroByteMessages) {
  run_sim_flat(2, [](Comm& c) -> Task<void> {
    if (c.rank() == 0) {
      co_await c.send(ConstView{}, 1, 0);
    } else {
      co_await c.recv(MutView{}, 0, 0);
    }
  });
}

TEST(SimP2P, TruncationThrows) {
  EXPECT_THROW(run_sim_flat(2,
                            [](Comm& c) -> Task<void> {
                              Buffer big = Buffer::real(16);
                              Buffer small = Buffer::real(8);
                              if (c.rank() == 0) {
                                co_await c.send(big.view(), 1, 0);
                              } else {
                                co_await c.recv(small.view(), 0, 0);
                              }
                            }),
               std::runtime_error);
}

TEST(SimP2P, InvalidDestinationThrows) {
  EXPECT_THROW(run_sim_flat(2,
                            [](Comm& c) -> Task<void> {
                              if (c.rank() == 0) {
                                co_await c.send(ConstView{}, 7, 0);
                              }
                              co_return;
                            }),
               std::out_of_range);
}

TEST(SimP2P, StaleRequestThrows) {
  EXPECT_THROW(run_sim_flat(2,
                            [](Comm& c) -> Task<void> {
                              Buffer b = Buffer::real(1);
                              if (c.rank() == 0) {
                                co_await c.send(b.view(), 1, 0);
                              } else {
                                Request r = c.irecv(b.view(), 0, 0);
                                co_await c.wait(r);
                                co_await c.wait(r);  // already released
                              }
                            }),
               std::logic_error);
}

TEST(SimP2P, DeadlockDetected) {
  try {
    run_sim_flat(2, [](Comm& c) -> Task<void> {
      Buffer b = Buffer::real(1);
      co_await c.recv(b.view(), 1 - c.rank(), 0);  // nobody sends
    });
    FAIL() << "expected SimDeadlockError";
  } catch (const sim::SimDeadlockError& e) {
    EXPECT_EQ(e.stuck_ranks(), 2);
  }
}

TEST(SimTime, ClockAdvancesWithLatency) {
  const model::NetParams net = model::test_params();
  std::vector<double> done(2, 0.0);
  run_sim(
      topo::generic(2, 1),  // two nodes, network level
      [&](Comm& c) -> Task<void> {
        Buffer b = Buffer::real(100);
        if (c.rank() == 0) {
          co_await c.send(b.view(), 1, 0);
        } else {
          co_await c.recv(b.view(), 0, 0);
        }
        done[c.rank()] = c.now();
      },
      net);
  // Receiver finishes after at least wire alpha + 100 bytes of beta.
  EXPECT_GE(done[1], net.at(topo::Level::kNetwork).alpha +
                         100 * net.at(topo::Level::kNetwork).beta);
  // Sender completes at injection, before the receiver.
  EXPECT_LT(done[0], done[1]);
}

TEST(SimTime, IntraNodeCheaperThanInterNode) {
  auto one_hop = [&](const topo::Machine& m) {
    std::vector<double> t(m.total_ranks(), 0.0);
    run_sim(m, [&](Comm& c) -> Task<void> {
      Buffer b = Buffer::real(64);
      if (c.rank() == 0) {
        co_await c.send(b.view(), 1, 0);
      } else if (c.rank() == 1) {
        co_await c.recv(b.view(), 0, 0);
      }
      t[c.rank()] = c.now();
    });
    return t[1];
  };
  const double intra = one_hop(topo::generic(1, 2));
  const double inter = one_hop(topo::generic(2, 1));
  EXPECT_LT(intra, inter);
}

TEST(SimTime, NicSerializesConcurrentSenders) {
  // Many senders on one node to distinct receivers: the shared NIC must
  // serialize, so doubling the senders roughly doubles completion time.
  auto finish_time = [&](int senders) {
    topo::MachineDesc d;
    d.name = "t";
    d.nodes = 2;
    d.cores_per_numa = senders;
    double latest = 0.0;
    std::vector<double> t(2 * senders, 0.0);
    run_sim(topo::Machine(d), [&, senders](Comm& c) -> Task<void> {
      Buffer b = Buffer::real(1 << 16);
      if (c.rank() < senders) {
        co_await c.send(b.view(), senders + c.rank(), 0);
      } else {
        co_await c.recv(b.view(), c.rank() - senders, 0);
      }
      t[c.rank()] = c.now();
    });
    for (double v : t) latest = std::max(latest, v);
    return latest;
  };
  const double t4 = finish_time(4);
  const double t8 = finish_time(8);
  // Four extra messages cost exactly four more NIC serialization periods
  // (constant wire latency cancels in the difference).
  const model::NetParams net = model::test_params();
  const double period = net.nic_msg_overhead + (1 << 16) * net.nic_inject_beta;
  EXPECT_NEAR(t8 - t4, 4 * period, 0.5 * period);
  EXPECT_GT(t8, t4 * 1.4);
}

TEST(SimTime, RendezvousWaitsForReceiver) {
  // A message above the eager threshold cannot complete before the receive
  // is posted; an eager one can.
  model::NetParams net = model::test_params();
  net.eager_threshold = 1024;
  const std::size_t big = 4096;
  std::vector<double> send_done(2, 0.0);
  run_sim(
      topo::generic(2, 1),
      [&](Comm& c) -> Task<void> {
        Buffer b = Buffer::real(big);
        if (c.rank() == 0) {
          Request r = c.isend(b.view(), 1, 0);
          co_await c.wait(r);
          send_done[0] = c.now();
        } else {
          // Delay posting the receive by doing unrelated local "work".
          c.charge_copy(100 * 1000 * 1000);  // 10ms at 1e-10 s/B
          co_await c.recv(b.view(), 0, 0);
        }
      },
      net);
  // Sender had to wait ~10ms for the CTS.
  EXPECT_GT(send_done[0], 5e-3);
}

TEST(SimTime, EagerSendCompletesWithoutReceiver) {
  model::NetParams net = model::test_params();
  net.eager_threshold = SIZE_MAX;
  std::vector<double> send_done(2, 0.0);
  run_sim(
      topo::generic(2, 1),
      [&](Comm& c) -> Task<void> {
        Buffer b = Buffer::real(4096);
        if (c.rank() == 0) {
          Request r = c.isend(b.view(), 1, 0);
          co_await c.wait(r);
          send_done[0] = c.now();
        } else {
          c.charge_copy(100 * 1000 * 1000);
          co_await c.recv(b.view(), 0, 0);
        }
      },
      net);
  EXPECT_LT(send_done[0], 1e-3);  // completed long before the receiver posted
}

TEST(SimDeterminism, SameSeedSameResult) {
  model::NetParams net = model::test_params();
  net.noise_sigma = 0.1;
  auto run_once = [&](std::uint64_t seed) {
    return run_sim(
        topo::generic(2, 4),
        [](Comm& c) -> Task<void> {
          Buffer s = Buffer::real(64 * c.size());
          Buffer r = Buffer::real(64 * c.size());
          co_await coll::alltoall_pairwise(c, s.view(), r.view(), 64);
        },
        net, /*carry_data=*/true, seed);
  };
  EXPECT_DOUBLE_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));
}

TEST(SimDeterminism, VirtualAndRealPayloadsSameTime) {
  auto run_once = [&](bool carry) {
    return run_sim(
        topo::generic_hier(2, 2, 1, 2),
        [](Comm& c) -> Task<void> {
          Buffer s = c.alloc_buffer(128 * c.size());
          Buffer r = c.alloc_buffer(128 * c.size());
          co_await coll::alltoall_nonblocking(c, s.view(), r.view(), 128);
        },
        model::test_params(), carry);
  };
  EXPECT_DOUBLE_EQ(run_once(true), run_once(false));
}

TEST(SimBruck, VirtualAndRealBuffersAgreeWithNonblocking) {
  // Bruck copies whole runs of blocks: with virtual buffers it must charge
  // exactly the virtual time and messages of the payload-carrying run, and
  // the payloads it delivers must be those of the direct exchange.
  const std::size_t block = 4;
  for (const int p : {5, 100, 112}) {
    SCOPED_TRACE("p=" + std::to_string(p));
    auto run_once = [&](bool carry, bool bruck,
                        std::vector<std::vector<std::byte>>* out) {
      sim::ClusterConfig cfg;
      cfg.machine = topo::generic(1, p).desc();
      cfg.net = model::test_params();
      cfg.carry_data = carry;
      sim::Cluster cluster(cfg);
      const double t = cluster.run([&](Comm& c) -> Task<void> {
        Buffer send = c.alloc_buffer(block * p);
        Buffer recv = c.alloc_buffer(block * p);
        if (carry) {
          test::fill_send(send, c.rank(), p, block);
        }
        if (bruck) {
          co_await coll::alltoall_bruck(c, send.view(), recv.view(), block);
        } else {
          co_await coll::alltoall_nonblocking(c, send.view(), recv.view(),
                                              block);
        }
        if (carry) {
          EXPECT_TRUE(test::check_recv(recv, c.rank(), p, block));
          const auto bytes = recv.typed<std::byte>();
          (*out)[c.rank()].assign(bytes.begin(), bytes.end());
        }
      });
      return std::make_pair(t, cluster.messages_sent());
    };
    std::vector<std::vector<std::byte>> bruck_bytes(p), direct_bytes(p);
    const auto real = run_once(true, true, &bruck_bytes);
    const auto virt = run_once(false, true, nullptr);
    EXPECT_EQ(std::memcmp(&real.first, &virt.first, sizeof(double)), 0)
        << real.first << " vs " << virt.first;
    EXPECT_EQ(real.second, virt.second);
    run_once(true, false, &direct_bytes);
    EXPECT_EQ(bruck_bytes, direct_bytes);
  }
}

TEST(SimClock, RepeatedAddMatchesSequentialAdds) {
  // repeated_add jumps through each binade of the clock in one product;
  // it must land on the same bits as the loop it replaces, whatever the
  // clock, the increment's mantissa or the rounding ties along the way.
  auto sequential = [](double x, double t, std::uint64_t count) {
    for (; count > 0; --count) {
      x += t;
    }
    return x;
  };
  auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  std::mt19937_64 rng(20260419);
  auto uniform = [&](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  auto ulp = [](double x) { return std::ldexp(1.0, std::ilogb(x) - 52); };

  for (int iter = 0; iter < 6000; ++iter) {
    // Clock: zero, anywhere over 40 binades, or just below a power of two
    // so the adds cross into the next binade.
    double x = 0.0;
    switch (iter % 3) {
      case 1:
        x = std::ldexp(uniform(1.0, 2.0), pick(-30, 10));
        break;
      case 2: {
        const double top = std::ldexp(1.0, pick(-30, 10));
        x = top - pick(1, 5000) * ulp(top / 2);
        break;
      }
      default:
        break;
    }
    const double base = x > 0.0 ? x : std::ldexp(1.0, pick(-30, 10));
    // Increment: full mantissa, short mantissa around the ulp, or an exact
    // half-ulp tie at the clock's binade or the next one.
    double t = 0.0;
    switch ((iter / 3) % 4) {
      case 0:
        t = base * std::ldexp(uniform(1.0, 2.0), pick(-60, -1));
        break;
      case 1:
        t = pick(1, 255) * std::ldexp(ulp(base), pick(-6, 6));
        break;
      case 2:
        t = (pick(0, 1000) + 0.5) * ulp(base);
        break;
      default:
        t = (pick(0, 1000) + 0.5) * 2.0 * ulp(base);
        break;
    }
    const std::uint64_t counts[] = {0, 1, static_cast<std::uint64_t>(
                                              pick(2, 5000))};
    for (const std::uint64_t count : counts) {
      const double want = sequential(x, t, count);
      const double got = sim::repeated_add(x, t, count);
      ASSERT_TRUE(same_bits(want, got))
          << "x=" << x << " t=" << t << " count=" << count << ": want "
          << want << " got " << got;
    }
    if (iter % 60 == 0) {
      const double want = sequential(x, t, 1000000);
      ASSERT_TRUE(same_bits(want, sim::repeated_add(x, t, 1000000)))
          << "x=" << x << " t=" << t << " count=1e6";
    }
  }
  // Degenerate increments keep the loop's semantics too.
  EXPECT_TRUE(same_bits(sim::repeated_add(1.5, 0.0, 10), 1.5));
  EXPECT_TRUE(same_bits(sim::repeated_add(1.5, -0.25, 3), 0.75));
  EXPECT_TRUE(std::isnan(sim::repeated_add(1.5, std::nan(""), 3)));
  EXPECT_TRUE(same_bits(sim::repeated_add(0.0, 1e-300, 1000000),
                        sequential(0.0, 1e-300, 1000000)));
  const double tiny = 3 * std::numeric_limits<double>::denorm_min();
  EXPECT_TRUE(same_bits(sim::repeated_add(0.0, tiny, 100000),
                        sequential(0.0, tiny, 100000)));
}

TEST(SimClock, ChargeCopiesEqualsSingleCharges) {
  // Through the Comm interface: one charge_copies(n, b) leaves the clock
  // where n charge_copy(b) calls would.
  const std::size_t sizes[] = {1, 4, 12, 4096};
  std::vector<double> bulk;
  std::vector<double> single;
  run_sim_flat(1, [&](Comm& c) -> Task<void> {
    for (const std::size_t b : sizes) {
      c.charge_copies(1000000, b);
      bulk.push_back(c.now());
    }
    co_return;
  });
  run_sim_flat(1, [&](Comm& c) -> Task<void> {
    for (const std::size_t b : sizes) {
      for (int i = 0; i < 1000000; ++i) {
        c.charge_copy(b);
      }
      single.push_back(c.now());
    }
    co_return;
  });
  ASSERT_EQ(bulk.size(), single.size());
  EXPECT_EQ(std::memcmp(bulk.data(), single.data(),
                        bulk.size() * sizeof(double)),
            0);
}

TEST(SimSubcomm, SplitCommRoutesIndependently) {
  run_sim_flat(4, [](Comm& c) -> Task<void> {
    // Evens and odds form separate subcomms; ranks renumbered 0..1.
    std::vector<int> members = c.rank() % 2 == 0 ? std::vector<int>{0, 2}
                                                 : std::vector<int>{1, 3};
    auto sub = c.create_subcomm(members);
    EXPECT_EQ(sub->size(), 2);
    EXPECT_EQ(sub->rank(), c.rank() / 2);
    Buffer b = Buffer::real(4);
    if (sub->rank() == 0) {
      b.typed<int>()[0] = c.rank();
      co_await sub->send(b.view(), 1, 0);
    } else {
      co_await sub->recv(b.view(), 0, 0);
      EXPECT_EQ(b.typed<int>()[0], c.rank() - 2);  // peer in my parity class
    }
  });
}

TEST(SimSubcomm, NotAMemberThrows) {
  EXPECT_THROW(run_sim_flat(2,
                            [](Comm& c) -> Task<void> {
                              std::vector<int> members{1 - c.rank()};
                              auto sub = c.create_subcomm(members);
                              (void)sub;
                              co_return;
                            }),
               std::invalid_argument);
}

TEST(SimSubcomm, NamedErrorsAndFreshContexts) {
  auto error_of = [](Comm& c, std::vector<int> members) -> std::string {
    try {
      (void)c.create_subcomm(members);
    } catch (const std::exception& e) {
      return e.what();
    }
    return "no error";
  };
  run_sim_flat(4, [&](Comm& c) -> Task<void> {
    const int me = c.rank();
    const int other = (me + 1) % 4;
    EXPECT_EQ(error_of(c, {}), "create_subcomm: empty member list");
    EXPECT_EQ(error_of(c, {me, 4}),
              "create_subcomm: member rank out of range");
    EXPECT_EQ(error_of(c, {me, -1}),
              "create_subcomm: member rank out of range");
    EXPECT_EQ(error_of(c, {me, me}), "create_subcomm: duplicate member");
    // A duplicate other than the caller is found when the list is first
    // seen, and a rejected list is never registered: asking again fails
    // the same way.
    for (int again = 0; again < 2; ++again) {
      EXPECT_EQ(error_of(c, {me, other, other}),
                "create_subcomm: duplicate member");
    }
    EXPECT_EQ(error_of(c, {other}),
              "create_subcomm: calling rank not in member list");

    // The same list twice gives two contexts; the reversed list is a
    // different communicator with reversed ranks.
    const std::vector<int> all{0, 1, 2, 3};
    const std::vector<int> reversed{3, 2, 1, 0};
    auto first = c.create_subcomm(all);
    auto second = c.create_subcomm(all);
    auto back = c.create_subcomm(reversed);
    EXPECT_EQ(back->rank(), 3 - me);
    Buffer a = Buffer::real(4);
    Buffer b = Buffer::real(4);
    if (me == 0) {
      a.typed<int>()[0] = 1;
      b.typed<int>()[0] = 2;
      co_await second->send(b.view(), 1, 0);
      co_await first->send(a.view(), 1, 0);
    } else if (me == 1) {
      // Same peer and tag: only the context keeps the two apart.
      co_await first->recv(a.view(), 0, 0);
      co_await second->recv(b.view(), 0, 0);
      EXPECT_EQ(a.typed<int>()[0], 1);
      EXPECT_EQ(b.typed<int>()[0], 2);
    }
  });
}

TEST(MatchQueueTable, AgreesWithOrderedMapUnderChurn) {
  // Random inserts and erase-on-empty over a key domain several times the
  // initial capacity: growth, backward-shift deletion and slot reuse must
  // keep every live key findable with its own FIFO and no dead key.
  sim::MatchQueueTable table;
  std::map<std::tuple<std::uint32_t, int, int>, std::uint32_t> model;
  std::mt19937 rng(2024);
  std::uniform_int_distribution<int> comm_d(0, 3);
  std::uniform_int_distribution<int> rank_d(0, 7);
  std::uniform_int_distribution<int> src_d(-1, 9);  // -1 is kAnySource
  std::size_t peak = 0;
  for (std::uint32_t step = 0; step < 20000; ++step) {
    const auto key = std::make_tuple(static_cast<std::uint32_t>(comm_d(rng)),
                                     rank_d(rng), src_d(rng));
    const auto [c, r, s] = key;
    // Grow the population for the first half, then drain it.
    const bool insert = step < 10000 ? rng() % 4 != 0 : rng() % 4 == 0;
    auto it = model.find(key);
    if (insert) {
      sim::MatchQueueTable::Fifo& f = table.find_or_insert(c, r, s);
      if (it == model.end()) {
        EXPECT_EQ(f.count, 0u);
        model.emplace(key, step);
        f.head = f.tail = step;
      } else {
        EXPECT_EQ(f.head, it->second);
      }
      ++f.count;
    } else if (it != model.end()) {
      sim::MatchQueueTable::Fifo* f = table.find(c, r, s);
      ASSERT_NE(f, nullptr);
      f->count = 0;
      table.erase(*f);
      model.erase(it);
    }
    peak = std::max(peak, model.size());
    ASSERT_EQ(table.size(), model.size());
    if (step % 97 == 0) {
      for (const auto& [k, head] : model) {
        const auto [kc, kr, ks] = k;
        const sim::MatchQueueTable::Fifo* f = table.find(kc, kr, ks);
        ASSERT_NE(f, nullptr);
        EXPECT_EQ(f->head, head);
      }
    }
  }
  EXPECT_GT(peak, sim::MatchQueueTable::kInitialSlots);
  for (std::uint32_t c = 0; c < 4; ++c) {
    for (int r = 0; r < 8; ++r) {
      for (int s = -1; s < 10; ++s) {
        const bool live = model.count(std::make_tuple(c, r, s)) != 0;
        EXPECT_EQ(table.find(c, r, s) != nullptr, live);
      }
    }
  }
}

/// One scripted point-to-point operation of the matching-oracle test.
struct ScriptOp {
  bool send = false;
  int comm = 0;   ///< index into the test's communicators
  int actor = 0;  ///< rank in comm that issues the op
  int peer = 0;   ///< destination (send) or source / kAnySource (recv)
  int tag = 0;    ///< send tag, or recv tag / kAnyTag
  std::size_t bytes = 0;
  std::int32_t stamp = -1;  ///< send: index among sends
};

/// Linear-scan MPI matching: per endpoint, posted receives in post order and
/// unexpected messages in arrival order; the first match in queue order wins.
struct MatchingOracle {
  /// Returns the op index of the receive `send_op` matched, or -1.
  int arrive(const std::vector<ScriptOp>& ops, int send_op) {
    const ScriptOp& m = ops[send_op];
    auto& q = posted[{m.comm, m.peer}];
    for (auto it = q.begin(); it != q.end(); ++it) {
      const ScriptOp& r = ops[*it];
      if ((r.peer == rt::kAnySource || r.peer == m.actor) &&
          (r.tag == rt::kAnyTag || r.tag == m.tag)) {
        const int recv_op = *it;
        q.erase(it);
        return recv_op;
      }
    }
    unexpected[{m.comm, m.peer}].push_back(send_op);
    return -1;
  }
  /// Returns the op index of the send `recv_op` matched, or -1.
  int post(const std::vector<ScriptOp>& ops, int recv_op) {
    const ScriptOp& r = ops[recv_op];
    auto& q = unexpected[{r.comm, r.actor}];
    for (auto it = q.begin(); it != q.end(); ++it) {
      const ScriptOp& m = ops[*it];
      if ((r.peer == rt::kAnySource || r.peer == m.actor) &&
          (r.tag == rt::kAnyTag || r.tag == m.tag)) {
        const int send_op = *it;
        q.erase(it);
        return send_op;
      }
    }
    posted[{r.comm, r.actor}].push_back(recv_op);
    return -1;
  }
  /// Distinct live (comm, rank, source) unexpected queues right now.
  std::size_t live_unexpected_keys(const std::vector<ScriptOp>& ops) const {
    std::map<std::tuple<int, int, int>, int> keys;
    for (const auto& [ep, q] : unexpected) {
      for (int id : q) {
        ++keys[{ep.first, ep.second, ops[id].actor}];
      }
    }
    return keys.size();
  }

  /// (comm, rank in comm) -> queued op indices.
  std::map<std::pair<int, int>, std::deque<int>> posted;
  std::map<std::pair<int, int>, std::deque<int>> unexpected;
};

TEST(SimMatching, SeededScriptMatchesLinearScanOracle) {
  // Ranks act one scripted op at a time, each op in its own 1 ms slot of
  // virtual time (far longer than any latency here), so every endpoint sees
  // posts and arrivals in script order and the oracle's queue-order
  // semantics predict exactly which message each receive gets.
  constexpr int kRanks = 8;
  constexpr double kSlot = 1e-3;
  constexpr std::size_t kMaxBytes = 512;
  constexpr int kSyncTag = 999;
  const std::vector<std::vector<int>> comm_members = {
      {7, 6, 5, 4, 3, 2, 1, 0}, {3, 4, 5, 6, 7, 0, 1, 2}, {1, 3, 5, 0, 2}};

  model::NetParams net = model::test_params();
  net.eager_threshold = 128;  // mix eager and rendezvous messages

  std::mt19937 rng(13);
  std::vector<ScriptOp> ops;
  std::vector<int> predicted;  // recv op -> matched send op
  MatchingOracle oracle;
  std::size_t peak_unexpected_keys = 0;
  int sends = 0;
  auto add = [&](ScriptOp op) {
    const int id = static_cast<int>(ops.size());
    if (op.send) {
      op.stamp = sends++;
    }
    ops.push_back(op);
    predicted.push_back(-1);
    if (op.send) {
      const int recv_op = oracle.arrive(ops, id);
      if (recv_op >= 0) {
        predicted[recv_op] = id;
      }
    } else {
      predicted[id] = oracle.post(ops, id);
    }
    peak_unexpected_keys =
        std::max(peak_unexpected_keys, oracle.live_unexpected_keys(ops));
  };
  // At least 8 bytes, so every message carries its stamp.
  const std::size_t sizes[] = {8, 64, 128, 129, 300, kMaxBytes};
  // Three phases: mostly sends (unexpected queues pile up), mostly receives
  // (they drain, then posted queues pile up), mostly sends again.
  for (int phase = 0; phase < 3; ++phase) {
    const unsigned send_pct = phase == 1 ? 20 : 80;
    for (int i = 0; i < 300; ++i) {
      ScriptOp op;
      op.comm = static_cast<int>(rng() % comm_members.size());
      const int size = static_cast<int>(comm_members[op.comm].size());
      op.send = rng() % 100 < send_pct;
      op.actor = static_cast<int>(rng() % size);
      op.peer = static_cast<int>(rng() % size);
      op.tag = static_cast<int>(rng() % 3);
      if (op.send) {
        op.bytes = sizes[rng() % std::size(sizes)];
      } else {
        if (rng() % 4 == 0) op.peer = rt::kAnySource;
        if (rng() % 4 == 0) op.tag = rt::kAnyTag;
      }
      add(op);
    }
  }
  // Complete the script: a send for every receive still posted and a
  // receive for every message still unexpected, earliest first, so each
  // matches its target and the run drains.
  for (const auto& [ep, q] : std::map(oracle.posted)) {
    for (int recv_op : q) {
      const ScriptOp r = ops[recv_op];
      const int size = static_cast<int>(comm_members[r.comm].size());
      add(ScriptOp{true, r.comm,
                   r.peer == rt::kAnySource ? static_cast<int>(rng() % size)
                                            : r.peer,
                   r.actor, r.tag == rt::kAnyTag ? 7 : r.tag, 16});
    }
  }
  for (const auto& [ep, q] : std::map(oracle.unexpected)) {
    for (int send_op : q) {
      const ScriptOp m = ops[send_op];
      add(ScriptOp{false, m.comm, m.peer, m.actor, m.tag, 0});
    }
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (!ops[i].send) {
      ASSERT_GE(predicted[i], 0) << "script leaves receive " << i << " open";
    }
  }
  ASSERT_GT(peak_unexpected_keys, sim::MatchQueueTable::kInitialSlots / 2)
      << "script too small to grow the matching table";

  auto stamp_byte = [](std::int32_t stamp, std::size_t k) {
    return static_cast<std::byte>((stamp * 29 + static_cast<int>(k)) & 0xFF);
  };
  std::vector<std::vector<std::byte>> bufs(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].send) {
      // Stamp (src, seq) up front, then a body unique to the message.
      bufs[i].resize(ops[i].bytes);
      for (std::size_t k = 0; k < ops[i].bytes; ++k) {
        bufs[i][k] = stamp_byte(ops[i].stamp, k);
      }
      const std::int32_t head[2] = {ops[i].actor, ops[i].stamp};
      std::memcpy(bufs[i].data(), head, sizeof(head));
    } else {
      bufs[i].assign(kMaxBytes, std::byte{0xEE});
    }
  }

  sim::ClusterConfig cfg;
  cfg.machine = topo::generic(2, kRanks / 2).desc();
  cfg.net = net;
  cfg.carry_data = true;
  sim::Cluster cluster(cfg);
  cluster.run([&](Comm& world) -> Task<void> {
    const int me = world.rank();
    std::vector<std::unique_ptr<Comm>> comms(comm_members.size());
    std::vector<int> my_rank(comm_members.size(), -1);
    for (std::size_t c = 0; c < comm_members.size(); ++c) {
      const auto& mem = comm_members[c];
      const auto pos = std::find(mem.begin(), mem.end(), me);
      if (pos != mem.end()) {
        comms[c] = world.create_subcomm(mem);
        my_rank[c] = static_cast<int>(pos - mem.begin());
        EXPECT_EQ(comms[c]->rank(), my_rank[c]);
      }
    }
    Buffer sync_s = Buffer::real(1);
    Buffer sync_r = Buffer::real(1);
    std::vector<std::pair<Comm*, Request>> reqs;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const ScriptOp& op = ops[i];
      if (op.actor != my_rank[op.comm]) {
        continue;
      }
      // Idle until this op's slot, then let the engine catch up by waiting
      // for a message to self.
      const double gap = static_cast<double>(i + 1) * kSlot - world.now();
      if (gap > 0) {
        world.charge_copy(static_cast<std::size_t>(std::ceil(gap / net.pack_beta)));
      }
      co_await world.sendrecv(sync_s.view(), me, kSyncTag, sync_r.view(), me,
                              kSyncTag);
      Comm& c = *comms[op.comm];
      std::vector<std::byte>& b = bufs[i];
      reqs.emplace_back(
          &c, op.send ? c.isend(ConstView{b.data(), b.size()}, op.peer, op.tag)
                      : c.irecv(MutView{b.data(), b.size()}, op.peer, op.tag));
    }
    for (auto& [c, r] : reqs) {
      co_await c->wait(r);
    }
  });

  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].send) {
      continue;
    }
    const ScriptOp& m = ops[predicted[i]];
    SCOPED_TRACE(::testing::Message() << "receive op " << i << " expects send op "
                                      << predicted[i]);
    for (std::size_t k = 0; k < kMaxBytes; ++k) {
      const std::byte want = k < m.bytes ? bufs[predicted[i]][k] : std::byte{0xEE};
      ASSERT_EQ(bufs[i][k], want) << "byte " << k;
    }
  }
  // Every queue emptied and was erased; both tables grew past their start.
  EXPECT_EQ(cluster.posted_queues().size(), 0u);
  EXPECT_EQ(cluster.unexpected_queues().size(), 0u);
  EXPECT_GT(cluster.unexpected_queues().slots(),
            sim::MatchQueueTable::kInitialSlots);
  EXPECT_GT(cluster.posted_queues().slots(),
            sim::MatchQueueTable::kInitialSlots);
}

TEST(SimStats, CountsMessages) {
  sim::ClusterConfig cfg;
  cfg.machine = topo::generic(1, 4).desc();
  cfg.net = model::test_params();
  sim::Cluster cluster(cfg);
  cluster.run([](Comm& c) -> Task<void> {
    Buffer s = Buffer::real(8 * c.size());
    Buffer r = Buffer::real(8 * c.size());
    co_await coll::alltoall_nonblocking(c, s.view(), r.view(), 8);
  });
  // 4 ranks x 3 peers = 12 payload messages.
  EXPECT_EQ(cluster.messages_sent(), 12u);
}

}  // namespace
}  // namespace mca2a
