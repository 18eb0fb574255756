/// Tests for the real-network (TCP) backend that run inside the ordinary
/// gtest binary — and therefore inside the ASan job — with no launcher:
/// every "rank" is a thread owning its own net::Endpoint, and the mesh
/// between them is real loopback sockets (bootstrap, epoll progress, wire
/// framing, rails — the full stack except process isolation, which
/// tests/net/net_grid.cpp covers under tools/a2arun).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/bootstrap.hpp"
#include "net/endpoint.hpp"
#include "net/net_comm.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "runtime/task.hpp"
#include "test_util.hpp"

namespace mca2a {
namespace {

using rt::Buffer;
using rt::Comm;
using rt::Request;
using rt::Task;

/// Launch `n` thread-ranks over real loopback sockets and run `body` on
/// each rank's world communicator. Rethrows the first rank's exception
/// (by rank order) after all threads joined.
void run_net_threads(int n, const std::function<Task<void>(Comm&)>& body,
                     int rails = 2, std::size_t eager_max = 16 * 1024,
                     std::size_t stripe_min = 256 * 1024) {
  // Bind the rendezvous listener up front and hand it to rank 0, exactly
  // as the launchers do (NetOptions::rendezvous_fd): no pick-then-rebind
  // port race, even with many test jobs on one machine.
  auto [listener, port] = net::listen_tcp("127.0.0.1", 0, n + 8);
  const int rend_fd = listener.release();
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  for (int rank = 0; rank < n; ++rank) {
    threads.emplace_back([&, rank] {
      try {
        net::NetOptions opts;
        opts.rank = rank;
        opts.size = n;
        opts.rendezvous = net::Address{"127.0.0.1", port};
        opts.rendezvous_fd = rank == 0 ? rend_fd : -1;
        opts.rails = rails;
        opts.eager_max = eager_max;
        opts.stripe_min = stripe_min;
        opts.timeout_s = 30.0;
        auto world = net::NetComm::connect_world(opts);
        rt::sync_wait(body(*world));
      } catch (...) {
        errors[static_cast<std::size_t>(rank)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  for (const auto& e : errors) {
    if (e) {
      std::rethrow_exception(e);
    }
  }
}

/// The i-th message of a stream carries pattern(i, 0, .): neighbouring
/// messages differ at every offset, so a reordered or stale payload shows.
void fill_stream(rt::MutView v, int i) {
  for (std::size_t k = 0; k < v.len; ++k) {
    v.ptr[k] = test::pattern(i, 0, k);
  }
}

void check_stream(rt::ConstView v, int i) {
  for (std::size_t k = 0; k < v.len; ++k) {
    if (v.ptr[k] != test::pattern(i, 0, k)) {
      throw std::runtime_error("message " + std::to_string(i) + " (" +
                               std::to_string(v.len) + " B) corrupt at byte " +
                               std::to_string(k));
    }
  }
}

TEST(NetWire, HeaderRoundTrip) {
  net::FrameHeader h;
  h.kind = net::FrameKind::kData;
  h.tag = -7;
  h.comm_key = 0xDEADBEEFCAFEF00Dull;
  h.src = 1234;
  h.rail = 3;
  h.bytes = (1ull << 40) + 17;
  h.token = 42;
  h.token2 = 0xFFFFFFFFFFFFFFFFull;
  std::byte buf[net::kHeaderBytes];
  net::encode(h, buf);
  const net::FrameHeader d = net::decode(buf);
  EXPECT_EQ(d.kind, h.kind);
  EXPECT_EQ(d.tag, h.tag);
  EXPECT_EQ(d.comm_key, h.comm_key);
  EXPECT_EQ(d.src, h.src);
  EXPECT_EQ(d.rail, h.rail);
  EXPECT_EQ(d.bytes, h.bytes);
  EXPECT_EQ(d.token, h.token);
  EXPECT_EQ(d.token2, h.token2);
}

TEST(NetWire, BadMagicAndKindThrow) {
  net::FrameHeader h;
  h.kind = net::FrameKind::kEager;
  std::byte buf[net::kHeaderBytes];
  net::encode(h, buf);
  std::byte bad[net::kHeaderBytes];
  std::memcpy(bad, buf, sizeof(buf));
  bad[3] = std::byte{0x00};  // clobber the magic nibble
  EXPECT_THROW(net::decode(bad), std::runtime_error);
  std::memcpy(bad, buf, sizeof(buf));
  bad[0] = std::byte{0x09};  // kind 9: out of range, magic intact
  EXPECT_THROW(net::decode(bad), std::runtime_error);
}

TEST(NetBootstrap, OptionsValidate) {
  net::NetOptions opts;
  opts.rank = 0;
  opts.size = 2;
  opts.rendezvous = net::Address{"127.0.0.1", 1};
  EXPECT_NO_THROW(opts.validate());
  net::NetOptions bad = opts;
  bad.rank = 2;  // out of [0, size)
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = opts;
  bad.rails = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(NetBootstrap, ParseAddress) {
  const net::Address a = net::parse_address("10.1.2.3:4455");
  EXPECT_EQ(a.host, "10.1.2.3");
  EXPECT_EQ(a.port, 4455);
  EXPECT_THROW(net::parse_address("no-port-here"), std::invalid_argument);
}

TEST(NetP2P, PingPongEagerAndRendezvous) {
  // 1 KiB stays eager, 192 KiB crosses into rendezvous (threshold 16 KiB).
  run_net_threads(2, [](Comm& c) -> Task<void> {
    const int peer = 1 - c.rank();
    for (std::size_t bytes : {std::size_t{1} << 10, std::size_t{192} << 10}) {
      Buffer s = Buffer::real(bytes);
      Buffer r = Buffer::real(bytes);
      for (std::size_t k = 0; k < bytes; ++k) {
        s.data()[k] = test::pattern(c.rank(), peer, k);
      }
      co_await c.sendrecv(s.view(), peer, 1, r.view(), peer, 1);
      for (std::size_t k = 0; k < bytes; ++k) {
        if (r.data()[k] != test::pattern(peer, c.rank(), k)) {
          throw std::runtime_error("payload corrupt at byte " +
                                   std::to_string(k));
        }
      }
    }
  });
}

TEST(NetP2P, MultiRailStriping) {
  // Tiny thresholds force eager->rndv at 64 B and striping at 256 B over
  // 3 rails; a 1 MiB message then exercises out-of-order reassembly.
  run_net_threads(
      2,
      [](Comm& c) -> Task<void> {
        const int peer = 1 - c.rank();
        const std::size_t bytes = 1 << 20;
        Buffer s = Buffer::real(bytes);
        Buffer r = Buffer::real(bytes);
        for (std::size_t k = 0; k < bytes; ++k) {
          s.data()[k] = test::pattern(c.rank(), peer, k);
        }
        co_await c.sendrecv(s.view(), peer, 2, r.view(), peer, 2);
        for (std::size_t k = 0; k < bytes; ++k) {
          if (r.data()[k] != test::pattern(peer, c.rank(), k)) {
            throw std::runtime_error("striped payload corrupt at byte " +
                                     std::to_string(k));
          }
        }
        // Rails beyond 0 must have genuinely carried bytes.
        if (c.rank() == 0) {
          const auto& reg = obs::metrics();
          std::uint64_t beyond = reg.counter_value("net.rail.1.tx_bytes") +
                                 reg.counter_value("net.rail.2.tx_bytes");
          if (beyond == 0) {
            throw std::runtime_error("no bytes on rails 1/2");
          }
        }
      },
      /*rails=*/3, /*eager_max=*/64, /*stripe_min=*/256);
}

TEST(NetP2P, WildcardsAndFifoOrder) {
  run_net_threads(3, [](Comm& c) -> Task<void> {
    Buffer b = Buffer::real(4);
    if (c.rank() != 0) {
      // Two ordered messages per sender; per-pair FIFO must hold.
      for (int i = 0; i < 2; ++i) {
        b.typed<int>()[0] = 100 * c.rank() + i;
        co_await c.send(b.view(), 0, 7);
      }
    } else {
      int last_from[3] = {-1, -1, -1};
      for (int i = 0; i < 4; ++i) {
        co_await c.recv(b.view(), rt::kAnySource, rt::kAnyTag);
        const int v = b.typed<int>()[0];
        const int from = v / 100;
        if (v % 100 <= last_from[from]) {
          throw std::runtime_error("per-pair order violated");
        }
        last_from[from] = v % 100;
      }
    }
  });
}

TEST(NetP2P, ZeroByteMessages) {
  run_net_threads(2, [](Comm& c) -> Task<void> {
    const int peer = 1 - c.rank();
    co_await c.sendrecv(rt::ConstView{}, peer, 3, rt::MutView{}, peer, 3);
  });
}

TEST(NetP2P, TruncationThrowsOnBothPaths) {
  run_net_threads(2, [](Comm& c) -> Task<void> {
    // 64 B eager and 64 KiB rendezvous, both into an 8-byte buffer.
    for (std::size_t bytes : {std::size_t{64}, std::size_t{64} << 10}) {
      if (c.rank() == 0) {
        Buffer big = Buffer::real(bytes);
        co_await c.send(big.view(), 1, 4);
      } else {
        Buffer small = Buffer::real(8);
        bool threw = false;
        try {
          co_await c.recv(small.view(), 0, 4);
        } catch (const std::runtime_error&) {
          threw = true;
        }
        if (!threw) {
          throw std::runtime_error("truncation did not throw");
        }
      }
    }
  });
}

TEST(NetP2P, FramingBoundariesOnOneAndThreeRails) {
  // Payload sizes around every boundary of the receive path: the 48-byte
  // header, the staging buffer (a frame that exactly fills it, or misses by
  // one), eager payloads larger than a stage, the eager/rendezvous switch
  // and a body striped over the rails.
  constexpr std::size_t kHdr = net::kHeaderBytes;
  constexpr std::size_t kStage = net::Endpoint::kRxStageBytes;
  constexpr std::size_t kEagerMax = 40 * 1024;
  constexpr std::size_t kStripeMin = 128 * 1024;
  const std::vector<std::size_t> sizes = {0,
                                         1,
                                         kHdr - 1,
                                         kHdr,
                                         kHdr + 1,
                                         kStage - kHdr - 1,
                                         kStage - kHdr,
                                         kStage - kHdr + 1,
                                         kStage,
                                         kStage + 1,
                                         kEagerMax,
                                         kEagerMax + 1,
                                         kStripeMin + kStripeMin / 2 + 5};
  std::vector<std::size_t> stream;
  for (int copy = 0; copy < 3; ++copy) {
    stream.insert(stream.end(), sizes.begin(), sizes.end());
  }
  std::shuffle(stream.begin(), stream.end(), std::mt19937(20261019));
  // One truncated receive mid-stream: an eager frame spread over several
  // staged reads lands in a 49-byte buffer, the rest goes to the discard
  // sink, and the next message must still arrive intact.
  const int trunc = static_cast<int>(stream.size()) / 2;
  std::iter_swap(stream.begin() + trunc,
                 std::find(stream.begin(), stream.end(), kStage + 1));
  // Receives for the first part are posted before it is sent; the second
  // part is sent later and parked unexpected. It opens with a burst of
  // 1- and 3-byte frames longer than a stage, which the receiver reads in
  // bulk, so a stage fill ends inside a header (16 KiB is not a multiple
  // of 49 + 51) that differs from the one the stage began with.
  const int preposted = trunc + 4;
  std::vector<std::size_t> burst(400, 1);
  for (std::size_t i = 1; i < burst.size(); i += 2) {
    burst[i] = 3;
  }
  stream.insert(stream.begin() + preposted, burst.begin(), burst.end());
  const int n = static_cast<int>(stream.size());
  constexpr int kTag = 11;
  constexpr int kCtlTag = 12;

  for (int rails : {1, 3}) {
    SCOPED_TRACE("rails=" + std::to_string(rails));
    run_net_threads(
        2,
        [&](Comm& c) -> Task<void> {
          if (c.rank() == 0) {
            std::vector<Buffer> bufs;
            std::vector<Request> reqs;
            for (int i = 0; i < n; ++i) {
              if (i == 0 || i == preposted) {
                co_await c.recv(rt::MutView{}, 1, kCtlTag);  // go
              }
              bufs.push_back(Buffer::real(stream[static_cast<std::size_t>(i)]));
              fill_stream(bufs.back().view(), i);
              reqs.push_back(c.isend(bufs.back().view(), 1, kTag));
            }
            // Rail-0 FIFO: this arrives after every eager frame and RTS.
            reqs.push_back(c.isend(rt::ConstView{}, 1, kCtlTag));
            co_await c.wait_all(reqs);
            co_return;
          }
          std::vector<Buffer> bufs;
          std::vector<Request> reqs;
          auto post = [&](int i) {
            const std::size_t len =
                i == trunc ? kHdr + 1 : stream[static_cast<std::size_t>(i)];
            bufs.push_back(Buffer::real(len));
            if (len > 0) {
              std::memset(bufs.back().data(), 0xA5, len);
            }
            reqs.push_back(c.irecv(bufs.back().view(), 0, kTag));
          };
          auto finish = [&](int i) {
            const std::size_t k = static_cast<std::size_t>(i);
            bool threw = false;
            try {
              c.wait_try({&reqs[k], 1});
            } catch (const std::runtime_error&) {
              threw = true;
            }
            if (threw != (i == trunc)) {
              throw std::runtime_error("message " + std::to_string(i) +
                                       (threw ? " failed" : " not truncated"));
            }
            if (i != trunc) {
              check_stream(bufs[k].view(), i);
            }
          };
          for (int i = 0; i < preposted; ++i) {
            post(i);
          }
          co_await c.send(rt::ConstView{}, 0, kCtlTag);
          for (int i = 0; i < preposted; ++i) {
            finish(i);
          }
          co_await c.send(rt::ConstView{}, 0, kCtlTag);
          // Let the second part pile up in the socket, then read it all:
          // every frame before the sender's marker is parked unexpected.
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          co_await c.recv(rt::MutView{}, 0, kCtlTag);
          for (int i = preposted; i < n; ++i) {
            post(i);
            finish(i);
          }
        },
        rails, kEagerMax, kStripeMin);
  }
}

TEST(NetP2P, EagerRemainderSurvivesBufferReuse) {
  // The sender floods 8 KiB eager messages at a receiver that does not
  // read, overwriting its buffer right after every isend, until the kernel
  // refuses bytes. Frames the kernel did not take must have kept their own
  // copy of the unsent payload.
  constexpr std::size_t kBytes = 8 * 1024;
  constexpr int kCap = 8192;  // far past any loopback socket buffer
  constexpr int kTag = 5;
  std::atomic<int> flooded{-1};
  run_net_threads(2, [&](Comm& c) -> Task<void> {
    const auto& reg = obs::metrics();
    Buffer b = Buffer::real(kBytes);
    if (c.rank() == 0) {
      const std::uint64_t retries0 =
          reg.counter_value("net.rail.0.tx_retries");
      int sent = 0;
      int after_block = 4;  // a few whole frames queued behind the block
      while (sent < kCap && after_block > 0) {
        fill_stream(b.view(), sent);
        (void)c.isend(b.view(), 1, kTag);  // eager: complete on return
        std::memset(b.data(), 0xEE, kBytes);
        ++sent;
        if (reg.counter_value("net.rail.0.tx_retries") != retries0) {
          --after_block;
        }
      }
      flooded.store(sent);
      if (after_block > 0) {
        throw std::runtime_error("flood never filled the socket");
      }
      co_await c.recv(b.view(), 1, kTag + 1);  // flushes the queue
      co_return;
    }
    while (flooded.load() < 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (int i = 0; i < flooded.load(); ++i) {
      co_await c.recv(b.view(), 0, kTag);
      check_stream(b.view(), i);
    }
    co_await c.send(b.view(), 0, kTag + 1);
  });
}

TEST(NetP2P, SelfSend) {
  run_net_threads(2, [](Comm& c) -> Task<void> {
    Buffer s = Buffer::real(64);
    Buffer r = Buffer::real(64);
    for (std::size_t k = 0; k < 64; ++k) {
      s.data()[k] = test::pattern(c.rank(), c.rank(), k);
    }
    co_await c.sendrecv(s.view(), c.rank(), 9, r.view(), c.rank(), 9);
    for (std::size_t k = 0; k < 64; ++k) {
      if (r.data()[k] != test::pattern(c.rank(), c.rank(), k)) {
        throw std::runtime_error("self-send corrupt");
      }
    }
  });
}

TEST(NetSubcomm, IsolationAndDeterministicKeys) {
  run_net_threads(4, [](Comm& c) -> Task<void> {
    // Same tag on world and on the even/odd subcomm; never cross-matches.
    std::vector<int> mine;
    for (int r = c.rank() % 2; r < 4; r += 2) {
      mine.push_back(r);
    }
    auto sub = c.create_subcomm(mine);
    const int speer = 1 - sub->rank();
    Buffer w = Buffer::real(4);
    Buffer s = Buffer::real(4);
    Buffer rw = Buffer::real(4);
    Buffer rs = Buffer::real(4);
    w.typed<int>()[0] = 10 + c.rank();
    s.typed<int>()[0] = 20 + c.rank();
    const int wpeer = (c.rank() + 2) % 4;  // same parity: also in `mine`
    co_await c.sendrecv(w.view(), wpeer, 5, rw.view(), wpeer, 5);
    co_await sub->sendrecv(s.view(), speer, 5, rs.view(), speer, 5);
    if (rw.typed<int>()[0] != 10 + wpeer) {
      throw std::runtime_error("world message misrouted");
    }
    if (rs.typed<int>()[0] != 20 + mine[static_cast<std::size_t>(speer)]) {
      throw std::runtime_error("subcomm message misrouted");
    }
  });
}

TEST(NetTeardown, PeerLossErrorsInsteadOfHanging) {
  run_net_threads(3, [](Comm& c) -> Task<void> {
    auto& nc = static_cast<net::NetComm&>(c);
    if (c.rank() == 1) {
      // Drop every socket without the Bye handshake.
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      nc.endpoint().abort_for_test();
      co_return;
    }
    Buffer b = Buffer::real(1 << 16);
    bool threw = false;
    try {
      const Request r = c.irecv(b.view(), 1, 3);
      c.wait_try({&r, 1});
    } catch (const std::runtime_error& e) {
      threw = std::string(e.what()).find("lost") != std::string::npos;
    }
    if (!threw) {
      throw std::runtime_error("peer loss did not error the wait");
    }
  });
}

TEST(NetTeardown, SendToDeadPeerErrorsInsteadOfSigpipe) {
  run_net_threads(2, [](Comm& c) -> Task<void> {
    auto& nc = static_cast<net::NetComm&>(c);
    if (c.rank() == 1) {
      nc.endpoint().abort_for_test();  // no Bye, no flush: looks crashed
      co_return;
    }
    // Keep flushing eager frames at the dead peer. The first writes land
    // in the socket buffer; once the peer's RST comes back the kernel
    // returns EPIPE, which must surface as the documented runtime_error —
    // not as a process-killing SIGPIPE (all socket writes use
    // MSG_NOSIGNAL). Unlike the receive-side test above, this drives the
    // *write* path against a reset connection.
    Buffer b = Buffer::real(512);
    bool threw = false;
    try {
      for (int i = 0; i < 10000 && !threw; ++i) {
        (void)c.isend(b.view(), 1, 4);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    } catch (const std::runtime_error&) {
      threw = true;
    }
    if (!threw) {
      throw std::runtime_error("send to dead peer did not error");
    }
    co_return;
  });
}

TEST(NetObs, CountersAndBackendName) {
  const auto& reg = obs::metrics();
  const std::uint64_t eager0 = reg.counter_value("net.eager_tx");
  const std::uint64_t frames0 = reg.counter_value("net.frames_tx");
  run_net_threads(2, [](Comm& c) -> Task<void> {
    if (c.backend_name() != "net") {
      throw std::runtime_error("backend_name");
    }
    if (c.now() < 0.0) {
      throw std::runtime_error("clock");
    }
    Buffer b = Buffer::real(256);
    co_await c.sendrecv(b.view(), 1 - c.rank(), 6, b.view(), 1 - c.rank(), 6);
  });
  EXPECT_GT(reg.counter_value("net.eager_tx"), eager0);
  EXPECT_GT(reg.counter_value("net.frames_tx"), frames0);
}

TEST(NetObs, OneSyscallPerFrameInPingPong) {
  const auto& reg = obs::metrics();
  const std::uint64_t tx0 = reg.counter_value("net.tx_calls");
  const std::uint64_t rx0 = reg.counter_value("net.rx_calls");
  const std::uint64_t ftx0 = reg.counter_value("net.frames_tx");
  const std::uint64_t frx0 = reg.counter_value("net.frames_rx");
  constexpr int kRounds = 100;
  run_net_threads(2, [](Comm& c) -> Task<void> {
    Buffer b = Buffer::real(4);
    const int peer = 1 - c.rank();
    for (int i = 0; i < kRounds; ++i) {
      if (c.rank() == 0) {
        co_await c.send(b.view(), peer, 8);
        co_await c.recv(b.view(), peer, 8);
      } else {
        co_await c.recv(b.view(), peer, 8);
        co_await c.send(b.view(), peer, 8);
      }
    }
  });
  const std::uint64_t frames_tx = reg.counter_value("net.frames_tx") - ftx0;
  const std::uint64_t frames_rx = reg.counter_value("net.frames_rx") - frx0;
  EXPECT_GE(frames_tx, 2u * kRounds);
  // Header and payload leave in one sendmsg, including the shutdown kByes.
  EXPECT_EQ(reg.counter_value("net.tx_calls") - tx0, frames_tx);
  // One read per frame, plus one EOF read per connection at shutdown.
  EXPECT_LT(reg.counter_value("net.rx_calls") - rx0, 2 * frames_rx);
}

}  // namespace
}  // namespace mca2a
