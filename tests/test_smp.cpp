/// Tests for the shared-memory (threads) backend: point-to-point semantics,
/// matching rules under real concurrency, sub-communicators, stress.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <numeric>
#include <random>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "test_util.hpp"

namespace mca2a {
namespace {

using rt::Buffer;
using rt::Comm;
using rt::ConstView;
using rt::MutView;
using rt::Request;
using rt::Task;
using test::run_smp;

TEST(SmpP2P, PingPong) {
  run_smp(2, [](Comm& c) -> Task<void> {
    Buffer b = Buffer::real(8);
    if (c.rank() == 0) {
      for (int i = 0; i < 8; ++i) b.data()[i] = static_cast<std::byte>(i + 1);
      co_await c.send(b.view(), 1, 0);
      co_await c.recv(b.view(), 1, 1);
      EXPECT_EQ(b.data()[0], std::byte{42});
    } else {
      co_await c.recv(b.view(), 0, 0);
      EXPECT_EQ(b.data()[7], std::byte{8});
      b.data()[0] = std::byte{42};
      co_await c.send(b.view(), 0, 1);
    }
  });
}

TEST(SmpP2P, SmallSendIsEager) {
  // Both ranks send before receiving. A payload of at most ring_inline
  // bytes is buffered eagerly, so the blocking sends must not deadlock.
  const smp::MailboxConfig cfg;
  smp::run_threads(2, cfg, [&](Comm& c) -> Task<void> {
    Buffer s = Buffer::real(cfg.ring_inline);
    Buffer r = Buffer::real(cfg.ring_inline);
    const int peer = 1 - c.rank();
    EXPECT_FALSE(c.isend(s.view(), peer, 1).valid());  // complete on return
    co_await c.send(s.view(), peer, 0);
    co_await c.recv(r.view(), peer, 1);
    co_await c.recv(r.view(), peer, 0);
  });
}

TEST(SmpP2P, LargeSendCompletesWhenReceiverCopies) {
  // A payload above ring_inline is lent, not buffered: the sender's wait
  // returns only once the receiver has posted and copied. Afterwards the
  // send buffer is the sender's again, and overwriting it must leave the
  // received bytes intact.
  constexpr std::size_t kLen = 64 * 1024;
  std::atomic<bool> posted{false};
  smp::run_threads(2, smp::MailboxConfig{}, [&](Comm& c) -> Task<void> {
    Buffer b = Buffer::real(kLen);
    if (c.rank() == 0) {
      for (std::size_t k = 0; k < kLen; ++k) {
        b.data()[k] = test::pattern(0, 1, k);
      }
      co_await c.send(b.view(), 1, 0);
      EXPECT_TRUE(posted.load());
      std::memset(b.data(), 0xff, kLen);
      co_await c.send(ConstView{}, 1, 1);  // "buffer overwritten"
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      posted.store(true);
      co_await c.recv(b.view(), 0, 0);
      co_await c.recv(MutView{}, 0, 1);
      for (std::size_t k = 0; k < kLen; ++k) {
        EXPECT_EQ(b.data()[k], test::pattern(0, 1, k)) << "byte " << k;
        if (testing::Test::HasFailure()) {
          co_return;
        }
      }
    }
  });
}

TEST(SmpP2P, LargeSendrecvBothSendFirst) {
  // The MPI-safe form of "both peers send first" at 64 KiB: sendrecv
  // posts the receive beside the lent send, so neither rank waits on a
  // receive the other has not posted.
  constexpr std::size_t kLen = 64 * 1024;
  const obs::Counter& rndv = obs::metrics().counter("smp.mailbox.rndv_sends");
  const std::uint64_t before = rndv.value();
  smp::run_threads(2, smp::MailboxConfig{}, [&](Comm& c) -> Task<void> {
    const int peer = 1 - c.rank();
    Buffer s = Buffer::real(kLen);
    Buffer r = Buffer::real(kLen);
    for (std::size_t k = 0; k < kLen; ++k) {
      s.data()[k] = test::pattern(c.rank(), peer, k);
    }
    co_await c.sendrecv(s.view(), peer, 0, r.view(), peer, 0);
    for (std::size_t k = 0; k < kLen; ++k) {
      EXPECT_EQ(r.data()[k], test::pattern(peer, c.rank(), k)) << "byte " << k;
      if (testing::Test::HasFailure()) {
        co_return;
      }
    }
  });
  EXPECT_EQ(rndv.value() - before, 2u);  // one lent send per rank
}

TEST(SmpP2P, LargeSelfSendStaysEager) {
  // A self-send is never lent: even above ring_inline, a blocking send to
  // the own rank before its receive completes at once, the buffer is the
  // sender's again on return, and per-pair order holds against the small
  // self-sends around it. With ring_inline = 0 every self-send with bytes
  // is larger than a slot.
  smp::MailboxConfig zero_inline;
  zero_inline.ring_inline = 0;
  const std::pair<smp::MailboxConfig, std::size_t> cases[] = {
      {smp::MailboxConfig{}, 64 * 1024}, {zero_inline, 1024}};
  for (const auto& [cfg, len] : cases) {
    smp::run_threads(2, cfg, [&](Comm& c) -> Task<void> {
      const int me = c.rank();
      Buffer small = Buffer::real(8);
      Buffer big = Buffer::real(len);
      Buffer r = Buffer::real(len);
      for (std::size_t k = 0; k < 8; ++k) {
        small.data()[k] = test::pattern(me, 0, k);
      }
      for (std::size_t k = 0; k < len; ++k) {
        big.data()[k] = test::pattern(me, 1, k);
      }
      co_await c.send(small.view(), me, 0);
      EXPECT_FALSE(c.isend(big.view(), me, 0).valid());  // complete
      std::memset(big.data(), 0, len);
      co_await c.send(small.view(), me, 0);
      for (int i = 0; i < 3; ++i) {
        co_await c.recv(r.view(), me, 0);
        const std::size_t n = i == 1 ? len : 8;
        for (std::size_t k = 0; k < n; ++k) {
          EXPECT_EQ(r.data()[k], test::pattern(me, i == 1 ? 1 : 0, k))
              << "message " << i << " byte " << k;
          if (testing::Test::HasFailure()) {
            co_return;
          }
        }
      }
    });
  }
}

TEST(SmpP2P, TagAndSourceWildcards) {
  run_smp(3, [](Comm& c) -> Task<void> {
    Buffer b = Buffer::real(4);
    if (c.rank() != 0) {
      b.typed<int>()[0] = 10 + c.rank();
      co_await c.send(b.view(), 0, 100 + c.rank());
    } else {
      int sum = 0;
      for (int i = 0; i < 2; ++i) {
        co_await c.recv(b.view(), rt::kAnySource, rt::kAnyTag);
        sum += b.typed<int>()[0];
      }
      EXPECT_EQ(sum, 23);
    }
  });
}

TEST(SmpP2P, NonOvertakingPerPair) {
  run_smp(2, [](Comm& c) -> Task<void> {
    constexpr int kN = 100;
    Buffer b = Buffer::real(4);
    if (c.rank() == 0) {
      for (int i = 0; i < kN; ++i) {
        b.typed<int>()[0] = i;
        co_await c.send(b.view(), 1, 0);
      }
    } else {
      for (int i = 0; i < kN; ++i) {
        co_await c.recv(b.view(), 0, 0);
        EXPECT_EQ(b.typed<int>()[0], i);
      }
    }
  });
}

TEST(SmpP2P, WaitallOnMixedRequests) {
  run_smp(2, [](Comm& c) -> Task<void> {
    Buffer s = Buffer::real(8);
    Buffer r = Buffer::real(8);
    const int peer = 1 - c.rank();
    std::array<Request, 2> reqs{c.isend(s.view(), peer, 0),
                                c.irecv(r.view(), peer, 0)};
    co_await c.wait_all(reqs);
  });
}

TEST(SmpP2P, TruncationThrowsAtReceiver) {
  // The sender must complete normally (eager send) and the error surfaces
  // at the receiver's wait; no rank blocks forever.
  EXPECT_THROW(run_smp(2,
                       [](Comm& c) -> Task<void> {
                         Buffer big = Buffer::real(16);
                         Buffer small = Buffer::real(4);
                         if (c.rank() == 0) {
                           co_await c.send(big.view(), 1, 0);
                         } else {
                           co_await c.recv(small.view(), 0, 0);
                         }
                       }),
               std::runtime_error);
}

TEST(SmpP2P, TruncationOnUnexpectedPathThrows) {
  EXPECT_THROW(run_smp(2,
                       [](Comm& c) -> Task<void> {
                         Buffer big = Buffer::real(16);
                         Buffer small = Buffer::real(4);
                         if (c.rank() == 0) {
                           co_await c.send(big.view(), 1, 0);
                           co_await c.send(rt::ConstView{}, 1, 1);
                         } else {
                           // Ensure the big message is already parked
                           // unexpected before posting the small receive.
                           co_await c.recv(rt::MutView{}, 0, 1);
                           co_await c.recv(small.view(), 0, 0);
                         }
                       }),
               std::runtime_error);
}

TEST(SmpP2P, ZeroByteMessages) {
  run_smp(2, [](Comm& c) -> Task<void> {
    if (c.rank() == 0) {
      co_await c.send(ConstView{}, 1, 0);
    } else {
      co_await c.recv(MutView{}, 0, 0);
    }
  });
}

// A truncated lent message must still complete its sender: the receiver
// consumes it and reports the error at its own wait, whether the message
// arrived before the receive was posted or after.
TEST(SmpP2P, TruncatedLargeSendCompletesWhenReceivePostedFirst) {
  std::atomic<bool> sent{false};
  EXPECT_THROW(
      smp::run_threads(2, smp::MailboxConfig{},
                       [&](Comm& c) -> Task<void> {
                         Buffer big = Buffer::real(64 * 1024);
                         Buffer small = Buffer::real(49);
                         if (c.rank() == 0) {
                           co_await c.recv(MutView{}, 1, 1);  // "posted"
                           co_await c.send(big.view(), 1, 0);
                           sent.store(true);
                         } else {
                           const Request r = c.irecv(small.view(), 0, 0);
                           co_await c.send(ConstView{}, 0, 1);
                           co_await c.wait(r);
                         }
                       }),
      std::runtime_error);
  EXPECT_TRUE(sent.load());
}

TEST(SmpP2P, TruncatedLargeSendCompletesWhenMessageArrivedFirst) {
  std::atomic<bool> sent{false};
  EXPECT_THROW(
      smp::run_threads(2, smp::MailboxConfig{},
                       [&](Comm& c) -> Task<void> {
                         Buffer big = Buffer::real(64 * 1024);
                         Buffer small = Buffer::real(49);
                         if (c.rank() == 0) {
                           const Request r = c.isend(big.view(), 1, 0);
                           co_await c.send(ConstView{}, 1, 1);
                           co_await c.wait(r);
                           sent.store(true);
                         } else {
                           // Per-pair FIFO: once tag 1 matched, the large
                           // message is already parked unexpected.
                           co_await c.recv(MutView{}, 0, 1);
                           co_await c.recv(small.view(), 0, 0);
                         }
                       }),
      std::runtime_error);
  EXPECT_TRUE(sent.load());
}

TEST(SmpP2P, ParkedSenderWakesWhenReceiverPostsLate) {
  // spin = 0: a sender waiting on its own lent send parks on its doorbell
  // at once. First the receiver posts only after the sleep counter shows
  // a park began, so every completion meets a sleeping (or about to
  // sleep) sender. Then it posts after a random short spin, so many
  // completions land between the sender's last flag check and its park:
  // only the pre-sleep recheck of the completion epoch saves those.
  constexpr int kParkedRounds = 100;
  constexpr int kRacingRounds = 10000;
  constexpr std::size_t kLen = 512;
  smp::MailboxConfig cfg;
  cfg.spin = 0;
  ASSERT_GT(kLen, cfg.ring_inline);  // lent, not eager
  const obs::Counter& sleeps = obs::metrics().counter("smp.mailbox.sleeps");
  const std::uint64_t base = sleeps.value();
  smp::run_threads(2, cfg, [&](Comm& c) -> Task<void> {
    Buffer b = Buffer::real(kLen);
    std::mt19937 rng(7);
    for (int i = 0; i < kParkedRounds + kRacingRounds; ++i) {
      if (c.rank() == 0) {
        b.data()[0] = static_cast<std::byte>(i);
        co_await c.send(b.view(), 1, 0);
        continue;
      }
      if (i < kParkedRounds) {
        // Round i cannot finish before the sender parked in it, so the
        // count reaches base + i + 1 and this loop always ends.
        while (sleeps.value() < base + static_cast<std::uint64_t>(i) + 1) {
          std::this_thread::yield();
        }
      } else {
        for (std::uint32_t k = rng() % 16384; k > 0; --k) {
          (void)sleeps.value();  // an atomic load: a delay not optimized out
        }
      }
      co_await c.recv(b.view(), 0, 0);
      EXPECT_EQ(b.data()[0], static_cast<std::byte>(i));
    }
  });
}

TEST(SmpSubcomm, SplitAndCommunicate) {
  run_smp(4, [](Comm& c) -> Task<void> {
    std::vector<int> members = c.rank() % 2 == 0 ? std::vector<int>{0, 2}
                                                 : std::vector<int>{1, 3};
    auto sub = c.create_subcomm(members);
    Buffer b = Buffer::real(4);
    if (sub->rank() == 0) {
      b.typed<int>()[0] = c.rank() * 7;
      co_await sub->send(b.view(), 1, 0);
    } else {
      co_await sub->recv(b.view(), 0, 0);
      EXPECT_EQ(b.typed<int>()[0], (c.rank() - 2) * 7);
    }
  });
}

TEST(SmpSubcomm, LentSendProgressesAcrossCommunicators) {
  // MPI-legal order: rank 1 posts a world receive, then blocks on a
  // subcommunicator receive. Rank 0's blocking 64 KiB world send
  // completes only once rank 1 copies it, which rank 1 must do while it
  // waits on the other communicator; only then does rank 0 send on the
  // subcommunicator. With spin = 0 both ranks park instead of spinning.
  constexpr std::size_t kLen = 64 * 1024;
  smp::MailboxConfig parked;
  parked.spin = 0;
  for (const smp::MailboxConfig& cfg : {smp::MailboxConfig{}, parked}) {
    smp::run_threads(2, cfg, [&](Comm& c) -> Task<void> {
      const std::vector<int> both{0, 1};
      auto sub = c.create_subcomm(both);
      Buffer big = Buffer::real(kLen);
      Buffer word = Buffer::real(4);
      if (c.rank() == 0) {
        for (std::size_t k = 0; k < kLen; ++k) {
          big.data()[k] = test::pattern(0, 1, k);
        }
        // Let rank 1 block on the subcommunicator first.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        co_await c.send(big.view(), 1, 0);
        word.typed<int>()[0] = 7;
        co_await sub->send(word.view(), 1, 0);
      } else {
        const Request r = c.irecv(big.view(), 0, 0);
        co_await sub->recv(word.view(), 0, 0);
        co_await c.wait(r);
        EXPECT_EQ(word.typed<int>()[0], 7);
        for (std::size_t k = 0; k < kLen; ++k) {
          EXPECT_EQ(big.data()[k], test::pattern(0, 1, k)) << "byte " << k;
          if (testing::Test::HasFailure()) {
            co_return;
          }
        }
      }
    });
  }
}

TEST(SmpSubcomm, ParentAndChildTrafficDoNotMix) {
  run_smp(2, [](Comm& c) -> Task<void> {
    std::vector<int> both{0, 1};
    auto sub = c.create_subcomm(both);
    Buffer b = Buffer::real(4);
    const int peer = 1 - c.rank();
    // Same tag on parent and child communicators.
    if (c.rank() == 0) {
      b.typed<int>()[0] = 111;
      co_await c.send(b.view(), peer, 9);
      b.typed<int>()[0] = 222;
      co_await sub->send(b.view(), peer, 9);
    } else {
      co_await sub->recv(b.view(), 0, 9);
      EXPECT_EQ(b.typed<int>()[0], 222);
      co_await c.recv(b.view(), 0, 9);
      EXPECT_EQ(b.typed<int>()[0], 111);
    }
  });
}

TEST(SmpStress, ManyRanksAllToAllTraffic) {
  constexpr int kRanks = 16;
  constexpr std::size_t kBlock = 64;
  std::atomic<int> ok{0};
  run_smp(kRanks, [&](Comm& c) -> Task<void> {
    Buffer s = Buffer::real(kBlock * kRanks);
    Buffer r = Buffer::real(kBlock * kRanks);
    test::fill_send(s, c.rank(), kRanks, kBlock);
    std::vector<Request> reqs;
    for (int peer = 0; peer < kRanks; ++peer) {
      if (peer == c.rank()) {
        rt::copy_bytes(r.view(peer * kBlock, kBlock),
                       std::as_const(s).view(peer * kBlock, kBlock));
        continue;
      }
      reqs.push_back(c.irecv(r.view(peer * kBlock, kBlock), peer, 3));
      reqs.push_back(c.isend(s.view(peer * kBlock, kBlock), peer, 3));
    }
    co_await c.wait_all(reqs);
    if (test::check_recv(r, c.rank(), kRanks, kBlock)) {
      ok.fetch_add(1);
    }
  });
  EXPECT_EQ(ok.load(), kRanks);
}

TEST(SmpRuntime, ExceptionPropagates) {
  smp::SmpRuntime runtime(2);
  EXPECT_THROW(
      runtime.run([](Comm& c) -> Task<void> {
        if (c.rank() == 1) {
          throw std::runtime_error("rank 1 failed");
        }
        co_return;
      }),
      std::runtime_error);
}

TEST(SmpRuntime, FailedRankReleasesBlockedPeers) {
  // Rank 1 fails at once while rank 0 blocks on it: in a 64 KiB (lent)
  // send that rank 1 will never copy, or in a receive it will never
  // match. run() must return and rethrow rank 1's error, not rank 0's
  // PeerFailure echo of it — spinning, parked at once, and on the mutex
  // transport (whose send is eager and so just completes).
  smp::MailboxConfig parked;
  parked.spin = 0;
  smp::MailboxConfig mutex;
  mutex.kind = smp::MailboxKind::kMutex;
  for (const smp::MailboxConfig& cfg : {smp::MailboxConfig{}, parked, mutex}) {
    for (const bool send_side : {true, false}) {
      try {
        smp::run_threads(2, cfg, [&](Comm& c) -> Task<void> {
          if (c.rank() == 1) {
            throw std::runtime_error("rank 1 failed");
          }
          Buffer big = Buffer::real(64 * 1024);
          if (send_side) {
            co_await c.send(big.view(), 1, 0);
          } else {
            co_await c.recv(big.view(), 1, 0);
          }
        });
        ADD_FAILURE() << "run_threads returned normally";
      } catch (const smp::PeerFailure& e) {
        ADD_FAILURE() << "rethrew the echo: " << e.what();
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "rank 1 failed");
      }
    }
  }
}

TEST(SmpRuntime, ReusableAcrossRuns) {
  smp::SmpRuntime runtime(3);
  for (int iter = 0; iter < 3; ++iter) {
    runtime.run([&](Comm& c) -> Task<void> {
      Buffer b = Buffer::real(4);
      const int peer = (c.rank() + 1) % c.size();
      const int from = (c.rank() + c.size() - 1) % c.size();
      b.typed<int>()[0] = c.rank() + iter;
      co_await c.sendrecv(b.view(), peer, 0, b.view(), from, 0);
      EXPECT_EQ(b.typed<int>()[0], from + iter);
    });
  }
}

}  // namespace
}  // namespace mca2a
