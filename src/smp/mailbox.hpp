#pragma once
/// \file mailbox.hpp
/// Matching queues for the shared-memory backend.
///
/// Every (communicator, rank) pair owns one Mailbox. Two transports sit
/// behind the same matching semantics, selected per cluster by
/// `A2A_SMP_MAILBOX` (see MailboxConfig):
///
///  * `ring` (default) — one bounded lock-free SPSC ring per source rank.
///    A lane belongs to exactly one (src, dst, comm) triple, so the
///    single-producer/single-consumer invariant holds by construction:
///    the producer is src's rank thread, the consumer is the owning
///    rank's thread. Producers publish with a release store of the tail
///    index, consumers acquire it; head mirrors the protocol in the other
///    direction (Lamport ring). A payload of at most `ring_inline` bytes
///    is copied into the slot and the send completes at once (eager). A
///    larger payload is *lent*: the slot carries the sender's pointer, the
///    length and a completion flag, the receiver copies straight from the
///    sender's buffer into the posted receive, and then release-stores the
///    flag, which completes the sender's request (single copy, no
///    allocation). When a lane is full, or an eager payload does not fit a
///    slot (a self-send above `ring_inline`), the sender falls back to a
///    mutex-guarded unbounded overflow list, so publishing never blocks.
///    Every message carries a per-lane sequence number; the consumer
///    merges ring and overflow arrivals back into strict per-pair order
///    before matching, so FIFO and non-overtaking survive the two-path
///    transport.
///
///  * `mutex` — the original mutex-per-mailbox design, kept as the
///    baseline the thread-scaling bench and the ordering property tests
///    compare against. Every send is eager there.
///
/// Matching state (posted receives, unmatched arrivals) is owned by the
/// receiving rank's thread and, in ring mode, is touched by no one else:
/// matching itself needs no lock. MPI matching rules apply in both modes:
/// (source, tag) with wildcards, FIFO among eligible candidates, and
/// non-overtaking delivery between a fixed pair of ranks.
///
/// Progress is per rank, not per communicator: every rank owns one
/// RankProgress, which polls the mailboxes of all its live communicators
/// and parks on a single doorbell. A rank waiting on one communicator
/// therefore still copies lent payloads that arrive on another, so MPI's
/// progress rule holds across communicators.
///
/// Sleep/wake contract: a rank that has spun without progress parks on its
/// RankProgress doorbell. Two kinds of event ring it: a sender publishing
/// an arrival into one of its mailboxes (ring mode), and anything that
/// first bumps the rank's event counter, its epoch(): a receiver
/// completing one of its lent sends, a sender delivering into one of its
/// posted receives (mutex mode), or the cluster failing. The wake and the sleeper's registration are separated by
/// seq_cst fences in the Dekker pattern — after both fences, either the
/// waker observes `sleepers_ != 0` (and rings the doorbell under the wake
/// mutex) or the sleeper observes the arrival or the moved epoch in its
/// pre-sleep recheck. Payload happens-before never relies on those fences:
/// it rides on the ring's release/acquire index pair (or the overflow
/// mutex) towards the receiver, and on the completion flag's
/// release/acquire pair back to the sender, which is what keeps the
/// design TSan-provable.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "runtime/buffer.hpp"

namespace mca2a::obs {
class TraceBuffer;
}  // namespace mca2a::obs

namespace mca2a::smp {

/// Receiver-side distributed-tracing hook for one mailbox (ring mode
/// only: accept() then runs exclusively on the owning rank's thread, the
/// single writer its TraceBuffer requires — mutex mode delivers on the
/// *sender's* thread and must stay untraced). Installed under the
/// cluster registry lock before the communicator id is published.
struct MailboxTraceContext {
  obs::TraceBuffer* tracer = nullptr;  ///< the owning rank's stream
  std::uint64_t comm_key = 0;          ///< session-salted communicator id
  const std::vector<int>* world_ranks = nullptr;  ///< comm rank -> world
  int owner = 0;                       ///< owning rank, in-comm
};

/// Which transport a cluster's mailboxes use.
enum class MailboxKind : int { kRing = 0, kMutex };

/// Per-cluster mailbox tuning, normally read once from the environment at
/// SmpCluster construction; tests and benches pass explicit configs so a
/// mutex-vs-ring comparison never mutates the environment of live threads.
struct MailboxConfig {
  MailboxKind kind = MailboxKind::kRing;
  /// SPSC ring capacity in messages, per (src, dst, comm) lane.
  std::uint32_t ring_slots = 64;
  /// Payload bytes stored inline in a ring slot (eager); larger payloads
  /// are lent and copied once by the receiver (0 = every payload is lent).
  std::uint32_t ring_inline = 256;
  /// Receiver poll iterations without progress before it parks on the
  /// doorbell (0 = park immediately; oversubscribed runs want it small).
  int spin = 64;

  /// Read A2A_SMP_MAILBOX / A2A_SMP_RING_SLOTS / A2A_SMP_RING_INLINE /
  /// A2A_SMP_SPIN via rt::env (fail-fast validation).
  static MailboxConfig from_env();
};

/// One request of an SmpComm. As a receive posted by the owning rank it
/// waits for a matching message; as a lent send only `complete` is used,
/// set by the receiver once it has copied the payload. `complete` is the
/// only cross-thread field in ring mode (and pairs release/acquire with
/// `error`/`received`, written before the release store); in mutex mode
/// the delivering sender writes all three.
struct PostedRecv {
  rt::MutView buf{};
  int src = 0;  // rank in comm or rt::kAnySource
  int tag = 0;
  std::uint64_t post_seq = 0;
  std::atomic<bool> complete{false};
  bool error = false;        // truncation, reported at the receiver's wait
  std::size_t received = 0;  // actual message size
  std::uint32_t serial = 1;
  bool in_use = false;
};

class Mailbox;
class RankProgress;

/// The sender's side of a lent payload: the receiver release-stores
/// `*done` once it has copied the bytes (or dropped them on truncation),
/// then wakes `home`, the sending rank's progress, in case it parked.
struct SendCompletion {
  std::atomic<bool>* done = nullptr;  ///< null: eager payload, nothing lent
  RankProgress* home = nullptr;

  /// Receiver side: hand the buffer back and wake its owner.
  void complete() const;
};

/// One arrival on its way into matching order, or parked before its
/// receive was posted. `data` points into a ring slot (transient), into
/// `owned` (an eager copy), or into the sender's buffer (lent, with
/// `lender` set); null means a virtual payload or zero bytes.
struct UnexpectedMsg {
  int src = 0;
  int tag = 0;
  std::size_t bytes = 0;  // logical size
  const std::byte* data = nullptr;
  std::unique_ptr<std::byte[]> owned;
  SendCompletion lender{};
};

/// Matching state for one rank within one communicator.
class Mailbox {
 public:
  /// `owner` is the owning rank (in-comm); `progress` is its RankProgress,
  /// which senders and completions wake.
  Mailbox(int comm_size, int owner, const MailboxConfig& cfg,
          RankProgress& progress);
  ~Mailbox();
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Whether send() lends `payload` from `src` instead of copying it: in
  /// ring mode, a real payload above `ring_inline` bytes from another rank.
  /// Self-sends, virtual payloads and the mutex transport stay eager. The
  /// one eager/single-copy decision; send() holds its caller to it.
  bool lends(int src, rt::ConstView payload) const noexcept;

  /// Producer side, called from `src`'s rank thread: enqueue a message.
  /// Never blocks. Ring mode publishes into the lane ring or, when full
  /// (or when an eager payload exceeds the slot), the overflow list; mutex
  /// mode matches a posted receive directly (copying payload) or parks a
  /// copy unexpected. `lender` must be set exactly when lends() is true;
  /// the payload must then stay valid, unchanged, until the receiver
  /// completes `*lender.done`.
  void send(int src, int tag, rt::ConstView payload,
            SendCompletion lender = {});

  /// Owner side: pull every visible arrival into matching state,
  /// completing posted receives in order. No-op in mutex mode (senders
  /// match eagerly there).
  void drain();

  /// Owner side: drain, then match `r` against an already-arrived
  /// message (copy payload, mark complete, return true) or append it to
  /// the posted list (return false). A truncated match consumes the
  /// message and completes `r` with `error` set, reported at the
  /// receiver's wait, exactly as a truncated delivery to a posted receive.
  bool post_or_match(PostedRecv* r);

  /// Any thread: the owner's endpoint is gone; its RankProgress stops
  /// polling this mailbox at its next drain.
  void detach() noexcept { attached_.store(false, std::memory_order_release); }

  /// Owner side, before any traffic: enable receive-side flow stitching
  /// (smp.recv spans + Perfetto arrow heads) for this mailbox.
  void set_trace(const MailboxTraceContext& ctx) { trace_ = ctx; }

 private:
  struct Lane;
  friend class RankProgress;

  Lane& lane_for_send(int src);
  void pump_lane(int src, Lane& lane);
  void drain_overflow();
  /// True when a lane ring or the overflow list holds an undrained
  /// message (the pre-sleep recheck).
  bool arrivals_visible() const;
  /// Enter one arrival into matching order: complete the first eligible
  /// posted receive (true), or park it (false), copying transient bytes.
  bool accept(UnexpectedMsg&& m);
  bool match_posted(const UnexpectedMsg& m);

  struct OverflowMsg {
    std::uint64_t seq = 0;
    UnexpectedMsg msg;
  };

  MailboxConfig cfg_;
  int comm_size_ = 0;
  int owner_ = 0;
  RankProgress* progress_ = nullptr;
  std::size_t stride_ = 0;  // ring slot stride (header + inline, padded)
  /// Cleared by detach(); read by the owner's RankProgress.
  std::atomic<bool> attached_{true};

  // --- ring transport ---------------------------------------------------
  /// One lazily-created lane per source rank; the unique producer
  /// creates it (plain check, release store), the consumer acquires.
  std::vector<std::atomic<Lane*>> lanes_;
  /// Full-lane fallback; count mutates only under the mutex so the
  /// lock-free reads in drain()/arrivals_visible() can trust a zero.
  std::mutex overflow_mu_;
  std::deque<OverflowMsg> overflow_;
  std::atomic<std::size_t> overflow_count_{0};

  // --- mutex transport --------------------------------------------------
  std::mutex mu_;

  // --- matching state ---------------------------------------------------
  /// Ring mode: owner-thread-only, no lock. Mutex mode: guarded by mu_.
  std::deque<PostedRecv*> posted_;
  std::deque<UnexpectedMsg> arrived_;
  std::uint64_t next_post_seq_ = 0;

  // --- distributed tracing (ring mode, owner thread only) ---------------
  MailboxTraceContext trace_{};
  /// Per-(src, tag) arrival counters, kept in lockstep with the sender's
  /// per-(dst, tag) counters by the lanes' per-pair FIFO.
  std::map<std::pair<int, int>, std::uint64_t> flow_rx_seq_;
};

/// Everything one rank thread polls and parks on: the mailboxes of its
/// live communicators and a single doorbell (see the file comment for
/// the sleep/wake contract). The mailbox list is owner-thread-only; the
/// doorbell and epoch are rung from any thread.
class RankProgress {
 public:
  explicit RankProgress(const MailboxConfig& cfg);
  RankProgress(const RankProgress&) = delete;
  RankProgress& operator=(const RankProgress&) = delete;

  /// Owner side (or before the rank thread starts): poll `mb` from now on,
  /// until mb.detach().
  void attach(Mailbox& mb);

  /// Owner side: drain every attached mailbox, forgetting detached ones.
  void drain();

  /// Owner side: wake-epoch observation for idle(); capture it *before*
  /// checking completion flags so an event delivered in between cannot
  /// be slept through.
  std::uint64_t epoch() const {
    return events_.load(std::memory_order_acquire);
  }

  /// Owner side: one pause of the wait loop. Spins/yields for the
  /// configured budget (ring mode), then parks on the doorbell until a
  /// sender publishes into an attached mailbox or the epoch moves past
  /// `observed_epoch`. `spins` is the caller's running idle-poll counter.
  void idle(std::uint64_t observed_epoch, int& spins);

  /// Any thread, after publishing an arrival: wake the owner if parked.
  void ring();

  /// Any thread: move the epoch, then ring — a completed lent send, a
  /// mutex-mode delivery, or a failed cluster.
  void notify();

 private:
  bool arrivals_visible() const;

  int spin_ = 0;  // 0 in mutex mode: park at once, as that baseline did
  std::vector<Mailbox*> boxes_;
  std::atomic<std::uint32_t> sleepers_{0};
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::uint64_t wake_epoch_ = 0;  // guarded by wake_mu_
  std::atomic<std::uint64_t> events_{0};
};

}  // namespace mca2a::smp
