#include "smp/mailbox.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <new>
#include <stdexcept>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/comm.hpp"
#include "runtime/env.hpp"

namespace mca2a::smp {

namespace {

/// Fixed prefix of every ring slot; inline payload follows immediately.
/// Only the owning lane's producer writes a slot between publish and the
/// consumer's head release, so the fields need no per-field atomicity —
/// the Lamport index pair orders the whole slot.
struct SlotHeader {
  std::uint64_t seq = 0;
  std::size_t bytes = 0;
  int tag = 0;
  bool has_data = false;
  const std::byte* lent = nullptr;  // sender's buffer; null: payload inline
  SendCompletion lender{};
};

constexpr std::size_t align_up(std::size_t n, std::size_t a) {
  return (n + a - 1) / a * a;
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

}  // namespace

/// One SPSC lane: producer = src's rank thread, consumer = the mailbox
/// owner. Field groups live on separate cache lines so the producer's
/// tail publishing never false-shares with the consumer's head cursor.
struct Mailbox::Lane {
  // Producer-owned.
  std::uint64_t next_seq = 0;
  // Lamport indices (free-running; slot = index % capacity).
  alignas(64) std::atomic<std::uint64_t> tail{0};
  alignas(64) std::atomic<std::uint64_t> head{0};
  // Consumer-owned: next sequence number to enter matching order, plus
  // the reorder stash that merges ring and overflow arrivals back into
  // strict per-pair order (keyed by seq).
  alignas(64) std::uint64_t next_take = 0;
  std::map<std::uint64_t, UnexpectedMsg> stash;
  std::unique_ptr<std::byte[]> slots;

  Lane(std::uint32_t nslots, std::size_t stride)
      : slots(new std::byte[std::size_t{nslots} * stride]) {
    for (std::uint32_t i = 0; i < nslots; ++i) {
      new (slots.get() + std::size_t{i} * stride) SlotHeader{};
    }
  }

  SlotHeader* slot(std::size_t stride, std::uint32_t nslots,
                   std::uint64_t idx) {
    return reinterpret_cast<SlotHeader*>(slots.get() + (idx % nslots) * stride);
  }
};

namespace {

std::byte* slot_payload(SlotHeader* s) {
  return reinterpret_cast<std::byte*>(s) + sizeof(SlotHeader);
}

/// View a published slot as an arrival; inline bytes stay in the slot
/// (transient) until accept() or the stash copies them out.
UnexpectedMsg slot_msg(int src, SlotHeader* s) {
  UnexpectedMsg m;
  m.src = src;
  m.tag = s->tag;
  m.bytes = s->bytes;
  if (s->has_data) {
    m.data = s->lent != nullptr ? s->lent : slot_payload(s);
  }
  m.lender = s->lender;
  return m;
}

/// Give `m` its own copy of bytes that live in storage about to be reused
/// (a ring slot, or the sender's buffer of a mutex-mode eager send). Lent
/// payloads stay where they are until the receiver copies them once.
void keep_bytes(UnexpectedMsg& m) {
  if (m.data == nullptr || m.owned != nullptr ||
      m.lender.done != nullptr) {
    return;
  }
  m.owned.reset(new std::byte[m.bytes]);
  std::memcpy(m.owned.get(), m.data, m.bytes);
  m.data = m.owned.get();
}

/// Deliver `m` into the posted receive `r`: copy the payload (or flag
/// truncation, the receiver's error like MPI_ERR_TRUNCATE, reported at its
/// wait), complete `r`, then hand a lent buffer back to its sender. A
/// truncated lent message is consumed too, so its sender never strands.
void deliver(PostedRecv* r, const UnexpectedMsg& m) {
  if (r->buf.len < m.bytes) {
    r->error = true;
  } else {
    if (r->buf.ptr != nullptr && m.data != nullptr && m.bytes > 0) {
      std::memcpy(r->buf.ptr, m.data, m.bytes);
    }
    r->received = m.bytes;
  }
  r->complete.store(true, std::memory_order_release);
  if (m.lender.done != nullptr) {
    m.lender.complete();
  }
}

}  // namespace

void SendCompletion::complete() const {
  // The release store orders the receiver's copy before the sender's
  // reuse of its buffer; the epoch bump (release, read by the owner's
  // epoch() with acquire) follows it, so an owner that observes the new
  // epoch also observes the flag. Nothing here touches the sender's
  // request after the store: the sender may recycle it at once.
  done->store(true, std::memory_order_release);
  home->notify();
}

MailboxConfig MailboxConfig::from_env() {
  static constexpr std::string_view kKinds[] = {"ring", "mutex"};
  MailboxConfig cfg;
  cfg.kind = rt::env::get_choice("A2A_SMP_MAILBOX", kKinds, 0) == 0
                 ? MailboxKind::kRing
                 : MailboxKind::kMutex;
  cfg.ring_slots = static_cast<std::uint32_t>(
      rt::env::get_size("A2A_SMP_RING_SLOTS", cfg.ring_slots, 2, 1u << 20));
  cfg.ring_inline = static_cast<std::uint32_t>(
      rt::env::get_size("A2A_SMP_RING_INLINE", cfg.ring_inline, 0, 1u << 20));
  cfg.spin = static_cast<int>(
      rt::env::get_int("A2A_SMP_SPIN", cfg.spin, 0, 1'000'000));
  return cfg;
}

Mailbox::Mailbox(int comm_size, int owner, const MailboxConfig& cfg,
                 RankProgress& progress)
    : cfg_(cfg),
      comm_size_(comm_size),
      owner_(owner),
      progress_(&progress),
      stride_(align_up(sizeof(SlotHeader) + cfg.ring_inline, 64)) {
  if (cfg_.kind == MailboxKind::kRing) {
    lanes_ = std::vector<std::atomic<Lane*>>(
        static_cast<std::size_t>(comm_size));
  }
}

Mailbox::~Mailbox() {
  // Slots own no payload (inline bytes, or a lent pointer), so an
  // undrained lane needs no per-slot cleanup.
  for (auto& lp : lanes_) {
    delete lp.load(std::memory_order_acquire);
  }
}

Mailbox::Lane& Mailbox::lane_for_send(int src) {
  std::atomic<Lane*>& entry = lanes_[static_cast<std::size_t>(src)];
  Lane* lane = entry.load(std::memory_order_acquire);
  if (lane == nullptr) {
    // Exactly one producer per lane, so the check-then-create needs no
    // CAS; the release store pairs with the consumer's acquire load.
    lane = new Lane(cfg_.ring_slots, stride_);
    entry.store(lane, std::memory_order_release);
  }
  return *lane;
}

bool Mailbox::lends(int src, rt::ConstView payload) const noexcept {
  return cfg_.kind == MailboxKind::kRing && payload.ptr != nullptr &&
         payload.len > cfg_.ring_inline && src != owner_;
}

void Mailbox::send(int src, int tag, rt::ConstView payload,
                   SendCompletion lender) {
  const bool lend = lends(src, payload);
  if (lend != (lender.done != nullptr)) {
    throw std::logic_error(
        "Mailbox::send: a lender is required exactly for lent payloads");
  }
  const bool has_data = payload.ptr != nullptr && payload.len > 0;
  if (cfg_.kind == MailboxKind::kMutex) {
    UnexpectedMsg m;
    m.src = src;
    m.tag = tag;
    m.bytes = payload.len;
    m.data = has_data ? payload.ptr : nullptr;
    bool delivered = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      delivered = accept(std::move(m));
    }
    if (delivered) {
      progress_->notify();
    }
    return;
  }

  Lane& lane = lane_for_send(src);
  const std::uint64_t seq = lane.next_seq++;
  const std::uint64_t t = lane.tail.load(std::memory_order_relaxed);
  // A slot holds a descriptor, or at most ring_inline payload bytes.
  const bool fits = lend || !has_data || payload.len <= cfg_.ring_inline;
  if (fits &&
      t - lane.head.load(std::memory_order_acquire) < cfg_.ring_slots) {
    SlotHeader* s = lane.slot(stride_, cfg_.ring_slots, t);
    s->seq = seq;
    s->tag = tag;
    s->bytes = payload.len;
    s->has_data = has_data;
    s->lent = lend ? payload.ptr : nullptr;
    s->lender = lender;
    if (has_data && !lend) {
      std::memcpy(slot_payload(s), payload.ptr, payload.len);
    }
    lane.tail.store(t + 1, std::memory_order_release);
    static obs::Counter& g_ring =
        obs::metrics().counter("smp.mailbox.ring_sends");
    g_ring.add();
  } else {
    // Lane full: publishing must never block (both peers of an exchange
    // may send before either receives), so spill to the unbounded
    // overflow list. An eager payload too large for a slot (a self-send)
    // lands here too, as an owned copy. The seq stamp lets the consumer
    // restore per-pair order.
    OverflowMsg m;
    m.seq = seq;
    m.msg.src = src;
    m.msg.tag = tag;
    m.msg.bytes = payload.len;
    m.msg.data = has_data ? payload.ptr : nullptr;
    m.msg.lender = lender;
    keep_bytes(m.msg);
    {
      std::lock_guard<std::mutex> lk(overflow_mu_);
      overflow_.push_back(std::move(m));
      overflow_count_.fetch_add(1, std::memory_order_relaxed);
    }
    static obs::Counter& g_over =
        obs::metrics().counter("smp.mailbox.overflow_sends");
    g_over.add();
  }
  if (lend) {
    static obs::Counter& g_rndv =
        obs::metrics().counter("smp.mailbox.rndv_sends");
    g_rndv.add();
  }
  progress_->ring();
}

bool Mailbox::match_posted(const UnexpectedMsg& m) {
  auto it = std::find_if(posted_.begin(), posted_.end(), [&](PostedRecv* r) {
    const bool src_ok = r->src == rt::kAnySource || r->src == m.src;
    const bool tag_ok = r->tag == rt::kAnyTag || r->tag == m.tag;
    return src_ok && tag_ok;
  });
  if (it == posted_.end()) {
    return false;
  }
  PostedRecv* r = *it;
  posted_.erase(it);
  deliver(r, m);
  return true;
}

bool Mailbox::accept(UnexpectedMsg&& m) {
  // Receive-side stitching: the arrival enters matching order here, on the
  // owner thread — the semantic receive point, mirroring the sender's
  // per-(dst, tag) counter (zero-byte and self messages skip both ends).
  obs::Span rx_span;
  if (trace_.tracer != nullptr && m.bytes > 0 && m.src != trace_.owner) {
    const std::uint64_t seq = flow_rx_seq_[{m.src, m.tag}]++;
    const std::uint64_t id = obs::flow_id(
        trace_.comm_key,
        (*trace_.world_ranks)[static_cast<std::size_t>(m.src)],
        (*trace_.world_ranks)[static_cast<std::size_t>(trace_.owner)], m.tag,
        seq);
    rx_span = obs::Span(trace_.tracer, "smp.recv", "smp", 0,
                        {{"bytes", static_cast<std::int64_t>(m.bytes)},
                         {"src", m.src},
                         {"tag", m.tag}});
    trace_.tracer->flow_end(id, 0);
  }
  if (match_posted(m)) {
    return true;
  }
  keep_bytes(m);
  arrived_.push_back(std::move(m));
  return false;
}

void Mailbox::drain_overflow() {
  std::deque<OverflowMsg> taken;
  {
    std::lock_guard<std::mutex> lk(overflow_mu_);
    taken.swap(overflow_);
    overflow_count_.fetch_sub(taken.size(), std::memory_order_relaxed);
  }
  for (OverflowMsg& m : taken) {
    // The producer created its lane before it could ever overflow, and
    // the overflow mutex carries the happens-before to us.
    Lane* lane = lanes_[static_cast<std::size_t>(m.msg.src)].load(
        std::memory_order_acquire);
    lane->stash.emplace(m.seq, std::move(m.msg));
  }
}

void Mailbox::pump_lane(int src, Lane& lane) {
  for (;;) {
    // In-order stash entries (earlier overflow or set-aside slots) first.
    auto it = lane.stash.begin();
    if (it != lane.stash.end() && it->first == lane.next_take) {
      UnexpectedMsg u = std::move(it->second);
      lane.stash.erase(it);
      ++lane.next_take;
      accept(std::move(u));
      continue;
    }
    const std::uint64_t h = lane.head.load(std::memory_order_relaxed);
    if (lane.tail.load(std::memory_order_acquire) == h) {
      return;
    }
    SlotHeader* s = lane.slot(stride_, cfg_.ring_slots, h);
    UnexpectedMsg m = slot_msg(src, s);
    if (s->seq == lane.next_take) {
      ++lane.next_take;
      // Matching copies straight out of the slot (or the lent buffer);
      // only then is the slot released back to the producer.
      accept(std::move(m));
    } else {
      // A predecessor is still in the overflow list: set this slot aside
      // (reorder stash) so the producer regains ring space either way.
      keep_bytes(m);
      lane.stash.emplace(s->seq, std::move(m));
    }
    lane.head.store(h + 1, std::memory_order_release);
  }
}

void Mailbox::drain() {
  if (cfg_.kind == MailboxKind::kMutex) {
    return;
  }
  if (overflow_count_.load(std::memory_order_acquire) != 0) {
    drain_overflow();
  }
  // Lane order is fixed (source-major) and per-lane order is strict seq
  // order, so the arrival order entering matching is deterministic
  // whenever the sends are quiesced (e.g. behind a barrier) — the
  // property the ordering oracle test pins.
  for (int src = 0; src < comm_size_; ++src) {
    Lane* lane =
        lanes_[static_cast<std::size_t>(src)].load(std::memory_order_acquire);
    if (lane != nullptr) {
      pump_lane(src, *lane);
    }
  }
}

bool Mailbox::post_or_match(PostedRecv* r) {
  if (cfg_.kind == MailboxKind::kRing) {
    drain();
  }
  // Ring mode: matching state is owner-thread-only; no lock needed.
  std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
  if (cfg_.kind == MailboxKind::kMutex) {
    lock.lock();
  }
  r->error = false;
  r->received = 0;
  auto it = std::find_if(
      arrived_.begin(), arrived_.end(), [&](const UnexpectedMsg& m) {
        const bool src_ok = r->src == rt::kAnySource || r->src == m.src;
        const bool tag_ok = r->tag == rt::kAnyTag || r->tag == m.tag;
        return src_ok && tag_ok;
      });
  if (it != arrived_.end()) {
    const UnexpectedMsg m = std::move(*it);
    arrived_.erase(it);
    deliver(r, m);
    return true;
  }
  r->post_seq = next_post_seq_++;
  r->complete.store(false, std::memory_order_relaxed);
  posted_.push_back(r);
  return false;
}

bool Mailbox::arrivals_visible() const {
  if (overflow_count_.load(std::memory_order_acquire) != 0) {
    return true;
  }
  for (const auto& lp : lanes_) {
    const Lane* lane = lp.load(std::memory_order_acquire);
    if (lane != nullptr && lane->tail.load(std::memory_order_acquire) !=
                               lane->head.load(std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

RankProgress::RankProgress(const MailboxConfig& cfg)
    : spin_(cfg.kind == MailboxKind::kRing ? cfg.spin : 0) {}

void RankProgress::attach(Mailbox& mb) {
  // Forget detached mailboxes here too, so a rank that creates many
  // short-lived communicators between waits keeps a short list.
  std::erase_if(boxes_, [](const Mailbox* b) {
    return !b->attached_.load(std::memory_order_acquire);
  });
  boxes_.push_back(&mb);
}

void RankProgress::drain() {
  for (std::size_t i = 0; i < boxes_.size();) {
    Mailbox* mb = boxes_[i];
    if (!mb->attached_.load(std::memory_order_acquire)) {
      boxes_.erase(boxes_.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    mb->drain();
    ++i;
  }
}

bool RankProgress::arrivals_visible() const {
  return std::any_of(boxes_.begin(), boxes_.end(), [](const Mailbox* mb) {
    return mb->arrivals_visible();
  });
}

void RankProgress::ring() {
  // Dekker pairing with idle(): after this fence and the sleeper's, either
  // we observe sleepers_ != 0 or the sleeper's recheck observes our
  // published arrival (or moved epoch).
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_relaxed) == 0) {
    return;
  }
  static obs::Counter& g_wakeups =
      obs::metrics().counter("smp.mailbox.wakeups");
  g_wakeups.add();
  {
    std::lock_guard<std::mutex> lk(wake_mu_);
    ++wake_epoch_;
  }
  wake_cv_.notify_all();
}

void RankProgress::notify() {
  events_.fetch_add(1, std::memory_order_release);
  ring();
}

void RankProgress::idle(std::uint64_t observed_epoch, int& spins) {
  ++spins;
  if (spins <= spin_) {
    // Mostly pause (SMT-friendly), periodically yield (oversubscription-
    // friendly: a 2x-threads-per-core run must keep making progress).
    if ((spins & 7) == 0) {
      std::this_thread::yield();
    } else {
      cpu_relax();
    }
    return;
  }
  spins = 0;
  static obs::Counter& g_sleeps = obs::metrics().counter("smp.mailbox.sleeps");
  g_sleeps.add();
  std::unique_lock<std::mutex> lk(wake_mu_);
  sleepers_.fetch_add(1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (!arrivals_visible() &&
      events_.load(std::memory_order_relaxed) == observed_epoch) {
    const std::uint64_t e = wake_epoch_;
    wake_cv_.wait(lk, [&] { return wake_epoch_ != e; });
  }
  sleepers_.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace mca2a::smp
