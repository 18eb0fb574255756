#include "sim/cluster.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <tuple>
#include <type_traits>

#include "sim/sim_comm.hpp"

namespace mca2a::sim {

using topo::Level;

double repeated_add(double x, double t, std::uint64_t count) noexcept {
  if (!(t > 0.0) || !std::isfinite(t)) {
    for (; count > 0; --count) {
      x += t;
    }
    return x;
  }
  constexpr int kTopExp = std::numeric_limits<double>::max_exponent - 1;
  while (count > 0) {
    const double y = x + t;  // one real add
    --count;
    // Bulk steps start only from a positive normal clock whose binade
    // [2^e, 2^(e+1)) the add did not leave.
    const int e = std::ilogb(x);
    if (count == 0 || !(x >= std::numeric_limits<double>::min()) ||
        e >= kTopExp || y >= std::ldexp(1.0, e + 1)) {
      x = y;
      continue;
    }
    // Inside the binade every double is a multiple of its ulp u, so each
    // add moves the clock by the same d = RN_u(t), unless t is a rounding
    // tie at u (ties go to even, which depends on the clock).
    const double u = std::ldexp(1.0, e - 52);
    const double d = y - x;  // exact by Sterbenz: x <= y < 2x
    if (2.0 * std::abs(t - d) == u) {
      x = y;
      continue;
    }
    // Take m more steps at once, stopping at the binade's last double
    // 2^(e+1) - u; the counts are exact integers in units of u.
    std::uint64_t m = count;
    if (d > 0.0) {
      const auto room = static_cast<std::uint64_t>(
          (std::ldexp(1.0, e + 1) - u - y) / u);
      m = std::min(m, room / static_cast<std::uint64_t>(d / u));
    }
    x = y + static_cast<double>(m) * d;  // exact: stays on the binade grid
    count -= m;
  }
  return x;
}

Cluster::Cluster(ClusterConfig cfg)
    : cfg_(std::move(cfg)), machine_(cfg_.machine), rng_(cfg_.noise_seed) {
  model::validate(cfg_.net);
  const int n = machine_.total_ranks();
  ranks_.resize(n);
  nic_in_.assign(machine_.nodes(), 0.0);
  nic_out_.assign(machine_.nodes(), 0.0);
  mem_chan_.assign(machine_.nodes() * machine_.desc().numa_per_node(), 0.0);

  // Communicator 0 is the world.
  CommEntry world_entry;
  world_entry.world_ranks.resize(n);
  for (int r = 0; r < n; ++r) {
    world_entry.world_ranks[r] = r;
  }
  world_entry.endpoints.resize(n);
  comms_.push_back(std::move(world_entry));

  world_comms_.reserve(n);
  for (int r = 0; r < n; ++r) {
    world_comms_.push_back(std::make_unique<SimComm>(*this, 0u, r, n));
  }

  // Wire accounting: one counter pair per locality level, resolved once so
  // isend_impl pays two relaxed adds per message.
  for (int l = 0; l < topo::kNumLevels; ++l) {
    const std::string prefix =
        std::string("sim.level.") + topo::to_string(static_cast<Level>(l));
    level_metrics_[l].messages = &obs::metrics().counter(prefix + ".messages");
    level_metrics_[l].bytes = &obs::metrics().counter(prefix + ".bytes");
  }

  // Flight recorder: one session per cluster, one stream per world rank,
  // each stamped with this rank's *virtual* clock. The clock closure only
  // reads rank state — tracing never advances virtual time.
  if (obs::TraceRecorder* rec = obs::active_recorder()) {
    trace_rec_ = rec;
    trace_session_ = rec->begin_session("sim");
    tracers_.resize(static_cast<std::size_t>(n), nullptr);
    for (int r = 0; r < n; ++r) {
      obs::TraceBuffer* tb = rec->open_stream(trace_session_, r);
      tb->set_clock([this, r] { return ranks_[static_cast<std::size_t>(r)].clock; });
      tracers_[static_cast<std::size_t>(r)] = tb;
    }
  }
}

Cluster::~Cluster() {
  if (trace_rec_ != nullptr) {
    trace_rec_->end_session(trace_session_);
  }
}

rt::Comm& Cluster::world(int world_rank) {
  return *world_comms_.at(world_rank);
}

double Cluster::rank_clock(int world_rank) const {
  return ranks_.at(world_rank).clock;
}

double Cluster::max_clock() const {
  double t = 0.0;
  for (const RankState& r : ranks_) {
    t = std::max(t, r.clock);
  }
  return t;
}

double Cluster::noise() {
  const double sigma = cfg_.net.noise_sigma;
  if (sigma <= 0.0) {
    return 1.0;
  }
  // Mean-one log-normal perturbation.
  return std::exp(sigma * normal_(rng_) - 0.5 * sigma * sigma);
}

// --------------------------------------------------------------------------
// Pools
// --------------------------------------------------------------------------

std::uint32_t Cluster::alloc_op() {
  if (free_op_ != kNil) {
    std::uint32_t id = free_op_;
    free_op_ = ops_[id].next;
    OpRec& op = ops_[id];
    std::uint32_t serial = op.serial;  // preserved across reuse
    op = OpRec{};
    op.serial = serial;
    return id;
  }
  ops_.emplace_back();
  return static_cast<std::uint32_t>(ops_.size() - 1);
}

void Cluster::release_op(std::uint32_t id) {
  OpRec& op = ops_[id];
  ++op.serial;  // invalidate outstanding Requests
  op.next = free_op_;
  free_op_ = id;
}

std::uint32_t Cluster::alloc_msg() {
  if (free_msg_ != kNil) {
    std::uint32_t id = free_msg_;
    free_msg_ = msgs_[id].next;
    msgs_[id] = MsgRec{};
    return id;
  }
  msgs_.emplace_back();
  return static_cast<std::uint32_t>(msgs_.size() - 1);
}

void Cluster::release_msg(std::uint32_t id) {
  MsgRec& m = msgs_[id];
  m.payload.reset();
  m.next = free_msg_;
  free_msg_ = id;
}

std::uint32_t Cluster::alloc_waiter() {
  if (free_waiter_ != kNil) {
    std::uint32_t id = free_waiter_;
    free_waiter_ = waiters_[id].next_free;
    waiters_[id] = Waiter{};
    return id;
  }
  waiters_.emplace_back();
  return static_cast<std::uint32_t>(waiters_.size() - 1);
}

void Cluster::release_waiter(std::uint32_t id) {
  waiters_[id].next_free = free_waiter_;
  waiters_[id].handle = {};
  free_waiter_ = id;
}

Cluster::OpRec& Cluster::op_checked(const rt::Request& r) {
  if (r.slot >= ops_.size()) {
    throw std::logic_error("SimComm: request refers to unknown operation");
  }
  OpRec& op = ops_[r.slot];
  if (op.serial != r.serial) {
    throw std::logic_error("SimComm: request already completed (stale)");
  }
  return op;
}

// --------------------------------------------------------------------------
// Matching table
// --------------------------------------------------------------------------

std::size_t MatchQueueTable::hash(std::uint32_t comm, int rank,
                                  int src) noexcept {
  // Pack (rank, src) into 64 bits and fold in the comm id, then a
  // multiply-xorshift finalizer so every key bit reaches the low bits used
  // as the index.
  const std::uint64_t rank_src =
      (std::uint64_t{static_cast<std::uint32_t>(rank)} << 32) |
      static_cast<std::uint32_t>(src);
  std::uint64_t x = rank_src ^ (std::uint64_t{comm} * 0x9E3779B97F4A7C15ULL);
  x ^= x >> 32;
  x *= 0xD6E8FEB86659FD93ULL;
  x ^= x >> 32;
  return static_cast<std::size_t>(x);
}

MatchQueueTable::Fifo* MatchQueueTable::find(std::uint32_t comm, int rank,
                                             int src) noexcept {
  if (live_ == 0) {
    return nullptr;
  }
  for (std::size_t i = hash(comm, rank, src) & mask_;; i = (i + 1) & mask_) {
    Slot& s = slots_[i];
    if (s.fifo.count == 0) {
      return nullptr;
    }
    if (s.src == src && s.rank == rank && s.comm == comm) {
      return &s.fifo;
    }
  }
}

MatchQueueTable::Fifo& MatchQueueTable::find_or_insert(std::uint32_t comm,
                                                       int rank, int src) {
  if (2 * (live_ + 1) > slots_.size()) {
    grow();
  }
  for (std::size_t i = hash(comm, rank, src) & mask_;; i = (i + 1) & mask_) {
    Slot& s = slots_[i];
    if (s.fifo.count == 0) {
      s = Slot{Fifo{}, comm, rank, src};
      ++live_;
      return s.fifo;
    }
    if (s.src == src && s.rank == rank && s.comm == comm) {
      return s.fifo;
    }
  }
}

void MatchQueueTable::erase(Fifo& f) noexcept {
  assert(f.count == 0);
  // Slot is standard-layout with the Fifo first, so the two addresses are
  // interconvertible.
  static_assert(std::is_standard_layout_v<Slot> && offsetof(Slot, fifo) == 0);
  std::size_t hole =
      static_cast<std::size_t>(reinterpret_cast<Slot*>(&f) - slots_.data());
  --live_;
  // Backward-shift deletion: pull later entries of the probe run into the
  // hole unless that would move one before its home slot.
  for (std::size_t j = (hole + 1) & mask_; slots_[j].fifo.count != 0;
       j = (j + 1) & mask_) {
    const Slot& s = slots_[j];
    const std::size_t home = hash(s.comm, s.rank, s.src) & mask_;
    if (((j - home) & mask_) >= ((j - hole) & mask_)) {
      slots_[hole] = s;
      hole = j;
    }
  }
  slots_[hole] = Slot{};
}

void MatchQueueTable::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? kInitialSlots : 2 * old.size(), Slot{});
  mask_ = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.fifo.count == 0) {
      continue;
    }
    std::size_t i = hash(s.comm, s.rank, s.src) & mask_;
    while (slots_[i].fifo.count != 0) {
      i = (i + 1) & mask_;
    }
    slots_[i] = s;
  }
}

// --------------------------------------------------------------------------
// Matching
// --------------------------------------------------------------------------

Cluster::Endpoint& Cluster::endpoint(std::uint32_t comm_id, int rank_in_comm) {
  return comms_[comm_id].endpoints[rank_in_comm];
}

void Cluster::push_fifo(Fifo& f, std::uint32_t id, bool is_msg) {
  if (is_msg) {
    msgs_[id].next = kNil;
  } else {
    ops_[id].next = kNil;
  }
  if (f.tail == kNil) {
    f.head = f.tail = id;
  } else {
    if (is_msg) {
      msgs_[f.tail].next = id;
    } else {
      ops_[f.tail].next = id;
    }
    f.tail = id;
  }
  ++f.count;
}

std::uint32_t Cluster::match_posted(std::uint32_t comm_id, int rank, int src,
                                    int tag) {
  Endpoint& ep = endpoint(comm_id, rank);
  if (ep.posted_total == 0) {
    return kNil;
  }
  // Candidates: the first tag-matching recv posted for this specific source
  // and for kAnySource; the earlier-posted one wins.
  struct Candidate {
    Fifo* fifo = nullptr;
    std::uint32_t id = kNil;
    std::uint32_t prev = kNil;
    std::uint64_t seq = 0;
  };
  Candidate best;

  auto scan = [&](Fifo* f) {
    if (f == nullptr) {
      return;
    }
    std::uint32_t prev = kNil;
    for (std::uint32_t cur = f->head; cur != kNil; cur = ops_[cur].next) {
      const OpRec& op = ops_[cur];
      if (op.tag == rt::kAnyTag || op.tag == tag) {
        if (best.id == kNil || op.post_seq < best.seq) {
          best = Candidate{f, cur, prev, op.post_seq};
        }
        return;
      }
      prev = cur;
    }
  };

  scan(posted_.find(comm_id, rank, src));
  if (ep.posted_any != 0) {
    scan(posted_.find(comm_id, rank, rt::kAnySource));
  }
  if (best.id == kNil) {
    return kNil;
  }

  Fifo& f = *best.fifo;
  if (best.prev == kNil) {
    f.head = ops_[best.id].next;
  } else {
    ops_[best.prev].next = ops_[best.id].next;
  }
  if (f.tail == best.id) {
    f.tail = best.prev;
  }
  OpRec& op = ops_[best.id];
  if (op.match_src == rt::kAnySource) {
    --ep.posted_any;
  }
  --ep.posted_total;
  op.in_posted = false;
  if (--f.count == 0) {
    posted_.erase(f);
  }
  return best.id;
}

std::uint32_t Cluster::match_unexpected(std::uint32_t comm_id, int rank,
                                        int src, int tag) {
  Endpoint& ep = endpoint(comm_id, rank);
  if (ep.unexpected_total == 0) {
    return kNil;
  }
  auto match_in = [&](const Fifo& f) -> std::pair<std::uint32_t, std::uint32_t> {
    std::uint32_t prev = kNil;
    for (std::uint32_t cur = f.head; cur != kNil; cur = msgs_[cur].next) {
      if (tag == rt::kAnyTag || msgs_[cur].tag == tag) {
        return {cur, prev};
      }
      prev = cur;
    }
    return {kNil, kNil};
  };

  Fifo* fifo = nullptr;
  std::uint32_t id = kNil;
  std::uint32_t prev = kNil;

  if (src != rt::kAnySource) {
    fifo = unexpected_.find(comm_id, rank, src);
    if (fifo == nullptr) {
      return kNil;
    }
    std::tie(id, prev) = match_in(*fifo);
  } else {
    // Wildcard source: the earliest arrival across this endpoint's source
    // queues. Probes source by source and stops once every queued message
    // has been seen, so the cost is at most one probe per communicator
    // rank. No algorithm posts kAnySource receives; only tests and user
    // code pay this.
    const int size = static_cast<int>(comms_[comm_id].world_ranks.size());
    std::uint32_t seen = 0;
    std::uint64_t best_seq = 0;
    for (int s = 0; s < size && seen < ep.unexpected_total; ++s) {
      Fifo* f = unexpected_.find(comm_id, rank, s);
      if (f == nullptr) {
        continue;
      }
      seen += f->count;
      auto [i, p] = match_in(*f);
      if (i != kNil && (id == kNil || msgs_[i].arrival_seq < best_seq)) {
        fifo = f;
        id = i;
        prev = p;
        best_seq = msgs_[i].arrival_seq;
      }
    }
  }
  if (id == kNil) {
    return kNil;
  }
  if (prev == kNil) {
    fifo->head = msgs_[id].next;
  } else {
    msgs_[prev].next = msgs_[id].next;
  }
  if (fifo->tail == id) {
    fifo->tail = prev;
  }
  --ep.unexpected_total;
  if (--fifo->count == 0) {
    unexpected_.erase(*fifo);
  }
  return id;
}

// --------------------------------------------------------------------------
// Point-to-point
// --------------------------------------------------------------------------

rt::Request Cluster::isend_impl(std::uint32_t comm_id, int my_rank_in_comm,
                                rt::ConstView buf, int dst, int tag) {
  CommEntry& entry = comms_[comm_id];
  const int size = static_cast<int>(entry.world_ranks.size());
  if (dst < 0 || dst >= size) {
    throw std::out_of_range("isend: destination rank out of range");
  }
  if (tag < 0) {
    throw std::invalid_argument("isend: tag must be >= 0");
  }
  const int src_world = entry.world_ranks[my_rank_in_comm];
  const int dst_world = entry.world_ranks[dst];
  const Level level = machine_.level(src_world, dst_world);
  const model::NetParams& net = cfg_.net;
  const double scale = entry.cost_scale;
  RankState& rs = ranks_[src_world];

  ++stats_msgs_;
  stats_bytes_ += buf.len;
  level_metrics_[static_cast<int>(level)].messages->add();
  level_metrics_[static_cast<int>(level)].bytes->add(buf.len);
  if (obs::TraceBuffer* tb = tracer_for(src_world)) {
    // One instant per injected message, on the lane of the tag's stream so
    // it lines up with the collective span that sent it.
    tb->instant("send", "sim.net", rt::tags::stream_of(tag),
                {{"bytes", static_cast<std::int64_t>(buf.len)},
                 {"dst", dst_world},
                 {"level", static_cast<std::int64_t>(level)},
                 {"tag", tag}});
  }

  const std::uint32_t op_id = alloc_op();
  OpRec& op = ops_[op_id];
  op.kind = OpRec::Kind::kSend;
  op.rank_world = src_world;

  const std::uint32_t msg_id = alloc_msg();
  MsgRec& m = msgs_[msg_id];
  m.comm = comm_id;
  m.src_in_comm = my_rank_in_comm;
  m.dst_in_comm = dst;
  m.tag = tag;
  m.bytes = buf.len;
  m.src_world = src_world;
  m.dst_world = dst_world;
  m.level = level;
  m.rendezvous = model::is_rendezvous(net, buf.len) && level != Level::kSelf;

  // Sender CPU: per-message overhead plus the copy in/out of the transport
  // (network DMA rate vs shared-memory copy rate).
  rs.clock += noise() * scale * net.at(level).o_send +
              scale * model::cpu_copy_time(net, level, buf.len);

  if (m.rendezvous) {
    // Payload stays in the user buffer (valid until the send completes, per
    // MPI semantics); only the RTS control message travels now.
    m.src_view = buf;
    m.send_op = op_id;
    engine_.schedule(rs.clock + noise() * net.at(level).alpha,
                     EventKind::kRtsArrival, msg_id);
  } else {
    if (cfg_.carry_data && buf.len > 0) {
      if (buf.ptr != nullptr) {
        m.payload = std::make_unique<std::byte[]>(buf.len);
        std::memcpy(m.payload.get(), buf.ptr, buf.len);
      }
      // A virtual source in a carrying cluster delivers no bytes: the
      // receiver's buffer is left untouched.
    }
    // Cut-through: the wire streams behind the injection serialization, so
    // only the rate difference (if the wire is slower) adds to the time at
    // which the last byte reaches the destination NIC.
    double depart = rs.clock;
    double chan_rate = 0.0;
    if (level == Level::kNetwork) {
      double& r = nic_in_[machine_.node_of(src_world)];
      const double service = model::nic_inject_time(net, buf.len);
      depart = std::max(depart, r) + service;
      r = depart;
      chan_rate = buf.len > 0 ? service / static_cast<double>(buf.len) : 0.0;
    } else if (level != Level::kSelf) {
      double& c = mem_chan_[machine_.numa_of(src_world)];
      const double service = model::mem_channel_time(net, buf.len);
      depart = std::max(depart, c) + service;
      c = depart;
      chan_rate = buf.len > 0 ? service / static_cast<double>(buf.len) : 0.0;
    }
    // Eager sends complete once the payload has left the rank.
    op.complete = true;
    op.completion_time = depart;
    const double wire_tail =
        static_cast<double>(buf.len) *
        std::max(0.0, net.at(level).beta - chan_rate);
    engine_.schedule(depart + noise() * net.at(level).alpha + wire_tail,
                     EventKind::kMsgArrival, msg_id);
  }
  return rt::Request{op_id, ops_[op_id].serial};
}

rt::Request Cluster::irecv_impl(std::uint32_t comm_id, int my_rank_in_comm,
                                rt::MutView buf, int src, int tag) {
  CommEntry& entry = comms_[comm_id];
  const int size = static_cast<int>(entry.world_ranks.size());
  if (src != rt::kAnySource && (src < 0 || src >= size)) {
    throw std::out_of_range("irecv: source rank out of range");
  }
  if (tag != rt::kAnyTag && tag < 0) {
    throw std::invalid_argument("irecv: tag must be >= 0 or kAnyTag");
  }
  const int me_world = entry.world_ranks[my_rank_in_comm];
  const model::NetParams& net = cfg_.net;
  const double scale = entry.cost_scale;
  RankState& rs = ranks_[me_world];

  // Posting cost (queue insertion / descriptor setup).
  rs.clock += scale * net.match_base;

  const std::uint32_t op_id = alloc_op();
  OpRec& op = ops_[op_id];
  op.kind = OpRec::Kind::kRecv;
  op.rank_world = me_world;
  op.buf = buf;
  op.match_src = src;
  op.tag = tag;
  op.comm = comm_id;
  op.post_time = rs.clock;

  const std::uint32_t scanned =
      endpoint(comm_id, my_rank_in_comm).unexpected_total;
  const std::uint32_t msg_id =
      match_unexpected(comm_id, my_rank_in_comm, src, tag);
  if (msg_id != kNil) {
    MsgRec& m = msgs_[msg_id];
    if (m.rendezvous) {
      // Matched a waiting RTS: return the CTS and start the transfer.
      m.matched_recv = op_id;
      const double cts_at_sender =
          std::max(rs.clock, m.deliver_time) +
          scale * model::match_time(net, scanned) +
          noise() * net.at(m.level).alpha;
      start_rendezvous_transfer(msg_id, cts_at_sender);
    } else {
      complete_recv(op_id, msg_id, model::match_time(net, scanned));
    }
  } else {
    Endpoint& ep = endpoint(comm_id, my_rank_in_comm);
    op.in_posted = true;
    op.post_seq = ep.next_post_seq++;
    push_fifo(posted_.find_or_insert(comm_id, my_rank_in_comm, src), op_id,
              /*is_msg=*/false);
    ++ep.posted_total;
    if (src == rt::kAnySource) {
      ++ep.posted_any;
    }
  }
  return rt::Request{op_id, ops_[op_id].serial};
}

// --------------------------------------------------------------------------
// Completion
// --------------------------------------------------------------------------

void Cluster::complete_recv(std::uint32_t op_id, std::uint32_t msg_id,
                            double match_cost) {
  OpRec& op = ops_[op_id];
  MsgRec& m = msgs_[msg_id];
  if (op.buf.len < m.bytes) {
    throw std::runtime_error(
        "message truncation: receive buffer smaller than incoming message");
  }
  const model::NetParams& net = cfg_.net;
  const double scale = comms_[m.comm].cost_scale;

  if (cfg_.carry_data && m.bytes > 0 && op.buf.ptr != nullptr) {
    if (m.payload != nullptr) {
      std::memcpy(op.buf.ptr, m.payload.get(), m.bytes);
    } else if (m.src_view.ptr != nullptr) {
      std::memcpy(op.buf.ptr, m.src_view.ptr, m.bytes);
    }
  }

  // Receive-side CPU costs serialize on the receiver's core: processing
  // cannot start before the payload is here, the receive is posted, and the
  // core has finished the previous message (and any foreground work).
  RankState& rr = ranks_[op.rank_world];
  const double start = std::max(std::max(m.deliver_time, op.post_time),
                                std::max(rr.cpu_free, rr.clock));
  const double t = start + scale * match_cost +
                   noise() * scale * net.at(m.level).o_recv +
                   scale * model::cpu_copy_time(net, m.level, m.bytes);
  rr.cpu_free = t;
  release_msg(msg_id);
  complete_op(op_id, t);
}

void Cluster::complete_op(std::uint32_t op_id, double t) {
  OpRec& op = ops_[op_id];
  op.complete = true;
  op.completion_time = t;
  if (op.waiter == kNil) {
    return;
  }
  const std::uint32_t wid = op.waiter;
  Waiter& w = waiters_[wid];
  w.resume_time = std::max(w.resume_time, t);
  release_op(op_id);
  if (--w.remaining == 0) {
    RankState& rs = ranks_[w.rank_world];
    rs.clock = std::max(rs.clock, w.resume_time);
    std::coroutine_handle<> h = w.handle;
    release_waiter(wid);
    h.resume();  // may reentrantly schedule events / complete further ops
  }
}

bool Cluster::wait_try_impl(int world_rank,
                            std::span<const rt::Request> reqs) {
  for (const rt::Request& r : reqs) {
    if (!r.valid()) {
      continue;
    }
    if (!op_checked(r).complete) {
      return false;
    }
  }
  RankState& rs = ranks_[world_rank];
  for (const rt::Request& r : reqs) {
    if (!r.valid()) {
      continue;
    }
    OpRec& op = op_checked(r);
    rs.clock = std::max(rs.clock, op.completion_time);
    release_op(r.slot);
  }
  return true;
}

void Cluster::wait_suspend_impl(int world_rank,
                                std::span<const rt::Request> reqs,
                                std::coroutine_handle<> h) {
  const std::uint32_t wid = alloc_waiter();
  Waiter& w = waiters_[wid];
  w.handle = h;
  w.rank_world = world_rank;
  w.resume_time = ranks_[world_rank].clock;
  int remaining = 0;
  for (const rt::Request& r : reqs) {
    if (!r.valid()) {
      continue;
    }
    OpRec& op = op_checked(r);
    if (op.complete) {
      w.resume_time = std::max(w.resume_time, op.completion_time);
      release_op(r.slot);
    } else {
      op.waiter = wid;
      ++remaining;
    }
  }
  if (remaining == 0) {
    // wait_try (await_ready) runs immediately before wait_suspend with no
    // events in between, so this cannot happen in a single-threaded sim.
    throw std::logic_error(
        "wait_suspend: all requests completed between poll and suspend");
  }
  w.remaining = remaining;
}

// --------------------------------------------------------------------------
// Events
// --------------------------------------------------------------------------

void Cluster::handle(const Event& e) {
  switch (e.kind) {
    case EventKind::kMsgArrival:
      on_eager_arrival(e.msg);
      break;
    case EventKind::kRtsArrival:
      on_rts_arrival(e.msg);
      break;
    case EventKind::kDataArrival:
      on_data_arrival(e.msg);
      break;
  }
}

void Cluster::on_eager_arrival(std::uint32_t msg_id) {
  MsgRec& m = msgs_[msg_id];
  // Ejection is pipelined behind the wire: an idle NIC delivers at arrival
  // time; a contended one spaces deliveries by its service time.
  double deliver = engine_.now();
  if (m.level == Level::kNetwork) {
    double& r = nic_out_[machine_.node_of(m.dst_world)];
    deliver = std::max(deliver, r + model::nic_eject_time(cfg_.net, m.bytes));
    r = deliver;
  }
  m.deliver_time = deliver;

  Endpoint& ep = endpoint(m.comm, m.dst_in_comm);
  const std::uint32_t scanned = ep.posted_total;
  const std::uint32_t op_id =
      match_posted(m.comm, m.dst_in_comm, m.src_in_comm, m.tag);
  if (op_id != kNil) {
    complete_recv(op_id, msg_id, model::match_time(cfg_.net, scanned));
  } else {
    queue_unexpected(ep, msg_id);
  }
}

void Cluster::on_rts_arrival(std::uint32_t msg_id) {
  MsgRec& m = msgs_[msg_id];
  m.deliver_time = engine_.now();
  Endpoint& ep = endpoint(m.comm, m.dst_in_comm);
  const double scale = comms_[m.comm].cost_scale;
  const std::uint32_t scanned = ep.posted_total;
  const std::uint32_t op_id =
      match_posted(m.comm, m.dst_in_comm, m.src_in_comm, m.tag);
  if (op_id != kNil) {
    m.matched_recv = op_id;
    // The CTS leaves no earlier than both the RTS arrival and the logical
    // time the receiver posted the matching receive.
    const double cts_at_sender =
        std::max(engine_.now(), ops_[op_id].post_time) +
        scale * model::match_time(cfg_.net, scanned) +
        noise() * cfg_.net.at(m.level).alpha;
    start_rendezvous_transfer(msg_id, cts_at_sender);
  } else {
    queue_unexpected(ep, msg_id);
  }
}

void Cluster::queue_unexpected(Endpoint& ep, std::uint32_t msg_id) {
  MsgRec& m = msgs_[msg_id];
  m.arrival_seq = ep.next_arrival_seq++;
  push_fifo(unexpected_.find_or_insert(m.comm, m.dst_in_comm, m.src_in_comm),
            msg_id, /*is_msg=*/true);
  ++ep.unexpected_total;
}

void Cluster::start_rendezvous_transfer(std::uint32_t msg_id, double t_ready) {
  MsgRec& m = msgs_[msg_id];
  const model::NetParams& net = cfg_.net;
  double depart = t_ready;
  double chan_rate = 0.0;
  if (m.level == Level::kNetwork) {
    double& r = nic_in_[machine_.node_of(m.src_world)];
    const double service = model::nic_inject_time(net, m.bytes);
    depart = std::max(depart, r) + service;
    r = depart;
    chan_rate = m.bytes > 0 ? service / static_cast<double>(m.bytes) : 0.0;
  } else if (m.level != Level::kSelf) {
    double& c = mem_chan_[machine_.numa_of(m.src_world)];
    const double service = model::mem_channel_time(net, m.bytes);
    depart = std::max(depart, c) + service;
    c = depart;
    chan_rate = m.bytes > 0 ? service / static_cast<double>(m.bytes) : 0.0;
  }
  if (m.send_op != kNil) {
    // Completing the send releases the user buffer (MPI semantics), but the
    // simulated bytes only land at the data-arrival event — and completing
    // the op can reentrantly resume the sender's coroutine, which may free
    // the buffer src_view points into. Stage the payload first.
    if (cfg_.carry_data && m.bytes > 0 && m.src_view.ptr != nullptr &&
        m.payload == nullptr) {
      m.payload = std::make_unique<std::byte[]>(m.bytes);
      std::memcpy(m.payload.get(), m.src_view.ptr, m.bytes);
      m.src_view = rt::ConstView{};
    }
    complete_op(m.send_op, depart);
    m.send_op = kNil;
  }
  const double wire_tail = static_cast<double>(m.bytes) *
                           std::max(0.0, net.at(m.level).beta - chan_rate);
  engine_.schedule(depart + noise() * net.at(m.level).alpha + wire_tail,
                   EventKind::kDataArrival, msg_id);
}

void Cluster::on_data_arrival(std::uint32_t msg_id) {
  MsgRec& m = msgs_[msg_id];
  double deliver = engine_.now();
  if (m.level == Level::kNetwork) {
    double& r = nic_out_[machine_.node_of(m.dst_world)];
    deliver = std::max(deliver, r + model::nic_eject_time(cfg_.net, m.bytes));
    r = deliver;
  }
  m.deliver_time = deliver;
  assert(m.matched_recv != kNil);
  // Matching cost was charged when the RTS met the receive.
  complete_recv(m.matched_recv, msg_id, /*match_cost=*/0.0);
}

// --------------------------------------------------------------------------
// Sub-communicators, misc
// --------------------------------------------------------------------------

std::uint32_t Cluster::subcomm_impl(std::uint32_t parent_id,
                                    int my_rank_in_parent,
                                    std::span<const int> members,
                                    int* my_new_rank) {
  const CommEntry& parent = comms_[parent_id];
  const int parent_size = static_cast<int>(parent.world_ranks.size());
  if (members.empty()) {
    throw std::invalid_argument("create_subcomm: empty member list");
  }
  // One pass checks the caller's view of the list and hashes its world
  // ranks; the full duplicate check runs once, when the list is new.
  std::uint64_t hash = members.size();
  int my_idx = -1;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const int m = members[i];
    if (m < 0 || m >= parent_size) {
      throw std::out_of_range("create_subcomm: member rank out of range");
    }
    if (m == my_rank_in_parent) {
      if (my_idx != -1) {
        throw std::invalid_argument("create_subcomm: duplicate member");
      }
      my_idx = static_cast<int>(i);
    }
    hash = (hash ^ static_cast<std::uint32_t>(parent.world_ranks[m])) *
           0x9E3779B97F4A7C15ull;
    hash ^= hash >> 29;
  }
  if (my_idx == -1) {
    throw std::invalid_argument(
        "create_subcomm: calling rank not in member list");
  }

  auto same_list = [&](const std::vector<int>& world) {
    if (world.size() != members.size()) {
      return false;
    }
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (world[i] != parent.world_ranks[members[i]]) {
        return false;
      }
    }
    return true;
  };
  std::uint32_t list_id = UINT32_MAX;
  for (auto [it, end] = lists_by_hash_.equal_range(hash); it != end; ++it) {
    if (same_list(member_lists_[it->second].world)) {
      list_id = it->second;
      break;
    }
  }
  if (list_id == UINT32_MAX) {
    MemberList list;
    list.world.reserve(members.size());
    for (const int m : members) {
      list.world.push_back(parent.world_ranks[m]);
    }
    std::vector<int> sorted = list.world;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      throw std::invalid_argument("create_subcomm: duplicate member");
    }
    list.uses.assign(members.size(), 0);
    list_id = static_cast<std::uint32_t>(member_lists_.size());
    member_lists_.push_back(std::move(list));
    lists_by_hash_.emplace(hash, list_id);
  }

  MemberList& list = member_lists_[list_id];
  const std::uint32_t occurrence = list.uses[my_idx]++;
  if (occurrence == list.comm_ids.size()) {
    CommEntry entry;
    entry.world_ranks = list.world;
    entry.endpoints.resize(list.world.size());
    entry.cost_scale = parent.cost_scale;
    list.comm_ids.push_back(static_cast<std::uint32_t>(comms_.size()));
    comms_.push_back(std::move(entry));
  }
  *my_new_rank = my_idx;
  return list.comm_ids[occurrence];
}

void Cluster::charge_copies_impl(int world_rank, std::size_t count,
                                 std::size_t bytes) {
  double& clock = ranks_[world_rank].clock;
  clock = repeated_add(clock, model::pack_time(cfg_.net, bytes), count);
}

void Cluster::set_cost_scale_impl(std::uint32_t comm_id, double scale) {
  if (scale <= 0.0) {
    throw std::invalid_argument("cost scale must be > 0");
  }
  comms_[comm_id].cost_scale = scale;
}

// --------------------------------------------------------------------------
// Run loop
// --------------------------------------------------------------------------

double Cluster::run(const std::function<rt::Task<void>(rt::Comm&)>& rank_main) {
  const int n = machine_.total_ranks();
  std::vector<rt::Task<void>> tasks;
  tasks.reserve(n);
  live_ = n;
  for (int r = 0; r < n; ++r) {
    tasks.push_back(rank_main(*world_comms_[r]));
  }
  for (int r = 0; r < n; ++r) {
    tasks[r].start(&live_);
  }
  engine_.drain([this](const Event& e) { handle(e); });

  std::exception_ptr first_error;
  for (auto& t : tasks) {
    if (t.done()) {
      try {
        t.result();
      } catch (...) {
        if (!first_error) {
          first_error = std::current_exception();
        }
      }
    }
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
  if (live_ > 0) {
    throw SimDeadlockError(
        "simulation deadlock: " + std::to_string(live_) + " of " +
            std::to_string(n) + " ranks still waiting with no events pending",
        live_);
  }
  return max_clock();
}

}  // namespace mca2a::sim
