#pragma once
/// \file cluster.hpp
/// The simulated cluster: rank coroutines, message matching, shared-resource
/// accounting and the virtual clock, all driven by the discrete-event engine.
///
/// One Cluster models one machine (topo::Machine) with one parameter set
/// (model::NetParams). Cluster::run launches one coroutine per world rank;
/// ranks communicate through sim::SimComm endpoints. Payload bytes are moved
/// only when `carry_data` is enabled (tests); virtual-buffer runs produce
/// bit-identical virtual times, which is itself verified by tests.

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "model/cost.hpp"
#include "model/params.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/comm.hpp"
#include "runtime/task.hpp"
#include "sim/engine.hpp"
#include "topo/machine.hpp"

namespace mca2a::sim {

class SimComm;

/// Thrown when the event queue drains while rank coroutines are still
/// suspended (a communication deadlock in the algorithm under test).
class SimDeadlockError : public std::runtime_error {
 public:
  SimDeadlockError(std::string what, int stuck_ranks)
      : std::runtime_error(std::move(what)), stuck_ranks_(stuck_ranks) {}
  int stuck_ranks() const noexcept { return stuck_ranks_; }

 private:
  int stuck_ranks_;
};

struct ClusterConfig {
  topo::MachineDesc machine;
  model::NetParams net;
  /// Move real payload bytes (tests); false = virtual buffers at scale.
  bool carry_data = true;
  /// Seed for the log-normal noise stream (used when net.noise_sigma > 0).
  std::uint64_t noise_seed = 1;
};

/// `count` sequential additions `x += t`, bit-identical to the loop but in
/// O(binades crossed) steps: while x stays in one binade, each add moves it
/// by the same exact amount, so runs of adds collapse into one product. A
/// rounding tie at the binade's ulp, a binade crossing, a non-normal clock
/// and a non-positive or non-finite `t` take single adds.
double repeated_add(double x, double t, std::uint64_t count) noexcept;

/// Open-addressing hash table from a matching key (communicator id, rank in
/// that communicator, source rank or kAnySource) to the head/tail/count of an
/// intrusive FIFO threaded through the Cluster's op or message pool.
///
/// The simulator's matching hot path: every message costs a few lookups, so
/// the table is one flat power-of-two slot array with linear probing, and a
/// slot is erased (backward-shift deletion, no tombstones) as soon as its
/// FIFO empties. It therefore holds only live queues, and a run that drains
/// ends with an empty table. Linking ids into a FIFO is the caller's job;
/// the table only owns the slots. References returned by find/insert stay
/// valid until the next insert or erase.
class MatchQueueTable {
 public:
  struct Fifo {
    std::uint32_t head = UINT32_MAX;
    std::uint32_t tail = UINT32_MAX;
    std::uint32_t count = 0;  ///< zero marks an empty slot
  };

  /// Slots allocated on the first insert; the table doubles when it would
  /// pass half full.
  static constexpr std::size_t kInitialSlots = 64;

  /// The FIFO stored under the key, or nullptr when the queue is empty.
  Fifo* find(std::uint32_t comm, int rank, int src) noexcept;
  /// The FIFO under the key, inserting an empty one if absent. The caller
  /// must push onto it before the next table operation.
  Fifo& find_or_insert(std::uint32_t comm, int rank, int src);
  /// Remove the slot holding `f`, which must have emptied (count == 0).
  void erase(Fifo& f) noexcept;

  std::size_t size() const noexcept { return live_; }
  std::size_t slots() const noexcept { return slots_.size(); }

 private:
  struct Slot {
    Fifo fifo;  // first member: erase() maps a Fifo& back to its slot
    std::uint32_t comm = 0;
    int rank = 0;
    int src = 0;
  };

  static std::size_t hash(std::uint32_t comm, int rank, int src) noexcept;
  void grow();

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t live_ = 0;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig cfg);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  const topo::Machine& machine() const noexcept { return machine_; }
  const model::NetParams& net() const noexcept { return cfg_.net; }
  bool carry_data() const noexcept { return cfg_.carry_data; }

  /// World communicator endpoint of `world_rank` (valid for the cluster's
  /// lifetime).
  rt::Comm& world(int world_rank);

  /// Launch `rank_main(world(r))` for every rank r and drive the simulation
  /// until all complete. Returns the maximum rank clock. Rethrows the first
  /// rank exception; throws SimDeadlockError if ranks are stuck. May be
  /// called repeatedly; virtual time keeps advancing.
  double run(const std::function<rt::Task<void>(rt::Comm&)>& rank_main);

  /// Virtual time at which rank `world_rank` last made progress.
  double rank_clock(int world_rank) const;
  /// Maximum rank clock (the usual "collective finished at" time).
  double max_clock() const;
  /// Engine time (last processed event).
  double engine_now() const noexcept { return engine_.now(); }

  /// Total messages injected so far (statistics for tests/benches).
  std::uint64_t messages_sent() const noexcept { return stats_msgs_; }
  /// Total payload bytes injected so far.
  std::uint64_t bytes_sent() const noexcept { return stats_bytes_; }

  /// The matching tables: live posted-receive and unexpected-message
  /// queues. Both are empty whenever no operation is in flight.
  const MatchQueueTable& posted_queues() const noexcept { return posted_; }
  const MatchQueueTable& unexpected_queues() const noexcept {
    return unexpected_;
  }

  /// Flight-recorder stream of `world_rank`, nullptr when tracing is off.
  obs::TraceBuffer* tracer_for(int world_rank) const noexcept {
    return tracers_.empty() ? nullptr
                            : tracers_[static_cast<std::size_t>(world_rank)];
  }

 private:
  friend class SimComm;

  static constexpr std::uint32_t kNil = UINT32_MAX;

  struct OpRec {
    enum class Kind : std::uint8_t { kSend, kRecv };
    Kind kind = Kind::kSend;
    bool complete = false;
    bool in_posted = false;
    std::uint32_t serial = 1;
    int rank_world = -1;
    double completion_time = 0.0;
    std::uint32_t waiter = kNil;
    // Receive-side matching state.
    rt::MutView buf{};
    int match_src = 0;  // rank in comm or rt::kAnySource
    int tag = 0;
    std::uint32_t comm = 0;
    double post_time = 0.0;
    std::uint64_t post_seq = 0;
    std::uint32_t next = kNil;  // intrusive FIFO link
  };

  struct MsgRec {
    std::uint32_t comm = 0;
    int src_in_comm = -1;
    int dst_in_comm = -1;
    int tag = 0;
    std::uint64_t bytes = 0;
    int src_world = -1;
    int dst_world = -1;
    topo::Level level = topo::Level::kSelf;
    bool rendezvous = false;
    std::uint32_t send_op = kNil;
    std::uint32_t matched_recv = kNil;
    double deliver_time = 0.0;
    std::unique_ptr<std::byte[]> payload;  // eager + carry_data
    rt::ConstView src_view{};              // rendezvous source buffer
    std::uint64_t arrival_seq = 0;
    std::uint32_t next = kNil;  // unexpected FIFO link
  };

  struct Waiter {
    std::coroutine_handle<> handle{};
    int remaining = 0;
    double resume_time = 0.0;
    int rank_world = -1;
    std::uint32_t next_free = kNil;
  };

  using Fifo = MatchQueueTable::Fifo;

  /// Per-(communicator, rank) matching counters; the queues themselves live
  /// in the cluster-wide posted_ / unexpected_ tables.
  struct Endpoint {
    std::uint32_t posted_total = 0;
    std::uint32_t unexpected_total = 0;
    /// Posted receives with source kAnySource: while zero, matching an
    /// arrival skips the wildcard-queue probe.
    std::uint32_t posted_any = 0;
    std::uint64_t next_post_seq = 0;
    std::uint64_t next_arrival_seq = 0;
  };

  struct CommEntry {
    std::vector<int> world_ranks;    // index: rank in comm -> world rank
    std::vector<Endpoint> endpoints; // index: rank in comm
    double cost_scale = 1.0;         // vendor-tuning CPU multiplier
  };

  struct RankState {
    double clock = 0.0;
    /// Time until which this rank's core is busy processing *incoming*
    /// messages; serializes receive-side per-message CPU costs so that a
    /// funnel rank (e.g. a gather root) pays for every byte it touches.
    double cpu_free = 0.0;
  };

  /// One distinct sub-communicator member list (world ranks, in new-rank
  /// order). A member's k-th creation with the list joins the k-th
  /// communicator made for it: a fresh context per creation, like MPI, with
  /// no handshake.
  struct MemberList {
    std::vector<int> world;
    /// Creation index -> communicator id.
    std::vector<std::uint32_t> comm_ids;
    /// Rank in the list -> how many times that member has created it.
    std::vector<std::uint32_t> uses;
  };

  // --- SimComm entry points -------------------------------------------------
  rt::Request isend_impl(std::uint32_t comm_id, int my_rank_in_comm,
                         rt::ConstView buf, int dst, int tag);
  rt::Request irecv_impl(std::uint32_t comm_id, int my_rank_in_comm,
                         rt::MutView buf, int src, int tag);
  bool wait_try_impl(int world_rank, std::span<const rt::Request> reqs);
  void wait_suspend_impl(int world_rank, std::span<const rt::Request> reqs,
                         std::coroutine_handle<> h);
  std::uint32_t subcomm_impl(std::uint32_t parent_id, int my_rank_in_parent,
                             std::span<const int> members, int* my_new_rank);
  void charge_copies_impl(int world_rank, std::size_t count,
                          std::size_t bytes);
  void set_cost_scale_impl(std::uint32_t comm_id, double scale);

  // --- event handling -------------------------------------------------------
  void handle(const Event& e);
  void on_eager_arrival(std::uint32_t msg_id);
  void on_rts_arrival(std::uint32_t msg_id);
  void on_data_arrival(std::uint32_t msg_id);
  void start_rendezvous_transfer(std::uint32_t msg_id, double t_ready);
  void complete_recv(std::uint32_t op_id, std::uint32_t msg_id,
                     double match_cost);
  void complete_op(std::uint32_t op_id, double t);

  // --- matching helpers -----------------------------------------------------
  Endpoint& endpoint(std::uint32_t comm_id, int rank_in_comm);
  /// Find and unlink the earliest-posted recv at (comm_id, rank) matching a
  /// message from `src` with `tag`; returns kNil if none.
  std::uint32_t match_posted(std::uint32_t comm_id, int rank, int src,
                             int tag);
  /// Find and unlink the earliest-arrived unexpected message at
  /// (comm_id, rank) matching a receive for (src or kAnySource, tag).
  std::uint32_t match_unexpected(std::uint32_t comm_id, int rank, int src,
                                 int tag);
  void push_fifo(Fifo& f, std::uint32_t id, bool is_msg);
  /// Append an arrival no posted receive matched to its unexpected queue.
  void queue_unexpected(Endpoint& ep, std::uint32_t msg_id);

  // --- pools ----------------------------------------------------------------
  std::uint32_t alloc_op();
  void release_op(std::uint32_t id);
  std::uint32_t alloc_msg();
  void release_msg(std::uint32_t id);
  std::uint32_t alloc_waiter();
  void release_waiter(std::uint32_t id);
  OpRec& op_checked(const rt::Request& r);

  double noise();

  ClusterConfig cfg_;
  topo::Machine machine_;
  Engine engine_;

  std::vector<RankState> ranks_;
  std::vector<double> nic_in_;    // per node
  std::vector<double> nic_out_;   // per node
  std::vector<double> mem_chan_;  // per global NUMA domain

  std::vector<CommEntry> comms_;
  /// Live matching queues of every endpoint, keyed (comm, rank, source).
  MatchQueueTable posted_;
  MatchQueueTable unexpected_;
  /// Every member list a sub-communicator was created with, found through
  /// a hash of its world ranks (equal hashes are told apart by the list).
  std::vector<MemberList> member_lists_;
  std::unordered_multimap<std::uint64_t, std::uint32_t> lists_by_hash_;

  std::vector<OpRec> ops_;
  std::uint32_t free_op_ = kNil;
  std::vector<MsgRec> msgs_;
  std::uint32_t free_msg_ = kNil;
  std::vector<Waiter> waiters_;
  std::uint32_t free_waiter_ = kNil;

  std::vector<std::unique_ptr<SimComm>> world_comms_;
  int live_ = 0;

  std::mt19937_64 rng_;
  std::normal_distribution<double> normal_{0.0, 1.0};

  std::uint64_t stats_msgs_ = 0;
  std::uint64_t stats_bytes_ = 0;

  /// Tracing session over the active recorder; empty tracers_ == disabled.
  /// The recorder outlives the cluster (env singleton, or a test-owned
  /// recorder installed around the cluster's lifetime).
  obs::TraceRecorder* trace_rec_ = nullptr;
  int trace_session_ = -1;
  std::vector<obs::TraceBuffer*> tracers_;
  /// Always-on wire accounting mirrored into the metrics registry, cached
  /// per topology level so the per-send hot path is two relaxed adds.
  struct LevelMetrics {
    obs::Counter* messages = nullptr;
    obs::Counter* bytes = nullptr;
  };
  std::array<LevelMetrics, topo::kNumLevels> level_metrics_{};
};

}  // namespace mca2a::sim
