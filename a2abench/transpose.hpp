#pragma once
/// \file transpose.hpp
/// The rank program shared by smp_transpose and net_transpose: the
/// FFT-transpose loop of examples/fft_transpose.cpp as a closed loop of
/// planned alltoalls on topo::generic(2, 2) with model::test_params(), the
/// algorithm left to the tuner, at kSmallBlock and kLargeBlock per pair.
///
/// Results go to a LoopResults block that the ranks share: plain memory for
/// smp threads, a MAP_SHARED mapping for forked net ranks. Each rank writes
/// only its own row.

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "common.hpp"
#include "plan/plan.hpp"
#include "runtime/buffer.hpp"
#include "runtime/comm.hpp"
#include "runtime/task.hpp"
#include "topo/machine.hpp"

namespace a2abench {

inline constexpr int kSizes = 2;  ///< [0] small, [1] large
inline constexpr std::size_t kBlocks[kSizes] = {kSmallBlock, kLargeBlock};

/// Everything the ranks of one timed loop write. POD, so it can live in
/// shared memory.
struct LoopResults {
  /// Exchanges per size a loop can record. Past it the loop ends early;
  /// the bound keeps resident memory independent of the host's speed.
  static constexpr std::size_t kCap = std::size_t{1} << 18;

  struct Row {
    float elapsed[kSizes][kCap];  ///< seconds, this rank's own clock
    float cpu[kSizes][kCap];      ///< CPU seconds of barrier + exchange
    std::uint64_t count;          ///< exchanges recorded per size
  };
  Row rows[kTransposeRanks];

  /// Write every page, so resident memory does not depend on how many
  /// exchanges a run manages.
  void touch_row(int rank);
};

/// Per-exchange maximum over ranks for size `s`, one sample per exchange.
std::vector<double> per_exchange_max(const LoopResults& res, int s);

/// A report line with the quartiles of both sizes' exchange times, so the
/// spread around each p50 shows beside it.
std::string quartile_note(const std::vector<double>& small,
                          const std::vector<double>& large);

/// CPU seconds of one timed exchange with its barrier, summed over ranks:
/// the median over exchanges of each size, averaged over the two sizes.
/// Medians, because a rank preempted by another process makes its peers
/// poll for a whole time slice.
double cpu_per_exchange(const LoopResults& res);

/// The registry counters whose deltas over a loop are reported.
inline constexpr const char* kLoopCounters[] = {
    "smp.mailbox.ring_sends", "smp.mailbox.overflow_sends",
    "smp.mailbox.sleeps",     "smp.mailbox.wakeups",
    "net.frames_tx",          "net.eager_tx",
    "net.rndv_tx"};
inline constexpr std::size_t kNumLoopCounters = std::size(kLoopCounters);
using LoopCounters = std::array<std::uint64_t, kNumLoopCounters>;
/// Current values of kLoopCounters in this process's registry.
LoopCounters read_loop_counters();

/// The transposes' fixed shape.
mca2a::topo::Machine transpose_machine();

/// Plans and buffers of one rank, for both sizes.
struct RankState {
  std::vector<mca2a::plan::CollectivePlan> plans;  ///< [small, large]
  std::vector<mca2a::rt::Buffer> send;
  std::vector<mca2a::rt::Buffer> recv;
};

/// Build both plans (tuner's pick) and buffers; the make_plan calls are
/// spanned. `plan_s` receives each plan's build seconds.
RankState make_rank_state(mca2a::rt::Comm& world, SpanLog* log,
                          double plan_s[kSizes]);

struct LoopArgs {
  mca2a::rt::Comm* world = nullptr;
  RankState* state = nullptr;
  LoopResults* results = nullptr;  ///< null: warm-up, no times recorded
  Tally* tally = nullptr;          ///< this rank's verified blocks
  std::uint64_t seed = 1;
  std::uint64_t rep_base = 0;  ///< first stamp index (distinct per loop)
  double seconds = 1.0;        ///< rank 0 ends the loop after this long
  /// Non-null (with `log`): every other round is traced and recorded here.
  LoopResults* traced = nullptr;
  SpanLog* log = nullptr;
};

/// The closed loop: each iteration stamps, barriers and times a small then
/// a large exchange, then verifies every received block. Rank 0 decides,
/// every round of iterations, whether to go on, and broadcasts the
/// decision.
mca2a::rt::Task<void> timed_loop(LoopArgs a);

/// One-way rt::Comm pingpong between ranks 0 and 1 (the others wait at the
/// closing barrier). Rank 0 appends one-way times to `oneway` unless null.
mca2a::rt::Task<void> pingpong(mca2a::rt::Comm& world, std::size_t bytes,
                               int iters, SpanLog* log,
                               std::vector<double>* oneway);

}  // namespace a2abench
