#pragma once
/// \file common.hpp
/// Shared pieces of the a2abench workloads: statistics helpers, the metric
/// report, payload stamping and checking, CPU placement, environment
/// hygiene and the benchmark-side span recorder.
///
/// Nothing here reaches into the library's internals; the workloads drive
/// only the public APIs (sim::Cluster, smp::SmpRuntime, net::NetComm,
/// plan::make_plan / execute, rt::Comm).

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace a2abench {

// --- statistics --------------------------------------------------------------

/// Arithmetic mean; 0.0 on an empty vector.
double mean(const std::vector<double>& v);

/// Median: the middle sample, or the mean of the two middle samples for an
/// even count. 0.0 on an empty vector.
double median(std::vector<double> v);

/// First, second and third quartile by the "exclusive" method of Python's
/// statistics.quantiles(v, n=4), the rule the benchmark's spread is judged
/// by. One sample gives that sample three times; empty gives zeros.
std::array<double, 3> quartiles(std::vector<double> v);

/// Nearest-rank percentile: the ⌈q·n⌉-th smallest sample (q == 0 reads as
/// the minimum), the same definition as bench::RunResult::percentile_of, so
/// the result is always an observed sample. 0.0 on an empty vector.
double percentile(std::vector<double> v, double q);

// --- clocks and resources ----------------------------------------------------

using Clock = std::chrono::steady_clock;
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
/// CPU seconds (user + system) used by the calling thread.
double thread_cpu_seconds();
/// CPU seconds (user + system) used by this process, all threads.
double process_cpu_seconds();
/// Peak resident set of this process, in MiB.
double peak_rss_mib();

// --- spans -------------------------------------------------------------------

/// Benchmark-side spans: one name per call site into a layer. Fixed ids keep
/// the recorder allocation-free and let forked ranks sum their totals in
/// shared memory.
enum class SpanId : int {
  kSetup,          ///< one cold set-up (root)
  /// The backend's start: sim::Cluster construction, smp::SmpRuntime
  /// construction or net::NetComm::connect_world.
  kStart,
  kClusterRun,     ///< sim::Cluster::run of the plan-building pass
  kMakePlan,       ///< plan::make_plan
  kExchangeLoop,   ///< traced timed loop (root)
  kBarrier,        ///< rt::barrier before a timed exchange
  /// CollectivePlan::execute; on sim, the Cluster::run of one simulated
  /// exchange (its barrier included).
  kExecute,
  kPingpong,       ///< p2p pingpong loop (root)
  kIsend,          ///< rt::Comm::isend
  kIrecv,          ///< rt::Comm::irecv
  kWaitTry,        ///< rt::Comm::wait_try
  kCount_,
};
inline constexpr int kNumSpans = static_cast<int>(SpanId::kCount_);
const char* span_name(SpanId id);

/// Self time per span id: its duration minus the time its direct children
/// cover, summed over calls.
struct SpanTotals {
  std::array<double, kNumSpans> self_s{};
  std::array<std::uint64_t, kNumSpans> calls{};
  void merge(const SpanTotals& o);
};

/// One thread's span recorder. Nesting follows begin/end order. Totals are
/// kept for every span; the first `keep` spans are also kept verbatim for
/// the trace file written at the end of the run.
class SpanLog {
 public:
  explicit SpanLog(std::size_t keep = 20000);
  void begin(SpanId id);
  void end();
  const SpanTotals& totals() const noexcept { return totals_; }
  /// Append the kept spans as Chrome-trace "X" events (no brackets).
  void append_json(std::string& out, int pid, int tid, bool& first) const;

 private:
  struct Open {
    SpanId id;
    Clock::time_point start;
    double child_s;
  };
  struct Kept {
    SpanId id;
    double start_us;
    double dur_us;
  };
  Clock::time_point epoch_;
  std::vector<Open> stack_;
  std::vector<Kept> kept_;
  std::size_t keep_;
  SpanTotals totals_;
};

/// RAII span; does nothing when `log` is null (the untraced path).
class Span {
 public:
  Span(SpanLog* log, SpanId id) : log_(log) {
    if (log_ != nullptr) {
      log_->begin(id);
    }
  }
  ~Span() {
    if (log_ != nullptr) {
      log_->end();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
};

/// Write `json_events` (from SpanLog::append_json) as a Chrome-trace file.
/// Returns false when the file could not be written, which callers note;
/// it is never a benchmark failure.
bool write_trace_file(const std::string& path, const std::string& json_events);

// --- report ------------------------------------------------------------------

/// Operations checked and how many of them were wrong. Every received block
/// (smp, net) and every simulated exchange (sim) is one operation; a wrong
/// block, a repetition that disagrees with the first one, a cross-check
/// mismatch or an exception counts as one failure.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void check(bool ok) {
    ++attempted;
    failed += ok ? 0 : 1;
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool in_result = true;  ///< false: a report row only, not in the JSON
};

/// Everything one run reports: metrics in insertion order, notes printed
/// beside them and the operation tally.
struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  Tally tally;

  /// A metric of the result line. Only add_end_to_end and add_per_layer
  /// call this, so every workload's result holds the same names.
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit, true});
  }
  /// A workload's own figure: printed as a row beside the result metrics,
  /// left out of the result line.
  void detail(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit, false});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
};

/// The end-to-end metrics of an untraced run, the same names for every
/// workload (BENCHMARK.json's end_to_end list). What each one measures on
/// each workload is tabulated in README.md.
struct EndToEnd {
  double setup_s = 0.0;       ///< CPU seconds of one cold set-up (median)
  double peak_rss_mib = 0.0;  ///< peak resident memory of the busiest process
  double small_us = 0.0;      ///< the 4 B exchange (sim: host CPU to simulate)
  double large_us = 0.0;      ///< the large exchange (sim: host CPU to simulate)
  double cpu_us_per_exchange = 0.0;  ///< CPU per exchange, all ranks
};
void add_end_to_end(Report& r, const EndToEnd& e);

/// The per-layer metrics of a traced run, the same names for every
/// workload (BENCHMARK.json's per_layer list). "backend" is the layer the
/// workload runs on: the simulator, the smp runtime or the net endpoint.
struct PerLayer {
  double setup_wall_s = 0.0;    ///< wall seconds of one cold set-up (median)
  double backend_start_s = 0.0; ///< Cluster / SmpRuntime / connect_world
  /// Cost of one message of each size in the backend: host CPU per
  /// simulated message (sim), one-way pingpong time (smp, net).
  double msg_small_us = 0.0;
  double msg_large_us = 0.0;
  double msgs_per_exchange = 0.0;  ///< messages (sim), sends, frames (net)
  double build_s[2] = {};          ///< plan::make_plan, small and large
  int algo[2] = {-1, -1};          ///< resolved coll::Algo, small and large
  double pred_err[2] = {};         ///< |predicted - measured| / measured
  double p99_us[2] = {};           ///< tails, never gated
  double trace_overhead_pct[2] = {};
  SpanTotals spans;  ///< span.{start,make_plan,execute}.self_us come from here
};
void add_per_layer(Report& r, const PerLayer& l);
/// A `span.<name>.self_us` row (mean self time per call) for every span id
/// that was called and is not one of add_per_layer's result metrics.
void add_span_details(Report& r, const SpanTotals& t);

/// Print the notes and one `name value unit` row per metric, then the
/// result as the last line: {"correct", "attempted", "failed", "metrics"},
/// the metrics added with Report::add only. A result metric that is not
/// finite counts as one more failure. Returns the failures printed.
std::uint64_t print_report(const Report& r);

/// What a simulated exchange must reproduce on every repetition, to the bit.
struct SimBehaviour {
  double virt_s = 0.0;
  std::uint64_t msgs = 0;
  int algo = -1;
  int group = 0;
};
/// One operation of `tally`: `got` must equal `first` exactly.
void check_repeat(const SimBehaviour& first, const SimBehaviour& got,
                  Tally& tally);

// --- payload stamping --------------------------------------------------------

/// Tag of the block `src` sends `dst` in exchange `rep` under `seed`.
std::uint64_t block_tag(std::uint64_t seed, int src, int dst,
                        std::uint64_t rep);
/// Fill `n` bytes with the pattern of `tag`.
void fill_block(std::byte* p, std::size_t n, std::uint64_t tag);
/// True when `n` bytes at `p` hold exactly the pattern of `tag`.
bool check_block(const std::byte* p, std::size_t n, std::uint64_t tag);
/// Stamp every block of an alltoall send buffer of rank `me`.
void stamp_send(std::byte* send, int p, std::size_t block, int me,
                std::uint64_t rep, std::uint64_t seed);
/// Check every block of an alltoall receive buffer of rank `me`; each block
/// is one operation of `tally`.
void verify_recv(const std::byte* recv, int p, std::size_t block, int me,
                 std::uint64_t rep, std::uint64_t seed, Tally& tally);

// --- placement and environment -----------------------------------------------

/// Thrown when the allowed CPU set is smaller than the rank count: the
/// benchmark pins one rank per CPU and never oversubscribes.
class InsufficientCpus : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The first `ranks` CPUs of this process's sched_getaffinity set; throws
/// InsufficientCpus when there are fewer.
std::vector<int> rank_cpus(int ranks);
/// Pin the calling thread (in a single-threaded process, the process) to
/// `cpu` and, where the host allows it, move it to SCHED_FIFO priority 1.
/// Returns whether the real-time class was granted.
///
/// Why real-time: on a shared host another tenant's CPU-bound process on a
/// rank's CPU turned each wake-up (net) or each poll-loop yield (smp) into a
/// wait for a whole time slice; with two such processes the smp 4 B p50
/// went from 6 us to 8 ms and the net one from 60 us to 93–178 us. A FIFO rank
/// preempts them as soon as it is runnable; the kernel's real-time
/// throttling still leaves them 5% of each CPU.
bool place_rank(int cpu);
/// SCHED_FIFO priority 1 for the calling thread, unpinned: for the thread
/// that starts and joins the ranks, which a busy-polling FIFO rank on its
/// CPU would otherwise starve. Returns whether it was granted.
bool raise_to_fifo();

/// One SCHED_IDLE busy-loop process per CPU for as long as the object
/// lives, so the virtual CPUs never halt. A rank that blocks (net) or parks
/// (smp) lets its CPU go idle; on a virtual machine the hypervisor may then
/// hand the physical CPU to another guest, and the rank's wake-up waits
/// until it is scheduled back. With 24% of the run stolen, that took the
/// net 4 B p50 from 51 us to 105–170 us; with the spinners it read
/// 51–52 us. SCHED_IDLE runs only when nothing else wants the CPU, so a
/// waking rank preempts its spinner at once. The destructor kills the
/// spinners and waits for them.
class IdleSpinners {
 public:
  explicit IdleSpinners(const std::vector<int>& cpus);
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::vector<int> pids_;
};

/// Unset every A2A_* variable of the environment (the library's knobs:
/// autotuning, mailbox, net rails/eager/stripe, noise, tracing, ...), so
/// the measured program is the configuration the report prints. Returns
/// the names it removed.
std::vector<std::string> clear_a2a_env();

// --- options -----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  ///< where traced runs write their span files
};

/// Bytes per rank pair of the two exchange sizes of smp and net.
inline constexpr std::size_t kSmallBlock = 4;
inline constexpr std::size_t kLargeBlock = 64 * 1024;
/// Ranks of the transposes: topo::generic(2, 2).
inline constexpr int kTransposeRanks = 4;

Report run_sim_dane32(const Options& o);
Report run_smp_transpose(const Options& o);
Report run_net_transpose(const Options& o);

}  // namespace a2abench
