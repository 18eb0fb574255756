#include "common.hpp"

#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>

extern char** environ;

namespace a2abench {

// --- statistics --------------------------------------------------------------

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) {
    sum += x;
  }
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

std::array<double, 3> quartiles(std::vector<double> v) {
  const std::size_t n = v.size();
  if (n == 0) {
    return {0.0, 0.0, 0.0};
  }
  std::sort(v.begin(), v.end());
  if (n == 1) {
    return {v[0], v[0], v[0]};
  }
  // statistics.quantiles(method="exclusive"): position i*(n+1)/4, 1-based,
  // clamped to [1, n-1], interpolated in exact integer steps of 1/4.
  std::array<double, 3> q{};
  const std::size_t m = n + 1;
  for (std::size_t i = 1; i <= 3; ++i) {
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    q[i - 1] = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  }
  return q;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double clamped = std::clamp(q, 0.0, 1.0);
  const std::size_t rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(clamped * static_cast<double>(v.size()))));
  return v[rank - 1];
}

// --- report ------------------------------------------------------------------

std::uint64_t print_report(const Report& r) {
  for (const std::string& n : r.notes) {
    std::printf("%s\n", n.c_str());
  }
  std::uint64_t failed = r.tally.failed;
  std::string json = "{\"metrics\": {";
  bool first = true;
  for (const Metric& m : r.metrics) {
    double v = m.value;
    std::printf("%-36s %.6g %s%s\n", m.name.c_str(), v, m.unit.c_str(),
                m.in_result ? "" : "  (detail)");
    if (!m.in_result) {
      continue;
    }
    if (!std::isfinite(v)) {
      // JSON has no NaN/inf; a metric that could not be measured is a
      // failed operation, never a silently plausible number.
      std::printf("metric %s is not finite\n", m.name.c_str());
      ++failed;
      v = 0.0;
    }
    char buf[512];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
    json += buf;
    first = false;
  }
  const std::uint64_t attempted = std::max<std::uint64_t>(1, r.tally.attempted);
  char tail[256];
  std::snprintf(tail, sizeof tail,
                "}, \"correct\": %s, \"attempted\": %llu, \"failed\": %llu}",
                failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
  json += tail;
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return failed;
}

void add_end_to_end(Report& r, const EndToEnd& e) {
  r.add("setup_s", e.setup_s, "s");
  r.add("peak_rss_mib", e.peak_rss_mib, "MiB");
  r.add("small_us", e.small_us, "us");
  r.add("large_us", e.large_us, "us");
  r.add("cpu_us_per_exchange", e.cpu_us_per_exchange, "us");
}

namespace {

/// The spans every workload calls, so they can be result metrics.
constexpr SpanId kResultSpans[] = {SpanId::kStart, SpanId::kMakePlan,
                                   SpanId::kExecute};

std::string span_metric(SpanId id) {
  return std::string("span.") + span_name(id) + ".self_us";
}

/// Mean self time per call in µs; NaN (a failure) when never called.
double span_self_us(const SpanTotals& t, SpanId id) {
  const auto k = static_cast<std::size_t>(id);
  return t.calls[k] == 0 ? std::nan("")
                         : t.self_s[k] / static_cast<double>(t.calls[k]) * 1e6;
}

}  // namespace

void add_per_layer(Report& r, const PerLayer& l) {
  r.add("setup_wall_s", l.setup_wall_s, "s");
  r.add("backend.start_s", l.backend_start_s, "s");
  r.add("backend.msg_small_us", l.msg_small_us, "us");
  r.add("backend.msg_large_us", l.msg_large_us, "us");
  r.add("backend.msgs_per_exchange", l.msgs_per_exchange, "count");
  r.add("plan.build_small_s", l.build_s[0], "s");
  r.add("plan.build_large_s", l.build_s[1], "s");
  r.add("plan.algo_small", l.algo[0], "id");
  r.add("plan.algo_large", l.algo[1], "id");
  r.add("plan.pred_err_small", l.pred_err[0], "ratio");
  r.add("plan.pred_err_large", l.pred_err[1], "ratio");
  r.add("small_p99_us", l.p99_us[0], "us");
  r.add("large_p99_us", l.p99_us[1], "us");
  r.add("obs.trace_overhead_small_pct", l.trace_overhead_pct[0], "%");
  r.add("obs.trace_overhead_large_pct", l.trace_overhead_pct[1], "%");
  for (const SpanId id : kResultSpans) {
    r.add(span_metric(id), span_self_us(l.spans, id), "us");
  }
}

void add_span_details(Report& r, const SpanTotals& t) {
  for (int i = 0; i < kNumSpans; ++i) {
    const auto id = static_cast<SpanId>(i);
    if (t.calls[static_cast<std::size_t>(i)] > 0 &&
        std::find(std::begin(kResultSpans), std::end(kResultSpans), id) ==
            std::end(kResultSpans)) {
      r.detail(span_metric(id), span_self_us(t, id), "us");
    }
  }
}

void check_repeat(const SimBehaviour& first, const SimBehaviour& got,
                  Tally& tally) {
  tally.check(got.virt_s == first.virt_s && got.msgs == first.msgs &&
              got.algo == first.algo && got.group == first.group);
}

// --- payload stamping --------------------------------------------------------

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

constexpr std::uint64_t kStride = 0xD1B54A32D192ED03ull;

}  // namespace

std::uint64_t block_tag(std::uint64_t seed, int src, int dst,
                        std::uint64_t rep) {
  const std::uint64_t where = (static_cast<std::uint64_t>(src) << 42) ^
                              (static_cast<std::uint64_t>(dst) << 21) ^ rep;
  return splitmix64(seed ^ splitmix64(where));
}

void fill_block(std::byte* p, std::size_t n, std::uint64_t tag) {
  const std::size_t words = n / 8;
  for (std::size_t i = 0; i < words; ++i) {
    const std::uint64_t w = tag + i * kStride;
    std::memcpy(p + i * 8, &w, 8);
  }
  const std::uint64_t last = tag + words * kStride;
  std::memcpy(p + words * 8, &last, n % 8);
}

bool check_block(const std::byte* p, std::size_t n, std::uint64_t tag) {
  const std::size_t words = n / 8;
  std::uint64_t diff = 0;
  for (std::size_t i = 0; i < words; ++i) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i * 8, 8);
    diff |= w ^ (tag + i * kStride);
  }
  std::uint64_t last = tag + words * kStride;
  std::uint64_t got = last;
  std::memcpy(&got, p + words * 8, n % 8);
  return (diff | (got ^ last)) == 0;
}

void stamp_send(std::byte* send, int p, std::size_t block, int me,
                std::uint64_t rep, std::uint64_t seed) {
  for (int d = 0; d < p; ++d) {
    fill_block(send + static_cast<std::size_t>(d) * block, block,
               block_tag(seed, me, d, rep));
  }
}

void verify_recv(const std::byte* recv, int p, std::size_t block, int me,
                 std::uint64_t rep, std::uint64_t seed, Tally& tally) {
  for (int s = 0; s < p; ++s) {
    tally.check(check_block(recv + static_cast<std::size_t>(s) * block, block,
                            block_tag(seed, s, me, rep)));
  }
}

// --- placement and environment -----------------------------------------------

std::vector<int> rank_cpus(int ranks) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error("a2abench: sched_getaffinity failed");
  }
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) {
      cpus.push_back(c);
    }
  }
  if (static_cast<int>(cpus.size()) < ranks) {
    throw InsufficientCpus("a2abench: " + std::to_string(ranks) +
                           " ranks need one CPU each, but the allowed CPU set "
                           "has " + std::to_string(cpus.size()) +
                           "; refusing to oversubscribe");
  }
  cpus.resize(static_cast<std::size_t>(ranks));
  return cpus;
}

bool place_rank(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error("a2abench: cannot pin to CPU " +
                             std::to_string(cpu));
  }
  return raise_to_fifo();
}

IdleSpinners::IdleSpinners(const std::vector<int>& cpus) {
  std::fflush(stdout);
  std::fflush(stderr);
  for (const int cpu : cpus) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      throw std::runtime_error("a2abench: fork of an idle spinner failed");
    }
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      sched_param sp{};
      if (sched_setaffinity(0, sizeof set, &set) != 0 ||
          sched_setscheduler(0, SCHED_IDLE, &sp) != 0) {
        ::_exit(1);
      }
      for (;;) {
#if defined(__x86_64__) || defined(__i386__)
        asm volatile("pause" ::: "memory");
#else
        asm volatile("" ::: "memory");
#endif
      }
    }
    pids_.push_back(pid);
  }
}

IdleSpinners::~IdleSpinners() {
  for (const int pid : pids_) {
    ::kill(pid, SIGKILL);
  }
  for (const int pid : pids_) {
    while (::waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
    }
  }
}

bool raise_to_fifo() {
  sched_param sp{};
  sp.sched_priority = 1;
  return sched_setscheduler(0, SCHED_FIFO, &sp) == 0;
}

std::vector<std::string> clear_a2a_env() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv(*e);
    if (kv.rfind("A2A_", 0) == 0) {
      names.push_back(kv.substr(0, kv.find('=')));
    }
  }
  for (const std::string& n : names) {
    ::unsetenv(n.c_str());
  }
  return names;
}

// --- clocks and resources ----------------------------------------------------

namespace {

double cpu_clock_seconds(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double thread_cpu_seconds() { return cpu_clock_seconds(CLOCK_THREAD_CPUTIME_ID); }

double process_cpu_seconds() {
  return cpu_clock_seconds(CLOCK_PROCESS_CPUTIME_ID);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- spans -------------------------------------------------------------------

const char* span_name(SpanId id) {
  static constexpr const char* kNames[kNumSpans] = {
      "setup",    "start",    "cluster_run", "make_plan", "exchange_loop",
      "barrier",  "execute",  "pingpong",    "isend",     "irecv",
      "wait_try"};
  return kNames[static_cast<int>(id)];
}

void SpanTotals::merge(const SpanTotals& o) {
  for (int i = 0; i < kNumSpans; ++i) {
    self_s[static_cast<std::size_t>(i)] += o.self_s[static_cast<std::size_t>(i)];
    calls[static_cast<std::size_t>(i)] += o.calls[static_cast<std::size_t>(i)];
  }
}

SpanLog::SpanLog(std::size_t keep) : epoch_(Clock::now()), keep_(keep) {
  stack_.reserve(16);
  kept_.reserve(keep);
}

void SpanLog::begin(SpanId id) {
  stack_.push_back({id, Clock::now(), 0.0});
}

void SpanLog::end() {
  const Clock::time_point t = Clock::now();
  const Open o = stack_.back();
  stack_.pop_back();
  const double dur = seconds_between(o.start, t);
  const auto i = static_cast<std::size_t>(o.id);
  totals_.self_s[i] += dur - o.child_s;
  totals_.calls[i] += 1;
  if (!stack_.empty()) {
    stack_.back().child_s += dur;
  }
  if (kept_.size() < keep_) {
    kept_.push_back({o.id, seconds_between(epoch_, o.start) * 1e6, dur * 1e6});
  }
}

void SpanLog::append_json(std::string& out, int pid, int tid,
                          bool& first) const {
  char buf[256];
  for (const Kept& k : kept_) {
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %d, "
                  "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f}",
                  first ? "" : ",\n", span_name(k.id), pid, tid, k.start_us,
                  k.dur_us);
    out += buf;
    first = false;
  }
}

bool write_trace_file(const std::string& path, const std::string& json_events) {
  std::ofstream f(path);
  f << "{\"traceEvents\": [\n" << json_events << "\n]}\n";
  return static_cast<bool>(f);
}

}  // namespace a2abench
