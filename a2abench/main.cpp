/// \file main.cpp
/// a2abench: one workload per process, so set-up time and peak memory never
/// carry an earlier workload's state.
///
///   a2abench --workload <sim_dane32|smp_transpose|net_transpose>
///            [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]
///
/// Prints the effective configuration, one `name value unit` row per metric
/// and, as the last line, the JSON result. Exit code 0 only when every
/// checked operation was correct.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: a2abench --workload <sim_dane32|smp_transpose|"
               "net_transpose> [--seed N] [--seconds S] [--trace 0|1] "
               "[--out-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace a2abench;
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      return usage();
    }
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--out-dir") {
      o.out_dir = v;
    } else {
      return usage();
    }
  }
  if (!(o.seconds > 0.0)) {
    return usage();
  }
  Report (*run)(const Options&) = nullptr;
  if (o.workload == "sim_dane32") {
    run = run_sim_dane32;
  } else if (o.workload == "smp_transpose") {
    run = run_smp_transpose;
  } else if (o.workload == "net_transpose") {
    run = run_net_transpose;
  } else {
    return usage();
  }

  std::string cleared;
  for (const std::string& n : clear_a2a_env()) {
    cleared += (cleared.empty() ? "" : ",") + n;
  }
  std::printf("config cleared_env=%s seed=%llu seconds=%g trace=%d\n",
              cleared.empty() ? "none" : cleared.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds,
              o.trace ? 1 : 0);
  try {
    const Report r = run(o);
    return print_report(r) == 0 && r.tally.attempted > 0 ? 0 : 1;
  } catch (const InsufficientCpus& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "a2abench: %s failed: %s\n", o.workload.c_str(),
                 e.what());
    return 1;
  }
}
