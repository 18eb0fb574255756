#include "smp/smp_runtime.hpp"

#include <exception>
#include <thread>
#include <vector>

namespace mca2a::smp {

SmpRuntime::SmpRuntime(int world_size) : cluster_(world_size) {}

SmpRuntime::SmpRuntime(int world_size, const MailboxConfig& cfg)
    : cluster_(world_size, cfg) {}

void SmpRuntime::run(
    const std::function<rt::Task<void>(rt::Comm&)>& rank_main) {
  const int n = cluster_.world_size();
  cluster_.clear_abort();
  std::vector<std::exception_ptr> errors(n);
  std::vector<char> peer_failure(n, 0);  // error only echoes another's
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (int r = 0; r < n; ++r) {
    threads.emplace_back([&, r] {
      try {
        rt::sync_wait(rank_main(cluster_.world(r)));
      } catch (const PeerFailure&) {
        errors[r] = std::current_exception();
        peer_failure[r] = 1;
      } catch (...) {
        errors[r] = std::current_exception();
        cluster_.abort();
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  // The first failure that is not just a consequence of another's.
  for (int pass = 0; pass < 2; ++pass) {
    for (int r = 0; r < n; ++r) {
      if (errors[r] && (pass == 1 || peer_failure[r] == 0)) {
        std::rethrow_exception(errors[r]);
      }
    }
  }
}

void run_threads(int world_size,
                 const std::function<rt::Task<void>(rt::Comm&)>& rank_main) {
  SmpRuntime rt(world_size);
  rt.run(rank_main);
}

void run_threads(int world_size, const MailboxConfig& cfg,
                 const std::function<rt::Task<void>(rt::Comm&)>& rank_main) {
  SmpRuntime rt(world_size, cfg);
  rt.run(rank_main);
}

}  // namespace mca2a::smp
