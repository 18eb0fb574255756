// Fixture: well-behaved net code. Socket writes (send and sendmsg) carry
// MSG_NOSIGNAL (even split across lines), tags come from tags::make,
// diagnostics go to stderr. A send() mention in a comment or string must
// not trip anything: ::write(fd, ...) in prose is fine too.
#include <cstdio>
#include <sys/socket.h>
#include "runtime/tags.hpp"

void pump(int fd, const char* p, unsigned long n, int stream) {
  const int tag = make(32, stream);
  (void)tag;
  long r = ::send(fd, p,
                  n, MSG_NOSIGNAL);
  if (r < 0) {
    std::fprintf(stderr, "send failed: ::write would have been worse\n");
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "sent %ld", r);
}

void pump_vectored(int fd, const msghdr* msg) {
  (void)::sendmsg(fd, msg, MSG_NOSIGNAL);
}
