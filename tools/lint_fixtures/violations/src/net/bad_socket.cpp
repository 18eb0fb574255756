// Fixture: SIGPIPE-prone socket writes.
#include <sys/socket.h>
#include <unistd.h>

void pump(int fd, const char* p, unsigned long n) {
  (void)::send(fd, p, n, 0);  // no MSG_NOSIGNAL
  (void)::write(fd, p, n);    // write() has no MSG_NOSIGNAL at all
}

void pump_vectored(int fd, const msghdr* msg) {
  (void)::sendmsg(fd, msg, 0);  // sendmsg() without MSG_NOSIGNAL
}
