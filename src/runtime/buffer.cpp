#include "runtime/buffer.hpp"

namespace mca2a::rt {

Buffer Buffer::real(std::size_t bytes) {
  Buffer b;
  b.size_ = bytes;
  b.virtual_ = false;
  if (bytes > 0) {
    b.mem_ = std::make_unique<std::byte[]>(bytes);  // value-initialized
  }
  return b;
}

Buffer Buffer::real_uninit(std::size_t bytes) {
  Buffer b;
  b.size_ = bytes;
  b.virtual_ = false;
  if (bytes > 0) {
    b.mem_ = std::unique_ptr<std::byte[]>(new std::byte[bytes]);  // no memset
  }
  return b;
}

Buffer Buffer::virt(std::size_t bytes) {
  Buffer b;
  b.size_ = bytes;
  b.virtual_ = true;
  return b;
}

}  // namespace mca2a::rt
