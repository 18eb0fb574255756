/// \file bruck.cpp
/// The Bruck all-to-all [Bruck et al., TPDS 1997]: ceil(log2 p) steps, each
/// moving every block whose index has the step bit set. Latency-optimal
/// (log p messages) at the cost of each byte traveling ~log p / 2 hops,
/// which is why it wins only for small blocks.
///
/// Structure follows the MPICH implementation:
///   phase 1: local rotation   tmp[i] = send[(rank + i) mod p]
///   phase 2: for pof2 = 1,2,4,...: pack blocks with (i & pof2), send to
///            rank + pof2, receive from rank - pof2 into the same slots
///   phase 3: inverse rotation  recv[(rank - i) mod p] = tmp[i]

#include <algorithm>

#include "core/alltoall.hpp"
#include "runtime/scratch.hpp"

namespace mca2a::coll {

rt::Task<void> alltoall_bruck(rt::Comm& comm, rt::ConstView send,
                              rt::MutView recv, std::size_t block,
                              rt::ScratchArena* scratch, int tag_stream) {
  const int kTag = rt::tags::make(rt::tags::kAlltoallBruck, tag_stream);
  const int p = comm.size();
  const int me = comm.rank();

  rt::ScratchBuffer tmp =
      rt::alloc_scratch(comm, scratch, static_cast<std::size_t>(p) * block);
  // The packing loops copy whole runs of consecutive blocks, one checked
  // view and one copy per run, and charge the model one repack per block in
  // a single call: per-block host work would dominate a simulated 4 B
  // exchange on thousands of ranks.
  // Phase 1: rotate so block i holds data destined for rank (me + i) mod p,
  // i.e. tmp = send[me, p) followed by send[0, me).
  const std::size_t head = static_cast<std::size_t>(p - me) * block;
  const std::size_t tail = static_cast<std::size_t>(me) * block;
  rt::copy_bytes(tmp.view(0, head), send.sub(tail, head));
  rt::copy_bytes(tmp.view(head, tail), send.sub(0, tail));
  comm.charge_copies(static_cast<std::size_t>(p), block);

  // Phase 2: exchange the blocks whose index has the current bit set. In
  // round pof2 they are the runs [b, min(b + pof2, p)) for b = pof2,
  // 3 pof2, 5 pof2, ..., enumerated on the fly so a warm persistent plan
  // performs no allocation at all.
  const std::size_t half = (static_cast<std::size_t>(p) / 2 + 1) * block;
  rt::ScratchBuffer pack = rt::alloc_scratch(comm, scratch, half);
  rt::ScratchBuffer unpack = rt::alloc_scratch(comm, scratch, half);
  for (int pof2 = 1; pof2 < p; pof2 <<= 1) {
    const int dst = (me + pof2) % p;
    const int src = (me - pof2 + p) % p;
    std::size_t k = 0;
    for (int b = pof2; b < p; b += 2 * pof2) {
      const std::size_t run = static_cast<std::size_t>(std::min(pof2, p - b));
      rt::copy_bytes(pack.view(k * block, run * block),
                     rt::ConstView(tmp.view(b * block, run * block)));
      k += run;
    }
    comm.charge_copies(k, block);
    const std::size_t bytes = k * block;
    co_await comm.sendrecv(pack.view(0, bytes), dst, kTag,
                           unpack.view(0, bytes), src, kTag);
    k = 0;
    for (int b = pof2; b < p; b += 2 * pof2) {
      const std::size_t run = static_cast<std::size_t>(std::min(pof2, p - b));
      rt::copy_bytes(tmp.view(b * block, run * block),
                     rt::ConstView(unpack.view(k * block, run * block)));
      k += run;
    }
    comm.charge_copies(k, block);
  }

  // Phase 3: block i now holds the data originating at rank (me - i) mod p;
  // the destination index steps down from me and wraps.
  for (int i = 0, d = me; i < p; ++i, d = (d == 0 ? p : d) - 1) {
    rt::copy_bytes(recv.sub(d * block, block),
                   rt::ConstView(tmp.view(i * block, block)));
  }
  comm.charge_copies(static_cast<std::size_t>(p), block);
}

}  // namespace mca2a::coll
