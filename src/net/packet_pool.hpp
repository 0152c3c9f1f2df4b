// Free-list packet pool: steady-state packet traffic performs zero heap
// allocations.
//
// Ownership contract:
//   - The pool owns the storage of every packet it ever created (arena_)
//     and of every INT block it ever handed out (int_arena_). A PacketPtr
//     is a loan; its destructor pushes the packet back onto the free list
//     via PacketReclaimer, and the pool takes back the packet's INT block
//     (if it attached one) onto the block free list at the same time.
//   - The pool must therefore outlive every PacketPtr it issued. Simulator
//     owns one pool per event lane and destroys them after the lanes' event
//     queues (whose callbacks are the last in-flight packet holders), so
//     model code holding packets inside scheduled events is always safe.
//   - Pool-ownership rule (parallel sweeps and PDES lanes): a pool, every
//     packet it issued and every INT block it handed out belong to exactly
//     one thread at a time — PacketPool is not internally synchronized.
//     Each sweep job owns a full Simulator + pools + RNG built and torn
//     down inside the job, and a partitioned run has one pool per lane;
//     packets and blocks never cross lanes (a cross-lane handoff copies the
//     header and the live INT entries, see EgressPort). MakePacket() and
//     ClonePacket() follow the rule automatically: they allocate from the
//     sole live Simulator's pool on the calling thread, and only fall back
//     to the thread-local default pool (an escape hatch for single-threaded
//     tests and tools, alive until thread exit) when no Simulator is alive;
//     several live Simulators on one thread make the implicit pool
//     ambiguous and debug-assert (see ImplicitPacketPool in packet.cpp).
//   - Recycled packets are indistinguishable from fresh ones: Acquire()
//     resets every field to its default and stamps a new uid, and the
//     packet comes back with an empty INT stack and no block attached, so
//     no INT telemetry, ECN marks or path ids leak across reuses.
//   - Uids are minted per pool: a pool tag drawn once at construction (a
//     serial step of building a run) in the high bits, the pool's own
//     acquire counter in the low bits. A pool's uid sequence therefore
//     depends only on its own traffic, never on how other lanes' threads
//     interleave, and uids stay unique across the pools alive in a process.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.hpp"

namespace fncc {

class PacketPool {
 public:
  PacketPool();
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;
  ~PacketPool();

  /// Hands out a default-initialized packet with a fresh uid. Allocation-free
  /// when the free list is non-empty (the steady state).
  PacketPtr Acquire();

  /// Pool-backed equivalent of ClonePacket: every field copied, fresh uid.
  PacketPtr Clone(const Packet& src);

  // -- Allocation telemetry (the counters behind BENCH_micro.json) --

  /// Packets ever heap-allocated by this pool == its high-water mark of
  /// simultaneously live packets. Constant once the pool is warm.
  [[nodiscard]] std::size_t total_created() const { return arena_.size(); }
  /// Packets currently on the free list.
  [[nodiscard]] std::size_t free_count() const { return free_.size(); }
  /// Packets currently loaned out.
  [[nodiscard]] std::size_t outstanding() const {
    return arena_.size() - free_.size();
  }
  /// Total Acquire()/Clone() calls served.
  [[nodiscard]] std::uint64_t acquires() const { return acquires_; }
  /// Acquires served from the free list (no heap allocation).
  [[nodiscard]] std::uint64_t recycles() const {
    return acquires_ - arena_.size();
  }
  /// INT blocks ever heap-allocated == the high-water mark of live packets
  /// carrying INT at once. Constant once the pool is warm.
  [[nodiscard]] std::size_t int_blocks_created() const {
    return int_arena_.size();
  }
  /// INT blocks currently attached to loaned-out packets.
  [[nodiscard]] std::size_t int_blocks_outstanding() const {
    return int_arena_.size() - int_free_.size();
  }

 private:
  friend struct PacketReclaimer;
  friend class IntStack;

  void Release(Packet* p) noexcept {
    IntStack& s = p->int_stack;
    if (s.block_ != nullptr) {
      int_free_.push_back(s.block_);
      s.block_ = nullptr;
      s.size_ = 0;
    }
    free_.push_back(p);
  }
  IntBlock* AcquireIntBlock();

  std::vector<std::unique_ptr<Packet>> arena_;
  std::vector<Packet*> free_;
  std::vector<std::unique_ptr<IntBlock>> int_arena_;
  std::vector<IntBlock*> int_free_;
  std::uint64_t acquires_ = 0;
  std::uint64_t next_uid_;  // pool tag << kUidCounterBits | counter
};

/// Per-thread fallback pool behind MakePacket()/ClonePacket() when no
/// Simulator is alive on the calling thread — an escape hatch for
/// single-threaded tests and tools only. Simulation code must allocate
/// from its Simulator's pool (directly or via the MakePacket routing);
/// see the pool-ownership rule in the class comment above.
PacketPool& DefaultPacketPool();

}  // namespace fncc
