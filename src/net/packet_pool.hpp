// Free-list packet pool: steady-state packet traffic performs zero heap
// allocations.
//
// Ownership contract:
//   - The pool owns the storage of every packet it ever created (arena_)
//     and of every INT block it ever handed out (int_blocks_, one arena and
//     free list per block size: kSmallIntHops and kMaxIntHops entries). A
//     PacketPtr is a loan; its destructor pushes the packet back onto the
//     free list via PacketReclaimer, and the pool takes back the packet's
//     INT block (if it attached one) onto that size's free list at the
//     same time. A stack that outgrows its small block returns it as it
//     moves to a full one (IntStack::push_back).
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
//     header and the live INT entries, see EgressPort). There is no
//     implicit pool: every packet names the pool it comes from — model
//     code its Simulator's packet_pool() (the active lane's), a test
//     without a Simulator a PacketPool declared before anything that
//     holds its packets.
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
  /// Total Acquire() calls served.
  [[nodiscard]] std::uint64_t acquires() const { return acquires_; }
  /// Acquires served from the free list (no heap allocation).
  [[nodiscard]] std::uint64_t recycles() const {
    return acquires_ - arena_.size();
  }
  /// INT blocks ever heap-allocated, both sizes together; per size, the
  /// high-water mark of live packets holding a block of that size at once.
  /// Constant once the pool is warm.
  [[nodiscard]] std::size_t int_blocks_created() const {
    return int_blocks_[0].arena.size() + int_blocks_[1].arena.size();
  }
  /// INT blocks of `capacity` entries (kSmallIntHops or kMaxIntHops) ever
  /// heap-allocated, and currently on that size's free list.
  [[nodiscard]] std::size_t int_blocks_created(std::size_t capacity) const {
    return int_blocks_[SizeClass(capacity)].arena.size();
  }
  [[nodiscard]] std::size_t int_blocks_free(std::size_t capacity) const {
    return int_blocks_[SizeClass(capacity)].free.size();
  }
  /// INT blocks currently attached to loaned-out packets.
  [[nodiscard]] std::size_t int_blocks_outstanding() const {
    return int_blocks_created() - int_blocks_[0].free.size() -
           int_blocks_[1].free.size();
  }

 private:
  friend struct PacketReclaimer;
  friend class IntStack;

  /// INT block storage of one size: every block ever created, and the
  /// ones not attached to a packet.
  struct IntBlockClass {
    std::vector<std::unique_ptr<IntEntry[]>> arena;
    std::vector<IntEntry*> free;
  };

  /// int_blocks_ index of a block holding `capacity` entries.
  static std::size_t SizeClass(std::size_t capacity) {
    return capacity > kSmallIntHops ? 1 : 0;
  }

  void Release(Packet* p) noexcept {
    IntStack& s = p->int_stack;
    if (s.entries_ != nullptr) {
      int_blocks_[SizeClass(s.capacity_)].free.push_back(s.entries_);
      s.entries_ = nullptr;
      s.size_ = 0;
      s.capacity_ = 0;
    }
    free_.push_back(p);
  }
  /// Moves `s` to a block of the smallest size that holds `n` entries,
  /// keeping its entries and returning its old block.
  void ReserveInt(IntStack& s, std::size_t n);

  std::vector<std::unique_ptr<Packet>> arena_;
  std::vector<Packet*> free_;
  IntBlockClass int_blocks_[2];  // [0] kSmallIntHops, [1] kMaxIntHops
  std::uint64_t acquires_ = 0;
  std::uint64_t next_uid_;  // pool tag << kUidCounterBits | counter
};

}  // namespace fncc
