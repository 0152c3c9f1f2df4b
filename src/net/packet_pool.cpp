#include "net/packet_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>

namespace fncc {

namespace {

// Uid layout: a pool's tag in the high bits, its own acquire counter in the
// low bits. 2^44 acquires per pool is far beyond any run; tags wrap after
// 2^20 pools, which only matters if that many pools are alive at once.
constexpr int kUidCounterBits = 44;

// Drawn once per pool, at construction — never on the per-packet path.
std::atomic<std::uint64_t> g_next_pool_tag{0};

}  // namespace

PacketPool::PacketPool()
    : next_uid_((g_next_pool_tag.fetch_add(1, std::memory_order_relaxed)
                 << kUidCounterBits) |
                1) {}

PacketPool::~PacketPool() {
  // Every loaned packet must have been returned: a PacketPtr destroyed after
  // its pool would write through a dangling pool pointer. Simulator's member
  // order (pool before event queue) guarantees this for model code.
  assert(free_.size() == arena_.size() &&
         "PacketPool destroyed with packets still outstanding");
}

PacketPtr PacketPool::Acquire() {
  Packet* p;
  if (free_.empty()) {
    arena_.push_back(std::make_unique<Packet>());
    p = arena_.back().get();
    p->int_stack.owner_ = this;  // INT blocks come from (and return to) us
  } else {
    p = free_.back();
    free_.pop_back();
    p->Reset();  // marks, path ids — everything back to defaults
  }
  p->uid = next_uid_++;
  ++acquires_;
  return PacketPtr(p, PacketReclaimer{this});
}

void PacketPool::ReserveInt(IntStack& s, std::size_t n) {
  const std::size_t capacity = n <= kSmallIntHops ? kSmallIntHops : kMaxIntHops;
  IntBlockClass& to = int_blocks_[SizeClass(capacity)];
  IntEntry* block;
  if (to.free.empty()) {
    to.arena.push_back(std::make_unique<IntEntry[]>(capacity));
    block = to.arena.back().get();
  } else {
    block = to.free.back();
    to.free.pop_back();
  }
  if (s.entries_ != nullptr) {
    std::copy(s.entries_, s.entries_ + s.size_, block);
    int_blocks_[SizeClass(s.capacity_)].free.push_back(s.entries_);
  }
  s.entries_ = block;
  s.capacity_ = static_cast<std::uint8_t>(capacity);
}

}  // namespace fncc
