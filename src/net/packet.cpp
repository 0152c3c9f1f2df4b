#include "net/packet.hpp"

#include <cassert>

#include "net/packet_pool.hpp"
#include "sim/simulator.hpp"

namespace fncc {

void IntStack::Reserve(std::size_t n) {
  assert(n > capacity_ && n <= kMaxIntHops);
  if (owner_ != nullptr) {
    owner_->ReserveInt(*this, n);
    return;
  }
  // Only a pooled stack ever holds a small block, so this one is empty.
  assert(entries_ == nullptr);
  entries_ = new IntEntry[kMaxIntHops];
  capacity_ = kMaxIntHops;
}

void PacketReclaimer::operator()(Packet* p) const noexcept {
  if (pool != nullptr) {
    pool->Release(p);
  } else {
    delete p;
  }
}

namespace {

// The implicit pool behind MakePacket()/ClonePacket(). When exactly one
// Simulator is alive on this thread, that Simulator's pool owns the packet
// — same lifetime and thread as every other packet of the run, so implicit
// allocations can never cross a thread or outlive their run. With no
// Simulator alive (pool micro-tests, standalone tools) the thread-default
// pool serves; with several alive the target is ambiguous, which is a bug:
// debug builds assert, release builds fall back to the thread-default pool
// (safe — it outlives everything on the thread — just unaccounted).
PacketPool& ImplicitPacketPool() {
  if (Simulator* sim = Simulator::CurrentOnThread()) {
    return sim->packet_pool();
  }
  assert(Simulator::LiveOnThread() == 0 &&
         "MakePacket()/ClonePacket() with several Simulators alive on this "
         "thread: the implicit pool is ambiguous - allocate from the "
         "intended Simulator's packet_pool() instead");
  return DefaultPacketPool();
}

}  // namespace

PacketPtr MakePacket() { return ImplicitPacketPool().Acquire(); }

PacketPtr ClonePacket(const Packet& src) {
  return ImplicitPacketPool().Clone(src);
}

}  // namespace fncc
