#include "net/packet.hpp"

#include <cassert>

#include "net/packet_pool.hpp"

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

}  // namespace fncc
