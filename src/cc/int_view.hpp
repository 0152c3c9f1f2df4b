// Normalizes an ACK's INT stack to request-path order. HPCC stamps data
// packets sender->receiver (L[0] = first hop); FNCC stamps the ACK on the
// return path, so entries accumulate last-request-hop first (Fig. 4b). The
// sender algorithms always index hops in request-path order: hop 0 leaves
// the sender, hop n-1 enters the receiver ("last hop" for LHCS).
#pragma once

#include <cassert>
#include <cstddef>

#include "net/packet.hpp"

namespace fncc {

class IntView {
 public:
  explicit IntView(const Packet& ack)
      : entries_(ack.int_stack.begin()),
        hops_(ack.int_stack.size()),
        reversed_(ack.int_reversed) {}

  [[nodiscard]] std::size_t hops() const { return hops_; }
  [[nodiscard]] bool empty() const { return hops_ == 0; }

  /// Telemetry of request-path hop `i` (0 = first hop from the sender).
  [[nodiscard]] const IntEntry& hop(std::size_t i) const {
    assert(i < hops_);
    return entries_[reversed_ ? hops_ - 1 - i : i];
  }

  [[nodiscard]] std::size_t last_hop_index() const { return hops_ - 1; }

 private:
  // The ACK's out-of-line INT block, read in place.
  const IntEntry* entries_;
  std::size_t hops_;
  bool reversed_;
};

}  // namespace fncc
