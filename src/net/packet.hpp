// Packet model. One struct covers data, ACK, CNP (DCQCN) and PFC control
// frames; the INT stack follows the FNCC ACK format of Fig. 7 in the paper.
//
// A Packet is a small header (<= 128 bytes, static_asserted below): queues,
// events and cross-lane handoffs move or copy only that. The INT stack's
// entries live out of line in a block that the owning PacketPool hands out
// on the first INT push (a small one, enlarged only past kSmallIntHops
// hops) and takes back when it reclaims the packet — FNCC stamps INT only
// on ACKs, so the data packets that fill switch queues never carry a block.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "sim/time.hpp"

namespace fncc {

using NodeId = std::uint16_t;

/// Structured handle minted by the transport flow table:
/// (generation << 20) | (slot + 1), id 0 = "no flow" — see
/// transport/flow_table.hpp for the slot/generation rule. The net layer
/// treats it as opaque.
using FlowId = std::uint32_t;

inline constexpr NodeId kInvalidNode = 0xFFFF;

/// Maximum switch hops a packet can record INT for. A 3-level fat-tree path
/// crosses 5 switches; 12 leaves room for experimental topologies.
inline constexpr int kMaxIntHops = 12;

/// Entries of the small INT block a pooled packet attaches first: covers
/// every fat-tree (5 switches), leaf-spine and dumbbell path, so a stack
/// moves to a full kMaxIntHops block only on longer experimental paths.
inline constexpr int kSmallIntHops = 6;

/// Default wire sizes (bytes). The paper uses MTU 1518 and ~dozens-of-bytes
/// ACKs; INT adds kIntBytesPerHop per recorded hop (Fig. 7: 64-bit entries).
inline constexpr std::uint32_t kDefaultMtuBytes = 1518;
inline constexpr std::uint32_t kAckBytes = 60;
inline constexpr std::uint32_t kCnpBytes = 60;
inline constexpr std::uint32_t kPfcFrameBytes = 64;
inline constexpr std::uint32_t kIntBytesPerHop = 8;

enum class PacketType : std::uint8_t {
  kData,       // RoCE application payload
  kAck,        // cumulative ACK, may carry INT (FNCC/HPCC) and N (FNCC)
  kCnp,        // DCQCN congestion notification packet
  kPfcPause,   // 802.1Qbb XOFF, link-local
  kPfcResume,  // 802.1Qbb XON, link-local
};

/// One hop's telemetry, as defined by HPCC and reused by FNCC (Fig. 7:
/// {B, TS, txBytes, qLen}).
struct IntEntry {
  double bandwidth_gbps = 0.0;  // egress link capacity B
  Time ts = 0;                  // timestamp at stamping
  std::uint64_t tx_bytes = 0;   // cumulative bytes transmitted on the port
  std::uint64_t qlen_bytes = 0;  // egress queue length at stamping

  friend bool operator==(const IntEntry&, const IntEntry&) = default;
};

class PacketPool;

/// A packet's INT stack: at most kMaxIntHops entries, kept out of line so
/// the packet header stays small. Only ACKs (FNCC) or data packets (HPCC)
/// ever carry INT, so most packets never attach a block at all.
///
/// Storage rule: the first push_back() attaches a block of kSmallIntHops
/// entries; a push onto a full small block moves the stack to a block of
/// kMaxIntHops entries (copying the entries, returning the small block). A
/// pooled packet takes its blocks from its owning PacketPool (owner_, fixed
/// when the pool creates the packet), which keeps one free list per block
/// size and takes the attached block back when the packet is reclaimed, so
/// blocks stay in the lane that owns the pool. A packet outside any pool
/// (tests, benches) owns one full heap block and frees it on destruction.
/// Either way the entries are one contiguous array (IntView reads it in
/// place).
///
/// Copying copies the entries, never the block or the owner: the target
/// keeps its own storage, attaching a block only when there are entries.
class IntStack {
 public:
  IntStack() = default;
  IntStack(const IntStack& other) { assign(other.begin(), other.end()); }
  IntStack& operator=(const IntStack& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }
  ~IntStack() {
    if (owner_ == nullptr) delete[] entries_;  // pooled: dies with the pool
  }

  void push_back(const IntEntry& e) {
    assert(size_ < kMaxIntHops && "INT stack overflow");
    if (size_ == capacity_) Reserve(size_ + 1u);
    entries_[size_++] = e;
  }

  /// Replaces the contents with [first, last).
  void assign(const IntEntry* first, const IntEntry* last) {
    const auto n = static_cast<std::size_t>(last - first);
    assert(n <= kMaxIntHops && "INT stack overflow");
    size_ = 0;
    if (n > capacity_) Reserve(n);
    for (std::size_t i = 0; i < n; ++i) entries_[i] = first[i];
    size_ = static_cast<std::uint8_t>(n);
  }

  /// Empties the stack; an attached block stays attached.
  void clear() { size_ = 0; }

  const IntEntry& operator[](std::size_t i) const {
    assert(i < size_);
    return entries_[i];
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] bool full() const { return size_ == kMaxIntHops; }
  /// Whether a block is attached (false on every freshly acquired packet).
  [[nodiscard]] bool has_block() const { return entries_ != nullptr; }
  /// Entries the attached block holds: 0, kSmallIntHops or kMaxIntHops.
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  const IntEntry* begin() const { return entries_; }
  const IntEntry* end() const { return entries_ + size_; }

 private:
  friend class PacketPool;

  /// Attaches a block of at least `n` entries, keeping the current ones:
  /// from owner_ (the smallest size that fits), or a full heap block
  /// without one (packet.cpp).
  void Reserve(std::size_t n);

  IntEntry* entries_ = nullptr;  // the attached block, or null
  PacketPool* owner_ = nullptr;
  std::uint8_t size_ = 0;
  std::uint8_t capacity_ = 0;
};

struct Packet {
  std::uint64_t uid = 0;  // pool tag + per-pool counter, for tracing
  FlowId flow = 0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::uint16_t sport = 0;  // ECMP five-tuple ports
  std::uint16_t dport = 0;

  PacketType type = PacketType::kData;
  std::uint32_t size_bytes = 0;  // wire size; grows when INT is inserted

  // Data: first byte offset of the segment. ACK: cumulative bytes received.
  std::uint64_t seq = 0;
  std::uint32_t payload_bytes = 0;  // data only
  bool last_of_flow = false;

  bool ecn_ce = false;  // ECN congestion-experienced mark (DCQCN)

  /// FNCC: number of concurrent inbound flows N, written by the receiver
  /// into every ACK (16-bit field in Fig. 7).
  std::uint16_t concurrent_flows = 0;

  /// RoCC: minimum fair rate stamped by congested switches on the return
  /// path; <= 0 means "no feedback".
  double rocc_rate_gbps = 0.0;

  /// INT stack. HPCC: stamped on DATA along the request path and copied
  /// into the ACK by the receiver (L[0] = first hop from the sender).
  /// FNCC: stamped on the ACK along the return path (Alg. 1), so entries
  /// appear last-request-hop first; int_reversed marks that ordering.
  IntStack int_stack;
  bool int_reversed = false;

  Time t_sent = 0;  // sender timestamp of the data packet, echoed in ACKs

  /// Fig. 7 pathID: XOR of the (12-bit) ids of every switch this packet
  /// crossed, maintained by the data plane for data packets and ACKs alike.
  std::uint16_t path_id = 0;

  /// ACK only: the request path's pathID as observed by the receiver on
  /// the data packets. A sender running FNCC compares this against the
  /// ACK's own accumulated path_id — a mismatch means routing is not
  /// symmetric and the return-path INT does not describe the request path
  /// (Observation 2's precondition is violated).
  std::uint16_t req_path_id = 0;

  /// Switch-local metadata: the port this packet entered the current switch
  /// on. For an ACK this equals the request path's output port at that
  /// switch (Observation 3), which is what Alg. 1 indexes All_INT_Table by.
  std::uint16_t ingress_port = 0;

  /// Transport-plumbing fields, meaningful only while ownership is
  /// flattened to a raw pointer: `next` links the packet into an
  /// EgressPort's intrusive FIFO; `pool` snapshots the owning PacketPtr's
  /// reclaimer so the handle can be reconstructed (see WrapRawPacket).
  /// Refreshed at each hand-off; never read while a PacketPtr is live.
  Packet* next = nullptr;
  PacketPool* pool = nullptr;

  [[nodiscard]] bool IsControl() const {
    return type == PacketType::kPfcPause || type == PacketType::kPfcResume;
  }

  /// Restores every field to its default. The INT stack is only emptied:
  /// a block stays attached (PacketPool detaches blocks when it reclaims a
  /// packet, so a pooled packet comes back with none). When adding a field
  /// to Packet, reset it here; tests/net/packet_pool_test.cpp checks
  /// recycled packets are indistinguishable from fresh ones.
  void Reset() {
    uid = 0;
    flow = 0;
    src = kInvalidNode;
    dst = kInvalidNode;
    sport = 0;
    dport = 0;
    type = PacketType::kData;
    size_bytes = 0;
    seq = 0;
    payload_bytes = 0;
    last_of_flow = false;
    ecn_ce = false;
    concurrent_flows = 0;
    rocc_rate_gbps = 0.0;
    int_stack.clear();
    int_reversed = false;
    t_sent = 0;
    path_id = 0;
    req_path_id = 0;
    ingress_port = 0;
    next = nullptr;
    pool = nullptr;
  }
};

// The header, not the INT stack, is what queues hold and handoffs copy.
static_assert(sizeof(Packet) <= 128, "Packet header outgrew 128 bytes");

/// Deleter for pooled packets: hands the packet back to its owning pool's
/// free list instead of freeing it. A default-constructed reclaimer (null
/// pool) deletes, so a PacketPtr can also own a plain heap packet.
struct PacketReclaimer {
  PacketPool* pool = nullptr;
  void operator()(Packet* p) const noexcept;
};

/// Owning handle to a packet. RAII: destroying the handle returns the packet
/// to its pool for reuse. The pool must outlive every handle it issued (see
/// PacketPool's class comment for the ownership contract).
using PacketPtr = std::unique_ptr<Packet, PacketReclaimer>;

/// Flattens a PacketPtr to a raw pointer (for intrusive FIFOs and typed
/// events), snapshotting the reclaimer into the packet so WrapRawPacket can
/// rebuild an equivalent handle later.
inline Packet* ReleaseToRaw(PacketPtr p) {
  Packet* raw = p.get();
  raw->pool = p.get_deleter().pool;
  p.release();
  return raw;
}

/// Rebuilds the owning handle a ReleaseToRaw call flattened.
inline PacketPtr WrapRawPacket(Packet* raw) {
  return PacketPtr(raw, PacketReclaimer{raw->pool});
}

}  // namespace fncc
