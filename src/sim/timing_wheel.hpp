// Hierarchical timing wheel: the O(1) near-horizon half of the hybrid
// scheduler (EventQueue keeps the indexed binary heap as the far-timer
// overflow level).
//
// Three levels of 64 buckets each, with a base tick of 2^kTickShift
// picoseconds (4.096 ns), cover a rolling horizon of 2^30 ps (~1.07 ms) —
// serialization slots, propagation delays and CC rate timers all land in
// the wheel; far timers (RTOs, idle watchdogs) overflow to the heap, which
// stays tiny as a result. Insert and cancel are O(1); cascading is O(1)
// amortized (an entry moves down at most twice); finding the next
// non-empty bucket is one ctz over a per-level occupancy word.
//
// Ordering contract (shared with EventQueue): events are totally ordered by
// (time, schedule sequence). A bucket spans many distinct timestamps, so a
// bucket is an intrusive FIFO list in insertion order, threaded through the
// nodes of EventQueue's slot table (SlotMeta); when the cursor reaches a
// level-0 bucket its list is copied into a drain vector and sorted, which
// is what Peek()/Pop() serve from. Unlinking a cancelled or rescheduled
// entry keeps the list in insertion order, so for natives (minted counters)
// list order IS seq order and the drain sort is a stable counting sort on
// the sub-tick offset. The wheel refuses (`Accepts` == false) events at or
// behind the cursor's tick while the drain is live — those go to the
// overflow heap, which EventQueue already merges with the wheel at pop by
// (t, seq) — so the global pop order is exact, identical to a single heap,
// with no mid-drain insertion path.
//
// Memory follows the live events: a bucket is two slot indices, the nodes
// live in the slot table (which grows to the high-water mark of pending
// events), and the only growable wheel storage is the drain (and its sort
// scratch), bounded by the largest level-0 bucket drained. Callbacks, slot
// generations and the slot free list stay in EventQueue; the wheel writes
// each slot's node and current location (bucket or drain index) into the
// shared SlotMeta table so cancellation stays exact and O(1).
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace fncc {

/// A scheduled-event record: absolute time, global schedule sequence (FIFO
/// tie-break for simultaneous events), and the owning callback slot. The
/// drain holds these; Peek() returns one.
struct SchedEntry {
  Time t;
  std::uint64_t seq;
  std::uint32_t slot;
};

/// Where a callback slot's queue entry currently lives. Written by both the
/// EventQueue heap and the TimingWheel; read on cancel/reschedule.
/// Encoding (tag = loc >> 30):
///   tag 0 — overflow-heap position (EventQueue's binary heap)
///   tag 1 — wheel bucket: level * kWheelSlots + bucket slot
///   tag 2 — drain index [29:0]
///   kLocNone — not scheduled
inline constexpr std::uint32_t kLocNone = 0xFFFF'FFFF;
inline constexpr std::uint32_t kLocIndexMask = 0x3FFF'FFFF;
inline constexpr std::uint32_t kLocHeapTag = 0u << 30;
inline constexpr std::uint32_t kLocWheelTag = 1u << 30;
inline constexpr std::uint32_t kLocDrainTag = 2u << 30;

/// Slot bookkeeping, parallel to the callback table: the id generation and
/// location every scheduled slot needs, plus the slot's node in a wheel
/// bucket's FIFO list — the event's (t, seq) and its links (slot indices,
/// kNilSlot at the ends), meaningful only while the slot is in a bucket.
/// One 32-byte record, so a wheel insert, unlink or drain touches one
/// cache line per slot.
struct SlotMeta {
  std::uint32_t generation = 0;  // bumped on release; guards stale ids
  std::uint32_t loc = kLocNone;
  std::uint32_t next = 0;
  std::uint32_t prev = 0;
  Time t = 0;
  std::uint64_t seq = 0;
};

class TimingWheel {
 public:
  /// Base tick: 2^12 ps = 4.096 ns. Small enough that back-to-back ACK
  /// serializations (60 B at 100 Gbps = 4.8 ns) land in distinct buckets,
  /// large enough that one MTU serialization (~121 ns) spans ~30 ticks.
  static constexpr int kTickShift = 12;
  static constexpr int kLevels = 3;
  static constexpr int kSlotBits = 6;
  static constexpr std::uint32_t kWheelSlots = 1u << kSlotBits;  // 64
  static constexpr std::uint32_t kSlotMask = kWheelSlots - 1;

  /// `meta` is EventQueue's slot table; the wheel writes the loc and node
  /// fields only. The pointee may reallocate (slot growth); the pointer
  /// must stay valid.
  explicit TimingWheel(std::vector<SlotMeta>* meta) : meta_(meta) {}

  /// True if an event at absolute time `t` belongs in the wheel given the
  /// current cursor; false means the caller keeps it in the overflow heap.
  /// Refused: far times (beyond the superblock horizon), past-cursor times,
  /// and the cursor's own tick while the drain is live (its bucket was
  /// already consumed).
  [[nodiscard]] bool Accepts(Time t) const {
    const std::uint64_t tick = Tick(t);
    if (tick > cur_) {
      return (tick >> (kLevels * kSlotBits)) ==
             (cur_ >> (kLevels * kSlotBits));
    }
    return tick == cur_ && !DrainLive();
  }

  /// Inserts an event. Precondition: Accepts(e.t).
  void Insert(const SchedEntry& e) {
    assert(Accepts(e.t));
    ++count_;
    SlotMeta& n = (*meta_)[e.slot];
    n.t = e.t;
    n.seq = e.seq;
    Place(e.slot);
  }

  /// Removes the entry for `slot` given its location word. O(1).
  void Remove(std::uint32_t slot, std::uint32_t loc);

  /// Earliest event, or nullptr when the wheel is empty. Lazily advances the
  /// cursor / cascades levels; pointer is valid until the next mutation.
  [[nodiscard]] const SchedEntry* Peek() {
    if (count_ == 0) {
      if (!drain_.empty()) {
        drain_.clear();
        drain_head_ = 0;
      }
      return nullptr;
    }
    if (DrainLive()) {
      const SchedEntry* e = &drain_[drain_head_];
      if (e->slot != kDeadSlot) [[likely]] return e;
    }
    return PeekSlow();
  }

  /// Extracts the earliest event. Precondition: Peek() != nullptr. The
  /// caller clears the slot's loc (via its slot-release path).
  SchedEntry Pop() {
    const SchedEntry* e = Peek();
    assert(e != nullptr && "Pop on empty wheel");
    const SchedEntry out = *e;
    ++drain_head_;
    --count_;
    return out;
  }

  /// Moves the cursor forward to `t`'s tick. Only legal while the wheel is
  /// empty (there are no entries whose relative position could change);
  /// called when the overflow heap advances time past the wheel horizon so
  /// subsequently scheduled near events use the wheel again.
  void AdvanceTo(Time t) {
    assert(count_ == 0 && "AdvanceTo with events in the wheel");
    drain_.clear();
    drain_head_ = 0;
    const std::uint64_t tick = Tick(t);
    if (tick > cur_) cur_ = tick;
  }

  [[nodiscard]] std::size_t size() const { return count_; }

  /// SchedEntry records the wheel's own vectors hold capacity for (drain
  /// plus sort scratch). Bounded by the largest level-0 bucket ever
  /// drained, so it stays O(live events) however far timers sweep.
  [[nodiscard]] std::size_t retained_entries() const {
    return drain_.capacity() + scratch_.capacity();
  }

 private:
  /// End-of-list marker in SlotMeta links and Bucket ends, and tombstone
  /// for cancelled drain entries (never a real slot: slot ids are dense
  /// indices into EventQueue's slot table).
  static constexpr std::uint32_t kNilSlot = 0xFFFF'FFFF;
  static constexpr std::uint32_t kDeadSlot = kNilSlot;

  /// One bucket's FIFO list of slots, oldest first.
  struct Bucket {
    std::uint32_t head = kNilSlot;
    std::uint32_t tail = kNilSlot;
  };

  static std::uint64_t Tick(Time t) {
    return static_cast<std::uint64_t>(t) >> kTickShift;
  }
  static bool Before(const SchedEntry& a, const SchedEntry& b) {
    return a.t != b.t ? a.t < b.t : a.seq < b.seq;
  }

  [[nodiscard]] bool DrainLive() const { return drain_head_ < drain_.size(); }

  /// Appends `slot` (its node's t already set) to the tail of the bucket
  /// its time selects under the current cursor and records its location.
  /// Precondition: within horizon, not behind the cursor.
  void Place(std::uint32_t slot);
  /// Copies the level-0 bucket `s` into the (empty) drain, sorted.
  void DrainBucket(std::uint32_t s);
  /// Sorts the freshly filled drain by (t, seq). The list was in insertion
  /// order and a level-0 bucket spans exactly one tick, so a stable
  /// counting sort on the sub-tick key suffices; small inputs fall back to
  /// std::sort.
  void SortDrain();
  /// Empties bucket `s` at `level` and returns its list's head.
  std::uint32_t TakeBucket(int level, std::uint32_t s) {
    Bucket& b = buckets_[static_cast<std::uint32_t>(level) * kWheelSlots + s];
    const std::uint32_t head = b.head;
    b = Bucket{};
    bitmap_[level] &= ~(1ull << s);
    return head;
  }
  /// Re-places every entry of bucket `s` at `level`, in list order, into
  /// lower levels after the cursor entered that bucket's range.
  void CascadeBucket(int level, std::uint32_t s);
  /// Refills an empty drain from the buckets. Precondition: count_ > 0.
  void Refill();
  /// Peek's out-of-line tail: skips drain tombstones and refills.
  [[nodiscard]] const SchedEntry* PeekSlow();

  /// Lowest set bit index >= from in the level's occupancy word, or -1.
  [[nodiscard]] int FindSet(int level, std::uint32_t from) const {
    const std::uint64_t bits = bitmap_[level] & (~0ull << from);
    return bits != 0 ? std::countr_zero(bits) : -1;
  }

  std::vector<SlotMeta>* meta_;

  /// kLevels * kWheelSlots buckets, level-major.
  Bucket buckets_[kLevels * kWheelSlots];
  std::uint64_t bitmap_[kLevels] = {};  // per-level bucket occupancy

  // Counting-sort workspace (reused; no steady-state allocation).
  std::vector<std::uint32_t> counts_;
  std::vector<SchedEntry> scratch_;

  /// Level-0 tick cursor: every event in ticks < cur_ has been moved to the
  /// drain (or popped); the bucket at cur_ itself may refill while the
  /// drain is dead and is then rescanned.
  std::uint64_t cur_ = 0;

  /// Sorted run of due entries served by Peek/Pop. Entries before
  /// drain_head_ are consumed; cancelled ones are tombstoned in place.
  std::vector<SchedEntry> drain_;
  std::size_t drain_head_ = 0;

  std::size_t count_ = 0;  // live entries (buckets + drain, minus tombstones)
};

}  // namespace fncc
