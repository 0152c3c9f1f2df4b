// Hybrid event scheduler: a hierarchical timing wheel for near-horizon
// events (sim/timing_wheel.hpp — serialization, propagation, CC rate
// timers) with an indexed binary heap retained as the overflow level for
// far timers. Both sides share one slot table and one schedule-sequence
// counter, so the pop order is the exact global (time, seq) order — FIFO
// among simultaneous events — regardless of which structure holds an event,
// and cancellation stays exact and O(1)/O(log n) via slot + generation
// handles (an EventId packs (generation << 32) | (slot + 1); stale ids fail
// the generation check instead of aliasing a newer event — no ABA).
//
// Events carry either a closure (UniqueFunction with 48-byte SBO — still
// allocation-free for hot-path captures) or a TypedEvent: a bare function
// pointer plus two pointer words and a 64-bit argument. The packet pipeline
// schedules only typed events, so per-hop dispatch constructs no closures
// at all. Cancellation destroys the payload eagerly (closure captures are
// dropped, a typed event's drop hook runs), so captured resources such as
// pooled packets are released immediately.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "sim/timing_wheel.hpp"
#include "sim/unique_function.hpp"

namespace fncc {

/// Identifier of a scheduled event, usable for cancellation. Id 0 is never
/// issued and acts as "no event".
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

/// Bit 63 of an event's order word (the `seq` half of the (t, seq) total
/// order). Events scheduled through the ordinary Schedule paths mint
/// (kNativeOrderBit | counter) from a per-queue sequence counter — FIFO
/// among equal timestamps, exactly the old behavior. Link deliveries
/// instead carry an explicit partition-invariant word through
/// ScheduleOrdered: (directed-edge index << 32) | per-edge FIFO counter,
/// bit 63 clear. At equal times, therefore, all deliveries sort before all
/// native events, deliveries order by wire position (edge, then arrival
/// number) rather than by which queue minted them, and natives keep their
/// per-queue FIFO. That rule is what keeps pop order — and every simulation
/// output — independent of how the fabric is partitioned into event lanes
/// (Simulator::Partition): a delivery's word is the same no matter which
/// lane's queue it lands in.
inline constexpr std::uint64_t kNativeOrderBit = 1ull << 63;

/// Bit 62, set (together with kNativeOrderBit) on flow-start events. The
/// third order-word class: starts are natives that can fire at the same
/// timestamp in different lanes, so — like deliveries — they must carry a
/// partition-invariant word instead of a minted per-queue counter. The
/// word is kNativeOrderBit | kFlowStartOrderBit | the flow's dense launch
/// serial (FlowSpec::launch_serial): unique among starts (serials are
/// dense), disjoint from deliveries (bit 63: edge indices stay below
/// 2^30, so a delivery never sets bits 62/63) and from minted natives
/// (per-queue counters never reach 2^62). At equal timestamps, then:
/// deliveries first (by wire position), minted natives next (per-queue
/// FIFO), flow starts last (by launch order) — the same total order in
/// every partitioning, which is what lets streaming injection (whose
/// recycled FlowTable ids are NOT launch-ordered) fan out over exec
/// domains. Any new native source that can fire at equal timestamps in
/// different domains must mint its own invariant word the same way.
inline constexpr std::uint64_t kFlowStartOrderBit = 1ull << 62;

/// Closure-free event record for the packet hot path: `run(p0, p1, arg)`
/// fires when the event is due; `drop(p0, p1, arg)`, if set, runs instead
/// when the event is cancelled or the queue is torn down, releasing any
/// payload `p1` owns (e.g. returning a packet to its pool).
struct TypedEvent {
  using Fn = void (*)(void* p0, void* p1, std::uint64_t arg);
  Fn run = nullptr;
  Fn drop = nullptr;
  void* p0 = nullptr;
  void* p1 = nullptr;
  std::uint64_t arg = 0;
};

/// What a scheduled event executes: empty, a closure, or a typed record.
/// Move-only; destroying an unrun action releases its resources (closure
/// destructor or TypedEvent::drop).
class EventAction {
 public:
  using Callback = UniqueFunction<void()>;

  EventAction() noexcept {}
  EventAction(Callback cb) noexcept : kind_(Kind::kClosure) {  // NOLINT
    ::new (static_cast<void*>(&cb_)) Callback(std::move(cb));
  }
  EventAction(const TypedEvent& ev) noexcept  // NOLINT(google-explicit-*)
      : ev_(ev), kind_(Kind::kTyped) {}

  EventAction(EventAction&& other) noexcept { MoveFrom(other); }
  EventAction& operator=(EventAction&& other) noexcept {
    if (this != &other) {
      Destroy();
      MoveFrom(other);
    }
    return *this;
  }
  EventAction(const EventAction&) = delete;
  EventAction& operator=(const EventAction&) = delete;
  ~EventAction() { Destroy(); }

  /// Runs the action once and empties it (a run typed event's drop hook
  /// does not fire).
  void operator()() {
    switch (kind_) {
      case Kind::kClosure: {
        Callback cb = std::move(cb_);
        cb_.~Callback();
        kind_ = Kind::kEmpty;
        cb();
        break;
      }
      case Kind::kTyped: {
        const TypedEvent ev = ev_;
        kind_ = Kind::kEmpty;
        ev.run(ev.p0, ev.p1, ev.arg);
        break;
      }
      case Kind::kEmpty:
        assert(false && "running an empty EventAction");
        break;
    }
  }

  explicit operator bool() const { return kind_ != Kind::kEmpty; }

  /// In-place assignment without a temporary EventAction (one move of the
  /// callable instead of two) — the schedule hot path.
  void AssignClosure(Callback&& cb) {
    Destroy();
    ::new (static_cast<void*>(&cb_)) Callback(std::move(cb));
    kind_ = Kind::kClosure;
  }
  void AssignTyped(const TypedEvent& ev) {
    Destroy();
    ev_ = ev;
    kind_ = Kind::kTyped;
  }

 private:
  enum class Kind : unsigned char { kEmpty, kClosure, kTyped };

  void MoveFrom(EventAction& other) noexcept {
    kind_ = other.kind_;
    switch (kind_) {
      case Kind::kClosure:
        ::new (static_cast<void*>(&cb_)) Callback(std::move(other.cb_));
        other.cb_.~Callback();
        break;
      case Kind::kTyped:
        ev_ = other.ev_;
        break;
      case Kind::kEmpty:
        break;
    }
    other.kind_ = Kind::kEmpty;
  }

  void Destroy() noexcept {
    switch (kind_) {
      case Kind::kClosure:
        cb_.~Callback();
        break;
      case Kind::kTyped:
        if (ev_.drop != nullptr) ev_.drop(ev_.p0, ev_.p1, ev_.arg);
        break;
      case Kind::kEmpty:
        break;
    }
    kind_ = Kind::kEmpty;
  }

  union {
    Callback cb_;
    TypedEvent ev_;
  };
  Kind kind_ = Kind::kEmpty;
};

/// Timed-event scheduler. Events with equal timestamps run in scheduling
/// order (stable), which the packet pipeline relies on.
class EventQueue {
 public:
  using Callback = UniqueFunction<void()>;

  EventQueue() : wheel_(&slot_meta_) {}

  /// Schedules a closure at absolute time `t`. Returns an id for
  /// cancellation.
  EventId Schedule(Time t, Callback cb) {
    const std::uint32_t slot = AllocSlot();
    slot_actions_[slot].AssignClosure(std::move(cb));
    return Commit(t, slot);
  }

  /// Schedules a typed (closure-free) event at absolute time `t`.
  EventId Schedule(Time t, const TypedEvent& ev) {
    const std::uint32_t slot = AllocSlot();
    slot_actions_[slot].AssignTyped(ev);
    return Commit(t, slot);
  }

  /// Schedules a typed event at absolute time `t` with an explicit order
  /// word instead of a minted native one (see kNativeOrderBit). The word
  /// must be unique per queue among pending events at the same `t` — the
  /// link-delivery path guarantees this with per-edge FIFO counters.
  EventId ScheduleOrdered(Time t, std::uint64_t order, const TypedEvent& ev) {
    const std::uint32_t slot = AllocSlot();
    slot_actions_[slot].AssignTyped(ev);
    return CommitWith(t, order, slot);
  }

  /// Cancels a pending event and destroys its payload immediately.
  /// Returns false if the event already ran, was already cancelled, or
  /// never existed. Allocation-free.
  bool Cancel(EventId id);

  /// Fused cancel + schedule: moves a pending event to absolute time `t`,
  /// keeping its slot, payload and id valid (the event behaves as if it
  /// were cancelled and freshly scheduled — it goes to the back of the
  /// FIFO among equal timestamps). Returns false (and does nothing) if the
  /// id is stale; the caller then schedules a fresh event.
  bool Reschedule(EventId id, Time t);

  /// True when no runnable event remains.
  [[nodiscard]] bool Empty() const { return wheel_.size() == 0 && heap_.empty(); }

  /// Time of the earliest runnable event; kTimeInfinity when empty.
  /// Non-const: peeking may advance the wheel cursor (lazily, without
  /// changing the observable order).
  [[nodiscard]] Time NextTime() {
    const SchedEntry* w = wheel_.Peek();
    const Time tw = w != nullptr ? w->t : kTimeInfinity;
    const Time th = heap_.empty() ? kTimeInfinity : heap_.front().t;
    return tw < th ? tw : th;
  }

  /// Extracts the earliest event's action, setting `t` to its timestamp
  /// and, when `order` is non-null, the event's order word — callers use
  /// (t, order) to position the event's side effects in the global
  /// sequence. Precondition: !Empty().
  EventAction PopNext(Time* t, std::uint64_t* order = nullptr);

  [[nodiscard]] std::size_t size() const {
    return wheel_.size() + heap_.size();
  }

  /// Records the timing wheel's own vectors retain capacity for: O(live
  /// events) (see TimingWheel::retained_entries).
  [[nodiscard]] std::size_t wheel_retained_entries() const {
    return wheel_.retained_entries();
  }

 private:
  struct HeapEntry {
    Time t;
    std::uint64_t seq;   // order word: native FIFO or explicit (edge, nth)
    std::uint32_t slot;  // index into slot_meta_ / slot_actions_
  };

  static bool Later(const HeapEntry& a, const HeapEntry& b) {
    return a.t != b.t ? a.t > b.t : a.seq > b.seq;
  }

  /// Pops a free slot (or grows the tables). The caller fills the slot's
  /// action, then Commit() enters it into the wheel or overflow heap.
  std::uint32_t AllocSlot();
  EventId Commit(Time t, std::uint32_t slot);
  EventId CommitWith(Time t, std::uint64_t order, std::uint32_t slot);

  void Place(std::size_t i, const HeapEntry& e) {
    heap_[i] = e;
    slot_meta_[e.slot].loc = kLocHeapTag | static_cast<std::uint32_t>(i);
  }

  void HeapPush(const HeapEntry& e);
  void SiftUp(std::size_t i);
  void SiftDown(std::size_t i);
  /// Re-inserts `e` (the former back element) after the root was removed.
  /// Bottom-up variant: walks the min-child path to a leaf with one
  /// comparison per level, then bubbles `e` up — cheaper than classic
  /// sift-down for pop, because the back element almost always belongs
  /// near the leaves.
  void SiftDownFromRoot(const HeapEntry& e);
  /// Removes heap_[pos], restoring heap order. O(log n).
  void RemoveAt(std::size_t pos);
  /// Destroys the slot's payload, bumps its generation so outstanding ids
  /// to it die, and returns it to the free list.
  void ReleaseSlot(std::uint32_t slot);

  std::vector<HeapEntry> heap_;  // overflow level: beyond the wheel horizon
  std::vector<SlotMeta> slot_meta_;
  std::vector<EventAction> slot_actions_;  // parallel to slot_meta_
  std::vector<std::uint32_t> free_slots_;
  TimingWheel wheel_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace fncc
