// EventQueue against a reference model, plus the wheel's storage bounds.
//
// The differential test drives the hybrid queue (wheel levels 0/1/2 and
// the overflow heap) and a std::set ordered by (t, order word) with the
// same seeded operation stream — native, ordered (delivery and flow-start
// words) and burst schedules, cancels, reschedules and pops — and requires
// the exact same pop sequence. Cancels land in the middle of bucket lists
// and of a live drain, since bursts put many events in one tick and pops
// leave drains half consumed; the largest bursts take the drain's
// counting-sort path, whose fix-up of equal-time runs ordered by explicit
// words only a mix of word classes exercises.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/timing_wheel.hpp"

namespace fncc {
namespace {

constexpr Time kTick = Time{1} << TimingWheel::kTickShift;
constexpr Time kLevel1Span = kTick << TimingWheel::kSlotBits;
constexpr Time kLevel2Span = kLevel1Span << TimingWheel::kSlotBits;
constexpr Time kHorizon = kLevel2Span << TimingWheel::kSlotBits;

void RecordToken(void* log, void* /*unused*/, std::uint64_t token) {
  static_cast<std::vector<std::uint64_t>*>(log)->push_back(token);
}

class QueueModel {
 public:
  explicit QueueModel(std::uint32_t seed) : rng_(seed) {}

  void Run(int rounds) {
    for (int round = 0; round < rounds; ++round) {
      const int op = static_cast<int>(rng_() % 100);
      if (op < 35 || live_.empty()) {
        ScheduleNative(now_ + Delay());
      } else if (op < 45) {
        ScheduleOrdered(now_ + Delay());
      } else if (op < 50) {
        // Burst: many events in one tick, a few exact times shared between
        // natives and explicit words. Some bursts fill a drain past the
        // counting-sort threshold.
        const Time at = now_ + (rng_() % 3 == 0 ? 0 : Delay());
        const int n = op == 45 ? 320 : 16;
        for (int i = 0; i < n; ++i) {
          if (i % 4 == 3) {
            ScheduleOrdered(at);
          } else {
            ScheduleNative(at + static_cast<Time>(rng_() % 3));
          }
        }
      } else if (op < 65) {
        Cancel(PickLive());
      } else if (op < 78) {
        Reschedule(PickLive(), now_ + Delay());
      } else {
        const int pops = 1 + static_cast<int>(rng_() % 8);
        for (int i = 0; i < pops && !ref_.empty(); ++i) PopAndCompare();
      }
      ASSERT_EQ(q_.size(), ref_.size());
      if (::testing::Test::HasFailure()) return;
    }
    while (!ref_.empty() && !::testing::Test::HasFailure()) PopAndCompare();
    EXPECT_TRUE(q_.Empty());
  }

  std::uint64_t pops() const { return popped_.size(); }

 private:
  // (t, order word, token)
  using Key = std::tuple<Time, std::uint64_t, std::uint64_t>;
  struct Live {
    EventId id;
    Key key;
  };

  Time Delay() {
    switch (rng_() % 6) {
      case 0:
        return static_cast<Time>(rng_() % 64);  // often the current tick
      case 1:
        return static_cast<Time>(rng_() % 4) * kTick;  // tick-aligned ties
      case 2:
        return static_cast<Time>(rng_() % kLevel1Span);  // level 0
      case 3:
        return static_cast<Time>(rng_() % kLevel2Span);  // level 0/1
      case 4:
        return static_cast<Time>(rng_() % kHorizon);  // any level
      default:
        return kHorizon + static_cast<Time>(rng_() % (2 * kHorizon));  // heap
    }
  }

  TypedEvent Event(std::uint64_t token) {
    return TypedEvent{.run = &RecordToken, .p0 = &popped_, .arg = token};
  }

  void Add(EventId id, const Key& key) {
    index_[std::get<2>(key)] = live_.size();
    live_.push_back(Live{id, key});
    ref_.insert(key);
  }

  void ScheduleNative(Time at) {
    const std::uint64_t token = next_token_++;
    const std::uint64_t order = kNativeOrderBit | next_native_++;
    Add(q_.Schedule(at, Event(token)), Key{at, order, token});
  }

  void ScheduleOrdered(Time at) {
    const std::uint64_t token = next_token_++;
    // Half link-delivery words (edge << 32 | per-edge counter), half
    // flow-start words; both unique by construction.
    const std::uint64_t n = ++next_explicit_;
    const std::uint64_t order =
        rng_() % 2 == 0 ? ((rng_() % 8) << 32) | n
                        : kNativeOrderBit | kFlowStartOrderBit | n;
    Add(q_.ScheduleOrdered(at, order, Event(token)), Key{at, order, token});
  }

  std::size_t PickLive() { return rng_() % live_.size(); }

  void Erase(std::size_t i) {
    index_.erase(std::get<2>(live_[i].key));
    if (i + 1 != live_.size()) {
      live_[i] = live_.back();
      index_[std::get<2>(live_[i].key)] = i;
    }
    live_.pop_back();
  }

  void Cancel(std::size_t i) {
    const Live l = live_[i];
    EXPECT_TRUE(q_.Cancel(l.id));
    EXPECT_FALSE(q_.Cancel(l.id));
    ref_.erase(l.key);
    Erase(i);
  }

  void Reschedule(std::size_t i, Time at) {
    Live& l = live_[i];
    ASSERT_TRUE(q_.Reschedule(l.id, at));
    ref_.erase(l.key);
    // A rescheduled event takes a fresh native word, like a new schedule.
    l.key = Key{at, kNativeOrderBit | next_native_++, std::get<2>(l.key)};
    ref_.insert(l.key);
  }

  void PopAndCompare() {
    const Key want = *ref_.begin();
    ref_.erase(ref_.begin());
    Time t = 0;
    std::uint64_t order = 0;
    q_.PopNext(&t, &order)();
    ASSERT_FALSE(popped_.empty());
    const Key got{t, order, popped_.back()};
    ASSERT_EQ(got, want) << "pop " << popped_.size();
    const std::size_t i = index_.at(std::get<2>(want));
    EXPECT_FALSE(q_.Cancel(live_[i].id));  // a run event's id is dead
    Erase(i);
    now_ = t;
  }

  EventQueue q_;
  std::mt19937 rng_;
  std::set<Key> ref_;
  std::vector<Live> live_;
  std::unordered_map<std::uint64_t, std::size_t> index_;  // token -> live_
  std::vector<std::uint64_t> popped_;
  std::uint64_t next_token_ = 0;
  std::uint64_t next_native_ = 0;
  std::uint64_t next_explicit_ = 0;
  Time now_ = 0;
};

TEST(EventQueueModelTest, PopOrderMatchesReferenceSet) {
  for (std::uint32_t seed : {1u, 2u, 3u, 0xC0FFEEu}) {
    SCOPED_TRACE(seed);
    QueueModel model(seed);
    model.Run(20'000);
    EXPECT_GT(model.pops(), 10'000u);
  }
}

TEST(EventQueueModelTest, WheelStorageStaysProportionalToLiveTimers) {
  // The RTO re-arm pattern: kTimers retransmission timers, every one
  // re-armed to now + kRto (level-2 range) twice per level-2 bucket span,
  // so all of them sit in one or two level-2 buckets at a time and sweep
  // through every bucket of the superblock. Retained wheel storage must
  // follow the live count, not sum each bucket's high-water mark (which
  // reads ~100x the live count here).
  constexpr std::size_t kTimers = 10'000;
  constexpr Time kRto = 2 * kLevel2Span;
  constexpr Time kStep = kLevel2Span / 2;
  EventQueue q;
  std::mt19937 rng(7);
  const auto rto = [&rng] {
    return kRto + static_cast<Time>(rng() % 1'000'000);
  };
  std::vector<EventId> ids(kTimers);
  for (EventId& id : ids) id = q.Schedule(rto(), [] {});
  Time now = 0;
  while (now < kHorizon) {
    q.Schedule(now + kStep, [] {});  // the ACK clock
    q.PopNext(&now)();
    for (const EventId id : ids) ASSERT_TRUE(q.Reschedule(id, now + rto()));
  }
  ASSERT_EQ(q.size(), kTimers);
  EXPECT_LE(q.wheel_retained_entries(), 4 * kTimers);
}

TEST(EventQueueModelTest, MoreThanAMillionEventsInOneTick) {
  // 2^20 + 8 events at one tick, in one level-0 bucket and then one drain.
  // Cancel some while they sit in the bucket (the newest first, while they
  // are still past position 2^20), pop a few so the drain is live, cancel
  // some out of the live drain, then pop the rest in exact (t, seq) order.
  constexpr std::uint64_t kEvents = (1u << 20) + 8;
  EventQueue q;
  std::vector<std::uint64_t> popped;
  popped.reserve(kEvents);
  std::vector<EventId> ids(kEvents);
  const auto at = [](std::uint64_t i) {
    return static_cast<Time>(i % static_cast<std::uint64_t>(kTick));
  };
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    ids[i] = q.Schedule(
        at(i), TypedEvent{.run = &RecordToken, .p0 = &popped, .arg = i});
  }
  std::vector<bool> cancelled(kEvents, false);
  const auto cancel = [&](std::uint64_t i) {
    ASSERT_TRUE(q.Cancel(ids[i])) << i;
    cancelled[i] = true;
  };
  for (std::uint64_t i = kEvents - 8; i < kEvents; i += 2) cancel(i);
  for (std::uint64_t i = 5; i < kEvents; i += 4099) cancel(i);
  Time t = 0;
  for (int i = 0; i < 10; ++i) q.PopNext(&t)();
  for (std::uint64_t i = kEvents - 7; i < kEvents; i += 2) cancel(i);
  for (std::uint64_t i = 1u << 19; i < kEvents; i += 65'537) {
    if (!cancelled[i]) cancel(i);
  }
  while (!q.Empty()) q.PopNext(&t)();

  std::vector<std::uint64_t> want;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    if (!cancelled[i]) want.push_back(i);
  }
  std::stable_sort(want.begin(), want.end(),
                   [&](std::uint64_t a, std::uint64_t b) {
                     return at(a) < at(b);
                   });
  ASSERT_EQ(popped.size(), want.size());
  EXPECT_TRUE(popped == want);
}

}  // namespace
}  // namespace fncc
