#include "net/packet_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include "cc/int_view.hpp"
#include "sim/simulator.hpp"

namespace fncc {
namespace {

TEST(PacketPoolTest, AcquireGivesDefaultPacketWithFreshUid) {
  PacketPool pool;
  PacketPtr a = pool.Acquire();
  PacketPtr b = pool.Acquire();
  EXPECT_NE(a->uid, 0u);
  EXPECT_NE(a->uid, b->uid);
  EXPECT_EQ(a->type, PacketType::kData);
  EXPECT_TRUE(a->int_stack.empty());
  EXPECT_EQ(pool.total_created(), 2u);
  EXPECT_EQ(pool.outstanding(), 2u);
}

TEST(PacketPoolTest, RecycledPacketIsIndistinguishableFromFresh) {
  PacketPool pool;
  std::uint64_t first_uid = 0;
  Packet* first_addr = nullptr;
  {
    PacketPtr p = pool.Acquire();
    first_uid = p->uid;
    first_addr = p.get();
    // Dirty every field a stale reuse could leak.
    p->type = PacketType::kAck;
    p->flow = 7;
    p->ecn_ce = true;
    p->path_id = 0xABC;
    p->req_path_id = 0xDEF;
    p->int_reversed = true;
    p->concurrent_flows = 9;
    p->rocc_rate_gbps = 50.0;
    p->last_of_flow = true;
    p->src = 1;
    p->dst = 2;
    p->sport = 3;
    p->dport = 4;
    p->seq = 5;
    p->size_bytes = 6;
    p->payload_bytes = 7;
    p->t_sent = 8;
    p->ingress_port = 9;
    for (int i = 0; i < 5; ++i) {
      p->int_stack.push_back(IntEntry{100.0, 123, 456, 789});
    }
  }  // returns to the pool

  PacketPtr q = pool.Acquire();
  EXPECT_EQ(q.get(), first_addr) << "free list should recycle the packet";
  EXPECT_EQ(pool.total_created(), 1u);
  EXPECT_NE(q->uid, first_uid) << "recycled packet must get a fresh uid";
  // No telemetry or header state leaks across the reuse.
  EXPECT_TRUE(q->int_stack.empty());
  EXPECT_EQ(q->type, PacketType::kData);
  EXPECT_EQ(q->flow, 0u);
  EXPECT_FALSE(q->ecn_ce);
  EXPECT_FALSE(q->int_reversed);
  EXPECT_FALSE(q->last_of_flow);
  EXPECT_EQ(q->path_id, 0);
  EXPECT_EQ(q->req_path_id, 0);
  EXPECT_EQ(q->concurrent_flows, 0);
  EXPECT_EQ(q->rocc_rate_gbps, 0.0);
  EXPECT_EQ(q->src, kInvalidNode);
  EXPECT_EQ(q->dst, kInvalidNode);
  EXPECT_EQ(q->sport, 0);
  EXPECT_EQ(q->dport, 0);
  EXPECT_EQ(q->seq, 0u);
  EXPECT_EQ(q->size_bytes, 0u);
  EXPECT_EQ(q->payload_bytes, 0u);
  EXPECT_EQ(q->t_sent, 0);
  EXPECT_EQ(q->ingress_port, 0);
}

TEST(PacketPoolTest, CloneCopiesEverythingExceptUid) {
  PacketPool pool;
  PacketPtr src = pool.Acquire();
  src->type = PacketType::kAck;
  src->flow = 3;
  src->seq = 1'000'000;
  src->int_stack.push_back(IntEntry{400.0, 1, 2, 3});
  src->int_reversed = true;

  PacketPtr copy = pool.Clone(*src);
  EXPECT_NE(copy->uid, src->uid);
  EXPECT_EQ(copy->type, PacketType::kAck);
  EXPECT_EQ(copy->flow, 3u);
  EXPECT_EQ(copy->seq, 1'000'000u);
  EXPECT_TRUE(copy->int_reversed);
  ASSERT_EQ(copy->int_stack.size(), 1u);
  EXPECT_EQ(copy->int_stack[0], (IntEntry{400.0, 1, 2, 3}));
}

TEST(PacketPoolTest, PoolSizeStaysBoundedUnderLongRun) {
  // 100k acquires with at most kDepth outstanding: the arena must stay at
  // its high-water mark, i.e. steady-state traffic allocates nothing.
  PacketPool pool;
  constexpr std::size_t kDepth = 32;
  std::mt19937 rng(7);
  std::vector<PacketPtr> inflight;
  for (int i = 0; i < 100'000; ++i) {
    if (inflight.size() < kDepth && (inflight.empty() || rng() % 2 == 0)) {
      inflight.push_back(pool.Acquire());
    } else {
      const std::size_t victim = rng() % inflight.size();
      std::swap(inflight[victim], inflight.back());
      inflight.pop_back();
    }
  }
  EXPECT_LE(pool.total_created(), kDepth);
  EXPECT_GE(pool.acquires(), 10'000u);
  EXPECT_EQ(pool.outstanding(), inflight.size());
  inflight.clear();
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_EQ(pool.free_count(), pool.total_created());
}

TEST(PacketPoolTest, UidsUniqueAcrossPools) {
  PacketPool a;
  PacketPool b;
  std::set<std::uint64_t> uids;
  for (int i = 0; i < 100; ++i) {
    uids.insert(a.Acquire()->uid);
    uids.insert(b.Acquire()->uid);
    uids.insert(MakePacket()->uid);  // thread-default pool
  }
  EXPECT_EQ(uids.size(), 300u);
}

TEST(PacketPoolTest, MakePacketFallsBackToThreadDefaultPoolWithoutSim) {
  // No Simulator alive on this thread: the escape-hatch pool serves.
  ASSERT_EQ(Simulator::LiveOnThread(), 0);
  PacketPool& pool = DefaultPacketPool();
  const std::uint64_t before = pool.acquires();
  PacketPtr p = MakePacket();
  PacketPtr c = ClonePacket(*p);
  EXPECT_EQ(pool.acquires(), before + 2);
  EXPECT_NE(c->uid, p->uid);
}

TEST(PacketPoolTest, MakePacketRoutesToSoleLiveSimulatorPool) {
  // With exactly one Simulator alive on the thread, the implicit path is
  // per-Simulator: the packet joins that run's arena, not the thread pool.
  Simulator sim;
  ASSERT_EQ(Simulator::CurrentOnThread(), &sim);
  PacketPool& default_pool = DefaultPacketPool();
  const std::uint64_t default_before = default_pool.acquires();
  const std::uint64_t sim_before = sim.packet_pool().acquires();
  {
    PacketPtr p = MakePacket();
    PacketPtr c = ClonePacket(*p);
    EXPECT_EQ(sim.packet_pool().acquires(), sim_before + 2);
    EXPECT_EQ(default_pool.acquires(), default_before);
    EXPECT_NE(c->uid, p->uid);
  }  // both packets return to sim's pool before it dies
}

TEST(PacketPoolTest, SecondSimulatorMakesImplicitPoolAmbiguous) {
  // Two live Simulators: CurrentOnThread() refuses to pick one. (The
  // MakePacket fallback debug-asserts in this state; release builds fall
  // back to the thread-default pool.)
  Simulator sim_a;
  EXPECT_EQ(Simulator::CurrentOnThread(), &sim_a);
  {
    Simulator sim_b;
    EXPECT_EQ(Simulator::LiveOnThread(), 2);
    EXPECT_EQ(Simulator::CurrentOnThread(), nullptr);
  }
  EXPECT_EQ(Simulator::CurrentOnThread(), &sim_a);
}

TEST(PacketPoolTest, SimulatorOwnsAPerRunPool) {
  Simulator sim_a;
  Simulator sim_b;
  EXPECT_NE(&sim_a.packet_pool(), &sim_b.packet_pool());
  PacketPtr p = sim_a.packet_pool().Acquire();
  EXPECT_EQ(sim_a.packet_pool().outstanding(), 1u);
  EXPECT_EQ(sim_b.packet_pool().outstanding(), 0u);
  p.reset();
  EXPECT_EQ(sim_a.packet_pool().outstanding(), 0u);
  EXPECT_EQ(sim_a.packet_pool().free_count(), 1u);
}

TEST(PacketPoolTest, PacketsHeldInScheduledEventsDrainSafely) {
  // Packets captured in never-run events must flow back into the pool when
  // the queue is destroyed before the pool (Simulator member order).
  Simulator sim;
  for (int i = 0; i < 8; ++i) {
    sim.Schedule(1000, [p = sim.packet_pool().Acquire()] { (void)p; });
  }
  EXPECT_EQ(sim.packet_pool().outstanding(), 8u);
  // Destroying `sim` at scope exit must not trip the pool's
  // all-packets-returned assertion.
}

TEST(PacketPoolTest, DetachedPacketPtrOwnsPlainHeapPacket) {
  // A PacketPtr with a null reclaimer pool behaves like unique_ptr. With no
  // pool behind it, the packet's INT stack owns a heap block (freed with
  // the packet), and a copy owns its own.
  PacketPtr p(new Packet{}, PacketReclaimer{});
  p->int_stack.push_back(IntEntry{100.0, 1, 2, 3});
  p->int_stack.push_back(IntEntry{100.0, 4, 5, 6});
  ASSERT_EQ(p->int_stack.size(), 2u);
  EXPECT_EQ(p->int_stack[1], (IntEntry{100.0, 4, 5, 6}));
  Packet copy = *p;
  p->int_stack.clear();
  ASSERT_EQ(copy.int_stack.size(), 2u);
  EXPECT_EQ(copy.int_stack[0], (IntEntry{100.0, 1, 2, 3}));
}

TEST(PacketPoolTest, IntStampReleaseCyclesAllocateNothingOnceWarm) {
  // FNCC-shaped traffic: every packet gets INT stamped, then is released.
  // After warm-up the pool serves packets and INT blocks of both sizes
  // from its free lists, and every recycled packet comes back with an
  // empty stack and no block attached.
  PacketPool pool;
  constexpr std::size_t kDepth = 8;
  auto stamped = [&pool](int hops) {
    PacketPtr p = pool.Acquire();
    EXPECT_TRUE(p->int_stack.empty());
    EXPECT_FALSE(p->int_stack.has_block());
    for (int h = 0; h < hops; ++h) {
      p->int_stack.push_back(IntEntry{100.0, h, 1, 2});
    }
    return p;
  };
  // Warm both block sizes to the window's depth: kDepth packets holding a
  // small block at once, then kDepth holding a full one (each passes
  // through a recycled small block on its way up and hands it back).
  std::vector<PacketPtr> window;
  for (std::size_t i = 0; i < kDepth; ++i) {
    window.push_back(stamped(kSmallIntHops));
  }
  for (PacketPtr& slot : window) {
    slot.reset();
    slot = stamped(kMaxIntHops);
  }
  const std::size_t packets_warm = pool.total_created();
  const std::size_t blocks_warm = pool.int_blocks_created();
  EXPECT_EQ(pool.int_blocks_created(kSmallIntHops), kDepth);
  EXPECT_EQ(pool.int_blocks_created(kMaxIntHops), kDepth);
  EXPECT_EQ(pool.int_blocks_outstanding(), kDepth);

  for (int i = 0; i < 10'000; ++i) {
    PacketPtr& slot = window[static_cast<std::size_t>(i) % kDepth];
    slot.reset();
    slot = stamped(1 + i % kMaxIntHops);
    ASSERT_EQ(slot->int_stack.size(),
              static_cast<std::size_t>(1 + i % kMaxIntHops));
  }
  EXPECT_EQ(pool.total_created(), packets_warm);
  EXPECT_EQ(pool.int_blocks_created(), blocks_warm);

  // Packets that never carried INT never take a block.
  PacketPtr plain = pool.Acquire();
  EXPECT_FALSE(plain->int_stack.has_block());
  EXPECT_EQ(pool.int_blocks_outstanding(), kDepth);
  window.clear();
  EXPECT_EQ(pool.int_blocks_outstanding(), 0u);
}

TEST(PacketPoolTest, SeventhIntPushMovesStackToFullBlock) {
  // A pooled stack starts in a small block; the push past kSmallIntHops
  // moves it to a full block, keeping every entry and handing the small
  // block back to its own free list.
  PacketPool pool;
  PacketPtr p = pool.Acquire();
  const auto entry = [](int h) {
    return IntEntry{100.0 + h, h, 1'000u * static_cast<unsigned>(h), 7};
  };
  for (int h = 0; h < kSmallIntHops; ++h) p->int_stack.push_back(entry(h));
  EXPECT_EQ(p->int_stack.capacity(), static_cast<std::size_t>(kSmallIntHops));
  EXPECT_EQ(pool.int_blocks_created(kSmallIntHops), 1u);
  EXPECT_EQ(pool.int_blocks_created(kMaxIntHops), 0u);

  p->int_stack.push_back(entry(kSmallIntHops));
  constexpr std::size_t kHops = kSmallIntHops + 1;
  ASSERT_EQ(p->int_stack.size(), kHops);
  EXPECT_EQ(p->int_stack.capacity(), static_cast<std::size_t>(kMaxIntHops));
  EXPECT_EQ(pool.int_blocks_created(kMaxIntHops), 1u);
  EXPECT_EQ(pool.int_blocks_free(kSmallIntHops), 1u);  // handed back
  EXPECT_EQ(pool.int_blocks_free(kMaxIntHops), 0u);
  EXPECT_EQ(pool.int_blocks_outstanding(), 1u);
  for (std::size_t i = 0; i < kHops; ++i) {
    EXPECT_EQ(p->int_stack[i], entry(static_cast<int>(i)));
  }

  // IntView reads the full block in place, in either stamping order.
  p->int_reversed = false;
  const IntView view(*p);
  ASSERT_EQ(view.hops(), kHops);
  for (std::size_t i = 0; i < kHops; ++i) {
    EXPECT_EQ(view.hop(i), entry(static_cast<int>(i)));
  }
  p->int_reversed = true;
  const IntView reversed(*p);
  ASSERT_EQ(reversed.hops(), kHops);
  for (std::size_t i = 0; i < kHops; ++i) {
    EXPECT_EQ(reversed.hop(i), entry(static_cast<int>(kHops - 1 - i)));
  }

  // Reclaiming the packet returns the full block to the full free list.
  p.reset();
  EXPECT_EQ(pool.int_blocks_free(kMaxIntHops), 1u);
  EXPECT_EQ(pool.int_blocks_free(kSmallIntHops), 1u);
  EXPECT_EQ(pool.int_blocks_outstanding(), 0u);
  // The next stamp starts small again, from the recycled small block.
  PacketPtr q = pool.Acquire();
  q->int_stack.push_back(entry(0));
  EXPECT_EQ(q->int_stack.capacity(), static_cast<std::size_t>(kSmallIntHops));
  EXPECT_EQ(pool.int_blocks_created(), 2u);
}

TEST(PacketPoolTest, UidSequenceIgnoresOtherPoolsActivity) {
  // Each pool mints uids from its own counter: a pool's sequence is the
  // same whether or not another pool is busy in between.
  auto deltas = [](PacketPool& pool, PacketPool* busy) {
    std::vector<std::uint64_t> out;
    const std::uint64_t first = pool.Acquire()->uid;
    for (int i = 0; i < 50; ++i) {
      if (busy != nullptr) {
        for (int j = 0; j <= i % 3; ++j) busy->Acquire();
      }
      out.push_back(pool.Acquire()->uid - first);
    }
    return out;
  };
  PacketPool quiet;
  PacketPool observed;
  PacketPool busy;
  EXPECT_EQ(deltas(quiet, nullptr), deltas(observed, &busy));
}

}  // namespace
}  // namespace fncc
