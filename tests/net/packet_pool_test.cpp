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

// A cross-lane handoff (EgressPort::DrainHandoffs) re-materializes a packet
// by copy-assigning the header onto one acquired from the destination
// lane's pool: every field must arrive, and the INT entries must land in a
// block of the target's own pool, never alias the source's.
TEST(PacketPoolTest, CopyAssignmentCopiesEveryFieldIntoTargetsOwnBlock) {
  PacketPool src_pool;
  PacketPool dst_pool;
  PacketPtr src = src_pool.Acquire();
  src->type = PacketType::kAck;
  src->flow = 3;
  src->src = 4;
  src->dst = 5;
  src->sport = 6;
  src->dport = 7;
  src->size_bytes = kAckBytes + 9 * kIntBytesPerHop;
  src->seq = 1'000'000;
  src->payload_bytes = 8;
  src->last_of_flow = true;
  src->ecn_ce = true;
  src->concurrent_flows = 9;
  src->rocc_rate_gbps = 12.5;
  src->int_reversed = true;
  src->t_sent = 11;
  src->path_id = 0x5A5;
  src->req_path_id = 0x3C3;
  src->ingress_port = 13;
  std::vector<IntEntry> hops;
  for (int h = 0; h < 9; ++h) {  // past a small block: a full one
    hops.push_back(IntEntry{25.0 * (h + 1), 100 + h,
                            1'000u * static_cast<unsigned>(h),
                            static_cast<std::uint64_t>(h) * 1'500});
    src->int_stack.push_back(hops.back());
  }

  PacketPtr dst = dst_pool.Acquire();
  *dst = *src;
  EXPECT_EQ(dst->uid, src->uid);
  EXPECT_EQ(dst->type, PacketType::kAck);
  EXPECT_EQ(dst->flow, 3u);
  EXPECT_EQ(dst->src, 4);
  EXPECT_EQ(dst->dst, 5);
  EXPECT_EQ(dst->sport, 6);
  EXPECT_EQ(dst->dport, 7);
  EXPECT_EQ(dst->size_bytes, kAckBytes + 9 * kIntBytesPerHop);
  EXPECT_EQ(dst->seq, 1'000'000u);
  EXPECT_EQ(dst->payload_bytes, 8u);
  EXPECT_TRUE(dst->last_of_flow);
  EXPECT_TRUE(dst->ecn_ce);
  EXPECT_EQ(dst->concurrent_flows, 9);
  EXPECT_EQ(dst->rocc_rate_gbps, 12.5);
  EXPECT_TRUE(dst->int_reversed);
  EXPECT_EQ(dst->t_sent, 11);
  EXPECT_EQ(dst->path_id, 0x5A5);
  EXPECT_EQ(dst->req_path_id, 0x3C3);
  EXPECT_EQ(dst->ingress_port, 13);
  EXPECT_EQ(std::vector<IntEntry>(dst->int_stack.begin(),
                                  dst->int_stack.end()),
            hops);

  // The entries live in a full block of dst_pool; src keeps its own.
  EXPECT_NE(dst->int_stack.begin(), src->int_stack.begin());
  EXPECT_EQ(dst->int_stack.capacity(), std::size_t{kMaxIntHops});
  EXPECT_EQ(dst_pool.int_blocks_created(kMaxIntHops), 1u);
  EXPECT_EQ(dst_pool.int_blocks_outstanding(), 1u);
  EXPECT_EQ(src_pool.int_blocks_outstanding(), 1u);
  src.reset();
  EXPECT_EQ(dst->int_stack[8], hops[8]);  // unaffected by the source's release
  dst.reset();
  EXPECT_EQ(dst_pool.int_blocks_free(kMaxIntHops), 1u);
  EXPECT_EQ(dst_pool.int_blocks_outstanding(), 0u);
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
  PacketPool c;
  std::set<std::uint64_t> uids;
  for (int i = 0; i < 100; ++i) {
    uids.insert(a.Acquire()->uid);
    uids.insert(b.Acquire()->uid);
    uids.insert(c.Acquire()->uid);
  }
  EXPECT_EQ(uids.size(), 300u);
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
