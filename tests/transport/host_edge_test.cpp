// Receiver-side edge cases: duplicates, unknown flows, ACK coalescing
// boundaries, N accounting.
#include <gtest/gtest.h>

#include <memory>

#include "../test_util.hpp"
#include "transport/host.hpp"

namespace fncc {
namespace {

/// Host wired directly to a sink so we can hand-craft packet sequences and
/// observe every ACK it emits.
class HostEdgeTest : public ::testing::Test {
 protected:
  HostEdgeTest() : host_(&sim_, 0, "rx", HostConfig{}), sink_(&sim_, 1, "tx") {
    host_.nic().Connect({&sink_, 0}, 100.0, Nanoseconds(10));
    sink_.nic().Connect({&host_, 0}, 100.0, Nanoseconds(10));
  }

  void Deliver(std::uint64_t seq, std::uint32_t bytes, bool last = false,
               FlowId flow = 1) {
    PacketPtr p = test::MakeData(sim_.packet_pool(), 1, 0, bytes, flow);
    p->seq = seq;
    p->last_of_flow = last;
    host_.ReceivePacket(std::move(p), 0);
    sim_.RunUntil(sim_.Now() + Microseconds(1));
  }

  std::vector<const Packet*> Acks() const {
    std::vector<const Packet*> acks;
    for (const auto& p : sink_.received) {
      if (p->type == PacketType::kAck) acks.push_back(p.get());
    }
    return acks;
  }

  Simulator sim_;
  Host host_;
  test::SinkEndpoint sink_;
};

TEST_F(HostEdgeTest, InOrderDataAckedCumulatively) {
  Deliver(0, 1000);
  Deliver(1000, 1000);
  const auto acks = Acks();
  ASSERT_EQ(acks.size(), 2u);
  EXPECT_EQ(acks[0]->seq, 1000u);
  EXPECT_EQ(acks[1]->seq, 2000u);
}

TEST_F(HostEdgeTest, DuplicateDataReAcksCurrentPoint) {
  Deliver(0, 1000);
  Deliver(0, 1000);  // duplicate (go-back-N retransmit)
  const auto acks = Acks();
  ASSERT_EQ(acks.size(), 2u);
  EXPECT_EQ(acks[1]->seq, 1000u);  // not advanced twice
}

TEST_F(HostEdgeTest, GapDataDoesNotAdvanceAck) {
  Deliver(0, 1000);
  Deliver(5000, 1000);  // hole at [1000, 5000)
  const auto acks = Acks();
  ASSERT_EQ(acks.size(), 2u);
  EXPECT_EQ(acks[1]->seq, 1000u);
  EXPECT_EQ(host_.out_of_order_packets(), 1u);
}

TEST_F(HostEdgeTest, AckForUnknownFlowIgnored) {
  PacketPtr ack = test::MakeAck(sim_.packet_pool(), 1, 0, /*flow=*/77);
  host_.ReceivePacket(std::move(ack), 0);  // no QP 77: must not crash
  SUCCEED();
}

TEST_F(HostEdgeTest, CnpForUnknownFlowIgnored) {
  PacketPtr cnp = sim_.packet_pool().Acquire();
  cnp->type = PacketType::kCnp;
  cnp->flow = 88;
  cnp->size_bytes = kCnpBytes;
  host_.ReceivePacket(std::move(cnp), 0);
  SUCCEED();
}

TEST_F(HostEdgeTest, ActiveInboundCountsDistinctFlows) {
  Deliver(0, 1000, false, 1);
  Deliver(0, 1000, false, 2);
  Deliver(1000, 1000, false, 1);  // same flow again
  EXPECT_EQ(host_.active_inbound_flows(), 2);
}

TEST_F(HostEdgeTest, FlowCompletionDecrementsOnce) {
  Deliver(0, 1000, false, 1);
  Deliver(1000, 1000, true, 1);  // last segment
  EXPECT_EQ(host_.active_inbound_flows(), 0);
  // Late duplicate of the final segment must not go negative.
  Deliver(1000, 1000, true, 1);
  EXPECT_EQ(host_.active_inbound_flows(), 0);
}

TEST_F(HostEdgeTest, AcksCarryConcurrentFlowCount) {
  Deliver(0, 1000, false, 1);
  Deliver(0, 1000, false, 2);
  Deliver(0, 1000, false, 3);
  const auto acks = Acks();
  ASSERT_EQ(acks.size(), 3u);
  EXPECT_EQ(acks[0]->concurrent_flows, 1u);
  EXPECT_EQ(acks[1]->concurrent_flows, 2u);
  EXPECT_EQ(acks[2]->concurrent_flows, 3u);
}

TEST_F(HostEdgeTest, PathIdEchoedIntoAck) {
  PacketPtr p = test::MakeData(sim_.packet_pool(), 1, 0, 1000);
  p->path_id = 0xABC;
  host_.ReceivePacket(std::move(p), 0);
  sim_.RunUntil(Microseconds(2));
  const auto acks = Acks();
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0]->req_path_id, 0xABC);
}

class CoalescingHostTest : public ::testing::Test {
 protected:
  CoalescingHostTest()
      : host_(&sim_, 0, "rx",
              [] {
                HostConfig config;
                config.ack_every = 4;
                return config;
              }()),
        sink_(&sim_, 1, "tx") {
    host_.nic().Connect({&sink_, 0}, 100.0, Nanoseconds(10));
    sink_.nic().Connect({&host_, 0}, 100.0, Nanoseconds(10));
  }

  Simulator sim_;
  Host host_;
  test::SinkEndpoint sink_;
};

TEST_F(CoalescingHostTest, OneAckPerMPackets) {
  for (int i = 0; i < 8; ++i) {
    PacketPtr p = test::MakeData(sim_.packet_pool(), 1, 0, 1000);
    p->seq = static_cast<std::uint64_t>(i) * 1000;
    host_.ReceivePacket(std::move(p), 0);
  }
  sim_.RunUntil(Microseconds(5));
  EXPECT_EQ(sink_.received.size(), 2u);  // 8 packets / m=4
}

TEST_F(CoalescingHostTest, LastOfFlowForcesImmediateAck) {
  PacketPtr p = test::MakeData(sim_.packet_pool(), 1, 0, 1000);
  p->seq = 0;
  p->last_of_flow = true;
  host_.ReceivePacket(std::move(p), 0);
  sim_.RunUntil(Microseconds(5));
  ASSERT_EQ(sink_.received.size(), 1u);  // despite m=4
  EXPECT_EQ(sink_.received[0]->seq, 1000u);
}

// HPCC's echo: a host with attach_int_to_ack copies the INT of the data
// packet it acknowledges into the ACK, in request order.
class IntEchoHostTest : public ::testing::Test {
 protected:
  void Build(bool attach_int_to_ack, int ack_every = 1) {
    HostConfig config;
    config.attach_int_to_ack = attach_int_to_ack;
    config.ack_every = ack_every;
    host_ = std::make_unique<Host>(&sim_, 0, "rx", config);
    host_->nic().Connect({&sink_, 0}, 100.0, Nanoseconds(10));
    sink_.nic().Connect({host_.get(), 0}, 100.0, Nanoseconds(10));
  }

  // Data segment `i` of flow 1, stamped with `hops` request-path entries
  // whose every field is distinct per (i, hop), and its own path id.
  void Deliver(int i, int hops) {
    PacketPtr p = test::MakeData(sim_.packet_pool(), 1, 0, 1000);
    p->seq = static_cast<std::uint64_t>(i) * 1000;
    p->path_id = static_cast<std::uint16_t>(0x100 + i);
    for (int h = 0; h < hops; ++h) p->int_stack.push_back(Hop(i, h));
    host_->ReceivePacket(std::move(p), 0);
  }

  static IntEntry Hop(int i, int h) {
    const int k = 10 * i + h;
    return IntEntry{25.0 * (k + 1), 100 + k, 1'000u * static_cast<unsigned>(k),
                    static_cast<std::uint64_t>(k) * 1'500};
  }

  Simulator sim_;
  test::SinkEndpoint sink_{&sim_, 1, "tx"};
  std::unique_ptr<Host> host_;
};

TEST_F(IntEchoHostTest, HpccAckEchoesDataIntInRequestOrder) {
  Build(/*attach_int_to_ack=*/true);
  Deliver(0, 3);
  sim_.RunUntil(Microseconds(1));
  ASSERT_EQ(sink_.received.size(), 1u);
  const Packet& ack = *sink_.received[0];
  EXPECT_EQ(ack.type, PacketType::kAck);
  ASSERT_EQ(ack.int_stack.size(), 3u);
  for (int h = 0; h < 3; ++h) {
    EXPECT_EQ(ack.int_stack[static_cast<std::size_t>(h)], Hop(0, h)) << h;
  }
  EXPECT_FALSE(ack.int_reversed);
  EXPECT_EQ(ack.size_bytes, kAckBytes + 3 * kIntBytesPerHop);
  EXPECT_EQ(ack.req_path_id, 0x100);
}

TEST_F(IntEchoHostTest, CoalescedAckEchoesTheLastDataPacket) {
  Build(/*attach_int_to_ack=*/true, /*ack_every=*/4);
  for (int i = 0; i < 4; ++i) Deliver(i, i + 1);
  sim_.RunUntil(Microseconds(1));
  ASSERT_EQ(sink_.received.size(), 1u);
  const Packet& ack = *sink_.received[0];
  EXPECT_EQ(ack.seq, 4000u);
  ASSERT_EQ(ack.int_stack.size(), 4u);
  for (int h = 0; h < 4; ++h) {
    EXPECT_EQ(ack.int_stack[static_cast<std::size_t>(h)], Hop(3, h)) << h;
  }
  EXPECT_EQ(ack.req_path_id, 0x103);
  EXPECT_EQ(ack.size_bytes, kAckBytes + 4 * kIntBytesPerHop);
}

TEST_F(IntEchoHostTest, FnccAckAttachesNoIntBlock) {
  Build(/*attach_int_to_ack=*/false);
  Deliver(0, 3);
  sim_.RunUntil(Microseconds(1));
  ASSERT_EQ(sink_.received.size(), 1u);
  const Packet& ack = *sink_.received[0];
  EXPECT_TRUE(ack.int_stack.empty());
  EXPECT_FALSE(ack.int_stack.has_block());
  EXPECT_EQ(ack.size_bytes, kAckBytes);
  EXPECT_EQ(ack.req_path_id, 0x100);
}

}  // namespace
}  // namespace fncc
