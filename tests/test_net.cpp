// Tests for the simulated network fabric.
#include <gtest/gtest.h>

#include "sim/simulator.hpp"
#include "net/fabric.hpp"

namespace grout::net {
namespace {

struct FabricFixture : ::testing::Test {
  FabricFixture() {
    std::vector<NicSpec> nics;
    nics.push_back(NicSpec{"controller", Bandwidth::mbit_per_sec(8000.0), SimTime::from_us(50.0)});
    nics.push_back(NicSpec{"w0", Bandwidth::mbit_per_sec(4000.0), SimTime::from_us(50.0)});
    nics.push_back(NicSpec{"w1", Bandwidth::mbit_per_sec(4000.0), SimTime::from_us(50.0)});
    fabric = std::make_unique<NetworkFabric>(sim, std::move(nics));
  }

  sim::Simulator sim;
  std::unique_ptr<NetworkFabric> fabric;
};

TEST_F(FabricFixture, BandwidthIsMinOfEndpoints) {
  // controller (1 GB/s) <-> worker (0.5 GB/s) limited by the worker.
  EXPECT_DOUBLE_EQ(fabric->bandwidth(0, 1).bps(), 500e6);
  EXPECT_DOUBLE_EQ(fabric->bandwidth(1, 2).bps(), 500e6);
}

TEST_F(FabricFixture, LatencyIsSumOfEndpoints) {
  EXPECT_EQ(fabric->latency(0, 1), SimTime::from_us(100.0));
}

TEST_F(FabricFixture, LinkOverrideAppliesBothDirections) {
  fabric->set_link_override(1, 2, Bandwidth::mbit_per_sec(1000.0));
  EXPECT_DOUBLE_EQ(fabric->bandwidth(1, 2).bps(), 125e6);
  EXPECT_DOUBLE_EQ(fabric->bandwidth(2, 1).bps(), 125e6);
  // The controller pair is untouched.
  EXPECT_DOUBLE_EQ(fabric->bandwidth(0, 1).bps(), 500e6);
}

TEST_F(FabricFixture, ZeroOverrideIsRejected) {
  fabric->set_link_override(1, 2, Bandwidth::mbit_per_sec(1000.0));
  const std::vector<double> before = fabric->bandwidth_matrix();
  EXPECT_THROW(fabric->set_link_override(1, 2, Bandwidth{}), InvalidArgument);
  // A self override would write the diagonal, which must stay 0.
  EXPECT_THROW(fabric->set_link_override(1, 1, Bandwidth::mbit_per_sec(1000.0)),
               InvalidArgument);
  EXPECT_EQ(fabric->bandwidth_matrix(), before);
}

TEST_F(FabricFixture, TransferTiming) {
  // 500 MB at 500 MB/s + 100 us latency.
  auto done = fabric->transfer(0, 1, Bytes{500000000}, "x");
  sim.run();
  ASSERT_TRUE(done->completed());
  EXPECT_NEAR(done->when().seconds(), 1.0001, 1e-6);
}

TEST_F(FabricFixture, TransfersOnSameTxSerialize) {
  auto first = fabric->transfer(0, 1, Bytes{500000000});
  auto second = fabric->transfer(0, 2, Bytes{500000000});
  sim.run();
  // Both leave via the controller's TX: the second queues behind.
  EXPECT_GE(second->when().seconds(), first->when().seconds() + 0.9);
}

TEST_F(FabricFixture, TransfersOnDisjointPairsOverlap) {
  auto a = fabric->transfer(1, 0, Bytes{500000000});
  auto b = fabric->transfer(2, 0, Bytes{500000000});
  sim.run();
  // Different TX queues, same RX: the controller RX serializes them.
  EXPECT_GT(std::max(a->when(), b->when()).seconds(), 1.9);
}

TEST_F(FabricFixture, ReadyEventGatesTheStart) {
  auto gate = gpusim::make_event();
  auto done = fabric->transfer(0, 1, Bytes{500000}, "gated", gate);
  sim.run();
  EXPECT_FALSE(done->completed());
  sim.schedule_at(SimTime::from_seconds(2.0), [&] { gate->complete(sim.now()); });
  sim.run();
  ASSERT_TRUE(done->completed());
  EXPECT_GT(done->when(), SimTime::from_seconds(2.0));
}

TEST_F(FabricFixture, StatsAccumulate) {
  fabric->transfer(0, 1, Bytes{1000});
  fabric->transfer(1, 2, Bytes{2000});
  sim.run();
  EXPECT_EQ(fabric->total_bytes(), 3000u);
  EXPECT_EQ(fabric->transfer_count(), 2u);
  EXPECT_EQ(fabric->bytes_sent_by(0), 1000u);
  EXPECT_EQ(fabric->bytes_sent_by(1), 2000u);
}

TEST_F(FabricFixture, SelfTransferThrows) {
  EXPECT_THROW(fabric->transfer(1, 1, Bytes{100}), InvalidArgument);
  EXPECT_THROW((void)fabric->bandwidth(1, 1), InvalidArgument);
}

TEST_F(FabricFixture, UnknownNodeThrows) {
  EXPECT_THROW(fabric->transfer(0, 9, Bytes{100}), InvalidArgument);
  EXPECT_THROW((void)fabric->bandwidth(0, -1), InvalidArgument);
}

TEST(FabricConstruction, NeedsTwoNodes) {
  sim::Simulator sim;
  std::vector<NicSpec> one{NicSpec{"solo", Bandwidth::mbit_per_sec(1000.0), SimTime::zero()}};
  EXPECT_THROW(NetworkFabric(sim, std::move(one)), InvalidArgument);
}

TEST(FabricConstruction, PaperBandwidths) {
  // 4000 Mbit/s == 500 MB/s; 8000 Mbit/s == 1 GB/s (decimal convention).
  EXPECT_DOUBLE_EQ(Bandwidth::mbit_per_sec(4000.0).bps(), 500e6);
  EXPECT_DOUBLE_EQ(Bandwidth::mbit_per_sec(8000.0).bps(), 1000e6);
}

}  // namespace
}  // namespace grout::net
