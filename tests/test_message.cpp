// Tests for the CE wire codec and the control lane.
#include <gtest/gtest.h>

#include <optional>

#include "sim/simulator.hpp"
#include "common/rng.hpp"
#include "net/fabric.hpp"
#include "net/message.hpp"

namespace grout::net {
namespace {

gpusim::KernelLaunchSpec sample_spec() {
  gpusim::KernelLaunchSpec spec;
  spec.name = "bs-partition-3";
  spec.flops = 2.5e11;
  spec.parallelism = uvm::Parallelism::Massive;
  spec.params.push_back(uvm::ParamAccess{7, uvm::ByteRange{0, 4_MiB}, uvm::AccessMode::Read,
                                         uvm::StreamingPattern{3}});
  spec.params.push_back(uvm::ParamAccess{8, uvm::ByteRange{}, uvm::AccessMode::ReadWrite,
                                         uvm::HotReusePattern{}});
  spec.params.push_back(uvm::ParamAccess{9, uvm::ByteRange{1_MiB, 2_MiB},
                                         uvm::AccessMode::Write,
                                         uvm::RandomPattern{0.25, 42}});
  spec.params.push_back(
      uvm::ParamAccess{10, uvm::ByteRange{}, uvm::AccessMode::Read, uvm::StreamingPattern{1}});
  return spec;
}

TEST(Message, RoundTripPreservesEverything) {
  const gpusim::KernelLaunchSpec original = sample_spec();
  std::vector<std::byte> wire;
  const Bytes size = encode_ce(original, wire);
  EXPECT_EQ(size, wire.size());

  const gpusim::KernelLaunchSpec decoded = decode_ce(wire);
  EXPECT_EQ(decoded.name, original.name);
  EXPECT_DOUBLE_EQ(decoded.flops, original.flops);
  EXPECT_EQ(decoded.parallelism, original.parallelism);
  ASSERT_EQ(decoded.params.size(), original.params.size());
  for (std::size_t i = 0; i < original.params.size(); ++i) {
    EXPECT_EQ(decoded.params[i].array, original.params[i].array);
    EXPECT_EQ(decoded.params[i].mode, original.params[i].mode);
    EXPECT_EQ(decoded.params[i].range.begin, original.params[i].range.begin);
    EXPECT_EQ(decoded.params[i].range.end, original.params[i].range.end);
    EXPECT_EQ(decoded.params[i].pattern.index(), original.params[i].pattern.index());
  }
  const auto* streaming = std::get_if<uvm::StreamingPattern>(&decoded.params[0].pattern);
  ASSERT_NE(streaming, nullptr);
  EXPECT_EQ(streaming->passes, 3u);
  const auto* random = std::get_if<uvm::RandomPattern>(&decoded.params[2].pattern);
  ASSERT_NE(random, nullptr);
  EXPECT_DOUBLE_EQ(random->fraction, 0.25);
}

TEST(Message, EncodedSizeMatchesPrediction) {
  const gpusim::KernelLaunchSpec spec = sample_spec();
  std::vector<std::byte> wire;
  EXPECT_EQ(encode_ce(spec, wire), encoded_ce_size(spec));
}

TEST(Message, EmptyParamListRoundTrips) {
  gpusim::KernelLaunchSpec spec;
  spec.name = "noop";
  std::vector<std::byte> wire;
  encode_ce(spec, wire);
  const gpusim::KernelLaunchSpec decoded = decode_ce(wire);
  EXPECT_EQ(decoded.name, "noop");
  EXPECT_TRUE(decoded.params.empty());
}

TEST(Message, TruncatedMessageThrows) {
  std::vector<std::byte> wire;
  encode_ce(sample_spec(), wire);
  for (const std::size_t cut : {std::size_t{0}, wire.size() / 2, wire.size() - 1}) {
    EXPECT_THROW(decode_ce(std::span(wire.data(), cut)), InvalidArgument) << "cut=" << cut;
  }
}

TEST(Message, TrailingBytesThrow) {
  std::vector<std::byte> wire;
  encode_ce(sample_spec(), wire);
  wire.push_back(std::byte{0});
  EXPECT_THROW(decode_ce(wire), InvalidArgument);
}

TEST(Message, WrongKindThrows) {
  std::vector<std::byte> wire;
  encode_ce(sample_spec(), wire);
  wire[0] = std::byte{4};  // any byte but ExecuteCe's
  EXPECT_THROW(decode_ce(wire), InvalidArgument);
}

TEST(Message, CorruptedEnumsThrow) {
  std::vector<std::byte> wire;
  encode_ce(sample_spec(), wire);
  // parallelism byte sits right after kind + name + flops.
  const std::size_t parallelism_at = 1 + 2 + sample_spec().name.size() + 8;
  std::vector<std::byte> bad = wire;
  bad[parallelism_at] = std::byte{0xEE};
  EXPECT_THROW(decode_ce(bad), InvalidArgument);
  // The first parameter's pattern tag follows the tenant (4 bytes), the
  // parameter count (2), the array id (4) and the access mode (1). Tags 0-2
  // are the streaming, hot-reuse and random patterns; no other tag decodes.
  const std::size_t tag_at = parallelism_at + 1 + 4 + 2 + 4 + 1;
  ASSERT_EQ(wire[tag_at], std::byte{0});
  for (const std::byte tag : {std::byte{3}, std::byte{0xEE}}) {
    bad = wire;
    bad[tag_at] = tag;
    EXPECT_THROW(decode_ce(bad), InvalidArgument) << "tag " << static_cast<int>(tag);
  }
}

TEST(Message, FuzzDecodeNeverCrashes) {
  Rng rng(0xFADE);
  std::vector<std::byte> wire;
  encode_ce(sample_spec(), wire);
  for (int round = 0; round < 500; ++round) {
    std::vector<std::byte> mutated = wire;
    const std::size_t flips = 1 + rng.next_below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.next_below(mutated.size())] =
          static_cast<std::byte>(rng.next_below(256));
    }
    try {
      (void)decode_ce(mutated);  // either succeeds or throws cleanly
    } catch (const Error&) {
    }
  }
  SUCCEED();
}

TEST(ControlLane, DoesNotQueueBehindBulkTransfers) {
  sim::Simulator sim;
  std::vector<NicSpec> nics{
      NicSpec{"ctl", Bandwidth::mbit_per_sec(8000.0), SimTime::from_us(50.0)},
      NicSpec{"w0", Bandwidth::mbit_per_sec(4000.0), SimTime::from_us(50.0)}};
  NetworkFabric fabric(sim, std::move(nics));
  // A 5 GB bulk transfer occupies the TX queue for ~10 s.
  fabric.transfer(0, 1, Bytes{5000000000});
  std::optional<SimTime> delivered;
  fabric.send_command(0, 1, Bytes{128}, [&] { delivered = sim.now(); }, /*ce_bundle=*/true);
  sim.run();
  ASSERT_TRUE(delivered.has_value());
  EXPECT_LT(delivered->seconds(), 0.01);  // latency-bound, not queued
}

TEST(ControlLane, PaysLatencyAndSerialization) {
  sim::Simulator sim;
  std::vector<NicSpec> nics{
      NicSpec{"ctl", Bandwidth::mbit_per_sec(8000.0), SimTime::from_us(50.0)},
      NicSpec{"w0", Bandwidth::mbit_per_sec(4000.0), SimTime::from_us(50.0)}};
  NetworkFabric fabric(sim, std::move(nics));
  std::optional<SimTime> delivered;
  fabric.send_command(0, 1, Bytes{500000}, [&] { delivered = sim.now(); },  // 1 ms at 500 MB/s
                      /*ce_bundle=*/true);
  sim.run();
  ASSERT_TRUE(delivered.has_value());
  EXPECT_NEAR(delivered->seconds(), 100e-6 + 1e-3, 1e-6);
}

}  // namespace
}  // namespace grout::net
