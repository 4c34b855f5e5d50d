// Tests for the CE wire encoder and the control lane.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
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

/// Reads fixed-width fields of an encoded CE at ascending offsets.
struct FieldReader {
  const std::vector<std::byte>& wire;
  std::size_t pos{0};

  template <typename T>
  T take() {
    T value{};
    EXPECT_LE(pos + sizeof(T), wire.size());
    if (pos + sizeof(T) <= wire.size()) std::memcpy(&value, wire.data() + pos, sizeof(T));
    pos += sizeof(T);
    return value;
  }
};

// Nothing in the library decodes a CE: these round trips read every field
// back at the offset message.hpp documents and compare it with the spec.
TEST(Message, RoundTripPreservesEverything) {
  const gpusim::KernelLaunchSpec spec = sample_spec();
  std::vector<std::byte> wire;
  const Bytes size = encode_ce(spec, wire);
  EXPECT_EQ(size, wire.size());

  FieldReader r{wire};
  EXPECT_EQ(r.take<std::uint8_t>(), static_cast<std::uint8_t>(MessageKind::ExecuteCe));
  const auto name_len = r.take<std::uint16_t>();
  ASSERT_EQ(name_len, spec.name.size());
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(wire.data() + r.pos), name_len), spec.name);
  r.pos += name_len;
  EXPECT_DOUBLE_EQ(r.take<double>(), spec.flops);
  EXPECT_EQ(r.take<std::uint8_t>(), static_cast<std::uint8_t>(spec.parallelism));
  EXPECT_EQ(r.take<TenantId>(), spec.tenant);
  ASSERT_EQ(r.take<std::uint16_t>(), spec.params.size());
  // Pattern tags: 0 streaming (arg = passes), 1 hot reuse, 2 random (arg =
  // fraction).
  const std::uint8_t tags[] = {0, 1, 2, 0};
  const double args[] = {3.0, 0.0, 0.25, 1.0};
  for (std::size_t i = 0; i < spec.params.size(); ++i) {
    const uvm::ParamAccess& p = spec.params[i];
    EXPECT_EQ(r.take<std::uint32_t>(), p.array);
    EXPECT_EQ(r.take<std::uint8_t>(), static_cast<std::uint8_t>(p.mode));
    EXPECT_EQ(r.take<std::uint8_t>(), tags[i]);
    EXPECT_DOUBLE_EQ(r.take<double>(), args[i]);
    EXPECT_EQ(r.take<std::uint64_t>(), p.range.begin);
    EXPECT_EQ(r.take<std::uint64_t>(), p.range.end);
  }
  EXPECT_EQ(r.pos, wire.size());
}

TEST(Message, EncodedSizeMatchesPrediction) {
  // header(1) + name(2 + len) + flops(8) + parallelism(1) + tenant(4)
  // + count(2) + 30 bytes per parameter (u32 + 2x u8 + f64 + 2x u64).
  const gpusim::KernelLaunchSpec spec = sample_spec();
  std::vector<std::byte> wire;
  EXPECT_EQ(encode_ce(spec, wire), 18 + spec.name.size() + 30 * spec.params.size());
}

TEST(Message, EmptyParamListRoundTrips) {
  std::vector<std::byte> wire;
  encode_ce(sample_spec(), wire);
  // The buffer is reset, not appended to, and an empty parameter list is
  // the header alone.
  gpusim::KernelLaunchSpec noop;
  noop.name = "noop";
  EXPECT_EQ(encode_ce(noop, wire), 18u + 4u);
  ASSERT_EQ(wire.size(), 22u);
  FieldReader r{wire};
  EXPECT_EQ(r.take<std::uint8_t>(), static_cast<std::uint8_t>(MessageKind::ExecuteCe));
  ASSERT_EQ(r.take<std::uint16_t>(), 4u);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(wire.data() + r.pos), 4), "noop");
  r.pos += 4;
  EXPECT_DOUBLE_EQ(r.take<double>(), noop.flops);
  EXPECT_EQ(r.take<std::uint8_t>(), static_cast<std::uint8_t>(noop.parallelism));
  EXPECT_EQ(r.take<TenantId>(), noop.tenant);
  EXPECT_EQ(r.take<std::uint16_t>(), 0u);
  EXPECT_EQ(r.pos, wire.size());
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
