#include "net/message.hpp"

#include <cstring>
#include <string>
#include <type_traits>

#include "common/error.hpp"

namespace grout::net {

namespace {

class Writer {
 public:
  explicit Writer(std::vector<std::byte>& out) : out_{out} { out_.clear(); }

  template <typename T>
  void put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t offset = out_.size();
    out_.resize(offset + sizeof(T));
    std::memcpy(out_.data() + offset, &value, sizeof(T));
  }

  void put_string(const std::string& s) {
    GROUT_REQUIRE(s.size() <= UINT16_MAX, "kernel name too long for the wire");
    put<std::uint16_t>(static_cast<std::uint16_t>(s.size()));
    const std::size_t offset = out_.size();
    out_.resize(offset + s.size());
    std::memcpy(out_.data() + offset, s.data(), s.size());
  }

 private:
  std::vector<std::byte>& out_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::byte> wire) : wire_{wire} {}

  template <typename T>
  T take() {
    static_assert(std::is_trivially_copyable_v<T>);
    GROUT_REQUIRE(pos_ + sizeof(T) <= wire_.size(), "truncated CE message");
    T value;
    std::memcpy(&value, wire_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  std::string take_string() {
    const auto len = take<std::uint16_t>();
    GROUT_REQUIRE(pos_ + len <= wire_.size(), "truncated CE message");
    std::string s(reinterpret_cast<const char*>(wire_.data() + pos_), len);
    pos_ += len;
    return s;
  }

  [[nodiscard]] bool exhausted() const { return pos_ == wire_.size(); }

 private:
  std::span<const std::byte> wire_;
  std::size_t pos_{0};
};

/// Patterns travel as a tag; the detailed parameter (passes or fraction)
/// rides along as one f64.
struct PatternWire {
  std::uint8_t tag;
  double arg;
};

PatternWire pattern_to_wire(const uvm::AccessPattern& pattern) {
  struct Visitor {
    PatternWire operator()(const uvm::StreamingPattern& p) const {
      return {0, static_cast<double>(p.passes)};
    }
    PatternWire operator()(const uvm::HotReusePattern&) const { return {1, 0.0}; }
    PatternWire operator()(const uvm::RandomPattern& p) const { return {2, p.fraction}; }
  };
  return std::visit(Visitor{}, pattern);
}

uvm::AccessPattern wire_to_pattern(PatternWire wire) {
  switch (wire.tag) {
    case 0: return uvm::StreamingPattern{static_cast<std::uint32_t>(wire.arg)};
    case 1: return uvm::HotReusePattern{};
    case 2: return uvm::RandomPattern{wire.arg, 0};
    default: throw InvalidArgument("unknown access-pattern tag on the wire");
  }
}

}  // namespace

Bytes encode_ce(const gpusim::KernelLaunchSpec& spec, std::vector<std::byte>& out) {
  Writer w(out);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(MessageKind::ExecuteCe));
  w.put_string(spec.name);
  w.put<double>(spec.flops);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(spec.parallelism));
  w.put<TenantId>(spec.tenant);
  GROUT_REQUIRE(spec.params.size() <= UINT16_MAX, "too many CE parameters");
  w.put<std::uint16_t>(static_cast<std::uint16_t>(spec.params.size()));
  for (const uvm::ParamAccess& p : spec.params) {
    w.put<std::uint32_t>(p.array);
    w.put<std::uint8_t>(static_cast<std::uint8_t>(p.mode));
    const PatternWire pw = pattern_to_wire(p.pattern);
    w.put<std::uint8_t>(pw.tag);
    w.put<double>(pw.arg);
    w.put<std::uint64_t>(p.range.begin);
    w.put<std::uint64_t>(p.range.end);
  }
  return out.size();
}

gpusim::KernelLaunchSpec decode_ce(std::span<const std::byte> wire) {
  Reader r(wire);
  const auto kind = r.take<std::uint8_t>();
  GROUT_REQUIRE(kind == static_cast<std::uint8_t>(MessageKind::ExecuteCe),
                "message is not an ExecuteCe");
  gpusim::KernelLaunchSpec spec;
  spec.name = r.take_string();
  spec.flops = r.take<double>();
  const auto parallelism = r.take<std::uint8_t>();
  GROUT_REQUIRE(parallelism <= static_cast<std::uint8_t>(uvm::Parallelism::Massive),
                "bad parallelism class on the wire");
  spec.parallelism = static_cast<uvm::Parallelism>(parallelism);
  spec.tenant = r.take<TenantId>();
  const auto count = r.take<std::uint16_t>();
  spec.params.reserve(count);
  for (std::uint16_t i = 0; i < count; ++i) {
    uvm::ParamAccess p;
    p.array = r.take<std::uint32_t>();
    const auto mode = r.take<std::uint8_t>();
    GROUT_REQUIRE(mode <= static_cast<std::uint8_t>(uvm::AccessMode::ReadWrite),
                  "bad access mode on the wire");
    p.mode = static_cast<uvm::AccessMode>(mode);
    PatternWire pw;
    pw.tag = r.take<std::uint8_t>();
    pw.arg = r.take<double>();
    p.pattern = wire_to_pattern(pw);
    p.range.begin = r.take<std::uint64_t>();
    p.range.end = r.take<std::uint64_t>();
    spec.params.push_back(std::move(p));
  }
  GROUT_REQUIRE(r.exhausted(), "trailing bytes after CE message");
  return spec;
}

Bytes encoded_ce_size(const gpusim::KernelLaunchSpec& spec) {
  // header(1) + name(2 + len) + flops(8) + parallelism(1) + tenant(4)
  // + count(2) + 30 bytes per parameter (u32 + 2x u8 + f64 + 2x u64).
  return 18 + spec.name.size() + spec.params.size() * 30;
}

}  // namespace grout::net
