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

}  // namespace grout::net
