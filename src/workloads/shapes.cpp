#include "workloads/shapes.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <memory>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"

namespace grout::workloads {

namespace {

/// A polyglot backend that runs nothing: it records the arrays a program
/// allocates, which of them the host initializes, and every CE it launches
/// in issue order. ArrayRefs are indices into ProgramShape::arrays.
class ShapeRecorder final : public polyglot::Backend {
 public:
  explicit ShapeRecorder(ProgramShape& shape) : shape_{shape} {}

  polyglot::ArrayRef alloc(Bytes bytes, std::string name) override {
    shape_.arrays.push_back({std::move(name), bytes, /*host_init=*/false});
    used_.push_back(false);
    return static_cast<polyglot::ArrayRef>(shape_.arrays.size() - 1);
  }

  void notify_host_write(polyglot::ArrayRef array) override {
    GROUT_REQUIRE(!used_[array], "program shape: host write to '" + name_of(array) +
                                     "' after a CE used it; a shape models only host "
                                     "initialization before first use");
    shape_.arrays[array].host_init = true;
  }

  void advise(polyglot::ArrayRef array, uvm::Advise) override {
    GROUT_REQUIRE(false, "program shape: cannot record a memory advise on '" +
                             name_of(array) + "'; shapes carry no hints");
  }

  void ensure_host_readable(polyglot::ArrayRef array) override {
    GROUT_REQUIRE(false, "program shape: cannot record a host read of '" + name_of(array) +
                             "'; shapes carry no mid-program host reads");
  }

  void launch(gpusim::KernelLaunchSpec spec) override {
    ShapeCe ce;
    ce.name = std::move(spec.name);
    ce.flops = spec.flops;
    ce.parallelism = spec.parallelism;
    for (const uvm::ParamAccess& access : spec.params) {
      used_[access.array] = true;
      ce.params.push_back({access.array, access.mode, access.pattern, access.range});
    }
    shape_.ces.push_back(std::move(ce));
  }

  bool synchronize() override { return true; }
  [[nodiscard]] SimTime now() const override { return SimTime::zero(); }
  [[nodiscard]] polyglot::BackendKind kind() const override {
    return polyglot::BackendKind::GrOUT;
  }

 private:
  [[nodiscard]] const std::string& name_of(polyglot::ArrayRef array) const {
    return shape_.arrays[array].name;
  }

  ProgramShape& shape_;
  std::vector<bool> used_;  ///< per array: some recorded CE touched it
};

}  // namespace

ProgramShape record_program_shape(Workload& workload) {
  ProgramShape shape;
  polyglot::ContextConfig config;
  config.materialize_limit = 0;
  polyglot::Context ctx(std::make_unique<ShapeRecorder>(shape), config);
  workload.build(ctx);
  workload.run(ctx);
  return shape;
}

ProgramShape make_program_shape(WorkloadKind kind, const WorkloadParams& params) {
  return record_program_shape(*make_workload(kind, params));
}

Bytes ProgramShape::footprint() const {
  Bytes total = 0;
  for (const ShapeArray& a : arrays) total += a.bytes;
  return total;
}

namespace {

double parse_spec_double(std::string_view key, std::string_view text) {
  double value = 0.0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  GROUT_REQUIRE(ec == std::errc{} && end == text.data() + text.size(),
                "contention spec: malformed number for '" + std::string(key) + "'");
  GROUT_REQUIRE(std::isfinite(value),
                "contention spec: '" + std::string(key) + "' must be finite");
  return value;
}

std::size_t parse_spec_count(std::string_view key, std::string_view text) {
  std::size_t value = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  GROUT_REQUIRE(ec == std::errc{} && end == text.data() + text.size() && value > 0,
                "contention spec: '" + std::string(key) + "' must be a positive integer");
  return value;
}

}  // namespace

ContentionSpec parse_contention(std::string_view text) {
  ContentionSpec spec;
  GROUT_REQUIRE(!trim(text).empty(), "contention spec: empty");
  bool saw_theta = false, saw_rw = false, saw_shared = false;
  for (const std::string_view field : split(text, ',')) {
    const std::vector<std::string_view> kv = split(field, '=');
    GROUT_REQUIRE(kv.size() == 2,
                  "contention spec: expected key=value, got '" + std::string(field) + "'");
    const std::string_view key = trim(kv[0]);
    const std::string_view val = trim(kv[1]);
    if (key == "theta") {
      spec.theta = parse_spec_double(key, val);
      GROUT_REQUIRE(spec.theta >= 0.0 && spec.theta < 1.0,
                    "contention spec: theta must be in [0, 1)");
      saw_theta = true;
    } else if (key == "rw") {
      spec.read_fraction = parse_spec_double(key, val);
      GROUT_REQUIRE(spec.read_fraction >= 0.0 && spec.read_fraction <= 1.0,
                    "contention spec: rw (read fraction) must be in [0, 1]");
      saw_rw = true;
    } else if (key == "shared") {
      spec.shared_fraction = parse_spec_double(key, val);
      GROUT_REQUIRE(spec.shared_fraction >= 0.0 && spec.shared_fraction <= 1.0,
                    "contention spec: shared fraction must be in [0, 1]");
      saw_shared = true;
    } else if (key == "pool") {
      spec.pool_arrays = parse_spec_count(key, val);
    } else if (key == "bytes") {
      spec.array_bytes = parse_spec_count(key, val);
    } else if (key == "ops") {
      spec.ops = parse_spec_count(key, val);
    } else if (key == "keys") {
      spec.keys_per_op = parse_spec_count(key, val);
    } else {
      GROUT_REQUIRE(false, "contention spec: unknown key '" + std::string(key) + "'");
    }
  }
  GROUT_REQUIRE(saw_theta && saw_rw && saw_shared,
                "contention spec: theta, rw and shared are required");
  GROUT_REQUIRE(spec.keys_per_op <= spec.pool_arrays,
                "contention spec: keys must not exceed pool");
  return spec;
}

std::string to_string(const ContentionSpec& spec) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "theta=%.3f,rw=%.3f,shared=%.3f,pool=%zu,bytes=%llu,ops=%zu,keys=%zu",
                spec.theta, spec.read_fraction, spec.shared_fraction, spec.pool_arrays,
                static_cast<unsigned long long>(spec.array_bytes), spec.ops,
                spec.keys_per_op);
  return buf;
}

ProgramShape make_contention_shape(const ContentionSpec& spec, std::uint64_t seed) {
  GROUT_REQUIRE(spec.pool_arrays >= 1, "contention pool must be non-empty");
  return make_contention_shape(spec, ZipfGenerator{spec.pool_arrays, spec.theta}, seed);
}

ProgramShape make_contention_shape(const ContentionSpec& spec, const ZipfGenerator& zipf,
                                   std::uint64_t seed) {
  GROUT_REQUIRE(zipf.n() == spec.pool_arrays && zipf.theta() == spec.theta,
                "contention sampler does not match the spec's pool and skew");
  GROUT_REQUIRE(spec.ops >= 1, "contention program needs at least one op");
  GROUT_REQUIRE(spec.keys_per_op >= 1 && spec.keys_per_op <= spec.pool_arrays,
                "contention keys_per_op out of range");
  Rng rng{seed};

  ProgramShape shape;
  // Private side: a couple of host-initialized locals standing in for the
  // tenant's own (uncontended) state, plus a scratch array each op writes.
  const std::size_t kLocals = 2;
  std::vector<std::size_t> locals(kLocals);
  for (std::size_t j = 0; j < kLocals; ++j) {
    locals[j] = shape.arrays.size();
    shape.arrays.push_back(
        {str_cat("local", std::to_string(j)), spec.array_bytes, /*host_init=*/true});
  }
  const std::size_t scratch = shape.arrays.size();
  shape.arrays.push_back({"scratch", spec.array_bytes, /*host_init=*/false});

  const std::size_t elems = std::max<std::size_t>(spec.array_bytes / 4, 1);
  for (std::size_t op = 0; op < spec.ops; ++op) {
    const bool update = rng.next_double() >= spec.read_fraction;
    ShapeCe ce;
    ce.name = update ? "ycsb-update" : "ycsb-read";
    ce.flops = 16.0 * static_cast<double>(elems);
    ce.parallelism = uvm::Parallelism::High;
    // Sample keys_per_op keys; a launch must not name the same array twice,
    // so duplicate draws are resampled (bounded) rather than dropped —
    // otherwise high skew would silently thin out CEs and mask contention.
    std::vector<std::size_t> picked_shared;
    std::vector<std::size_t> picked_local;
    for (std::size_t k = 0; k < spec.keys_per_op; ++k) {
      const bool shared = rng.next_double() < spec.shared_fraction;
      if (shared) {
        std::size_t key = zipf.next(rng);
        for (int attempt = 0; attempt < 16; ++attempt) {
          if (std::find(picked_shared.begin(), picked_shared.end(), key) ==
              picked_shared.end()) {
            break;
          }
          key = zipf.next(rng);
        }
        if (std::find(picked_shared.begin(), picked_shared.end(), key) !=
            picked_shared.end()) {
          continue;
        }
        picked_shared.push_back(key);
        // The first shared key of an update op is read-modified-written in
        // place — the ownership ping-pong the directory has to absorb.
        const bool write_key = update && picked_shared.size() == 1;
        ShapeParam param{key,
                         write_key ? uvm::AccessMode::ReadWrite : uvm::AccessMode::Read,
                         uvm::HotReusePattern{},
                         {}};
        param.shared = true;
        ce.params.push_back(param);
      } else {
        const std::size_t local = locals[rng.next_below(kLocals)];
        if (std::find(picked_local.begin(), picked_local.end(), local) !=
            picked_local.end()) {
          continue;
        }
        picked_local.push_back(local);
        ce.params.push_back({local, uvm::AccessMode::Read, uvm::StreamingPattern{}, {}});
      }
    }
    if (ce.params.empty()) {
      // All samples collided; fall back to a deterministic hot-key read.
      ShapeParam param{zipf.next(rng), uvm::AccessMode::Read, uvm::HotReusePattern{}, {}};
      param.shared = true;
      ce.params.push_back(param);
    }
    ce.params.push_back({scratch, uvm::AccessMode::Write, uvm::StreamingPattern{}, {}});
    shape.ces.push_back(std::move(ce));
  }
  return shape;
}

}  // namespace grout::workloads
