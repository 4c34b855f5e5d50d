#include "workloads/workloads.hpp"

#include <cmath>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace grout::workloads {

using polyglot::ArrayBinding;
using polyglot::Context;
using polyglot::DeviceArray;
using polyglot::ElemType;
using polyglot::KernelArgs;
using polyglot::KernelObject;
using polyglot::KernelParamInfo;
using polyglot::Value;

namespace {

constexpr std::size_t kBlock = 256;

std::size_t grid_for(std::size_t n) { return (n + kBlock - 1) / kBlock; }

KernelParamInfo pointer_param(std::string name, uvm::AccessMode mode,
                              uvm::AccessPattern pattern = uvm::StreamingPattern{}) {
  KernelParamInfo p;
  p.name = std::move(name);
  p.pointer = true;
  p.type = ElemType::F32;
  p.mode = mode;
  p.pattern = pattern;
  return p;
}

KernelParamInfo scalar_param(std::string name) {
  KernelParamInfo p;
  p.name = std::move(name);
  p.pointer = false;
  p.type = ElemType::I64;
  p.mode = uvm::AccessMode::Read;
  return p;
}

void launch(Context& ctx, const std::shared_ptr<KernelObject>& kernel, std::size_t threads,
            std::vector<Value> args) {
  polyglot::BoundKernel bound;
  bound.kernel = kernel;
  bound.grid_dim = grid_for(threads);
  bound.block_dim = kBlock;
  ctx.launch(bound, args);
}

}  // namespace

const char* to_string(WorkloadKind k) {
  switch (k) {
    case WorkloadKind::BlackScholes: return "BS";
    case WorkloadKind::Mle: return "MLE";
    case WorkloadKind::Cg: return "CG";
    case WorkloadKind::Mv: return "MV";
    case WorkloadKind::Irregular: return "IRR";
  }
  return "?";
}

// ===========================================================================
// Black–Scholes (Figure 1)
// ===========================================================================

namespace {

constexpr const char* kBlackScholesSource = R"(
extern "C" __global__ void bs(const float* x, float* call, float* put, int n,
                              float r, float v, float t, float k) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    float s = x[i];
    float rootT = sqrt(t);
    float d1 = (log(s / k) + (r + 0.5 * v * v) * t) / (v * rootT);
    float d2 = d1 - v * rootT;
    float nd1 = normcdf(d1);
    float nd2 = normcdf(d2);
    float discount = k * exp(-r * t);
    call[i] = s * nd1 - discount * nd2;
    put[i] = discount * (1.0 - nd2) - s * (1.0 - nd1);
  }
}
)";

constexpr double kRate = 0.05;
constexpr double kVolatility = 0.3;
constexpr double kMaturity = 1.0;
constexpr double kStrike = 100.0;

class BlackScholesWorkload final : public Workload {
 public:
  explicit BlackScholesWorkload(WorkloadParams params) : Workload(params) {}

  [[nodiscard]] std::string name() const override { return "BS"; }

  void build(Context& ctx) override {
    const std::size_t elems_total = params_.footprint / (3 * 4);
    elems_per_part_ = std::max<std::size_t>(1, elems_total / params_.partitions);

    Value builder = ctx.eval("buildkernel");
    Value kernel_value = builder(
        Value(kBlackScholesSource),
        Value("bs(x: const pointer float, call: out pointer float, put: out pointer float, "
              "n: sint32, r: float, v: float, t: float, k: float)"));
    kernel_ = kernel_value.as_kernel();
    kernel_->set_parallelism(uvm::Parallelism::Massive);

    for (std::size_t j = 0; j < params_.partitions; ++j) {
      spot_.push_back(ctx.alloc_array(ElemType::F32, elems_per_part_,
                                      str_cat("spot", std::to_string(j))));
      call_.push_back(ctx.alloc_array(ElemType::F32, elems_per_part_,
                                      str_cat("call", std::to_string(j))));
      put_.push_back(ctx.alloc_array(ElemType::F32, elems_per_part_,
                                     str_cat("put", std::to_string(j))));
      // Spot prices clustered around the strike.
      spot_[j]->init([](std::size_t i) {
        return 60.0 + static_cast<double>((i * 2654435761u) % 8000) / 100.0;
      });
    }
  }

  void run(Context& ctx) override {
    for (std::size_t iter = 0; iter < params_.iterations; ++iter) {
      for (std::size_t j = 0; j < params_.partitions; ++j) {
        launch(ctx, kernel_, elems_per_part_,
               {Value(spot_[j]), Value(call_[j]), Value(put_[j]),
                Value(static_cast<std::int64_t>(elems_per_part_)), Value(kRate),
                Value(kVolatility), Value(kMaturity), Value(kStrike)});
        ++ces_issued_;
      }
    }
  }

  bool verify(Context& ctx) override {
    (void)ctx;
    if (!spot_.front()->materialized()) return true;
    // Put-call parity: C - P = S - K*exp(-rT).
    const double discount = kStrike * std::exp(-kRate * kMaturity);
    for (std::size_t i = 0; i < std::min<std::size_t>(64, elems_per_part_); ++i) {
      const double s = spot_.front()->get(i);
      const double c = call_.front()->get(i);
      const double p = put_.front()->get(i);
      if (std::fabs((c - p) - (s - discount)) > 1e-3 * kStrike) return false;
      if (c < 0.0 || p < 0.0) return false;
    }
    return true;
  }

 private:
  std::size_t elems_per_part_{0};
  std::shared_ptr<KernelObject> kernel_;
  std::vector<std::shared_ptr<DeviceArray>> spot_, call_, put_;
};

}  // namespace

// ===========================================================================
// MV: row-partitioned dense matrix-vector product
// ===========================================================================

namespace {

/// y = A x for a rows x cols row-major block. An optional third scalar
/// gives the first row's offset within a larger shared matrix.
void host_spmv(const KernelArgs& args, std::size_t, std::size_t) {
  const ArrayBinding& a = args.arrays[0];
  const ArrayBinding& x = args.arrays[1];
  const ArrayBinding& y = args.arrays[2];
  const auto rows = static_cast<std::size_t>(args.scalars[0]);
  const auto cols = static_cast<std::size_t>(args.scalars[1]);
  const std::size_t row0 =
      args.scalars.size() > 2 ? static_cast<std::size_t>(args.scalars[2]) : 0;
  for (std::size_t r = 0; r < rows; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < cols; ++c) {
      acc += a.get((row0 + r) * cols + c) * x.get(c);
    }
    y.set(r, acc);
  }
}

class MvWorkload final : public Workload {
 public:
  explicit MvWorkload(WorkloadParams params) : Workload(params) {}

  [[nodiscard]] std::string name() const override { return "MV"; }

  void build(Context& ctx) override {
    n_ = static_cast<std::size_t>(std::sqrt(static_cast<double>(params_.footprint) / 4.0));
    n_ = std::max<std::size_t>(n_, params_.partitions);
    rows_per_part_ = n_ / params_.partitions;

    std::vector<KernelParamInfo> kernel_params = {
        pointer_param("a", uvm::AccessMode::Read),
        pointer_param("x", uvm::AccessMode::Read, uvm::HotReusePattern{}),
        pointer_param("y", uvm::AccessMode::Write), scalar_param("rows"),
        scalar_param("cols")};
    if (params_.shared_matrix) kernel_params.push_back(scalar_param("row0"));
    kernel_ = ctx.register_native_kernel(
        "mv", std::move(kernel_params), host_spmv,
        /*flops_per_thread=*/2.0 * static_cast<double>(n_), uvm::Parallelism::Massive);

    x_ = ctx.alloc_array(ElemType::F32, n_, "x");
    x_->init([](std::size_t i) { return 1.0 / (1.0 + static_cast<double>(i % 97)); });
    if (params_.shared_matrix) {
      a_.push_back(ctx.alloc_array(ElemType::F32,
                                   rows_per_part_ * params_.partitions * n_, "A"));
      a_[0]->init([](std::size_t i) {
        return static_cast<double>((i * 31) % 100) / 100.0;
      });
    }
    for (std::size_t j = 0; j < params_.partitions; ++j) {
      if (!params_.shared_matrix) {
        a_.push_back(ctx.alloc_array(ElemType::F32, rows_per_part_ * n_,
                                     str_cat("A", std::to_string(j))));
        a_[j]->init([j](std::size_t i) {
          return static_cast<double>((i * 31 + j * 17) % 100) / 100.0;
        });
      }
      y_.push_back(ctx.alloc_array(ElemType::F32, rows_per_part_, str_cat("y", std::to_string(j))));
    }
  }

  void run(Context& ctx) override {
    for (std::size_t iter = 0; iter < params_.iterations; ++iter) {
      for (std::size_t j = 0; j < params_.partitions; ++j) {
        if (params_.shared_matrix) {
          const Bytes row_bytes = n_ * 4;
          const uvm::ByteRange a_range{j * rows_per_part_ * row_bytes,
                                       (j + 1) * rows_per_part_ * row_bytes};
          polyglot::BoundKernel bound;
          bound.kernel = kernel_;
          bound.grid_dim = (rows_per_part_ + 255) / 256;
          bound.block_dim = 256;
          ctx.launch(bound,
                     {Value(a_[0]), Value(x_), Value(y_[j]),
                      Value(static_cast<std::int64_t>(rows_per_part_)),
                      Value(static_cast<std::int64_t>(n_)),
                      Value(static_cast<std::int64_t>(j * rows_per_part_))},
                     {a_range, uvm::ByteRange{}, uvm::ByteRange{}});
        } else {
          launch(ctx, kernel_, rows_per_part_,
                 {Value(a_[j]), Value(x_), Value(y_[j]),
                  Value(static_cast<std::int64_t>(rows_per_part_)),
                  Value(static_cast<std::int64_t>(n_))});
        }
        ++ces_issued_;
      }
    }
  }

  bool verify(Context& ctx) override {
    (void)ctx;
    if (!a_.front()->materialized() || !x_->materialized()) return true;
    for (std::size_t r = 0; r < std::min<std::size_t>(4, rows_per_part_); ++r) {
      double expect = 0.0;
      for (std::size_t c = 0; c < n_; ++c) {
        expect += a_.front()->get(r * n_ + c) * x_->get(c);
      }
      const double got = y_.front()->get(r);
      if (std::fabs(got - expect) > 1e-3 * (1.0 + std::fabs(expect))) return false;
    }
    return true;
  }

 private:
  std::size_t n_{0};
  std::size_t rows_per_part_{0};
  std::shared_ptr<KernelObject> kernel_;
  std::shared_ptr<DeviceArray> x_;
  std::vector<std::shared_ptr<DeviceArray>> a_, y_;
};

}  // namespace

// ===========================================================================
// CG: conjugate gradient (inter-dependent CEs stressing the network)
// ===========================================================================

namespace {

/// One CG step: alpha/beta reductions plus the x/r/p updates, given the
/// per-partition t_j = A_j p blocks. Parameter order:
///   t_0..t_{P-1} (read), r (rw), p (rw), x (rw); scalars: n, rows_per_part.
void host_cg_step(const KernelArgs& args, std::size_t, std::size_t) {
  const std::size_t partitions = args.arrays.size() - 3;
  const ArrayBinding& r = args.arrays[partitions];
  const ArrayBinding& p = args.arrays[partitions + 1];
  const ArrayBinding& x = args.arrays[partitions + 2];
  const auto n = static_cast<std::size_t>(args.scalars[0]);
  const auto rows = static_cast<std::size_t>(args.scalars[1]);

  const auto t_at = [&](std::size_t i) {
    return args.arrays[i / rows].get(i % rows);
  };

  double rr = 0.0;
  double pt = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    rr += r.get(i) * r.get(i);
    pt += p.get(i) * t_at(i);
  }
  if (pt == 0.0) return;  // converged / degenerate
  const double alpha = rr / pt;

  double rr_new = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    x.set(i, x.get(i) + alpha * p.get(i));
    const double ri = r.get(i) - alpha * t_at(i);
    r.set(i, ri);
    rr_new += ri * ri;
  }
  const double beta = rr == 0.0 ? 0.0 : rr_new / rr;
  for (std::size_t i = 0; i < n; ++i) {
    p.set(i, r.get(i) + beta * p.get(i));
  }
}

class CgWorkload final : public Workload {
 public:
  explicit CgWorkload(WorkloadParams params) : Workload(params) {}

  [[nodiscard]] std::string name() const override { return "CG"; }

  void build(Context& ctx) override {
    n_ = static_cast<std::size_t>(std::sqrt(static_cast<double>(params_.footprint) / 4.0));
    n_ = std::max<std::size_t>(n_, params_.partitions);
    rows_per_part_ = n_ / params_.partitions;

    spmv_ = ctx.register_native_kernel(
        "cg-spmv",
        {pointer_param("a", uvm::AccessMode::Read),
         pointer_param("p", uvm::AccessMode::Read, uvm::HotReusePattern{}),
         pointer_param("t", uvm::AccessMode::Write), scalar_param("rows"),
         scalar_param("cols")},
        host_spmv, 2.0 * static_cast<double>(n_), uvm::Parallelism::High);

    std::vector<KernelParamInfo> step_params;
    for (std::size_t j = 0; j < params_.partitions; ++j) {
      step_params.push_back(pointer_param(str_cat("t", std::to_string(j)), uvm::AccessMode::Read));
    }
    step_params.push_back(pointer_param("r", uvm::AccessMode::ReadWrite));
    step_params.push_back(pointer_param("p", uvm::AccessMode::ReadWrite));
    step_params.push_back(pointer_param("x", uvm::AccessMode::ReadWrite));
    step_params.push_back(scalar_param("n"));
    step_params.push_back(scalar_param("rows"));
    step_ = ctx.register_native_kernel("cg-step", std::move(step_params), host_cg_step, 12.0,
                                       uvm::Parallelism::Moderate);

    // A block row j of a symmetric positive-definite matrix.
    for (std::size_t j = 0; j < params_.partitions; ++j) {
      a_.push_back(ctx.alloc_array(ElemType::F32, rows_per_part_ * n_,
                                   str_cat("A", std::to_string(j))));
      t_.push_back(ctx.alloc_array(ElemType::F32, rows_per_part_, str_cat("t", std::to_string(j))));
      const std::size_t row0 = j * rows_per_part_;
      const std::size_t n = n_;
      a_[j]->init([row0, n](std::size_t i) {
        const std::size_t row = row0 + i / n;
        const std::size_t col = i % n;
        if (row == col) return static_cast<double>(n);  // diagonally dominant
        const auto d = static_cast<double>(row > col ? row - col : col - row);
        return 1.0 / (1.0 + d);
      });
    }
    r_ = ctx.alloc_array(ElemType::F32, n_, "r");
    p_ = ctx.alloc_array(ElemType::F32, n_, "p");
    x_ = ctx.alloc_array(ElemType::F32, n_, "x");
    // x0 = 0, r = p = b = ones.
    r_->fill(1.0);
    p_->fill(1.0);
    x_->fill(0.0);
    if (r_->materialized()) initial_residual_ = std::sqrt(static_cast<double>(n_));
  }

  void run(Context& ctx) override {
    for (std::size_t iter = 0; iter < params_.iterations; ++iter) {
      for (std::size_t j = 0; j < params_.partitions; ++j) {
        launch(ctx, spmv_, rows_per_part_,
               {Value(a_[j]), Value(p_), Value(t_[j]),
                Value(static_cast<std::int64_t>(rows_per_part_)),
                Value(static_cast<std::int64_t>(n_))});
        ++ces_issued_;
      }
      std::vector<Value> args;
      for (std::size_t j = 0; j < params_.partitions; ++j) args.emplace_back(t_[j]);
      args.emplace_back(r_);
      args.emplace_back(p_);
      args.emplace_back(x_);
      args.emplace_back(static_cast<std::int64_t>(n_));
      args.emplace_back(static_cast<std::int64_t>(rows_per_part_));
      launch(ctx, step_, n_, std::move(args));
      ++ces_issued_;
    }
  }

  bool verify(Context& ctx) override {
    (void)ctx;
    if (!r_->materialized()) return true;
    double rr = 0.0;
    for (std::size_t i = 0; i < n_; ++i) {
      const double ri = r_->get(i);
      rr += ri * ri;
    }
    // The residual must shrink substantially on a well-conditioned SPD
    // system within a few iterations.
    return std::sqrt(rr) < 0.5 * initial_residual_;
  }

 private:
  std::size_t n_{0};
  std::size_t rows_per_part_{0};
  double initial_residual_{1.0};
  std::shared_ptr<KernelObject> spmv_, step_;
  std::vector<std::shared_ptr<DeviceArray>> a_, t_;
  std::shared_ptr<DeviceArray> r_, p_, x_;
};

}  // namespace

// ===========================================================================
// MLE: two-pipeline ensemble inference with branch imbalance
// ===========================================================================

namespace {

/// Generic dense stage: out[i] = tanh(scale * in[i]) — the compute weight is
/// carried by flops_per_thread, not by the functional body.
void host_stage(const KernelArgs& args, std::size_t, std::size_t) {
  const ArrayBinding& in = args.arrays[0];
  const ArrayBinding& out = args.arrays[1];
  const auto n = static_cast<std::size_t>(args.scalars[0]);
  const double scale = args.scalars[1];
  for (std::size_t i = 0; i < n; ++i) {
    out.set(i, std::tanh(scale * in.get(i)));
  }
}

/// One ensemble sample covers this many feature elements; the combined
/// output holds one probability per sample, so it stays small.
constexpr std::size_t kFeaturesPerSample = 64;

/// Ensemble combine: per sample, average the two pipelines' activations
/// through a sigmoid. Params: v_0..v_{P-1}, w_0..w_{P-1} (read), res
/// (write); scalars: elems_per_partition.
void host_combine(const KernelArgs& args, std::size_t, std::size_t) {
  const std::size_t partitions = (args.arrays.size() - 1) / 2;
  const ArrayBinding& res = args.arrays[2 * partitions];
  const auto per_part = static_cast<std::size_t>(args.scalars[0]);
  const std::size_t samples_per_part = per_part / kFeaturesPerSample;
  const auto sigmoid = [](double z) { return 1.0 / (1.0 + std::exp(-z)); };
  for (std::size_t j = 0; j < partitions; ++j) {
    const ArrayBinding& v = args.arrays[j];
    const ArrayBinding& w = args.arrays[partitions + j];
    for (std::size_t s = 0; s < samples_per_part; ++s) {
      double va = 0.0;
      double wa = 0.0;
      for (std::size_t f = 0; f < kFeaturesPerSample; ++f) {
        va += v.get(s * kFeaturesPerSample + f);
        wa += w.get(s * kFeaturesPerSample + f);
      }
      const auto k = static_cast<double>(kFeaturesPerSample);
      res.set(j * samples_per_part + s, 0.5 * (sigmoid(va / k) + sigmoid(wa / k)));
    }
  }
}

class MleWorkload final : public Workload {
 public:
  explicit MleWorkload(WorkloadParams params) : Workload(params) {}

  [[nodiscard]] std::string name() const override { return "MLE"; }

  void build(Context& ctx) override {
    // Four equally-sized array classes: X, u, v (pipeline A) and w
    // (pipeline B); the combined result holds one probability per sample
    // (kFeaturesPerSample features each) and stays small.
    const std::size_t elems_total = params_.footprint / (4 * 4);
    elems_per_part_ = std::max<std::size_t>(kFeaturesPerSample,
                                            elems_total / params_.partitions);
    elems_per_part_ -= elems_per_part_ % kFeaturesPerSample;

    // Pipeline A is an order of magnitude heavier than B (the paper's
    // branch imbalance).
    stage_heavy_ = ctx.register_native_kernel(
        "mle-a",
        {pointer_param("in", uvm::AccessMode::Read),
         pointer_param("out", uvm::AccessMode::Write), scalar_param("n"),
         scalar_param("scale")},
        host_stage, /*flops_per_thread=*/400.0, uvm::Parallelism::High);
    stage_mid_ = ctx.register_native_kernel(
        "mle-a2",
        {pointer_param("in", uvm::AccessMode::Read),
         pointer_param("out", uvm::AccessMode::Write), scalar_param("n"),
         scalar_param("scale")},
        host_stage, 80.0, uvm::Parallelism::High);
    stage_light_ = ctx.register_native_kernel(
        "mle-b",
        {pointer_param("in", uvm::AccessMode::Read),
         pointer_param("out", uvm::AccessMode::Write), scalar_param("n"),
         scalar_param("scale")},
        host_stage, 30.0, uvm::Parallelism::High);

    std::vector<KernelParamInfo> combine_params;
    for (std::size_t j = 0; j < params_.partitions; ++j) {
      combine_params.push_back(
          pointer_param(str_cat("v", std::to_string(j)), uvm::AccessMode::Read));
    }
    for (std::size_t j = 0; j < params_.partitions; ++j) {
      combine_params.push_back(
          pointer_param(str_cat("w", std::to_string(j)), uvm::AccessMode::Read));
    }
    combine_params.push_back(pointer_param("res", uvm::AccessMode::Write));
    combine_params.push_back(scalar_param("per_part"));
    combine_ = ctx.register_native_kernel("mle-combine", std::move(combine_params),
                                          host_combine, 16.0, uvm::Parallelism::Moderate);

    for (std::size_t j = 0; j < params_.partitions; ++j) {
      x_.push_back(
          ctx.alloc_array(ElemType::F32, elems_per_part_, str_cat("X", std::to_string(j))));
      u_.push_back(
          ctx.alloc_array(ElemType::F32, elems_per_part_, str_cat("u", std::to_string(j))));
      v_.push_back(
          ctx.alloc_array(ElemType::F32, elems_per_part_, str_cat("v", std::to_string(j))));
      w_.push_back(
          ctx.alloc_array(ElemType::F32, elems_per_part_, str_cat("w", std::to_string(j))));
      x_[j]->init([j](std::size_t i) {
        return std::sin(static_cast<double>(i + j * 131)) * 2.0;
      });
    }
    res_ = ctx.alloc_array(
        ElemType::F32,
        elems_per_part_ / kFeaturesPerSample * params_.partitions, "res");
  }

  void run(Context& ctx) override {
    for (std::size_t iter = 0; iter < params_.iterations; ++iter) {
      for (std::size_t j = 0; j < params_.partitions; ++j) {
        // Pipeline A: X -> u -> v (heavy); Pipeline B: X -> w (light).
        launch(ctx, stage_heavy_, elems_per_part_,
               {Value(x_[j]), Value(u_[j]), Value(static_cast<std::int64_t>(elems_per_part_)),
                Value(1.5)});
        launch(ctx, stage_mid_, elems_per_part_,
               {Value(u_[j]), Value(v_[j]), Value(static_cast<std::int64_t>(elems_per_part_)),
                Value(0.8)});
        launch(ctx, stage_light_, elems_per_part_,
               {Value(x_[j]), Value(w_[j]), Value(static_cast<std::int64_t>(elems_per_part_)),
                Value(0.4)});
        ces_issued_ += 3;
      }
      std::vector<Value> args;
      for (std::size_t j = 0; j < params_.partitions; ++j) args.emplace_back(v_[j]);
      for (std::size_t j = 0; j < params_.partitions; ++j) args.emplace_back(w_[j]);
      args.emplace_back(res_);
      args.emplace_back(static_cast<std::int64_t>(elems_per_part_));
      launch(ctx, combine_, elems_per_part_ / kFeaturesPerSample * params_.partitions,
             std::move(args));
      ++ces_issued_;
    }
  }

  bool verify(Context& ctx) override {
    (void)ctx;
    if (!res_->materialized()) return true;
    // Ensemble probabilities must lie in (0, 1).
    for (std::size_t i = 0; i < std::min<std::size_t>(256, res_->size()); ++i) {
      const double p = res_->get(i);
      if (!(p > 0.0 && p < 1.0)) return false;
    }
    return true;
  }

 private:
  std::size_t elems_per_part_{0};
  std::shared_ptr<KernelObject> stage_heavy_, stage_mid_, stage_light_, combine_;
  std::vector<std::shared_ptr<DeviceArray>> x_, u_, v_, w_;
  std::shared_ptr<DeviceArray> res_;
};

}  // namespace

// ===========================================================================
// Irregular: sparse gathers over one shared table (FALL pages)
// ===========================================================================

namespace {

/// out[i] = table[hash(idx[i]) % table_len] — a data-dependent gather.
void host_gather(const KernelArgs& args, std::size_t, std::size_t) {
  const ArrayBinding& table = args.arrays[0];
  const ArrayBinding& idx = args.arrays[1];
  const ArrayBinding& out = args.arrays[2];
  const auto n = static_cast<std::size_t>(args.scalars[0]);
  const auto table_len = static_cast<std::size_t>(args.scalars[1]);
  for (std::size_t i = 0; i < n; ++i) {
    const auto key = static_cast<std::uint64_t>(idx.get(i));
    out.set(i, table.get((key * 2654435761ULL) % table_len));
  }
}

class IrregularWorkload final : public Workload {
 public:
  explicit IrregularWorkload(WorkloadParams params) : Workload(params) {}

  [[nodiscard]] std::string name() const override { return "IRR"; }

  void build(Context& ctx) override {
    // The table dominates the footprint; indices/outputs are small.
    table_len_ = std::max<std::size_t>(params_.footprint / 4, 64);
    lookups_per_part_ = std::max<std::size_t>(table_len_ / (16 * params_.partitions), 16);

    // Each partition's gather touches a random ~1/4 of the table's pages —
    // frequently accessed, low locality.
    kernel_ = ctx.register_native_kernel(
        "gather",
        {pointer_param("table", uvm::AccessMode::Read,
                       uvm::RandomPattern{0.25, params_.seed}),
         pointer_param("idx", uvm::AccessMode::Read),
         pointer_param("out", uvm::AccessMode::Write), scalar_param("n"),
         scalar_param("table_len")},
        host_gather, 4.0, uvm::Parallelism::High);

    table_ = ctx.alloc_array(ElemType::F32, table_len_, "table");
    table_->init([](std::size_t i) { return static_cast<double>(i % 1000); });
    for (std::size_t j = 0; j < params_.partitions; ++j) {
      idx_.push_back(ctx.alloc_array(ElemType::F32, lookups_per_part_,
                                     str_cat("idx", std::to_string(j))));
      out_.push_back(ctx.alloc_array(ElemType::F32, lookups_per_part_,
                                     str_cat("out", std::to_string(j))));
      idx_[j]->init([j](std::size_t i) {
        return static_cast<double>((i * 7919 + j * 104729) % 1000000);
      });
    }
  }

  void run(Context& ctx) override {
    for (std::size_t iter = 0; iter < params_.iterations; ++iter) {
      for (std::size_t j = 0; j < params_.partitions; ++j) {
        launch(ctx, kernel_, lookups_per_part_,
               {Value(table_), Value(idx_[j]), Value(out_[j]),
                Value(static_cast<std::int64_t>(lookups_per_part_)),
                Value(static_cast<std::int64_t>(table_len_))});
        ++ces_issued_;
      }
    }
  }

  bool verify(Context& ctx) override {
    (void)ctx;
    if (!table_->materialized()) return true;
    for (std::size_t i = 0; i < std::min<std::size_t>(32, lookups_per_part_); ++i) {
      const auto key = static_cast<std::uint64_t>(idx_.front()->get(i));
      const double expect = table_->get((key * 2654435761ULL) % table_len_);
      if (out_.front()->get(i) != expect) return false;
    }
    return true;
  }

 private:
  std::size_t table_len_{0};
  std::size_t lookups_per_part_{0};
  std::shared_ptr<KernelObject> kernel_;
  std::shared_ptr<DeviceArray> table_;
  std::vector<std::shared_ptr<DeviceArray>> idx_, out_;
};

}  // namespace

// ===========================================================================
// Factory & runner
// ===========================================================================

std::unique_ptr<Workload> make_workload(WorkloadKind kind, WorkloadParams params) {
  GROUT_REQUIRE(params.partitions >= 1, "at least one partition");
  GROUT_REQUIRE(params.iterations >= 1, "at least one iteration");
  switch (kind) {
    case WorkloadKind::BlackScholes:
      return std::make_unique<BlackScholesWorkload>(params);
    case WorkloadKind::Mle: return std::make_unique<MleWorkload>(params);
    case WorkloadKind::Cg: return std::make_unique<CgWorkload>(params);
    case WorkloadKind::Mv: return std::make_unique<MvWorkload>(params);
    case WorkloadKind::Irregular: return std::make_unique<IrregularWorkload>(params);
  }
  GROUT_CHECK(false, "unhandled workload kind");
  return nullptr;
}

WorkloadResult execute_workload(polyglot::Context& ctx, Workload& workload) {
  workload.build(ctx);
  workload.run(ctx);
  WorkloadResult result;
  result.completed = ctx.synchronize();
  result.elapsed = ctx.now();
  result.ce_count = workload.ces_issued();
  return result;
}

}  // namespace grout::workloads
