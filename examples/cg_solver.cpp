// Distributed conjugate-gradient solver on GrOUT.
//
// Solves A x = b for a dense symmetric positive-definite matrix,
// row-partitioned across CEs that GrOUT schedules over two worker nodes.
// The residual is computed on the controller after fetching the vectors
// back — demonstrating host_fetch and the coherence directory.
#include <cmath>
#include <cstdio>

#include "common/strings.hpp"
#include "polyglot/context.hpp"
#include "polyglot/kernel_args.hpp"

namespace {

using namespace grout;
using polyglot::ArrayBinding;
using polyglot::Context;
using polyglot::KernelArgs;
using polyglot::Value;

constexpr std::size_t kN = 512;
constexpr std::size_t kPartitions = 4;
constexpr std::size_t kRows = kN / kPartitions;
constexpr std::size_t kIterations = 8;

double matrix_entry(std::size_t row, std::size_t col) {
  if (row == col) return static_cast<double>(kN);
  const auto d = static_cast<double>(row > col ? row - col : col - row);
  return 1.0 / (1.0 + d);
}

void spmv_host(const KernelArgs& args, std::size_t, std::size_t) {
  const ArrayBinding& a = args.arrays[0];
  const ArrayBinding& p = args.arrays[1];
  const ArrayBinding& t = args.arrays[2];
  const auto rows = static_cast<std::size_t>(args.scalars[0]);
  const auto cols = static_cast<std::size_t>(args.scalars[1]);
  for (std::size_t r = 0; r < rows; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < cols; ++c) acc += a.get(r * cols + c) * p.get(c);
    t.set(r, acc);
  }
}

void cg_step_host(const KernelArgs& args, std::size_t, std::size_t) {
  const std::size_t partitions = args.arrays.size() - 3;
  const ArrayBinding& r = args.arrays[partitions];
  const ArrayBinding& p = args.arrays[partitions + 1];
  const ArrayBinding& x = args.arrays[partitions + 2];
  const auto n = static_cast<std::size_t>(args.scalars[0]);
  const auto rows = static_cast<std::size_t>(args.scalars[1]);
  const auto t_at = [&](std::size_t i) { return args.arrays[i / rows].get(i % rows); };

  double rr = 0.0;
  double pt = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    rr += r.get(i) * r.get(i);
    pt += p.get(i) * t_at(i);
  }
  if (pt == 0.0) return;
  const double alpha = rr / pt;
  double rr_new = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    x.set(i, x.get(i) + alpha * p.get(i));
    const double ri = r.get(i) - alpha * t_at(i);
    r.set(i, ri);
    rr_new += ri * ri;
  }
  const double beta = rr == 0.0 ? 0.0 : rr_new / rr;
  for (std::size_t i = 0; i < n; ++i) p.set(i, r.get(i) + beta * p.get(i));
}

}  // namespace

int main() {
  core::GroutConfig config;
  config.cluster.workers = 2;
  config.policy = core::PolicyKind::MinTransferSize;  // online, data-aware
  Context ctx = Context::grout(std::move(config));

  // Kernels: one spmv per matrix block + the global CG step.
  auto pointer = [](std::string name, uvm::AccessMode mode) {
    polyglot::KernelParamInfo p;
    p.name = std::move(name);
    p.pointer = true;
    p.type = polyglot::ElemType::F64;
    p.mode = mode;
    return p;
  };
  auto scalar = [](std::string name) {
    polyglot::KernelParamInfo p;
    p.name = std::move(name);
    p.pointer = false;
    return p;
  };

  auto spmv = ctx.register_native_kernel(
      "spmv",
      {pointer("a", uvm::AccessMode::Read), pointer("p", uvm::AccessMode::Read),
       pointer("t", uvm::AccessMode::Write), scalar("rows"), scalar("cols")},
      spmv_host, 2.0 * kN);

  std::vector<polyglot::KernelParamInfo> step_params;
  for (std::size_t j = 0; j < kPartitions; ++j) {
    step_params.push_back(pointer(str_cat("t", std::to_string(j)), uvm::AccessMode::Read));
  }
  step_params.push_back(pointer("r", uvm::AccessMode::ReadWrite));
  step_params.push_back(pointer("p", uvm::AccessMode::ReadWrite));
  step_params.push_back(pointer("x", uvm::AccessMode::ReadWrite));
  step_params.push_back(scalar("n"));
  step_params.push_back(scalar("rows"));
  auto step = ctx.register_native_kernel("cg-step", std::move(step_params), cg_step_host, 12.0,
                                         uvm::Parallelism::Moderate);

  // Data: the SPD matrix blocks plus the CG vectors; b = ones.
  std::vector<std::shared_ptr<polyglot::DeviceArray>> a_blocks;
  std::vector<std::shared_ptr<polyglot::DeviceArray>> t_blocks;
  for (std::size_t j = 0; j < kPartitions; ++j) {
    a_blocks.push_back(ctx.alloc_array(polyglot::ElemType::F64, kRows * kN,
                                       str_cat("A", std::to_string(j))));
    const std::size_t row0 = j * kRows;
    a_blocks[j]->init(
        [row0](std::size_t i) { return matrix_entry(row0 + i / kN, i % kN); });
    t_blocks.push_back(
        ctx.alloc_array(polyglot::ElemType::F64, kRows, str_cat("t", std::to_string(j))));
  }
  auto r = ctx.alloc_array(polyglot::ElemType::F64, kN, "r");
  auto p = ctx.alloc_array(polyglot::ElemType::F64, kN, "p");
  auto x = ctx.alloc_array(polyglot::ElemType::F64, kN, "x");
  r->fill(1.0);
  p->fill(1.0);
  x->fill(0.0);

  // CG iterations: every CE is scheduled by the GrOUT controller.
  for (std::size_t iter = 0; iter < kIterations; ++iter) {
    for (std::size_t j = 0; j < kPartitions; ++j) {
      polyglot::BoundKernel bound{spmv, (kRows + 127) / 128, 128};
      ctx.launch(bound, {Value(a_blocks[j]), Value(p), Value(t_blocks[j]),
                         Value(static_cast<std::int64_t>(kRows)),
                         Value(static_cast<std::int64_t>(kN))});
    }
    std::vector<Value> args;
    for (auto& t : t_blocks) args.emplace_back(t);
    args.emplace_back(r);
    args.emplace_back(p);
    args.emplace_back(x);
    args.emplace_back(static_cast<std::int64_t>(kN));
    args.emplace_back(static_cast<std::int64_t>(kRows));
    polyglot::BoundKernel bound{step, (kN + 127) / 128, 128};
    ctx.launch(bound, args);

    ctx.synchronize();
    double norm = 0.0;
    for (std::size_t i = 0; i < kN; ++i) norm += r->get(i) * r->get(i);
    std::printf("iter %2zu   ||r|| = %.3e   (sim time %s)\n", iter + 1, std::sqrt(norm),
                format_time(ctx.now()).c_str());
  }

  // Verify: ||b - A x|| on the controller.
  double err = 0.0;
  for (std::size_t row = 0; row < kN; ++row) {
    double ax = 0.0;
    const std::size_t j = row / kRows;
    for (std::size_t col = 0; col < kN; ++col) {
      ax += a_blocks[j]->get((row % kRows) * kN + col) * x->get(col);
    }
    err += (1.0 - ax) * (1.0 - ax);
  }
  std::printf("final ||b - Ax|| = %.3e\n", std::sqrt(err));

  auto& backend = dynamic_cast<polyglot::GroutBackend&>(ctx.backend());
  const auto& m = backend.grout().metrics();
  std::printf("CEs: %llu, assignments: [w0=%llu, w1=%llu], "
              "controller sends: %llu, P2P sends: %llu\n",
              static_cast<unsigned long long>(m.ces_scheduled),
              static_cast<unsigned long long>(m.assignments[0]),
              static_cast<unsigned long long>(m.assignments[1]),
              static_cast<unsigned long long>(m.controller_sends),
              static_cast<unsigned long long>(m.p2p_sends));
  return std::sqrt(err) < 1e-6 ? 0 : 1;
}
