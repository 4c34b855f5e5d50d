// Custom CUDA C++ kernels through the NVRTC stand-in.
//
// Builds a row-partitioned matrix-vector product and a dot product from
// CUDA source strings (for-loops and all), distributes the partitions over
// two workers, and uses cudaMemAdvise(ReadMostly) on the shared vector so
// every GPU keeps a duplicated copy. Everything is verified against a host
// reference.
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/strings.hpp"
#include "polyglot/context.hpp"

namespace {

constexpr const char* kMatVec = R"(
extern "C" __global__ void matvec(const float* a, const float* x, float* y,
                                  int rows, int cols) {
  int r = blockIdx.x * blockDim.x + threadIdx.x;
  if (r < rows) {
    float acc = 0.0f;
    for (int c = 0; c < cols; ++c) {
      acc += a[r * cols + c] * x[c];
    }
    y[r] = acc;
  }
}
)";

constexpr const char* kDot = R"(
extern "C" __global__ void dot(const float* u, const float* v, float* out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i == 0) {
    float acc = 0.0f;
    for (int j = 0; j < n; ++j) {
      acc += u[j] * v[j];
    }
    out[0] = acc;
  }
}
)";

constexpr std::size_t kN = 1024;
constexpr std::size_t kPartitions = 4;
constexpr std::size_t kRows = kN / kPartitions;

}  // namespace

int main() {
  using namespace grout;
  using polyglot::Context;
  using polyglot::Value;

  core::GroutConfig config;
  config.cluster.workers = 2;
  Context ctx = Context::grout(std::move(config));

  Value build = ctx.eval("buildkernel");
  Value matvec = build(
      Value(kMatVec),
      Value("matvec(a: const pointer float, x: const pointer float, "
            "y: out pointer float, rows: sint32, cols: sint32)"));
  Value dot = build(Value(kDot),
                    Value("dot(u: const pointer float, v: const pointer float, "
                          "out: out pointer float, n: sint32)"));
  // The shared vector is reused by every partition kernel on every GPU.
  matvec.as_kernel()->set_param_pattern(1, uvm::HotReusePattern{});

  // Data: A in 4 row blocks, x duplicated read-mostly.
  auto x = ctx.eval("float[1024]").as_array();
  x->init([](std::size_t i) { return std::sin(static_cast<double>(i)) + 1.5; });
  x->advise(uvm::Advise::ReadMostly);

  std::vector<std::shared_ptr<polyglot::DeviceArray>> a_blocks;
  std::vector<std::shared_ptr<polyglot::DeviceArray>> y_blocks;
  for (std::size_t j = 0; j < kPartitions; ++j) {
    a_blocks.push_back(ctx.alloc_array(polyglot::ElemType::F32, kRows * kN,
                                       grout::str_cat("A", std::to_string(j))));
    y_blocks.push_back(
        ctx.alloc_array(polyglot::ElemType::F32, kRows, grout::str_cat("y", std::to_string(j))));
    a_blocks[j]->init([j](std::size_t i) {
      return static_cast<double>((i * 13 + j * 101) % 32) / 32.0;
    });
  }

  // Launch one CE per row block, then norm = y . y per block.
  for (std::size_t j = 0; j < kPartitions; ++j) {
    matvec(Value((kRows + 127) / 128), Value(128))(
        Value(a_blocks[j]), Value(x), Value(y_blocks[j]),
        Value(static_cast<std::int64_t>(kRows)), Value(static_cast<std::int64_t>(kN)));
  }
  auto norms = ctx.eval("float[4]").as_array();
  std::vector<std::shared_ptr<polyglot::DeviceArray>> partials;
  for (std::size_t j = 0; j < kPartitions; ++j) {
    partials.push_back(
        ctx.alloc_array(polyglot::ElemType::F32, 1, grout::str_cat("n", std::to_string(j))));
    dot(Value(1), Value(32))(Value(y_blocks[j]), Value(y_blocks[j]), Value(partials[j]),
                             Value(static_cast<std::int64_t>(kRows)));
  }
  ctx.synchronize();

  // Host reference check.
  double max_err = 0.0;
  double norm_total = 0.0;
  for (std::size_t j = 0; j < kPartitions; ++j) {
    double block_norm = 0.0;
    for (std::size_t r = 0; r < kRows; ++r) {
      double expect = 0.0;
      for (std::size_t c = 0; c < kN; ++c) {
        expect += a_blocks[j]->get(r * kN + c) * x->get(c);
      }
      max_err = std::max(max_err, std::fabs(expect - y_blocks[j]->get(r)));
      block_norm += expect * expect;
    }
    max_err = std::max(max_err,
                       std::fabs(block_norm - partials[j]->get(0)) / (1.0 + block_norm));
    norm_total += block_norm;
    (void)norms;
  }
  std::printf("||A x||^2 = %.3f   max error vs host reference = %.2e\n", norm_total, max_err);
  std::printf("simulated time: %s\n", format_time(ctx.now()).c_str());

  auto& backend = dynamic_cast<polyglot::GroutBackend&>(ctx.backend());
  const auto& m = backend.grout().metrics();
  std::printf("CEs: %llu over 2 workers [w0=%llu, w1=%llu]\n",
              static_cast<unsigned long long>(m.ces_scheduled),
              static_cast<unsigned long long>(m.assignments[0]),
              static_cast<unsigned long long>(m.assignments[1]));
  return max_err < 1e-2 ? 0 : 1;
}
