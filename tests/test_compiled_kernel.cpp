// Tests for the slot-compiled kernel executor, including differential
// checks against the tree-walking interpreter (tests/support/kernel_oracle.hpp).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "polyglot/compiled_kernel.hpp"
#include "polyglot/kernel_lang.hpp"
#include "tests/support/kernel_oracle.hpp"

namespace grout::polyglot {
namespace {

std::vector<float> run_compiled(const char* source, std::vector<float> data,
                                std::vector<double> scalars, std::size_t grid,
                                std::size_t block) {
  const ast::KernelAst k = parse_kernel_source(source);
  const CompiledKernel compiled(k);
  KernelArgs args;
  args.arrays = {ArrayBinding{ElemType::F32, data.data(), data.size()}};
  args.scalars = std::move(scalars);
  compiled.execute(args, grid, block);
  return data;
}

TEST(CompiledKernel, SquareElementwise) {
  const auto out = run_compiled(R"(
    __global__ void square(float* x, int n) {
      int i = blockIdx.x * blockDim.x + threadIdx.x;
      if (i < n) { x[i] = x[i] * x[i]; }
    }
  )",
                                {1, 2, 3, 4}, {4.0}, 1, 8);
  EXPECT_FLOAT_EQ(out[3], 16.0f);
}

TEST(CompiledKernel, MetadataReflectsSignature) {
  const ast::KernelAst k = parse_kernel_source(R"(
    __global__ void f(const float* a, float* b, int n, float scale) {
      int i = threadIdx.x;
      if (i < n) { b[i] = a[i] * scale; }
    }
  )");
  const CompiledKernel compiled(k);
  EXPECT_EQ(compiled.name(), "f");
  EXPECT_EQ(compiled.array_param_count(), 2u);
  EXPECT_EQ(compiled.scalar_param_count(), 2u);
  EXPECT_GE(compiled.register_count(), 4u + 2u + 1u);  // builtins + scalars + i
}

TEST(CompiledKernel, UnknownIdentifierFailsAtCompileTime) {
  const ast::KernelAst k = parse_kernel_source(R"(
    __global__ void f(float* o) {
      o[0] = ghost;
    }
  )");
  EXPECT_THROW(CompiledKernel{k}, ParseError);
}

TEST(CompiledKernel, UnknownFunctionFailsAtCompileTime) {
  const ast::KernelAst k = parse_kernel_source(R"(
    __global__ void f(float* o) {
      o[0] = __ballot(1.0);
    }
  )");
  EXPECT_THROW(CompiledKernel{k}, ParseError);
}

TEST(CompiledKernel, WrongBuiltinArityFailsAtCompileTime) {
  const ast::KernelAst k = parse_kernel_source(R"(
    __global__ void f(float* o) {
      o[0] = sqrt(1.0, 2.0);
    }
  )");
  EXPECT_THROW(CompiledKernel{k}, ParseError);
}

/// The ParseError message compiling `source` throws ("" if it compiles).
std::string compile_error(const char* source) {
  const ast::KernelAst k = parse_kernel_source(source);
  try {
    const CompiledKernel compiled(k);
  } catch (const ParseError& e) {
    return e.what();
  }
  return "";
}

TEST(CompiledKernel, BlockLocalsEndWithTheirBlock) {
  // C block scope: a local declared in an if/for body, or in a for's init,
  // is unknown after it, on the path that skipped it and in later threads.
  EXPECT_EQ(compile_error(R"(
    __global__ void f(float* o) {
      int i = threadIdx.x;
      if (i == 0) { float t = 5.0; }
      o[i] = t;
    }
  )"),
            "unknown identifier in kernel: t");
  EXPECT_EQ(compile_error(R"(
    __global__ void f(float* o) {
      for (int k = 0; k < 2; k++) { float t = k; }
      o[0] = k;
    }
  )"),
            "unknown identifier in kernel: k");
  EXPECT_EQ(compile_error(R"(
    __global__ void f(float* o) {
      if (threadIdx.x == 0) { float t = 1.0; } else { o[0] = t; }
    }
  )"),
            "unknown identifier in kernel: t");
}

TEST(CompiledKernel, RedeclarationInOneScopeFails) {
  EXPECT_EQ(compile_error(R"(
    __global__ void f(float* o, int n) {
      float n = 1.0;
      o[0] = n;
    }
  )"),
            "redeclared identifier in kernel: n");
}

TEST(CompiledKernel, InnerDeclarationShadowsOuter) {
  // The inner `x` is a new local: the outer one keeps its value. Sibling
  // loops may each declare `j`.
  const auto out = run_compiled(R"(
    __global__ void f(float* o) {
      int i = threadIdx.x;
      float x = 1.0;
      if (i == 0) { float x = 7.0; o[2] = x; }
      for (int j = 0; j < 2; j++) { x += 1.0; }
      for (int j = 0; j < 3; j++) { x += 10.0; }
      o[i] = x;
    }
  )",
                                {0, 0, 0}, {}, 1, 2);
  EXPECT_FLOAT_EQ(out[0], 33.0f);
  EXPECT_FLOAT_EQ(out[1], 33.0f);
  EXPECT_FLOAT_EQ(out[2], 7.0f);
}

TEST(CompiledKernel, MissingArgumentsRejectedAtLaunch) {
  const ast::KernelAst k = parse_kernel_source(R"(
    __global__ void f(float* o, int n) {
      o[0] = n;
    }
  )");
  const CompiledKernel compiled(k);
  KernelArgs args;  // nothing bound
  EXPECT_THROW(compiled.execute(args, 1, 1), InvalidArgument);
}

TEST(CompiledKernel, ForLoopReduction) {
  const auto out = run_compiled(R"(
    __global__ void sum(float* x, int n) {
      int i = blockIdx.x * blockDim.x + threadIdx.x;
      if (i == 0) {
        float acc = 0.0;
        for (int j = 1; j < n; ++j) {
          acc += x[j];
        }
        x[0] = acc;
      }
    }
  )",
                                {0, 1, 2, 3, 4}, {5.0}, 1, 8);
  EXPECT_FLOAT_EQ(out[0], 10.0f);
}

TEST(CompiledKernel, BuiltinsMatchStdlib) {
  const auto out = run_compiled(R"(
    __global__ void m(float* o) {
      o[0] = exp(1.0);
      o[1] = pow(2.0, 10.0);
      o[2] = fmin(3.0, -1.0);
      o[3] = normcdf(1.96);
      o[4] = tanh(0.5);
    }
  )",
                                std::vector<float>(5, 0.0f), {}, 1, 1);
  EXPECT_NEAR(out[0], std::exp(1.0), 1e-6);
  EXPECT_FLOAT_EQ(out[1], 1024.0f);
  EXPECT_FLOAT_EQ(out[2], -1.0f);
  EXPECT_NEAR(out[3], 0.975, 1e-3);
  EXPECT_NEAR(out[4], std::tanh(0.5), 1e-6);
}

TEST(CompiledKernel, ScalarParameterWritesStayInTheirThread) {
  // CUDA passes scalars by value: a thread that assigns one must not leak
  // it to the threads that run after it, in its block or the next one.
  const auto out = run_compiled(R"(
    __global__ void bump(float* o, int n) {
      int i = blockIdx.x * blockDim.x + threadIdx.x;
      n = n + 1;
      if (i < 8) { o[i] = n; }
    }
  )",
                                std::vector<float>(8, 0.0f), {8.0}, 2, 4);
  for (const float v : out) EXPECT_FLOAT_EQ(v, 9.0f);
}

// ---------------------------------------------------------------------------
// Differential testing: compiled executor vs tree-walking interpreter.
// ---------------------------------------------------------------------------

class CompiledVsInterpreter : public ::testing::TestWithParam<const char*> {};

TEST_P(CompiledVsInterpreter, IdenticalResults) {
  const ast::KernelAst k = parse_kernel_source(GetParam());
  const CompiledKernel compiled(k);

  std::size_t arrays = 0;
  std::size_t scalar_count = 0;
  for (const auto& p : k.params) {
    if (p.pointer) {
      ++arrays;
    } else {
      ++scalar_count;
    }
  }

  Rng rng(77);
  constexpr std::size_t kLen = 64;
  std::vector<std::vector<float>> interp_data(arrays);
  std::vector<std::vector<float>> compiled_data(arrays);
  for (std::size_t a = 0; a < arrays; ++a) {
    interp_data[a].resize(kLen);
    for (auto& v : interp_data[a]) v = static_cast<float>(rng.uniform(0.5, 4.0));
    compiled_data[a] = interp_data[a];
  }
  std::vector<double> scalars;
  for (std::size_t s = 0; s + 1 < scalar_count; ++s) scalars.push_back(rng.uniform(0.5, 2.0));
  if (scalar_count > 0) {
    scalars.insert(scalars.begin(), static_cast<double>(kLen));  // n first
  }

  KernelArgs interp_args;
  KernelArgs compiled_args;
  for (std::size_t a = 0; a < arrays; ++a) {
    interp_args.arrays.push_back(ArrayBinding{ElemType::F32, interp_data[a].data(), kLen});
    compiled_args.arrays.push_back(
        ArrayBinding{ElemType::F32, compiled_data[a].data(), kLen});
  }
  interp_args.scalars = scalars;
  compiled_args.scalars = scalars;

  oracle::execute_kernel(k, interp_args, 2, 48);
  compiled.execute(compiled_args, 2, 48);

  for (std::size_t a = 0; a < arrays; ++a) {
    for (std::size_t i = 0; i < kLen; ++i) {
      ASSERT_FLOAT_EQ(interp_data[a][i], compiled_data[a][i])
          << "array " << a << " index " << i;
    }
  }
}

constexpr const char* kSaxpyLike = R"(
  __global__ void saxpy(float* y, const float* x, int n, float a) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { y[i] = a * x[i] + y[i]; }
  }
)";

constexpr const char* kBranchy = R"(
  __global__ void branchy(float* o, const float* x, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
      if (x[i] > 2.0) {
        o[i] = sqrt(x[i]);
      } else {
        o[i] = x[i] * x[i] - 1.0;
      }
    }
  }
)";

constexpr const char* kLoopy = R"(
  __global__ void loopy(float* o, const float* x, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
      float acc = 0.0;
      for (int j = 0; j <= i % 7; ++j) {
        acc += x[(i + j) % n];
      }
      o[i] = acc;
    }
  }
)";

constexpr const char* kTranscendental = R"(
  __global__ void trans(float* o, const float* x, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
      float s = x[i];
      o[i] = normcdf(log(s) / 2.0) * exp(-s / 4.0) + (s > 1.0 ? tanh(s) : erf(s));
    }
  }
)";

// The inner `x` ends with its block: every thread, thread 0 included,
// writes the outer 1.0.
constexpr const char* kShadowing = R"(
  __global__ void shadow(float* o, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    float x = 1.0;
    if (i == 0) { float x = 7.0; }
    if (i < n) { o[i] = x; }
  }
)";

INSTANTIATE_TEST_SUITE_P(Kernels, CompiledVsInterpreter,
                         ::testing::Values(kSaxpyLike, kBranchy, kLoopy, kTranscendental,
                                           kShadowing));

}  // namespace
}  // namespace grout::polyglot
