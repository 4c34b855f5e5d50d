// Tests for the polyglot layer: DSL, kernel parser/interpreter, signatures,
// values, device arrays and the two backends.
#include <gtest/gtest.h>

#include <cmath>

#include "polyglot/context.hpp"
#include "polyglot/kernel_lang.hpp"
#include "tests/support/kernel_oracle.hpp"

namespace grout::polyglot {
namespace {

gpusim::GpuNodeConfig small_node() {
  gpusim::GpuNodeConfig cfg;
  cfg.gpu_count = 2;
  cfg.device.memory = 8_MiB;
  cfg.tuning.page_size = 1_MiB;
  return cfg;
}

Context small_grcuda() { return Context::grcuda(small_node()); }

// ---------------------------------------------------------------------------
// Element types
// ---------------------------------------------------------------------------

TEST(ElemTypeTest, SizesAndNames) {
  EXPECT_EQ(elem_size(ElemType::F32), 4u);
  EXPECT_EQ(elem_size(ElemType::F64), 8u);
  EXPECT_EQ(elem_size(ElemType::I32), 4u);
  EXPECT_EQ(elem_size(ElemType::I64), 8u);
  ElemType t{};
  EXPECT_TRUE(parse_elem_type("float", t));
  EXPECT_EQ(t, ElemType::F32);
  EXPECT_TRUE(parse_elem_type("sint32", t));
  EXPECT_EQ(t, ElemType::I32);
  EXPECT_TRUE(parse_elem_type("double", t));
  EXPECT_EQ(t, ElemType::F64);
  EXPECT_FALSE(parse_elem_type("quaternion", t));
}

// ---------------------------------------------------------------------------
// Signatures
// ---------------------------------------------------------------------------

TEST(SignatureTest, ParsesQualifiedParams) {
  const KernelSignature sig =
      parse_signature("square(x: inout pointer float, n: sint32)");
  EXPECT_EQ(sig.name, "square");
  ASSERT_EQ(sig.params.size(), 2u);
  EXPECT_EQ(sig.params[0].name, "x");
  EXPECT_TRUE(sig.params[0].pointer);
  EXPECT_EQ(sig.params[0].mode, uvm::AccessMode::ReadWrite);
  EXPECT_EQ(sig.params[0].type, ElemType::F32);
  EXPECT_FALSE(sig.params[1].pointer);
  EXPECT_EQ(sig.params[1].mode, uvm::AccessMode::Read);
}

TEST(SignatureTest, ConstAndOutModes) {
  const KernelSignature sig =
      parse_signature("k(a: const pointer float, b: out pointer double)");
  EXPECT_EQ(sig.params[0].mode, uvm::AccessMode::Read);
  EXPECT_EQ(sig.params[1].mode, uvm::AccessMode::Write);
  EXPECT_EQ(sig.params[1].type, ElemType::F64);
}

TEST(SignatureTest, EmptyParamList) {
  const KernelSignature sig = parse_signature("noop()");
  EXPECT_EQ(sig.name, "noop");
  EXPECT_TRUE(sig.params.empty());
}

TEST(SignatureTest, MalformedThrows) {
  EXPECT_THROW(parse_signature("no-parens"), ParseError);
  EXPECT_THROW(parse_signature("(x: float)"), ParseError);
  EXPECT_THROW(parse_signature("k(x float)"), ParseError);
  EXPECT_THROW(parse_signature("k(x: gibberish)"), ParseError);
}

// ---------------------------------------------------------------------------
// Kernel source parser
// ---------------------------------------------------------------------------

constexpr const char* kSaxpy = R"(
extern "C" __global__ void saxpy(const float* x, float* y, float a, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    y[i] = a * x[i] + y[i];
  }
}
)";

TEST(KernelLangTest, ParsesSaxpy) {
  const ast::KernelAst k = parse_kernel_source(kSaxpy);
  EXPECT_EQ(k.name, "saxpy");
  ASSERT_EQ(k.params.size(), 4u);
  EXPECT_TRUE(k.params[0].is_const);
  EXPECT_TRUE(k.params[0].pointer);
  EXPECT_FALSE(k.params[2].pointer);
  EXPECT_EQ(k.params[3].name, "n");
  EXPECT_EQ(k.body.size(), 2u);  // decl + if
  EXPECT_GT(ast::count_flops(k), 0.0);
}

TEST(KernelLangTest, ParsesCommentsAndCasts) {
  const ast::KernelAst k = parse_kernel_source(R"(
    // a comment
    __global__ void f(float* o, int n) {
      /* block comment */
      int i = threadIdx.x;
      if (i < n) { o[i] = (float)i * 2.0f; }
    }
  )");
  EXPECT_EQ(k.name, "f");
}

TEST(KernelLangTest, ParsesIfElseAndCompound) {
  const ast::KernelAst k = parse_kernel_source(R"(
    __global__ void g(float* o, int n) {
      int i = threadIdx.x;
      if (i < n) {
        o[i] += 1.0;
      } else {
        o[i] = 0.0;
      }
    }
  )");
  EXPECT_EQ(k.body.size(), 2u);
}

TEST(KernelLangTest, MissingGlobalThrows) {
  EXPECT_THROW(parse_kernel_source("void f() {}"), ParseError);
}

TEST(KernelLangTest, NonVoidThrows) {
  EXPECT_THROW(parse_kernel_source("__global__ int f() {}"), ParseError);
}

TEST(KernelLangTest, UnterminatedBlockThrows) {
  EXPECT_THROW(parse_kernel_source("__global__ void f(int n) { int i = 0;"), ParseError);
}

TEST(KernelLangTest, UnsupportedStatementThrows) {
  EXPECT_THROW(parse_kernel_source(R"(
    __global__ void f(float* o) {
      while (o[0] < 10.0) { o[0] += 1.0; }
    }
  )"),
               ParseError);
}

TEST(KernelLangTest, ParsesForLoops) {
  const ast::KernelAst k = parse_kernel_source(R"(
    __global__ void rowsum(const float* a, float* out, int rows, int cols) {
      int r = blockIdx.x * blockDim.x + threadIdx.x;
      if (r < rows) {
        float acc = 0.0f;
        for (int c = 0; c < cols; ++c) {
          acc += a[r * cols + c];
        }
        out[r] = acc;
      }
    }
  )");
  EXPECT_EQ(k.name, "rowsum");
  EXPECT_EQ(k.body.size(), 2u);
}

TEST(KernelLangTest, ForLoopFlopsUseLiteralTripCount) {
  const ast::KernelAst k = parse_kernel_source(R"(
    __global__ void f(float* o) {
      float acc = 0.0;
      for (int c = 0; c < 100; c++) {
        acc += 2.0 * c;
      }
      o[0] = acc;
    }
  )");
  // ~3-4 flops per iteration x 100 iterations.
  EXPECT_GT(ast::count_flops(k), 200.0);
  EXPECT_LT(ast::count_flops(k), 1000.0);
}

TEST(InterpreterTest, DotProductKernelWithForLoop) {
  const ast::KernelAst k = parse_kernel_source(R"(
    __global__ void dot(const float* x, const float* y, float* out, int n) {
      int i = blockIdx.x * blockDim.x + threadIdx.x;
      if (i == 0) {
        float acc = 0.0;
        for (int j = 0; j < n; j = j + 1) {
          acc += x[j] * y[j];
        }
        out[0] = acc;
      }
    }
  )");
  std::vector<float> x(8);
  std::vector<float> y(8);
  for (std::size_t i = 0; i < 8; ++i) {
    x[i] = static_cast<float>(i);
    y[i] = 2.0f;
  }
  std::vector<float> out(1, -1.0f);
  KernelArgs args;
  args.arrays = {ArrayBinding{ElemType::F32, x.data(), 8},
                 ArrayBinding{ElemType::F32, y.data(), 8},
                 ArrayBinding{ElemType::F32, out.data(), 1}};
  args.scalars = {8.0};
  oracle::execute_kernel(k, args, 1, 32);
  EXPECT_FLOAT_EQ(out[0], 2.0f * (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7));
}

TEST(InterpreterTest, PrefixAndPostfixIncrementDecrement) {
  const ast::KernelAst k = parse_kernel_source(R"(
    __global__ void inc(float* o) {
      int a = 0;
      ++a;
      a++;
      int b = 10;
      --b;
      b--;
      o[0] = a;
      o[1] = b;
    }
  )");
  std::vector<float> o(2, 0.0f);
  KernelArgs args;
  args.arrays = {ArrayBinding{ElemType::F32, o.data(), 2}};
  oracle::execute_kernel(k, args, 1, 1);
  EXPECT_FLOAT_EQ(o[0], 2.0f);
  EXPECT_FLOAT_EQ(o[1], 8.0f);
}

TEST(InterpreterTest, NestedForLoops) {
  const ast::KernelAst k = parse_kernel_source(R"(
    __global__ void mm(float* o, int n) {
      float acc = 0.0;
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
          acc += 1.0;
        }
      }
      o[0] = acc;
    }
  )");
  std::vector<float> o(1, 0.0f);
  KernelArgs args;
  args.arrays = {ArrayBinding{ElemType::F32, o.data(), 1}};
  args.scalars = {5.0};
  oracle::execute_kernel(k, args, 1, 1);
  EXPECT_FLOAT_EQ(o[0], 25.0f);
}

// ---------------------------------------------------------------------------
// Interpreter
// ---------------------------------------------------------------------------

TEST(InterpreterTest, SaxpyComputesCorrectly) {
  const ast::KernelAst k = parse_kernel_source(kSaxpy);
  std::vector<float> x(100);
  std::vector<float> y(100);
  for (std::size_t i = 0; i < 100; ++i) {
    x[i] = static_cast<float>(i);
    y[i] = 1.0f;
  }
  KernelArgs args;
  args.arrays = {ArrayBinding{ElemType::F32, x.data(), x.size()},
                 ArrayBinding{ElemType::F32, y.data(), y.size()}};
  args.scalars = {2.0, 100.0};
  oracle::execute_kernel(k, args, /*grid=*/4, /*block=*/32);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_FLOAT_EQ(y[i], 2.0f * static_cast<float>(i) + 1.0f);
  }
}

TEST(InterpreterTest, GuardSkipsOutOfRangeThreads) {
  const ast::KernelAst k = parse_kernel_source(kSaxpy);
  std::vector<float> x(10, 1.0f);
  std::vector<float> y(10, 0.0f);
  KernelArgs args;
  args.arrays = {ArrayBinding{ElemType::F32, x.data(), x.size()},
                 ArrayBinding{ElemType::F32, y.data(), y.size()}};
  args.scalars = {1.0, 10.0};
  // 128 threads over 10 elements: the guard keeps accesses in range.
  EXPECT_NO_THROW(oracle::execute_kernel(k, args, 1, 128));
}

TEST(InterpreterTest, MathBuiltins) {
  const ast::KernelAst k = parse_kernel_source(R"(
    __global__ void m(float* o, int n) {
      int i = threadIdx.x;
      if (i < n) {
        o[i] = sqrt(exp(log(fmax(1.0, 4.0)))) + normcdf(0.0);
      }
    }
  )");
  std::vector<float> o(1, 0.0f);
  KernelArgs args;
  args.arrays = {ArrayBinding{ElemType::F32, o.data(), 1}};
  args.scalars = {1.0};
  oracle::execute_kernel(k, args, 1, 1);
  EXPECT_NEAR(o[0], 2.0 + 0.5, 1e-6);
}

TEST(InterpreterTest, TernaryAndLogicalOps) {
  const ast::KernelAst k = parse_kernel_source(R"(
    __global__ void t(float* o, int n) {
      int i = threadIdx.x;
      if (i < n) {
        o[i] = (i % 2 == 0 && i >= 0) ? 1.0 : -1.0;
      }
    }
  )");
  std::vector<float> o(4, 0.0f);
  KernelArgs args;
  args.arrays = {ArrayBinding{ElemType::F32, o.data(), 4}};
  args.scalars = {4.0};
  oracle::execute_kernel(k, args, 1, 4);
  EXPECT_FLOAT_EQ(o[0], 1.0f);
  EXPECT_FLOAT_EQ(o[1], -1.0f);
  EXPECT_FLOAT_EQ(o[2], 1.0f);
}

TEST(InterpreterTest, OutOfBoundsWriteThrows) {
  const ast::KernelAst k = parse_kernel_source(R"(
    __global__ void bad(float* o) {
      o[99] = 1.0;
    }
  )");
  std::vector<float> o(4, 0.0f);
  KernelArgs args;
  args.arrays = {ArrayBinding{ElemType::F32, o.data(), 4}};
  EXPECT_THROW(oracle::execute_kernel(k, args, 1, 1), InvalidArgument);
}

TEST(InterpreterTest, UnknownFunctionThrows) {
  const ast::KernelAst k = parse_kernel_source(R"(
    __global__ void u(float* o) {
      o[0] = __shfl_sync(0, 1, 2);
    }
  )");
  std::vector<float> o(1);
  KernelArgs args;
  args.arrays = {ArrayBinding{ElemType::F32, o.data(), 1}};
  EXPECT_THROW(oracle::execute_kernel(k, args, 1, 1), ParseError);
}

TEST(InterpreterTest, IntArrayBindings) {
  const ast::KernelAst k = parse_kernel_source(R"(
    __global__ void ints(int* o, int n) {
      int i = threadIdx.x;
      if (i < n) { o[i] = i * 3; }
    }
  )");
  std::vector<std::int32_t> o(5, 0);
  KernelArgs args;
  args.arrays = {ArrayBinding{ElemType::I32, o.data(), 5}};
  args.scalars = {5.0};
  oracle::execute_kernel(k, args, 1, 8);
  EXPECT_EQ(o[4], 12);
}

// ---------------------------------------------------------------------------
// Values
// ---------------------------------------------------------------------------

TEST(ValueTest, NumberConversions) {
  EXPECT_DOUBLE_EQ(Value(2.5).as_number(), 2.5);
  EXPECT_EQ(Value(7).as_int(), 7);
  EXPECT_DOUBLE_EQ(Value(7).as_number(), 7.0);
  EXPECT_EQ(Value(2.9).as_int(), 2);
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value("hi").is_string());
}

TEST(ValueTest, WrongKindThrows) {
  EXPECT_THROW((void)Value("hi").as_number(), InvalidArgument);
  EXPECT_THROW((void)Value(1.0).as_string(), InvalidArgument);
  EXPECT_THROW((void)Value(1.0).as_array(), InvalidArgument);
  EXPECT_THROW(Value(1.0).call({}), InvalidArgument);
}

TEST(ValueTest, BuiltinCall) {
  auto builtin = std::make_shared<BuiltinFn>();
  builtin->name = "add";
  builtin->fn = [](const std::vector<Value>& args) {
    return Value(args[0].as_number() + args[1].as_number());
  };
  const Value v(builtin);
  EXPECT_TRUE(v.is_callable());
  EXPECT_DOUBLE_EQ(v(Value(1.0), Value(2.0)).as_number(), 3.0);
}

// ---------------------------------------------------------------------------
// Context / DSL / arrays
// ---------------------------------------------------------------------------

TEST(ContextTest, EvalArrayDsl) {
  Context ctx = small_grcuda();
  const Value v = ctx.eval("float[100]");
  ASSERT_TRUE(v.is_array());
  EXPECT_EQ(v.as_array()->size(), 100u);
  EXPECT_EQ(v.as_array()->type(), ElemType::F32);
  EXPECT_EQ(v.as_array()->bytes(), 400u);

  const Value d = ctx.eval(" double[ 7 ] ");
  EXPECT_EQ(d.as_array()->type(), ElemType::F64);
  EXPECT_EQ(d.as_array()->size(), 7u);
}

TEST(ContextTest, EvalMultiDimArrays) {
  Context ctx = small_grcuda();
  const Value m = ctx.eval("float[4][256]");
  ASSERT_TRUE(m.is_array());
  auto arr = m.as_array();
  EXPECT_EQ(arr->rank(), 2u);
  EXPECT_EQ(arr->shape(), (std::vector<std::size_t>{4, 256}));
  EXPECT_EQ(arr->size(), 1024u);
  EXPECT_EQ(arr->bytes(), 4096u);

  arr->set_at({2, 100}, 7.5);
  EXPECT_DOUBLE_EQ(arr->at({2, 100}), 7.5);
  EXPECT_DOUBLE_EQ(arr->get(2 * 256 + 100), 7.5);  // row-major
  EXPECT_EQ(arr->index_of({3, 255}), 1023u);

  const Value cube = ctx.eval("int[2][3][4]");
  EXPECT_EQ(cube.as_array()->rank(), 3u);
  EXPECT_EQ(cube.as_array()->size(), 24u);
  EXPECT_EQ(cube.as_array()->index_of({1, 2, 3}), 23u);
}

TEST(ContextTest, MultiDimBoundsChecked) {
  Context ctx = small_grcuda();
  auto arr = ctx.eval("float[4][8]").as_array();
  EXPECT_THROW((void)arr->index_of({4, 0}), InvalidArgument);
  EXPECT_THROW((void)arr->index_of({0, 8}), InvalidArgument);
  EXPECT_THROW((void)arr->index_of({0}), InvalidArgument);  // rank mismatch
}

TEST(ContextTest, EvalBadDslThrows) {
  Context ctx = small_grcuda();
  EXPECT_THROW(ctx.eval("float[0]"), ParseError);
  EXPECT_THROW(ctx.eval("float[abc]"), ParseError);
  EXPECT_THROW(ctx.eval("blob[10]"), ParseError);
  EXPECT_THROW(ctx.eval("gimme arrays"), ParseError);
}

TEST(ContextTest, DeviceArrayGetSet) {
  Context ctx = small_grcuda();
  auto arr = ctx.eval("float[10]").as_array();
  arr->set(3, 1.5);
  EXPECT_DOUBLE_EQ(arr->get(3), 1.5);
  EXPECT_THROW(arr->set(10, 0.0), InvalidArgument);
  EXPECT_THROW((void)arr->get(10), InvalidArgument);
}

TEST(ContextTest, DeviceArrayFillAndInit) {
  Context ctx = small_grcuda();
  auto arr = ctx.eval("int[8]").as_array();
  arr->fill(4.0);
  EXPECT_DOUBLE_EQ(arr->get(0), 4.0);
  arr->init([](std::size_t i) { return static_cast<double>(i * i); });
  EXPECT_DOUBLE_EQ(arr->get(3), 9.0);
}

TEST(ContextTest, LargeArraysNotMaterialized) {
  Context::Config cfg;
  cfg.materialize_limit = 1_KiB;
  Context ctx(std::make_unique<GrCudaBackend>(small_node()), cfg);
  auto arr = ctx.alloc_array(ElemType::F32, 1024, "big");  // 4 KiB > limit
  EXPECT_FALSE(arr->materialized());
  EXPECT_NO_THROW(arr->fill(1.0));  // footprint-only write
  EXPECT_THROW((void)arr->get(0), InvalidArgument);
}

// ---------------------------------------------------------------------------
// buildkernel end-to-end (Listing 1 on the GrCUDA backend)
// ---------------------------------------------------------------------------

constexpr const char* kSquare = R"(
extern "C" __global__ void square(float* x, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    x[i] = x[i] * x[i];
  }
}
)";

TEST(ContextTest, Listing1Flow) {
  Context ctx = small_grcuda();
  Value build = ctx.eval("buildkernel");
  Value square = build(Value(kSquare), Value("square(x: inout pointer float, n: sint32)"));
  ASSERT_TRUE(square.is_kernel());

  Value x = ctx.eval("float[100]");
  for (std::size_t i = 0; i < 100; ++i) x.as_array()->set(i, static_cast<double>(i));

  // square(GRID, BLOCK)(x, 100)
  square(Value(1), Value(128))(x, Value(100));
  EXPECT_TRUE(ctx.synchronize());
  EXPECT_DOUBLE_EQ(x.as_array()->get(9), 81.0);
  EXPECT_GT(ctx.now(), SimTime::zero());
}

TEST(ContextTest, BuildKernelWithoutSignatureUsesConstness) {
  Context ctx = small_grcuda();
  const Value k = ctx.build_kernel(kSaxpy);
  const auto& params = k.as_kernel()->params();
  EXPECT_EQ(params[0].mode, uvm::AccessMode::Read);       // const float* x
  EXPECT_EQ(params[1].mode, uvm::AccessMode::ReadWrite);  // float* y
}

TEST(ContextTest, SignatureArityMismatchThrows) {
  Context ctx = small_grcuda();
  EXPECT_THROW(ctx.build_kernel(kSquare, "square(x: inout pointer float)"), InvalidArgument);
}

TEST(ContextTest, LaunchValidatesArguments) {
  Context ctx = small_grcuda();
  Value square = ctx.build_kernel(kSquare);
  Value bound = square(Value(1), Value(32));
  EXPECT_THROW(bound(Value(1.0)), InvalidArgument);             // missing arg
  EXPECT_THROW(bound(Value(1.0), Value(2.0)), InvalidArgument);  // not an array
  EXPECT_THROW(square(Value(0), Value(32)), InvalidArgument);    // empty grid
}

TEST(ContextTest, NativeKernelRoundTrip) {
  Context ctx = small_grcuda();
  auto kernel = ctx.register_native_kernel(
      "scale",
      {KernelParamInfo{"x", true, ElemType::F64, uvm::AccessMode::ReadWrite,
                       uvm::StreamingPattern{}},
       KernelParamInfo{"f", false, ElemType::F64, uvm::AccessMode::Read,
                       uvm::StreamingPattern{}}},
      [](const KernelArgs& args, std::size_t, std::size_t) {
        for (std::size_t i = 0; i < args.arrays[0].length; ++i) {
          args.arrays[0].set(i, args.arrays[0].get(i) * args.scalars[0]);
        }
      });
  auto arr = ctx.eval("double[4]").as_array();
  arr->fill(3.0);
  const Value kernel_value(kernel);
  kernel_value(Value(1), Value(4))(Value(arr), Value(2.0));
  ctx.synchronize();
  EXPECT_DOUBLE_EQ(arr->get(2), 6.0);
}

// ---------------------------------------------------------------------------
// The one-line GrCUDA -> GrOUT migration (Listing 2)
// ---------------------------------------------------------------------------

core::GroutConfig small_grout_cfg() {
  core::GroutConfig cfg;
  cfg.cluster.workers = 2;
  cfg.cluster.worker_node.gpu_count = 2;
  cfg.cluster.worker_node.device.memory = 8_MiB;
  cfg.cluster.worker_node.tuning.page_size = 1_MiB;
  return cfg;
}

// Two independent launches, a host read-back, then a second launch on the
// same array: it must see the first launch's output on either backend.
TEST(ContextTest, SameProgramRunsOnBothBackends) {
  for (int backend = 0; backend < 2; ++backend) {
    Context ctx = backend == 0 ? small_grcuda() : Context::grout(small_grout_cfg());
    SCOPED_TRACE(to_string(ctx.backend().kind()));

    Value build = ctx.eval("buildkernel");
    Value square = build(Value(kSquare), Value("square(x: inout pointer float, n: sint32)"));
    Value x = ctx.eval("float[64]");
    Value y = ctx.eval("float[64]");
    x.as_array()->init([](std::size_t i) { return static_cast<double>(i); });
    y.as_array()->init([](std::size_t i) { return static_cast<double>(i + 100); });
    square(Value(1), Value(64))(x, Value(64));
    square(Value(1), Value(64))(y, Value(64));
    EXPECT_TRUE(ctx.synchronize());
    EXPECT_DOUBLE_EQ(x.as_array()->get(7), 49.0);
    EXPECT_DOUBLE_EQ(y.as_array()->get(2), 10404.0);
    if (backend == 1) {
      // The default vector-step policy puts one CE on each worker.
      const auto& assignments =
          dynamic_cast<GroutBackend&>(ctx.backend()).grout().metrics().assignments;
      EXPECT_EQ(assignments[0], 1u);
      EXPECT_EQ(assignments[1], 1u);
    }

    square(Value(1), Value(64))(x, Value(64));
    EXPECT_TRUE(ctx.synchronize());
    EXPECT_DOUBLE_EQ(x.as_array()->get(7), 2401.0);
  }
}

TEST(BackendTest, Names) {
  EXPECT_STREQ(to_string(BackendKind::GrCUDA), "GrCUDA");
  EXPECT_STREQ(to_string(BackendKind::GrOUT), "GrOUT");
}

}  // namespace
}  // namespace grout::polyglot
