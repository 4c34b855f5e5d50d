#include "polyglot/context.hpp"

#include <algorithm>

#include "common/strings.hpp"
#include "polyglot/kernel_lang.hpp"

namespace grout::polyglot {

// ---------------------------------------------------------------------------
// DeviceArray
// ---------------------------------------------------------------------------

DeviceArray::DeviceArray(Context& ctx, ElemType type, std::size_t count, std::string name)
    : DeviceArray(ctx, type, std::vector<std::size_t>{count}, std::move(name)) {}

DeviceArray::DeviceArray(Context& ctx, ElemType type, std::vector<std::size_t> shape,
                         std::string name)
    : ctx_{ctx}, type_{type}, shape_{std::move(shape)}, name_{std::move(name)} {
  GROUT_REQUIRE(!shape_.empty(), "device array needs at least one dimension");
  count_ = 1;
  for (const std::size_t extent : shape_) {
    GROUT_REQUIRE(extent > 0, "zero-length device array dimension");
    count_ *= extent;
  }
  ref_ = ctx_.backend().alloc(bytes(), name_);
  if (bytes() <= ctx_.config().materialize_limit) {
    storage_.assign(bytes(), std::byte{0});
  }
}

std::size_t DeviceArray::index_of(std::initializer_list<std::size_t> coords) const {
  GROUT_REQUIRE(coords.size() == shape_.size(), "coordinate rank mismatch");
  std::size_t flat = 0;
  std::size_t dim = 0;
  for (const std::size_t c : coords) {
    GROUT_REQUIRE(c < shape_[dim], "coordinate out of bounds");
    flat = flat * shape_[dim] + c;
    ++dim;
  }
  return flat;
}

double DeviceArray::get(std::size_t i) {
  GROUT_REQUIRE(i < count_, "array read out of bounds");
  GROUT_REQUIRE(materialized(),
                "array '" + name_ + "' exceeds the materialization limit; "
                "element reads are only available on materialized arrays");
  if (!host_dirty_) {
    // Device writes may be pending; gather the controller copy first.
    ctx_.backend().ensure_host_readable(ref_);
  }
  return binding().get(i);
}

void DeviceArray::set(std::size_t i, double v) {
  GROUT_REQUIRE(i < count_, "array write out of bounds");
  if (materialized()) binding().set(i, v);
  mark_host_dirty();
}

void DeviceArray::fill(double v) {
  if (materialized()) {
    const ArrayBinding b = binding();
    for (std::size_t i = 0; i < count_; ++i) b.set(i, v);
  }
  mark_host_dirty();
}

void DeviceArray::init(const std::function<double(std::size_t)>& fn) {
  if (materialized()) {
    const ArrayBinding b = binding();
    for (std::size_t i = 0; i < count_; ++i) b.set(i, fn(i));
  }
  mark_host_dirty();
}

void DeviceArray::flush_host_writes() {
  if (!host_dirty_) return;
  ctx_.backend().notify_host_write(ref_);
  host_dirty_ = false;
}

void DeviceArray::advise(uvm::Advise hint) { ctx_.backend().advise(ref_, hint); }

ArrayBinding DeviceArray::binding() {
  GROUT_REQUIRE(materialized(), "binding() requires a materialized array");
  return ArrayBinding{type_, storage_.data(), count_};
}

// ---------------------------------------------------------------------------
// KernelObject knobs
// ---------------------------------------------------------------------------

KernelObject& KernelObject::set_param_pattern(std::size_t index, uvm::AccessPattern pattern) {
  GROUT_REQUIRE(index < params_.size(), "param index out of range");
  GROUT_REQUIRE(params_[index].pointer, "patterns only apply to pointer params");
  params_[index].pattern = pattern;
  return *this;
}

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

double Value::as_number() const {
  if (const auto* d = std::get_if<double>(&payload_)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&payload_)) return static_cast<double>(*i);
  if (const auto* b = std::get_if<bool>(&payload_)) return *b ? 1.0 : 0.0;
  throw InvalidArgument("value is not a number");
}

std::int64_t Value::as_int() const {
  if (const auto* i = std::get_if<std::int64_t>(&payload_)) return *i;
  if (const auto* d = std::get_if<double>(&payload_)) return static_cast<std::int64_t>(*d);
  throw InvalidArgument("value is not an integer");
}

const std::string& Value::as_string() const {
  if (const auto* s = std::get_if<std::string>(&payload_)) return *s;
  throw InvalidArgument("value is not a string");
}

const std::shared_ptr<DeviceArray>& Value::as_array() const {
  if (const auto* a = std::get_if<std::shared_ptr<DeviceArray>>(&payload_)) return *a;
  throw InvalidArgument("value is not a device array");
}

const std::shared_ptr<KernelObject>& Value::as_kernel() const {
  if (const auto* k = std::get_if<std::shared_ptr<KernelObject>>(&payload_)) return *k;
  throw InvalidArgument("value is not a kernel");
}

Value Value::call(const std::vector<Value>& args) const {
  if (const auto* builtin = std::get_if<std::shared_ptr<BuiltinFn>>(&payload_)) {
    return (*builtin)->fn(args);
  }
  if (const auto* kernel = std::get_if<std::shared_ptr<KernelObject>>(&payload_)) {
    // square(GRID, BLOCK) -> bound kernel.
    GROUT_REQUIRE(args.size() == 2, "kernels take (grid_dim, block_dim)");
    auto bound = std::make_shared<BoundKernel>();
    bound->kernel = *kernel;
    bound->grid_dim = static_cast<std::size_t>(args[0].as_int());
    bound->block_dim = static_cast<std::size_t>(args[1].as_int());
    GROUT_REQUIRE(bound->grid_dim > 0 && bound->block_dim > 0, "empty launch configuration");
    return Value(std::move(bound));
  }
  if (const auto* bound = std::get_if<std::shared_ptr<BoundKernel>>(&payload_)) {
    (*bound)->kernel->context().launch(**bound, args);
    return Value();
  }
  throw InvalidArgument("value is not callable");
}

// ---------------------------------------------------------------------------
// Context
// ---------------------------------------------------------------------------

Context::Context(std::unique_ptr<Backend> backend, Config config)
    : backend_{std::move(backend)}, config_{config} {
  GROUT_REQUIRE(backend_ != nullptr, "null backend");
}

Context Context::grcuda(gpusim::GpuNodeConfig node, runtime::StreamPolicyKind stream_policy,
                        SimTime run_cap) {
  return Context(std::make_unique<GrCudaBackend>(std::move(node), stream_policy, 2, run_cap));
}

Context Context::grout(core::GroutConfig config) {
  return Context(std::make_unique<GroutBackend>(std::move(config)));
}

Value Context::eval(std::string_view code) {
  const std::string_view trimmed = trim(code);
  if (trimmed == "buildkernel") {
    auto builtin = std::make_shared<BuiltinFn>();
    builtin->name = "buildkernel";
    builtin->fn = [this](const std::vector<Value>& args) -> Value {
      GROUT_REQUIRE(args.size() == 1 || args.size() == 2,
                    "buildkernel takes (source [, signature])");
      return build_kernel(args[0].as_string(),
                          args.size() == 2 ? std::string_view(args[1].as_string())
                                           : std::string_view{});
    };
    return Value(std::move(builtin));
  }

  // "<type>[<count>]" or multi-dimensional "<type>[a][b]...".
  const auto open = trimmed.find('[');
  if (open == std::string_view::npos || trimmed.back() != ']') {
    throw ParseError("unsupported eval expression: " + std::string(code));
  }
  ElemType type{};
  if (!parse_elem_type(trim(trimmed.substr(0, open)), type)) {
    throw ParseError("unknown element type in: " + std::string(code));
  }
  std::vector<std::size_t> shape;
  std::string_view rest = trimmed.substr(open);
  while (!rest.empty()) {
    if (rest.front() != '[') throw ParseError("bad array shape in: " + std::string(code));
    const auto close = rest.find(']');
    if (close == std::string_view::npos) {
      throw ParseError("bad array shape in: " + std::string(code));
    }
    const std::string count_text{trim(rest.substr(1, close - 1))};
    char* end = nullptr;
    const unsigned long long count = std::strtoull(count_text.c_str(), &end, 10);
    if (end == count_text.c_str() || *end != '\0' || count == 0) {
      throw ParseError("bad array length in: " + std::string(code));
    }
    shape.push_back(static_cast<std::size_t>(count));
    rest = trim(rest.substr(close + 1));
  }
  return Value(std::make_shared<DeviceArray>(*this, type, std::move(shape), "array"));
}

Value Context::build_kernel(std::string_view source, std::string_view signature) {
  const ast::KernelAst kernel_ast = parse_kernel_source(source);

  std::vector<KernelParamInfo> params;
  if (!signature.empty()) {
    const KernelSignature sig = parse_signature(signature);
    GROUT_REQUIRE(sig.params.size() == kernel_ast.params.size(),
                  "signature arity differs from kernel source");
    for (std::size_t i = 0; i < sig.params.size(); ++i) {
      GROUT_REQUIRE(sig.params[i].pointer == kernel_ast.params[i].pointer,
                    "signature pointer-ness differs from kernel source");
      KernelParamInfo info;
      info.name = kernel_ast.params[i].name;  // kernels bind by source name
      info.pointer = sig.params[i].pointer;
      info.type = sig.params[i].type;
      info.mode = sig.params[i].mode;
      params.push_back(std::move(info));
    }
  } else {
    for (const ast::Param& p : kernel_ast.params) {
      KernelParamInfo info;
      info.name = p.name;
      info.pointer = p.pointer;
      ElemType t = ElemType::F32;
      parse_elem_type(p.type, t);
      info.type = t;
      info.mode = p.is_const ? uvm::AccessMode::Read
                             : (p.pointer ? uvm::AccessMode::ReadWrite : uvm::AccessMode::Read);
      params.push_back(std::move(info));
    }
  }

  auto kernel = std::make_shared<KernelObject>(*this, kernel_ast.name, std::move(params));
  kernel->set_flops_per_thread(std::max(1.0, ast::count_flops(kernel_ast)));
  kernel->compile(kernel_ast);
  return Value(std::move(kernel));
}

std::shared_ptr<KernelObject> Context::register_native_kernel(
    std::string name, std::vector<KernelParamInfo> params, NativeFn fn, double flops_per_thread,
    uvm::Parallelism parallelism) {
  auto kernel = std::make_shared<KernelObject>(*this, std::move(name), std::move(params));
  kernel->set_native(std::move(fn));
  kernel->set_flops_per_thread(flops_per_thread);
  kernel->set_parallelism(parallelism);
  return kernel;
}

std::shared_ptr<DeviceArray> Context::alloc_array(ElemType type, std::size_t count,
                                                  std::string name) {
  return std::make_shared<DeviceArray>(*this, type, count, std::move(name));
}

void Context::launch(const BoundKernel& bound, const std::vector<Value>& args,
                     const std::vector<uvm::ByteRange>& ranges) {
  const KernelObject& kernel = *bound.kernel;
  GROUT_REQUIRE(args.size() == kernel.params().size(),
                "kernel '" + kernel.name() + "' argument count mismatch");

  // Gather arguments; flush buffered host writes so the CEs appear in
  // program order in the DAG.
  std::vector<std::shared_ptr<DeviceArray>> arrays;
  std::vector<double> scalars;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const KernelParamInfo& p = kernel.params()[i];
    if (p.pointer) {
      std::shared_ptr<DeviceArray> arr = args[i].as_array();
      arr->flush_host_writes();
      arrays.push_back(std::move(arr));
    } else {
      scalars.push_back(args[i].as_number());
    }
  }

  // Simulated launch.
  gpusim::KernelLaunchSpec spec;
  spec.name = kernel.name();
  spec.parallelism = kernel.parallelism();
  spec.flops = kernel.flops_per_thread() *
               static_cast<double>(bound.grid_dim * bound.block_dim);
  std::size_t array_cursor = 0;
  for (const KernelParamInfo& p : kernel.params()) {
    if (!p.pointer) continue;
    uvm::ParamAccess access;
    access.array = arrays[array_cursor]->ref();
    access.mode = p.mode;
    access.pattern = p.pattern;
    if (array_cursor < ranges.size()) access.range = ranges[array_cursor];
    ++array_cursor;
    spec.params.push_back(access);
  }
  backend_->launch(std::move(spec));

  // Functional execution (real numbers) when possible.
  if (!kernel.has_functional_impl()) return;
  const bool all_materialized = std::all_of(arrays.begin(), arrays.end(),
                                            [](const auto& a) { return a->materialized(); });
  if (!all_materialized) return;
  KernelArgs kargs;
  for (const auto& a : arrays) kargs.arrays.push_back(a->binding());
  kargs.scalars = std::move(scalars);
  if (kernel.compiled() != nullptr) {
    kernel.compiled()->execute(kargs, bound.grid_dim, bound.block_dim);
  } else {
    kernel.native()(kargs, bound.grid_dim, bound.block_dim);
  }
}

}  // namespace grout::polyglot
