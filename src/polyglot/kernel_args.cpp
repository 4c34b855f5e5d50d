#include "polyglot/kernel_args.hpp"

#include <cstdint>

#include "common/error.hpp"

namespace grout::polyglot {

double ArrayBinding::get(std::size_t i) const {
  GROUT_REQUIRE(i < length, "kernel read out of bounds");
  switch (type) {
    case ElemType::F32: return static_cast<const float*>(data)[i];
    case ElemType::F64: return static_cast<const double*>(data)[i];
    case ElemType::I32: return static_cast<const std::int32_t*>(data)[i];
    case ElemType::I64: return static_cast<double>(static_cast<const std::int64_t*>(data)[i]);
  }
  return 0.0;
}

void ArrayBinding::set(std::size_t i, double v) const {
  GROUT_REQUIRE(i < length, "kernel write out of bounds");
  switch (type) {
    case ElemType::F32: static_cast<float*>(data)[i] = static_cast<float>(v); return;
    case ElemType::F64: static_cast<double*>(data)[i] = v; return;
    case ElemType::I32:
      static_cast<std::int32_t*>(data)[i] = static_cast<std::int32_t>(v);
      return;
    case ElemType::I64:
      static_cast<std::int64_t*>(data)[i] = static_cast<std::int64_t>(v);
      return;
  }
}

}  // namespace grout::polyglot
