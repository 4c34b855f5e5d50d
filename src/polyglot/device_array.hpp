// Polyglot device arrays (the `eval(GrOUT, "float[N]")` objects).
//
// An array always has a *logical* footprint driving the simulation; arrays
// up to the context's materialization limit additionally carry real host
// storage so kernels execute functionally and element reads return real
// numbers. Large bench arrays skip materialization: only timing matters.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "polyglot/backend.hpp"
#include "polyglot/kernel_args.hpp"
#include "polyglot/types.hpp"

namespace grout::polyglot {

class Context;

class DeviceArray {
 public:
  /// 1-D array of `count` elements.
  DeviceArray(Context& ctx, ElemType type, std::size_t count, std::string name);
  /// Multi-dimensional array (row-major, like GrCUDA's DeviceArray).
  DeviceArray(Context& ctx, ElemType type, std::vector<std::size_t> shape, std::string name);

  DeviceArray(const DeviceArray&) = delete;
  DeviceArray& operator=(const DeviceArray&) = delete;

  [[nodiscard]] std::size_t size() const { return count_; }
  /// Extent per dimension; {count} for 1-D arrays.
  [[nodiscard]] const std::vector<std::size_t>& shape() const { return shape_; }
  [[nodiscard]] std::size_t rank() const { return shape_.size(); }
  /// Row-major flat index of a multi-dimensional coordinate.
  [[nodiscard]] std::size_t index_of(std::initializer_list<std::size_t> coords) const;
  /// Convenience element accessors by coordinate.
  [[nodiscard]] double at(std::initializer_list<std::size_t> coords) {
    return get(index_of(coords));
  }
  void set_at(std::initializer_list<std::size_t> coords, double v) {
    set(index_of(coords), v);
  }
  [[nodiscard]] ElemType type() const { return type_; }
  [[nodiscard]] Bytes bytes() const { return elem_size(type_) * count_; }
  [[nodiscard]] ArrayRef ref() const { return ref_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool materialized() const { return !storage_.empty(); }

  /// Read one element; synchronizes (fetches the controller copy) first.
  [[nodiscard]] double get(std::size_t i);

  /// Write one element on the host. Writes are buffered: one host-write CE
  /// is emitted when the array is next consumed (or on flush()).
  void set(std::size_t i, double v);

  /// Fill every element with `v` (bulk host write, one CE).
  void fill(double v);

  /// Initialize via `fn(i)` (bulk host write, one CE). On unmaterialized
  /// arrays only the footprint/CE is recorded.
  void init(const std::function<double(std::size_t)>& fn);

  /// Emit the pending host-write CE, if any.
  void flush_host_writes();

  /// Apply a memory advise (cudaMemAdvise ReadMostly, or None).
  void advise(uvm::Advise advise);

  /// Host view for functional kernel execution; requires materialization.
  [[nodiscard]] ArrayBinding binding();

 private:
  void mark_host_dirty() { host_dirty_ = true; }

  Context& ctx_;
  ElemType type_;
  std::size_t count_;
  std::vector<std::size_t> shape_;
  std::string name_;
  ArrayRef ref_;
  std::vector<std::byte> storage_;
  bool host_dirty_{false};
};

}  // namespace grout::polyglot
