// Kernel launch descriptors for the simulated GPU.
//
// A kernel is characterized by its total floating-point work, its
// parallelism class (drives fault-replay pressure under UVM storms) and one
// access descriptor per pointer parameter. The roofline combination with
// the UVM stall report happens in Gpu::launch.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "uvm/access.hpp"
#include "uvm/types.hpp"

namespace grout::gpusim {

struct KernelLaunchSpec {
  std::string name;
  double flops{0.0};
  uvm::Parallelism parallelism{uvm::Parallelism::High};
  std::vector<uvm::ParamAccess> params;
  /// Serving tenant that submitted this CE (kNoTenant outside serve runs);
  /// carried through the wire format so worker-side spans stay attributable.
  TenantId tenant{kNoTenant};
};

}  // namespace grout::gpusim
