#pragma once

#include <vector>

#include "sim/deviation.hpp"

namespace xchain::sim {

/// The plan space for a role with `actions` protocol actions: conforming
/// plus every distinct halting point halt@0..halt@(actions-1).
inline std::vector<DeviationPlan> plan_space(int actions) {
  std::vector<DeviationPlan> plans{DeviationPlan::conforming()};
  for (int k = 0; k < actions; ++k) {
    plans.push_back(DeviationPlan::halt_after(k));
  }
  return plans;
}

}  // namespace xchain::sim
