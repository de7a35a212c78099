//===- ProfileCache.cpp - Shared train-profile and simulation memo ----------===//

#include "core/ProfileCache.h"

using namespace srp;
using namespace srp::core;

arch::SimResult ProfileCache::simulate(const arch::DecodedModule &DM,
                                       const arch::SimConfig &Config) {
  SingleFlight<arch::SimResult>::Claim C =
      Sims.acquire(arch::simulationKey(DM, Config));
  // Simulations never fail() their claim (a trap is a memoized result),
  // so a non-leader always receives a value.
  if (!C.Lead)
    return *C.Value;
  auto R = std::make_shared<const arch::SimResult>(arch::simulate(DM, Config));
  Sims.publish(C, R);
  return *R;
}
