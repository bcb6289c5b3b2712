// Mechanism construction by family: the single switch point the
// comparative driver and the benches share, so a new baseline lands in
// every harness by extending one factory.

#ifndef NELA_MECHANISMS_FACTORY_H_
#define NELA_MECHANISMS_FACTORY_H_

#include <cstdint>
#include <memory>

#include "audit/leak_contract.h"
#include "core/mechanism.h"
#include "data/dataset.h"
#include "net/network.h"
#include "util/status.h"

namespace nela::mechanisms {

// Knobs of the baseline mechanisms; the native cluster-bound scheme is
// configured through its engine instead.
struct MechanismParams {
  // Grid cloak: finest quadtree depth (cell width >= 2^-grid_max_depth).
  uint32_t grid_max_depth = 8;
  // Geo-indistinguishability: privacy budget per unit distance (expected
  // displacement 2/epsilon; 20 on the unit square is a ~0.1 perturbation).
  double epsilon = 20.0;
  // Dummy locations: candidate grid side G and subsets scored per request.
  uint32_t dls_resolution = 16;
  uint32_t dls_subset_draws = 5;
};

// Builds the baseline mechanism of `family` over `dataset`, sending its
// wire artifacts through `network` (nullable: cost-model-only runs).
// Fails with kInvalidArgument for kClusterBound -- the native scheme needs
// a CloakingEngine; wrap it in ClusterBoundMechanism explicitly.
[[nodiscard]] util::Result<std::unique_ptr<core::Mechanism>> MakeMechanism(
    audit::MechanismFamily family, const data::Dataset& dataset,
    net::Network* network, uint32_t k, const MechanismParams& params);

}  // namespace nela::mechanisms

#endif  // NELA_MECHANISMS_FACTORY_H_
