// pimecc -- fault/reference_disturbance.hpp
//
// The per-row binomial disturbance sampler that DisturbanceModel's sparse
// skip sampler replaced, kept as its statistical oracle (test-only: it
// builds into pimecc_reference, never into the production library).
// Same hazard model (fault/disturbance.hpp): each victim row draws its
// flip count from Binomial(cols, p(v)), then that many distinct columns.
// Rows are visited in ascending order and zero-pressure rows consume no
// randomness.  Its stream goes through std::binomial_distribution, so it
// differs from the sparse sampler's; the two agree in distribution, which
// tests/test_disturbance_oracle.cpp checks.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "fault/disturbance.hpp"
#include "fault/injector.hpp"
#include "util/rng.hpp"

namespace pimecc::fault {

class ReferenceDisturbanceModel {
 public:
  ReferenceDisturbanceModel(std::size_t rows, std::size_t cols,
                            const DisturbanceParams& params)
      : model_(rows, cols, params) {}

  [[nodiscard]] const DisturbanceModel& model() const noexcept {
    return model_;
  }

  /// One exposure; appends the flips to `out` in (row, then column) order.
  void sample(util::Rng& rng, std::span<const double> activations,
              std::vector<DataFlip>& out) const;

 private:
  DisturbanceModel model_;
};

}  // namespace pimecc::fault
