#include "fault/disturbance.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pimecc::fault {

DisturbanceModel::DisturbanceModel(std::size_t rows, std::size_t cols,
                                   const DisturbanceParams& params)
    : rows_(rows), cols_(cols), params_(params) {
  if (rows == 0 || cols == 0) {
    throw std::invalid_argument("DisturbanceModel: dimensions must be positive");
  }
  if (!(params.flip_probability_per_activation >= 0.0) ||
      !std::isfinite(params.flip_probability_per_activation)) {
    throw std::invalid_argument(
        "DisturbanceModel: flip probability per activation must be finite and "
        ">= 0");
  }
  if (params.neighbor_radius == 0) {
    throw std::invalid_argument("DisturbanceModel: neighbor_radius must be >= 1");
  }
}

double DisturbanceModel::victim_pressure(std::span<const double> activations,
                                         std::size_t victim) const {
  if (activations.size() != rows_) {
    throw std::invalid_argument(
        "DisturbanceModel: activation vector size must equal rows");
  }
  if (victim >= rows_) {
    throw std::out_of_range("DisturbanceModel: victim row out of range");
  }
  const double floor = static_cast<double>(params_.activation_floor);
  const std::size_t lo =
      victim >= params_.neighbor_radius ? victim - params_.neighbor_radius : 0;
  const std::size_t hi = std::min(rows_ - 1, victim + params_.neighbor_radius);
  double pressure = 0.0;
  for (std::size_t u = lo; u <= hi; ++u) {
    if (u == victim) continue;
    const double effective = activations[u] - floor;
    if (effective > 0.0) pressure += effective;
  }
  return pressure;
}

double DisturbanceModel::row_flip_probability(double pressure) const noexcept {
  if (pressure <= 0.0) return 0.0;
  // -expm1(-x) = 1 - exp(-x) without cancellation for the tiny hazards
  // realistic parameters produce.
  return -std::expm1(-params_.flip_probability_per_activation * pressure);
}

DisturbanceProfile DisturbanceModel::profile(
    std::span<const double> activations) const {
  if (activations.size() != rows_) {
    throw std::invalid_argument(
        "DisturbanceModel: activation vector size must equal rows");
  }
  DisturbanceProfile out;
  out.pressure.resize(rows_);
  out.prefix.resize(rows_ + 1);
  out.prefix[0] = 0.0;
  const double cols = static_cast<double>(cols_);
  for (std::size_t v = 0; v < rows_; ++v) {
    out.pressure[v] = victim_pressure(activations, v);
    out.prefix[v + 1] = out.prefix[v] + cols * out.pressure[v];
  }
  return out;
}

void DisturbanceModel::sample(util::Rng& rng, const DisturbanceProfile& profile,
                              double activation_scale,
                              std::vector<DataFlip>& out) const {
  if (profile.pressure.size() != rows_ || profile.prefix.size() != rows_ + 1) {
    throw std::invalid_argument(
        "DisturbanceModel: profile size must match rows");
  }
  if (!(activation_scale >= 0.0) || !std::isfinite(activation_scale)) {
    throw std::invalid_argument(
        "DisturbanceModel: activation scale must be finite and >= 0");
  }
  const double hazard_scale =
      params_.flip_probability_per_activation * activation_scale;
  const double* prefix = profile.prefix.data();
  const double total = prefix[rows_];
  if (!(hazard_scale > 0.0 && total > 0.0)) return;

  // The process walks the line in units of pressure.  (row, col) is the
  // first cell not yet passed and `at` where it starts on the line.
  std::size_t row = 0;
  std::size_t col = 0;
  double at = 0.0;
  for (;;) {
    const double target = at - std::log1p(-rng.uniform01()) / hazard_scale;
    if (!(target < total)) return;
    // The last row starting at or before `target` (prefix[rows_] = total
    // > target).  A zero-pressure row spans an empty segment, so it is
    // never the one found.
    const std::size_t v =
        static_cast<std::size_t>(
            std::upper_bound(prefix + row + 1, prefix + rows_, target) -
            prefix) -
        1;
    const double cell = profile.pressure[v];
    const double offset = std::floor((target - prefix[v]) / cell);
    // Rounding can put a target at a segment's end past its last cell, or
    // a hair before the restart point; clamp to the cells still open.
    std::size_t c = offset < static_cast<double>(cols_)
                        ? static_cast<std::size_t>(offset)
                        : cols_ - 1;
    if (v == row) c = std::max(c, col);
    out.push_back({v, c});
    if (c + 1 < cols_) {
      row = v;
      col = c + 1;
      at = prefix[v] + static_cast<double>(col) * cell;
    } else {
      row = v + 1;
      col = 0;
      at = prefix[v + 1];
    }
  }
}

void DisturbanceModel::sample(util::Rng& rng,
                              std::span<const double> activations,
                              std::vector<DataFlip>& out) const {
  sample(rng, profile(activations), 1.0, out);
}

std::vector<DataFlip> DisturbanceModel::sample(
    util::Rng& rng, std::span<const std::uint64_t> activations) const {
  const std::vector<double> counts(activations.begin(), activations.end());
  std::vector<DataFlip> out;
  sample(rng, counts, out);
  return out;
}

}  // namespace pimecc::fault
