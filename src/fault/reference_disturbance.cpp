#include "fault/reference_disturbance.hpp"

#include <stdexcept>

namespace pimecc::fault {

void ReferenceDisturbanceModel::sample(util::Rng& rng,
                                       std::span<const double> activations,
                                       std::vector<DataFlip>& out) const {
  if (activations.size() != model_.rows()) {
    throw std::invalid_argument(
        "ReferenceDisturbanceModel: activation vector size must equal rows");
  }
  std::vector<std::size_t> columns;
  for (std::size_t v = 0; v < model_.rows(); ++v) {
    const double p =
        model_.row_flip_probability(model_.victim_pressure(activations, v));
    if (p <= 0.0) continue;
    const std::size_t count =
        static_cast<std::size_t>(rng.binomial(model_.cols(), p));
    if (count == 0) continue;
    sample_distinct(rng, model_.cols(), count, columns);
    for (const std::size_t c : columns) out.push_back({v, c});
  }
}

}  // namespace pimecc::fault
