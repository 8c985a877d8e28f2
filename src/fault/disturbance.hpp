// pimecc -- fault/disturbance.hpp
//
// Activation-induced disturbance (PRAC-style, arxiv 2507.05556): driving a
// wordline repeatedly disturbs the rows electrically adjacent to it, and
// the victim's flip probability grows with the aggressor's activation
// count.  The per-row activation counters that feed this model are exposed
// by xbar::Crossbar::row_activations() / arch::PimMachine; the scenario
// engine (reliability/scenario.hpp) instead integrates a deterministic
// per-row activation *rate* over each inter-scrub window.
//
// Hazard model: a victim row v accumulates pressure
//     A(v) = sum over aggressors u in [v-radius, v+radius], u != v
//            of max(0, activations(u) - activation_floor)
// and each of its cells flips independently with probability
//     p(v) = 1 - exp(-flip_probability_per_activation * A(v)),
// i.e. every effective aggressor activation is an independent Bernoulli
// hazard per victim cell -- additive in aggressors, saturating at 1, and
// chunk-invariant: splitting a window into sub-windows with the same total
// activations yields the same flip distribution.  The floor models PRAC's
// counting threshold: rows activated fewer than `activation_floor` times
// are not yet aggressors.
//
// Sampling: p(v) is exactly the chance that a Poisson process of rate
// h(v) = k * A(v) on the cell fires at least once.  Laying every cell end
// to end, each taking a length h(v), a window's flips are one Poisson
// process on that line, read as "the first event inside each cell".  The
// sampler draws Exp(1) gaps, finds the hit row by binary search over the
// prefix sum of cols * A(v) and the column by one division, and restarts
// the next gap at the end of the hit cell (the process is memoryless, so
// skipping the rest of a hit cell is exact).  A window therefore costs
// flips + 1 uniform draws and O((flips + 1) log rows) work, whatever the
// per-cell hazard.  It uses only util::Rng::next and libm's log1p, so its
// stream does not depend on the standard library's distributions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "fault/injector.hpp"
#include "util/rng.hpp"

namespace pimecc::fault {

/// Disturbance strength and neighborhood; see the file comment.
struct DisturbanceParams {
  /// Per-victim-cell flip hazard per effective aggressor activation; must
  /// be >= 0 and finite (realistic values are tiny, e.g. 1e-9 .. 1e-6).
  double flip_probability_per_activation = 0.0;
  /// Rows within this distance of an aggressor are its victims (>= 1).
  std::size_t neighbor_radius = 1;
  /// Activations below this per-aggressor count are ignored.
  std::uint64_t activation_floor = 0;
};

/// A window's victim pressure laid out for the sampler: `pressure[v]` is
/// A(v), and `prefix[v]` is cols * (pressure[0] + ... + pressure[v - 1]),
/// rows + 1 entries, so row v's cells span [prefix[v], prefix[v + 1]).
struct DisturbanceProfile {
  std::vector<double> pressure;
  std::vector<double> prefix;
};

/// Samples neighbor-row disturbance flips from per-row activation counts.
class DisturbanceModel {
 public:
  /// Geometry of the protected array; both dimensions must be positive.
  DisturbanceModel(std::size_t rows, std::size_t cols,
                   const DisturbanceParams& params);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] const DisturbanceParams& params() const noexcept {
    return params_;
  }

  /// Total effective aggressor activations pressing on `victim`.
  /// `activations.size()` must equal rows().
  [[nodiscard]] double victim_pressure(std::span<const double> activations,
                                       std::size_t victim) const;

  /// Per-cell flip probability of a victim row under `pressure` effective
  /// aggressor activations: 1 - exp(-k * pressure).
  [[nodiscard]] double row_flip_probability(double pressure) const noexcept;

  /// The pressure profile of `activations` (size rows()); O(rows * radius),
  /// no randomness.
  [[nodiscard]] DisturbanceProfile profile(
      std::span<const double> activations) const;

  /// Samples one exposure whose victim pressure is `activation_scale` x
  /// `profile.pressure` (the scenario engine builds one profile of its
  /// per-hour rates and scales it by each window's hours; scaling commutes
  /// with the floor only when activation_floor is 0).  Appends the flipped
  /// cells to `out` in (row, then column) sorted order, without
  /// duplicates.  A window of zero total hazard consumes no randomness;
  /// otherwise the sampler makes exactly (flips + 1) uniform01() draws, so
  /// the stream position is a deterministic function of the flips.
  void sample(util::Rng& rng, const DisturbanceProfile& profile,
              double activation_scale, std::vector<DataFlip>& out) const;

  /// Samples one exposure: `activations[r]` is row r's activation count
  /// accumulated over the window (fractional counts are allowed).  Same
  /// contract as the profile overload at scale 1.
  void sample(util::Rng& rng, std::span<const double> activations,
              std::vector<DataFlip>& out) const;

  /// Convenience allocating overload (integer counters, e.g. straight from
  /// Crossbar::row_activation_snapshot()).
  [[nodiscard]] std::vector<DataFlip> sample(
      util::Rng& rng, std::span<const std::uint64_t> activations) const;

 private:
  std::size_t rows_;
  std::size_t cols_;
  DisturbanceParams params_;
};

}  // namespace pimecc::fault
