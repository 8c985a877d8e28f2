#include "reliability/reference_reliability.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/array_code.hpp"
#include "fault/injector.hpp"
#include "fault/reference_disturbance.hpp"
#include "reliability/config_checks.hpp"
#include "util/bitmatrix.hpp"
#include "util/bitvector.hpp"
#include "util/units.hpp"

namespace pimecc::rel {

namespace {

/// Folds one worker's counters into the aggregate.  All fields are integer
/// sums over disjoint trial sets, so the merge is order-insensitive.
void accumulate(MonteCarloResult& total, const MonteCarloResult& partial) {
  total.trials_with_errors += partial.trials_with_errors;
  total.trials_failed += partial.trials_failed;
  total.flips_injected += partial.flips_injected;
  total.blocks_failed += partial.blocks_failed;
  total.blocks_with_errors += partial.blocks_with_errors;
  total.corrected_data += partial.corrected_data;
  total.corrected_check += partial.corrected_check;
  total.detected_uncorrectable += partial.detected_uncorrectable;
  total.miscorrected += partial.miscorrected;
}

}  // namespace

MonteCarloResult reference_run_montecarlo(const MonteCarloConfig& config,
                                          util::Rng& rng) {
  require_valid(config);
  const double p =
      util::error_probability(config.fit_per_bit, config.window_hours);
  const std::size_t data_cells = config.n * config.n;
  ecc::ArrayCode probe(config.n, config.m);
  const std::size_t check_cells =
      config.include_check_bits ? probe.block_count() * 2 * config.m : 0;
  const std::size_t population = data_cells + check_cells;

  MonteCarloResult result;
  result.trials = config.trials;
  result.blocks_total =
      static_cast<std::uint64_t>(config.trials) * probe.block_count();

  // One draw from the caller's stream seeds everything below, so the
  // caller's generator advances identically for every thread count.
  const std::uint64_t base_seed = rng.next();

  util::BitMatrix golden(config.n, config.n);
  {
    util::Rng golden_rng = util::Rng::for_stream(base_seed, 0);
    for (std::size_t r = 0; r < config.n; ++r) {
      util::BitVector& row = golden.row(r);
      for (auto& word : row.words_mutable()) word = golden_rng.next();
      row.sanitize();
    }
  }
  ecc::ArrayCode golden_code(config.n, config.m);
  golden_code.encode_all(golden);

  const std::size_t bps = golden_code.blocks_per_side();
  // Column-range mask per block column: the failed-block scan is a row-XOR
  // against these masks instead of a per-bit walk.
  std::vector<util::BitVector> block_masks(bps, util::BitVector(config.n));
  for (std::size_t bc = 0; bc < bps; ++bc) {
    for (std::size_t c = bc * config.m; c < (bc + 1) * config.m; ++c) {
      block_masks[bc].set(c, true);
    }
  }

  // Runs trials [first, last) into `out`, with all scratch state local to
  // the worker.  Each trial's randomness comes from its own substream, so
  // the partition into workers cannot affect any sampled value.
  auto run_range = [&](std::size_t first, std::size_t last, MonteCarloResult& out) {
    util::BitMatrix data;
    ecc::ArrayCode code = golden_code;
    util::BitVector band_acc(config.n);
    util::BitVector diff(config.n);
    std::vector<char> block_touched(golden_code.block_count());
    for (std::size_t t = first; t < last; ++t) {
      util::Rng trial_rng = util::Rng::for_stream(base_seed, t + 1);
      const std::size_t flips =
          static_cast<std::size_t>(trial_rng.binomial(population, p));
      if (flips == 0) continue;
      ++out.trials_with_errors;
      out.flips_injected += flips;

      data = golden;
      code = golden_code;
      const fault::InjectionRecord record =
          config.include_check_bits
              ? fault::inject_flips_everywhere(trial_rng, data, code, flips)
              : fault::inject_data_flips(trial_rng, data, flips);

      // Which blocks received at least one flip.
      std::fill(block_touched.begin(), block_touched.end(), 0);
      for (const fault::DataFlip& f : record.data_flips) {
        const ecc::BlockIndex b = code.block_of(f.r, f.c);
        block_touched[b.block_row * bps + b.block_col] = 1;
      }
      for (const fault::CheckFlip& f : record.check_flips) {
        block_touched[f.block_row * bps + f.block_col] = 1;
      }
      for (const char touched : block_touched) {
        if (touched) ++out.blocks_with_errors;
      }

      // Whole-array check via the word-parallel batch band path (one pass
      // per block band; see ArrayCode::scrub) -- the dominant per-trial cost.
      const ecc::ScrubReport scrub = code.scrub(data);
      out.corrected_data += scrub.corrected_data;
      out.corrected_check += scrub.corrected_check;
      out.detected_uncorrectable += scrub.uncorrectable;

      // Failure accounting: any data bit still wrong after repair.  The
      // band accumulator ORs the row-XOR of each row in a block band; a
      // block failed iff the accumulator intersects its column mask.
      std::size_t failed_blocks_this_trial = 0;
      for (std::size_t br = 0; br < bps; ++br) {
        band_acc.fill(false);
        for (std::size_t r = br * config.m; r < (br + 1) * config.m; ++r) {
          diff = data.row(r);
          diff ^= golden.row(r);
          band_acc |= diff;
        }
        if (band_acc.none()) continue;
        for (std::size_t bc = 0; bc < bps; ++bc) {
          if (band_acc.intersects(block_masks[bc])) ++failed_blocks_this_trial;
        }
      }
      out.blocks_failed += failed_blocks_this_trial;
      if (failed_blocks_this_trial > 0) ++out.trials_failed;
      // Miscorrection: a "correction" happened but the block is still bad, or
      // data changed away from golden where no flip landed -- approximated as
      // failed blocks that reported a data correction.  (The sparse engine
      // computes the exact per-block verdict instead; see the header.)
      if (failed_blocks_this_trial > 0 && scrub.corrected_data > 0) {
        out.miscorrected += failed_blocks_this_trial;
      }
    }
  };

  std::size_t n_threads =
      config.threads != 0
          ? config.threads
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  n_threads = std::min<std::size_t>(n_threads, std::max<std::size_t>(config.trials, 1));

  if (n_threads <= 1) {
    run_range(0, config.trials, result);
    return result;
  }

  std::vector<MonteCarloResult> partials(n_threads);
  // An exception escaping a std::thread body calls std::terminate; capture
  // per worker and rethrow after the join so errors surface to the caller
  // exactly as they do on the single-threaded path.
  std::vector<std::exception_ptr> errors(n_threads);
  std::vector<std::thread> workers;
  workers.reserve(n_threads);
  for (std::size_t i = 0; i < n_threads; ++i) {
    const std::size_t first = config.trials * i / n_threads;
    const std::size_t last = config.trials * (i + 1) / n_threads;
    workers.emplace_back([&run_range, &partials, &errors, i, first, last] {
      try {
        run_range(first, last, partials[i]);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  for (const MonteCarloResult& partial : partials) accumulate(result, partial);
  return result;
}

LifetimeResult reference_simulate_lifetime(const LifetimeConfig& config,
                                           util::Rng& rng) {
  require_valid(config);
  const std::size_t blocks_per_side = config.n / config.m;
  const std::size_t blocks_per_xbar = blocks_per_side * blocks_per_side;
  const std::size_t total_blocks = blocks_per_xbar * config.crossbars;
  const std::size_t cells_per_block =
      config.m * config.m + (config.include_check_bits ? 2 * config.m : 0);
  const double p_window = util::error_probability(config.fit_per_bit,
                                                  config.scrub_period_hours);

  LifetimeResult result;
  result.trials = config.trials;

  // Per scrub window: errors land uniformly across all cells; a scrub
  // clears blocks with <= 1 error and the memory fails on the first block
  // holding >= 2.  Sampling one binomial for the whole memory per window
  // (then assigning hits to blocks only when >= 2 landed) keeps long
  // lifetimes tractable; the block-level abstraction is exact for the model
  // under test (per-bit mechanics are validated by run_montecarlo).
  const std::uint64_t total_cells =
      static_cast<std::uint64_t>(total_blocks) * cells_per_block;
  std::vector<std::size_t> hit_blocks;
  for (std::size_t trial = 0; trial < config.trials; ++trial) {
    double hours = 0.0;
    bool failed = false;
    while (hours < config.max_hours && !failed) {
      hours += config.scrub_period_hours;
      ++result.scrubs_performed;
      const std::uint64_t hits = rng.binomial(total_cells, p_window);
      if (hits == 0) continue;
      if (hits == 1) {
        ++result.errors_corrected;
        continue;
      }
      // Assign each hit to a block; distinct-cell correction is negligible
      // at the rates of interest (hits << cells_per_block).
      hit_blocks.clear();
      for (std::uint64_t h = 0; h < hits; ++h) {
        hit_blocks.push_back(
            static_cast<std::size_t>(rng.uniform_below(total_blocks)));
      }
      std::sort(hit_blocks.begin(), hit_blocks.end());
      for (std::size_t i = 0; i + 1 < hit_blocks.size(); ++i) {
        if (hit_blocks[i] == hit_blocks[i + 1]) {
          failed = true;
          break;
        }
      }
      if (!failed) result.errors_corrected += hits;
    }
    if (failed) {
      ++result.failures;
      result.time_to_failure_hours.add(hours);
    }
  }
  return result;
}

ScenarioResult reference_run_scenario(const ScenarioConfig& config,
                                      util::Rng& rng) {
  return detail::run_scenario_with(
      config, rng,
      [&config](util::Rng& trial_rng, double hours,
                std::vector<fault::DataFlip>& out) {
        const FaultMix& mix = config.faults;
        const fault::ReferenceDisturbanceModel model(
            config.n, config.n,
            {mix.disturb_per_activation, mix.disturb_radius,
             /*activation_floor=*/0});
        std::vector<double> activations =
            row_activation_rates(config.workload, config.n);
        for (double& a : activations) a *= hours;
        model.sample(trial_rng, activations, out);
      });
}

}  // namespace pimecc::rel
