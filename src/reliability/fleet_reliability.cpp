#include "reliability/fleet_reliability.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/array_code.hpp"
#include "reliability/config_checks.hpp"
#include "reliability/parallel.hpp"
#include "reliability/sparse_trial.hpp"
#include "util/bitmatrix.hpp"
#include "util/units.hpp"

namespace pimecc::rel {

FleetMonteCarloResult run_fleet_montecarlo(const FleetMonteCarloConfig& config,
                                           util::Rng& rng) {
  require_valid(config.flat());
  if (config.shards == 0) {
    throw std::invalid_argument("run_fleet_montecarlo: need >= 1 shard");
  }
  const double p =
      util::error_probability(config.fit_per_bit, config.window_hours);
  const std::size_t data_cells = config.n * config.n;
  ecc::ArrayCode probe(config.n, config.m);
  const std::size_t check_cells =
      config.include_check_bits ? probe.block_count() * 2 * config.m : 0;

  FleetMonteCarloResult result;
  result.total.trials = config.total_trials();
  result.total.blocks_total =
      static_cast<std::uint64_t>(config.total_trials()) * probe.block_count();
  result.shards.resize(config.shards);

  // Single caller draw; golden from substream 0; shard s's trial t on
  // substream 1 + s*T + t.  That is exactly the substream sequence a flat
  // run_montecarlo over S*T trials walks, so every counter of
  // result.total is bit-identical to the flat engine's.
  const std::uint64_t base_seed = rng.next();

  const util::BitMatrix golden =
      detail::make_montecarlo_golden(config.n, base_seed);
  ecc::ArrayCode golden_code(config.n, config.m);
  golden_code.encode_all(golden);

  detail::SparseTrialContext ctx;
  ctx.golden = &golden;
  ctx.golden_code = &golden_code;
  ctx.p = p;
  ctx.population = data_cells + check_cells;
  ctx.bps = golden_code.blocks_per_side();
  ctx.m = config.m;
  ctx.include_check_bits = config.include_check_bits;

  // The ticket unit is a SHARD: one golden image amortizes over
  // trials_per_shard trials of lane-local work, and shard outcome slot s
  // is written only by the lane that drew ticket s.
  struct Lane {
    detail::SparseTrialLane state;
    MonteCarloResult out;
  };
  const std::size_t trials_per_shard = config.trials_per_shard;
  std::vector<FleetShardOutcome>& shard_slots = result.shards;
  const std::vector<Lane> lanes = detail::run_trial_pool<Lane>(
      config.shards, config.threads,
      [&ctx] { return Lane{detail::SparseTrialLane(ctx), {}}; },
      [&ctx, &shard_slots, base_seed, trials_per_shard](Lane& lane,
                                                        std::size_t s) {
        MonteCarloResult shard_out;
        for (std::size_t t = 0; t < trials_per_shard; ++t) {
          util::Rng trial_rng =
              util::Rng::for_stream(base_seed, 1 + s * trials_per_shard + t);
          detail::run_sparse_trial(ctx, lane.state, trial_rng, shard_out);
        }
        FleetShardOutcome& slot = shard_slots[s];
        slot.trials_with_errors = shard_out.trials_with_errors;
        slot.trials_failed = shard_out.trials_failed;
        slot.flips_injected = shard_out.flips_injected;
        slot.blocks_failed = shard_out.blocks_failed;
        slot.stats = shard_out;
        detail::accumulate(lane.out, shard_out);
      });
  for (const Lane& lane : lanes) detail::accumulate(result.total, lane.out);
  const std::uint64_t blocks_per_trial = probe.block_count();
  for (FleetShardOutcome& slot : result.shards) {
    slot.stats.trials = trials_per_shard;
    slot.stats.blocks_total = trials_per_shard * blocks_per_trial;
  }
  return result;
}

FleetCampaignResult run_fleet_campaign(const FleetMonteCarloConfig& config,
                                       arch::CrossbarFleet& fleet,
                                       util::Rng& rng) {
  require_valid(config.flat());
  if (config.shards == 0) {
    throw std::invalid_argument("run_fleet_campaign: need >= 1 shard");
  }
  if (fleet.shard_count() != config.shards || fleet.n() != config.n ||
      fleet.m() != config.m) {
    throw std::invalid_argument(
        "run_fleet_campaign: fleet shape must match the campaign config");
  }

  FleetCampaignResult result;

  // Preflight scrub: shards reporting uncorrectable blocks are quarantined
  // before any trial runs.  With spares they are remapped and participate
  // normally; without, they are excluded from the accounting entirely.
  result.degradation.quarantined = fleet.quarantine_uncorrectable();
  for (const std::size_t s : result.degradation.quarantined) {
    if (fleet.shard_active(s)) {
      ++result.degradation.spares_activated;
    } else {
      ++result.degradation.shards_excluded;
      result.degradation.trials_skipped += config.trials_per_shard;
    }
  }

  const double p =
      util::error_probability(config.fit_per_bit, config.window_hours);
  const std::size_t data_cells = config.n * config.n;
  ecc::ArrayCode probe(config.n, config.m);
  const std::size_t check_cells =
      config.include_check_bits ? probe.block_count() * 2 * config.m : 0;

  // Same single-draw discipline as run_fleet_montecarlo: golden from
  // substream 0, shard s trial t on substream 1 + s*T + t.  Because the
  // substream index is the LOGICAL shard id, a respared shard replays its
  // predecessor's exact trial sequence (bit-identical recovery) and an
  // excluded shard's trials simply never run (exact subtraction).
  const std::uint64_t base_seed = rng.next();
  const util::BitMatrix golden =
      detail::make_montecarlo_golden(config.n, base_seed);
  ecc::ArrayCode golden_code(config.n, config.m);
  golden_code.encode_all(golden);
  // Surviving shards (including freshly respared ones) carry the campaign
  // image; dead shards are skipped by the fleet itself.
  fleet.load_broadcast(golden);

  detail::SparseTrialContext ctx;
  ctx.golden = &golden;
  ctx.golden_code = &golden_code;
  ctx.p = p;
  ctx.population = data_cells + check_cells;
  ctx.bps = golden_code.blocks_per_side();
  ctx.m = config.m;
  ctx.include_check_bits = config.include_check_bits;

  struct Lane {
    detail::SparseTrialLane state;
    MonteCarloResult out;
  };
  const std::size_t trials_per_shard = config.trials_per_shard;
  const std::uint64_t blocks_per_trial = probe.block_count();
  result.shards.resize(config.shards);
  std::vector<FleetShardOutcome>& shard_slots = result.shards;
  const arch::CrossbarFleet& health = fleet;
  const std::vector<Lane> lanes = detail::run_trial_pool<Lane>(
      config.shards, config.threads,
      [&ctx] { return Lane{detail::SparseTrialLane(ctx), {}}; },
      [&ctx, &shard_slots, &health, base_seed, trials_per_shard,
       blocks_per_trial](Lane& lane, std::size_t s) {
        FleetShardOutcome& slot = shard_slots[s];
        if (!health.shard_active(s)) {
          slot.skipped = true;
          return;
        }
        MonteCarloResult shard_out;
        for (std::size_t t = 0; t < trials_per_shard; ++t) {
          util::Rng trial_rng =
              util::Rng::for_stream(base_seed, 1 + s * trials_per_shard + t);
          detail::run_sparse_trial(ctx, lane.state, trial_rng, shard_out);
        }
        shard_out.trials = trials_per_shard;
        shard_out.blocks_total = trials_per_shard * blocks_per_trial;
        slot.trials_with_errors = shard_out.trials_with_errors;
        slot.trials_failed = shard_out.trials_failed;
        slot.flips_injected = shard_out.flips_injected;
        slot.blocks_failed = shard_out.blocks_failed;
        slot.stats = shard_out;
        detail::accumulate(lane.out, shard_out);
      });
  for (const Lane& lane : lanes) detail::accumulate(result.total, lane.out);
  // Count the slots that ran, not shards minus this campaign's exclusions:
  // a shard that died before an earlier campaign is skipped here too, yet
  // quarantined by none of this campaign's preflight reports.
  const auto shards_run = static_cast<std::size_t>(std::count_if(
      result.shards.begin(), result.shards.end(),
      [](const FleetShardOutcome& slot) { return !slot.skipped; }));
  result.total.trials = shards_run * trials_per_shard;
  result.total.blocks_total =
      static_cast<std::uint64_t>(result.total.trials) * blocks_per_trial;
  return result;
}

std::vector<FleetMttfPoint> run_fleet_mttf_grid(
    const FleetMttfGridConfig& config, util::Rng& rng) {
  std::vector<FleetMttfPoint> grid;
  grid.reserve(config.fit_points.size() * config.shard_counts.size());
  // Row-major (fit, shards): each cell consumes exactly one caller draw
  // (simulate_lifetime's contract), so the whole grid is reproducible from
  // the caller's rng state regardless of worker count or cell order --
  // but we still run cells in order, since each cell is internally
  // executor-parallel already.
  for (const double fit : config.fit_points) {
    for (const std::size_t shards : config.shard_counts) {
      LifetimeConfig cell;
      cell.n = config.n;
      cell.m = config.m;
      cell.crossbars = shards;
      cell.fit_per_bit = fit;
      cell.scrub_period_hours = config.scrub_period_hours;
      cell.trials = config.trials;
      cell.max_hours = config.max_hours;
      cell.include_check_bits = true;
      cell.threads = config.threads;

      const LifetimeResult run = simulate_lifetime(cell, rng);

      FleetMttfPoint point;
      point.fit_per_bit = fit;
      point.shards = shards;
      point.trials = run.trials;
      point.failures = run.failures;
      point.horizon_hours = config.max_hours;
      point.empirical_mttf_hours = run.empirical_mttf_hours(config.max_hours);
      point.analytic_mttf_hours = analytic_mttf_hours(cell);
      point.scrub_windows = run.scrubs_performed;
      grid.push_back(point);
    }
  }
  return grid;
}

}  // namespace pimecc::rel
