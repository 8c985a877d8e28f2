// fleet_campaign: repeated health-aware Monte Carlo campaigns
// (rel::run_fleet_campaign) on `lanes` (one) thread, each over a freshly
// prepared CrossbarFleet of
// 1020x1020, m=15 shards with spares and its own seed from the workload
// seed.  A few shards carry injected uncorrectable blocks, so every
// campaign's preflight scrub quarantines them: some are remapped onto
// spares, the rest are excluded.  The fault rate gives about three flips
// per trial, and the shard images together exceed the host's L2.
#include <algorithm>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arch/fleet.hpp"
#include "core/array_code.hpp"
#include "reliability/fleet_reliability.hpp"
#include "serve/server.hpp"
#include "serving.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace pimecc;

namespace {

constexpr std::size_t kN = 1020;
constexpr std::size_t kM = 15;
constexpr std::size_t kShards = 96;
constexpr std::size_t kSpares = 4;
constexpr std::size_t kCorrupted = 6;
constexpr std::size_t kExcluded = kCorrupted - kSpares;
constexpr std::size_t kTrialsPerShard = 400;
constexpr double kWindowHours = 24.0;
constexpr double kFlipsPerTrial = 3.0;

/// A fleet loaded from the seed, with kCorrupted shards each carrying one
/// block with two flipped cells (uncorrectable).
struct PreparedFleet {
  std::unique_ptr<arch::CrossbarFleet> fleet;
  std::vector<std::size_t> corrupted;  ///< shard ids, ascending
};

PreparedFleet prepare_fleet(std::uint64_t seed, std::size_t threads,
                            Tracer& tracer) {
  arch::FleetParams params;
  params.n = kN;
  params.m = kM;
  params.shards = kShards;
  params.spares = kSpares;
  params.threads = threads;
  PreparedFleet prepared;
  {
    const Tracer::Scope span(tracer, "arch.fleet_construct");
    prepared.fleet = std::make_unique<arch::CrossbarFleet>(params);
  }
  util::Rng rng(seed);
  {
    const Tracer::Scope span(tracer, "arch.fleet_load");
    prepared.fleet->load_random(rng);
  }
  std::vector<std::size_t>& corrupted = prepared.corrupted;
  while (corrupted.size() < kCorrupted) {
    const std::size_t shard = rng.uniform_below(kShards);
    if (std::find(corrupted.begin(), corrupted.end(), shard) == corrupted.end()) {
      corrupted.push_back(shard);
    }
  }
  std::sort(corrupted.begin(), corrupted.end());
  for (const std::size_t shard : corrupted) {
    const std::size_t r = rng.uniform_below(kN);
    const std::size_t c = kM * rng.uniform_below(kN / kM) +
                          rng.uniform_below(kM - 1);
    prepared.fleet->inject_data_error(shard, r, c);
    prepared.fleet->inject_data_error(shard, r, c + 1);
  }
  return prepared;
}

rel::FleetMonteCarloConfig campaign_config(std::size_t threads) {
  rel::FleetMonteCarloConfig config;
  config.n = kN;
  config.m = kM;
  config.shards = kShards;
  config.trials_per_shard = kTrialsPerShard;
  config.window_hours = kWindowHours;
  config.include_check_bits = true;
  config.threads = threads;
  const ecc::ArrayCode probe(kN, kM);
  const double cells =
      static_cast<double>(kN * kN + probe.block_count() * 2 * kM);
  config.fit_per_bit = util::probability_to_fit(kFlipsPerTrial / cells,
                                                kWindowHours);
  return config;
}

void check_campaign(const rel::FleetCampaignResult& result,
                    const std::vector<std::size_t>& corrupted,
                    Outcome& outcome) {
  const rel::FleetDegradationReport& degradation = result.degradation;
  const std::size_t skipped = static_cast<std::size_t>(
      std::count_if(result.shards.begin(), result.shards.end(),
                    [](const rel::FleetShardOutcome& s) { return s.skipped; }));
  outcome.check(
      degradation.quarantined == corrupted &&
          degradation.spares_activated == kSpares &&
          degradation.shards_excluded == kExcluded &&
          degradation.trials_skipped ==
              degradation.shards_excluded * kTrialsPerShard &&
          skipped == kExcluded &&
          result.total.trials == (kShards - kExcluded) * kTrialsPerShard,
      std::string("campaign bookkeeping is off: quarantined=") +
          std::to_string(degradation.quarantined.size()) +
          " excluded=" + std::to_string(degradation.shards_excluded) +
          " trials_skipped=" + std::to_string(degradation.trials_skipped) +
          " skipped_slots=" + std::to_string(skipped) +
          " trials=" + std::to_string(result.total.trials));
}

bool same_campaign(const rel::FleetCampaignResult& a,
                   const rel::FleetCampaignResult& b) {
  return a.total == b.total && a.shards == b.shards &&
         a.degradation.quarantined == b.degradation.quarantined &&
         a.degradation.spares_activated == b.degradation.spares_activated &&
         a.degradation.shards_excluded == b.degradation.shards_excluded &&
         a.degradation.trials_skipped == b.degradation.trials_skipped;
}

}  // namespace

Outcome fleet_campaign(const Options& options, Tracer& tracer) {
  Outcome outcome;
  const std::size_t threads = kLanes;

  {
    serve::Server server(serve::ServerConfig{threads, threads, 0});
    Replayer replayer(server, tracer);
    outcome.end_to_end["sim_overhead_pct"] = serve_table1(
        server, tracer.enabled() ? &replayer : nullptr, outcome);
  }

  // Every campaign runs over a freshly prepared fleet -- construction,
  // load_random and the corrupted blocks are its set-up -- so each one's
  // preflight scrub finds and quarantines the corrupted shards.
  const rel::FleetMonteCarloConfig config = campaign_config(threads);
  util::Rng seeds(options.seed);
  PreparedFleet prepared;
  HostGauge gauge;  // ticks on the campaign clock
  std::vector<double> setups;
  std::vector<Sample> samples;
  std::optional<rel::FleetCampaignResult> first;
  std::uint64_t first_fleet_seed = 0;
  std::uint64_t first_seed = 0;
  std::uint64_t trials = 0;
  std::uint64_t flips = 0;
  std::uint64_t repairs = 0;
  double campaign_seconds = 0.0;
  const double warmup = warmup_seconds(options.seconds);
  const Clock::time_point start = Clock::now();
  while (seconds_between(start, Clock::now()) < warmup + options.seconds) {
    const bool measured = seconds_between(start, Clock::now()) >= warmup;
    const std::uint64_t fleet_seed = seeds.next();
    const std::uint64_t seed = seeds.next();
    prepared = PreparedFleet{};
    const Clock::time_point setup = Clock::now();
    prepared = prepare_fleet(fleet_seed, threads, tracer);
    if (measured) setups.push_back(seconds_between(setup, Clock::now()));
    ++outcome.attempted;
    try {
      util::Rng rng(seed);
      const Clock::time_point call = Clock::now();
      rel::FleetCampaignResult result;
      {
        const Tracer::Scope span(tracer, "reliability.campaign", Tracer::kNone,
                                 outcome.attempted - 1);
        result = rel::run_fleet_campaign(config, *prepared.fleet, rng);
      }
      const double seconds = seconds_between(call, Clock::now());
      check_campaign(result, prepared.corrupted, outcome);
      if (measured) {
        // The phase clock counts campaign time only: set-up is not work.
        campaign_seconds += seconds;
        samples.push_back({campaign_seconds, seconds * 1e3,
                           static_cast<double>(result.total.trials), true});
        gauge.tick(campaign_seconds);
        trials += result.total.trials;
        flips += result.total.flips_injected;
        repairs += result.total.corrected_data + result.total.corrected_check;
      }
      if (!first.has_value()) {
        first = std::move(result);
        first_fleet_seed = fleet_seed;
        first_seed = seed;
      }
    } catch (const std::exception& e) {
      ++outcome.failed;
      outcome.check(false, std::string("campaign threw: ") + e.what());
    }
  }

  // The first campaign again, on an identically prepared fleet at
  // check_lanes lanes.
  if (first.has_value()) {
    Tracer untraced(false);
    PreparedFleet wide =
        prepare_fleet(first_fleet_seed, options.check_lanes, untraced);
    rel::FleetMonteCarloConfig parallel = config;
    parallel.threads = options.check_lanes;
    util::Rng rng(first_seed);
    outcome.check(
        same_campaign(rel::run_fleet_campaign(parallel, *wide.fleet, rng),
                      *first),
        "campaign totals differ between " + std::to_string(threads) +
            " lane(s) and " + std::to_string(options.check_lanes) + " lanes");
  }

  const Summary raw = summarize(samples, 0.0, 1);
  const double slowdown = gauge.slowdown();
  const Summary summary = raw.scaled(slowdown);
  outcome.end_to_end["throughput_per_s"] = summary.throughput;
  outcome.end_to_end["latency_p50_ms"] = summary.p50_ms;
  outcome.end_to_end["latency_p90_ms"] = summary.p90_ms;
  outcome.end_to_end["setup_s"] = median(setups) / slowdown;
  const auto per_trial = [trials](std::uint64_t count) {
    return static_cast<double>(count) /
           static_cast<double>(std::max<std::uint64_t>(trials, 1));
  };
  outcome.note("fleet_campaign threads=" + std::to_string(threads) +
               " shards=" + std::to_string(kShards) +
               " spares=" + std::to_string(kSpares) +
               " corrupted=" + std::to_string(kCorrupted) +
               " trials_per_campaign=" +
               std::to_string((kShards - kExcluded) * kTrialsPerShard) +
               " campaigns=" + std::to_string(outcome.attempted) +
               " measured=" + std::to_string(samples.size()) +
               " trials_per_s=" + number(summary.throughput) +
               " campaign_p50_ms=" + number(summary.p50_ms) +
               " campaign_p90_ms=" + number(summary.p90_ms) +
               " flips_per_trial=" + number(per_trial(flips)) +
               " failed_frac=" +
               number(static_cast<double>(outcome.failed) /
                      static_cast<double>(outcome.attempted)));
  outcome.note("fleet_campaign unscaled trials_per_s=" +
               number(raw.throughput) +
               " campaign_p50_ms=" + number(raw.p50_ms) +
               " campaign_p90_ms=" + number(raw.p90_ms) +
               " setup_s=" + number(median(setups)) +
               " host_slowdown=" + number(slowdown) +
               " gauge_passes=" + std::to_string(gauge.passes()));

  if (tracer.enabled()) {
    auto& layer = outcome.per_layer;
    add_common_layers(tracer, options.check_lanes, outcome);
    layer["arch.fleet_construct_s"] =
        tracer.totals("arch.fleet_construct").mean_us() * 1e-6;
    layer["arch.fleet_load_s"] = tracer.totals("arch.fleet_load").mean_us() * 1e-6;
    layer["reliability.campaign_s"] =
        tracer.totals("reliability.campaign").mean_us() * 1e-6;
    layer["fault.flips_per_trial"] = per_trial(flips);
    layer["reliability.repairs_per_trial"] = per_trial(repairs);
    layer["reliability.shards_quarantined"] =
        first.has_value()
            ? static_cast<double>(first->degradation.quarantined.size())
            : 0.0;

    // The codec's write and read paths, one shard image at a time.
    arch::CrossbarFleet& fleet = *prepared.fleet;
    std::vector<std::size_t> active;
    for (std::size_t s = 0; s < kShards && active.size() < 8; ++s) {
      if (fleet.shard_active(s)) active.push_back(s);
    }
    ecc::ArrayCode code(kN, kM);
    for (const std::size_t s : active) {
      const Tracer::Scope span(tracer, "core.encode");
      code.encode_all(fleet.data(s));
    }
    layer["core.encode_cells_per_s"] =
        static_cast<double>(kN * kN) /
        (tracer.totals("core.encode").mean_us() * 1e-6);
    util::BitMatrix image = fleet.data(active.front());
    ecc::ArrayCode image_code = fleet.code(active.front());
    {
      const Tracer::Scope span(tracer, "core.scrub_block");
      for (std::size_t br = 0; br < image_code.blocks_per_side(); ++br) {
        for (std::size_t bc = 0; bc < image_code.blocks_per_side(); ++bc) {
          (void)image_code.scrub_block(image, ecc::BlockIndex{br, bc});
        }
      }
    }
    layer["core.scrub_blocks_per_s"] =
        static_cast<double>(image_code.block_count()) /
        (tracer.totals("core.scrub_block").mean_us() * 1e-6);
    for (int rep = 0; rep < 3; ++rep) {
      const Tracer::Scope span(tracer, "arch.fleet_scrub");
      const arch::FleetScrubReport report = fleet.scrub_all();
      outcome.check(report.corrected_data + report.corrected_check +
                            report.uncorrectable ==
                        0,
                    "fleet scrub after the campaigns found errors");
    }
    layer["arch.fleet_scrub_s"] =
        tracer.totals("arch.fleet_scrub").mean_us() * 1e-6;
  }
  return outcome;
}

}  // namespace perfbench
