// run_table1: closed loop with `lanes` (one) outstanding `run` request,
// one drain_once batch at a time, as the daemon does (run_closed_loop).
// Every request runs one of the 11 Table I circuits at the paper's point
// (n=1020, m=15) on the ECC-protected machine; circuits come in shuffled
// decks of 11, so each is drawn equally often, and every request carries
// its own seed.
#include <memory>
#include <string>
#include <vector>

#include "bench_circuits/circuits.hpp"
#include "serving.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace pimecc;

namespace {

constexpr std::size_t kN = 1020;
constexpr std::size_t kM = 15;

std::string run_line(const std::string& circuit, std::uint64_t seed) {
  return "run circuit=" + circuit + " n=" + std::to_string(kN) +
         " m=" + std::to_string(kM) + " seed=" + std::to_string(seed);
}

/// Table I circuits in shuffled decks, each request with its own seed.
class DeckStream {
 public:
  explicit DeckStream(std::uint64_t seed) : rng_(seed) {}

  std::string next() {
    if (position_ == deck_.size()) {
      deck_ = circuits::circuit_names();
      for (std::size_t i = deck_.size() - 1; i > 0; --i) {
        std::swap(deck_[i], deck_[rng_.uniform_below(i + 1)]);
      }
      position_ = 0;
    }
    const std::string& circuit = deck_[position_++];
    return run_line(circuit, rng_.next());
  }

 private:
  util::Rng rng_;
  std::vector<std::string> deck_;
  std::size_t position_ = 0;
};

void check_run(const serve::Response& response, const std::string& line,
               Outcome& outcome) {
  outcome.check(response.ok && response.lanes == kN &&
                    response.mismatches == 0 && response.ecc_consistent,
                "'" + line + "' answered '" +
                    serve::format_response(response) + "'");
}

}  // namespace

Outcome run_table1(const Options& options, Tracer& tracer) {
  Outcome outcome;
  const std::size_t lanes = kLanes;

  // Set-up: server construction, a cold pass over the 11 circuits that
  // fills the circuit and program caches, and the machine pool.
  std::vector<std::string> cold;
  for (const std::string& circuit : circuits::circuit_names()) {
    cold.push_back(run_line(circuit, 1));
  }
  const AnswerCheck check = [&outcome](const std::string& line,
                                       const serve::Response& response,
                                       const std::string&) {
    check_run(response, line, outcome);
  };
  std::vector<double> setups;
  const std::unique_ptr<serve::Server> server = set_up_server(
      serve::ServerConfig{lanes, lanes, 0}, cold, kN, kM, check, setups,
      outcome);

  Replayer replayer(*server, tracer);
  outcome.end_to_end["sim_overhead_pct"] =
      serve_table1(*server, tracer.enabled() ? &replayer : nullptr, outcome);

  // Measured in whole decks, so every window serves each circuit equally
  // often.
  const std::size_t deck = circuits::circuit_names().size();
  DeckStream stream(options.seed);
  ClosedLoop loop = run_closed_loop(
      *server, lanes, deck * lanes, options.seconds,
      [&stream] { return stream.next(); }, check, tracer, outcome);

  const Summary raw =
      summarize(loop.samples, loop.measured_from_s, deck * lanes);
  const double slowdown = loop.gauge.slowdown();
  const Summary summary = raw.scaled(slowdown);
  outcome.end_to_end["throughput_per_s"] = summary.throughput;
  outcome.end_to_end["latency_p50_ms"] = summary.p50_ms;
  outcome.end_to_end["latency_p90_ms"] = summary.p90_ms;
  outcome.end_to_end["setup_s"] = median(setups) / slowdown;
  outcome.note("run_table1 lanes=" + std::to_string(lanes) +
               " outstanding=" + std::to_string(lanes) +
               " requests=" + std::to_string(outcome.attempted) +
               " measured=" + std::to_string(loop.samples.size()) + " " +
               summary_fields(summary, "throughput_rps") + " failed_frac=" +
               number(static_cast<double>(outcome.failed) /
                      static_cast<double>(outcome.attempted)));
  outcome.note("run_table1 unscaled " + summary_fields(raw, "throughput_rps") +
               " setup_s=" + number(median(setups)) +
               " host_slowdown=" + number(slowdown) +
               " gauge_passes=" + std::to_string(loop.gauge.passes()));

  if (tracer.enabled()) {
    // Whole decks only, so the mean simulated counts per request are the
    // same for every seed.
    loop.stats.replayed = replayer.replay_all(
        loop.lines, loop.served, deck, lanes,
        replay_budget_seconds(options.seconds), outcome);
    add_serving_layers(tracer, *server, replayer, loop.stats, lanes, outcome);
    add_common_layers(tracer, options.check_lanes, outcome);
    const double attributed = tracer.child_coverage("serve.service.run");
    outcome.note("run_table1 replayed=" +
                 std::to_string(loop.stats.replayed.count) +
                 " run_service_attributed_to_spans=" + number(attributed));
    outcome.check(attributed >= 0.9,
                  "spans cover only " + number(attributed) +
                      " of the run requests' service time");
  }
  return outcome;
}

}  // namespace perfbench
