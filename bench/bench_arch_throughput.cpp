// Arch-layer throughput harness: measures the word-parallel protected
// machine (PimMachine: deferred check-bit folds, ArrayCode band walks) against the bit-serial ReferencePimMachine on the three end-to-end
// hot paths and emits machine-readable BENCH_arch.json -- the machine-level
// companion of bench_engine_throughput and bench_codec_throughput.
//
//   1. init: PimMachine::load (controller row writes + whole-array check
//      encode) -- the Table 1 input-setup bandwidth.
//   2. verify: PimMachine::scrub on clean data (the paper's periodic
//      full-memory check).
//   3. simd_gates: protected row-parallel stateful logic -- alternating
//      magic_init_rows_protected / magic_nor_rows_protected pairs, each
//      running the full Section IV critical-operation protocol across all
//      n rows.  Each timed batch ends with one check_block_row(0): it forces
//      PimMachine's deferred check-bit fold, so the rate includes the
//      check-bit update and not just the pending-delta XOR.
//
// Every configuration is first cross-checked: the two machines run an
// identical protected program with mid-run fault injection and must agree
// on memory contents, check state, cycle counters, and check reports, or
// the run fails (non-zero exit) -- the same fast-vs-reference gate the
// differential test suite applies, wired into CI via tools/ci.sh.
//
// Usage: bench_arch_throughput [--smoke] [--out=PATH]
//   --smoke    fast CI configuration (n = 60, m in {3, 15})
//   --out=PATH where to write the JSON (default: BENCH_arch.json in cwd)
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "arch/pim_machine.hpp"
#include "arch/reference_pim_machine.hpp"
#include "util/bitmatrix.hpp"
#include "util/rng.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using pimecc::arch::ArchParams;
using pimecc::arch::CheckReport;
using pimecc::arch::PimMachine;
using pimecc::arch::ReferencePimMachine;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

ArchParams make_params(std::size_t n, std::size_t m) {
  ArchParams p;
  p.n = n;
  p.m = m;
  return p;
}

/// Runs `pass` repeatedly until at least `min_seconds` elapsed; returns
/// `units_per_pass` units per second.
template <typename Pass>
double measure_rate(double units_per_pass, double min_seconds, Pass&& pass) {
  std::size_t passes = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  do {
    pass();
    ++passes;
    elapsed = seconds_since(start);
  } while (elapsed < min_seconds);
  return static_cast<double>(passes) * units_per_pass / elapsed;
}

/// The fixed protected-gate program both machines execute: `pairs`
/// init+NOR pairs over a deterministic column walk, SIMD across all rows.
template <typename Machine>
void run_gate_program(Machine& machine, std::size_t pairs) {
  const std::size_t n = machine.n();
  for (std::size_t k = 0; k < pairs; ++k) {
    const std::size_t out = (7 + 13 * k) % n;
    std::size_t in1 = (out + 1) % n;
    std::size_t in2 = (out + 5) % n;
    const std::size_t outs[1] = {out};
    const std::size_t ins[2] = {in1, in2};
    machine.magic_init_rows_protected(outs);
    machine.magic_nor_rows_protected(ins, out);
  }
}

/// Fast-vs-reference cross-check: identical protected program with mid-run
/// fault injection; any divergence in contents, check state, counters, or
/// reports fails the run.
bool cross_check(const ArchParams& params, const pimecc::util::BitMatrix& image) {
  PimMachine fast(params);
  ReferencePimMachine ref(params);
  fast.load(image);
  ref.load(image);
  run_gate_program(fast, 8);
  run_gate_program(ref, 8);
  fast.inject_data_error(params.n / 2, params.n / 3);
  ref.inject_data_error(params.n / 2, params.n / 3);
  const CheckReport fr = fast.check_block_row(params.n / 2);
  const CheckReport rr = ref.check_block_row(params.n / 2);
  if (!(fr == rr)) return false;
  const CheckReport fs = fast.scrub();
  const CheckReport rs = ref.scrub();
  if (!(fs == rs)) return false;
  if (!(fast.data() == ref.data())) return false;
  if (!ref.check_memory().matches(fast.check_code())) return false;
  if (!(fast.counters() == ref.counters())) return false;
  return fast.ecc_consistent() && ref.ecc_consistent();
}

struct MetricResult {
  double ref_rate = 0.0;   // units per second on the reference machine
  double fast_rate = 0.0;  // units per second on the word-parallel machine
  [[nodiscard]] double speedup() const { return fast_rate / ref_rate; }
};

struct ConfigResult {
  std::size_t n = 0;
  std::size_t m = 0;
  MetricResult init;       // cells/s through load (write + encode)
  MetricResult verify;     // cells/s through scrub
  MetricResult simd_gates; // protected line-bits/s (n per protected op)
};

}  // namespace

int main(int argc, char** argv) {
  using namespace pimecc;

  bool smoke = false;
  std::string out_path = "BENCH_arch.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else {
      std::cerr << "usage: bench_arch_throughput [--smoke] [--out=PATH]\n";
      return 2;
    }
  }

  struct Config {
    std::size_t n;
    std::size_t m;
  };
  const std::vector<Config> configs =
      smoke ? std::vector<Config>{{60, 3}, {60, 15}}
            : std::vector<Config>{{255, 15}, {510, 15}, {1020, 3}, {1020, 15}};
  const double min_seconds = smoke ? 0.02 : 0.2;
  const std::size_t gate_pairs = smoke ? 8 : 32;

  bool differential_ok = true;
  std::vector<ConfigResult> results;
  for (const Config& config : configs) {
    const ArchParams params = make_params(config.n, config.m);
    util::Rng rng(0xA2C4'BE7Cull ^ (config.n * 131) ^ config.m);
    const util::BitMatrix image =
        util::random_bit_matrix(config.n, config.n, rng);

    if (!cross_check(params, image)) {
      differential_ok = false;
      std::cerr << "cross-check FAILED at n=" << config.n << " m=" << config.m
                << "\n";
    }

    ConfigResult r;
    r.n = config.n;
    r.m = config.m;
    const double cells = static_cast<double>(config.n) * config.n;
    const double gate_line_bits =
        static_cast<double>(2 * gate_pairs) * config.n;

    {
      ReferencePimMachine machine(params);
      r.init.ref_rate =
          measure_rate(cells, min_seconds, [&] { machine.load(image); });
      r.verify.ref_rate =
          measure_rate(cells, min_seconds, [&] { (void)machine.scrub(); });
      r.simd_gates.ref_rate = measure_rate(gate_line_bits, min_seconds, [&] {
        run_gate_program(machine, gate_pairs);
        (void)machine.check_block_row(0);
      });
    }
    {
      PimMachine machine(params);
      r.init.fast_rate =
          measure_rate(cells, min_seconds, [&] { machine.load(image); });
      r.verify.fast_rate =
          measure_rate(cells, min_seconds, [&] { (void)machine.scrub(); });
      r.simd_gates.fast_rate = measure_rate(gate_line_bits, min_seconds, [&] {
        run_gate_program(machine, gate_pairs);
        (void)machine.check_block_row(0);
      });
    }

    results.push_back(r);
    std::cout << "n=" << r.n << " m=" << r.m << ": init "
              << fmt(r.init.speedup()) << "x, verify " << fmt(r.verify.speedup())
              << "x, simd_gates " << fmt(r.simd_gates.speedup())
              << "x (fast gates " << fmt(r.simd_gates.fast_rate / 1e6)
              << " Mline-bits/s)\n";
  }
  std::cout << "differential cross-check: "
            << (differential_ok ? "ok" : "FAILED -- BUG") << "\n";

  const ConfigResult& largest = results.back();
  std::ofstream json(out_path);
  if (!json) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  json << "{\n"
       << "  \"schema\": \"pimecc-bench-arch/1\",\n"
       << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n"
       << "  \"differential_ok\": " << (differential_ok ? "true" : "false")
       << ",\n"
       << "  \"configs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    auto metric = [&](const char* name, const char* unit, const MetricResult& mr,
                      bool last) {
      json << "      \"" << name << "\": {\"reference_" << unit << "\": "
           << fmt(mr.ref_rate) << ", \"word_parallel_" << unit << "\": "
           << fmt(mr.fast_rate) << ", \"speedup\": " << fmt(mr.speedup()) << "}"
           << (last ? "" : ",") << "\n";
    };
    json << "    {\n"
         << "      \"n\": " << r.n << ", \"m\": " << r.m << ",\n";
    metric("init", "cells_per_sec", r.init, false);
    metric("verify", "cells_per_sec", r.verify, false);
    metric("simd_gates", "line_bits_per_sec", r.simd_gates, true);
    json << "    }" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"largest_config\": {\"n\": " << largest.n << ", \"m\": "
       << largest.m << ", \"init_speedup\": " << fmt(largest.init.speedup())
       << ", \"verify_speedup\": " << fmt(largest.verify.speedup())
       << ", \"simd_gates_speedup\": " << fmt(largest.simd_gates.speedup())
       << "}\n"
       << "}\n";
  std::cout << "wrote " << out_path << "\n";
  return differential_ok ? 0 : 1;
}
