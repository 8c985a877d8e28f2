// End-to-end differential machine tests: the word-parallel protected
// machine (PimMachine, diagword differential check updates, ArrayCode band
// walks) pinned to the retained bit-serial composition
// (ReferencePimMachine, shifter-bank + XOR3-microprogram datapath) across
// randomized protected-op programs with mid-run fault injection, full
// ProtectedVm circuit runs from bench_circuits, metamorphic consistency
// checks, cycle-count pinning, and the arch layer's validate-before-mutate
// regressions.  Tiny configurations double as the `smoke;arch` gate
// (ArchEngineSmoke suite).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "arch/checkpoint.hpp"
#include "arch/pim_machine.hpp"
#include "arch/reference_pim_machine.hpp"
#include "arch/scheduler.hpp"
#include "bench_circuits/circuits.hpp"
#include "simpler/mapper.hpp"
#include "simpler/protected_vm.hpp"
#include "util/rng.hpp"

namespace pimecc {
namespace {

using arch::ArchParams;
using arch::Axis;
using arch::CheckReport;
using arch::PimMachine;
using arch::ReferencePimMachine;

ArchParams make_params(std::size_t n, std::size_t m) {
  ArchParams p;
  p.n = n;
  p.m = m;
  return p;
}

util::BitMatrix random_matrix(std::size_t n, util::Rng& rng) {
  return util::random_bit_matrix(n, n, rng);
}

util::BitVector random_vector(std::size_t n, util::Rng& rng) {
  util::BitVector v(n);
  util::fill_random(v, rng);
  return v;
}

/// The twin machines every differential test drives in lockstep.
struct MachinePair {
  PimMachine fast;
  ReferencePimMachine ref;

  explicit MachinePair(const ArchParams& params) : fast(params), ref(params) {}

  void load(const util::BitMatrix& image) {
    fast.load(image);
    ref.load(image);
  }
};

::testing::AssertionResult machines_agree(const MachinePair& pair) {
  if (!(pair.fast.data() == pair.ref.data())) {
    return ::testing::AssertionFailure() << "MEM contents diverge";
  }
  if (!pair.ref.check_memory().matches(pair.fast.check_code())) {
    return ::testing::AssertionFailure() << "check-bit state diverges";
  }
  const arch::MachineCounters& f = pair.fast.counters();
  const arch::MachineCounters& r = pair.ref.counters();
  if (!(f == r)) {
    return ::testing::AssertionFailure()
           << "counters diverge: mem " << f.mem_cycles << "/" << r.mem_cycles
           << " cmem " << f.cmem_cycles << "/" << r.cmem_cycles << " critical "
           << f.critical_ops << "/" << r.critical_ops << " checks " << f.checks
           << "/" << r.checks << " scrubs " << f.scrubs << "/" << r.scrubs;
  }
  const std::vector<std::uint64_t> fa = pair.fast.mem_row_activation_snapshot();
  const std::vector<std::uint64_t> ra = pair.ref.mem_row_activation_snapshot();
  if (fa != ra) {
    std::size_t row = 0;
    while (row < fa.size() && fa[row] == ra[row]) ++row;
    return ::testing::AssertionFailure()
           << "row activations diverge at row " << row << ": "
           << (row < fa.size() ? fa[row] : 0) << "/"
           << (row < ra.size() ? ra[row] : 0);
  }
  return ::testing::AssertionSuccess();
}

/// A random subset of [0, n) (non-empty, distinct, ascending) -- explicit
/// SIMD lane lists for the protected NOR entry points.
std::vector<std::size_t> random_lanes(std::size_t n, util::Rng& rng) {
  std::vector<std::size_t> lanes;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) lanes.push_back(i);
  }
  if (lanes.empty()) lanes.push_back(rng.uniform_below(n));
  return lanes;
}

/// Drives a randomized sequence of protected operations, controller writes,
/// checks, scrubs, and mid-run fault injections through both machines,
/// asserting full lockstep (contents, check state, counters, reports) after
/// every public operation.
void run_differential_program(std::size_t n, std::size_t m, std::uint64_t seed,
                              int ops) {
  const ArchParams params = make_params(n, m);
  MachinePair pair(params);
  util::Rng rng(seed);
  pair.load(random_matrix(n, rng));
  ASSERT_TRUE(machines_agree(pair));

  for (int i = 0; i < ops; ++i) {
    const std::uint64_t kind = rng.uniform_below(10);
    switch (kind) {
      case 0:
      case 1: {  // row-parallel init + NOR, sometimes on explicit lanes
        const std::size_t out = rng.uniform_below(n);
        std::size_t in1 = rng.uniform_below(n);
        std::size_t in2 = rng.uniform_below(n);
        if (in1 == out) in1 = (in1 + 1) % n;
        if (in2 == out) in2 = (in2 + 2) % n;
        const std::vector<std::size_t> outs{out};
        const std::vector<std::size_t> ins{in1, in2};
        pair.fast.magic_init_rows_protected(outs);
        pair.ref.magic_init_rows_protected(outs);
        if (rng.bernoulli(0.3)) {
          const std::vector<std::size_t> lanes = random_lanes(n, rng);
          pair.fast.magic_nor_rows_protected(ins, out, lanes);
          pair.ref.magic_nor_rows_protected(ins, out, lanes);
        } else {
          pair.fast.magic_nor_rows_protected(ins, out);
          pair.ref.magic_nor_rows_protected(ins, out);
        }
        break;
      }
      case 2:
      case 3: {  // column-parallel init + NOR
        const std::size_t out = rng.uniform_below(n);
        std::size_t in1 = rng.uniform_below(n);
        if (in1 == out) in1 = (in1 + 1) % n;
        const std::vector<std::size_t> outs{out};
        const std::vector<std::size_t> ins{in1};
        pair.fast.magic_init_cols_protected(outs);
        pair.ref.magic_init_cols_protected(outs);
        if (rng.bernoulli(0.3)) {
          const std::vector<std::size_t> lanes = random_lanes(n, rng);
          pair.fast.magic_nor_cols_protected(ins, out, lanes);
          pair.ref.magic_nor_cols_protected(ins, out, lanes);
        } else {
          pair.fast.magic_nor_cols_protected(ins, out);
          pair.ref.magic_nor_cols_protected(ins, out);
        }
        break;
      }
      case 4: {  // controller row write
        const std::size_t r = rng.uniform_below(n);
        const util::BitVector values = random_vector(n, rng);
        pair.fast.write_row_protected(r, values);
        pair.ref.write_row_protected(r, values);
        break;
      }
      case 5: {  // soft data error; sometimes checked right away
        const std::size_t r = rng.uniform_below(n);
        const std::size_t c = rng.uniform_below(n);
        pair.fast.inject_data_error(r, c);
        pair.ref.inject_data_error(r, c);
        if (rng.bernoulli(0.5)) {
          const CheckReport fr = pair.fast.check_block_row(r);
          const CheckReport rr = pair.ref.check_block_row(r);
          EXPECT_EQ(fr, rr) << "op " << i;
        }
        break;
      }
      case 6: {  // soft check-bit error
        const Axis axis = rng.bernoulli(0.5) ? Axis::kLeading : Axis::kCounter;
        const std::size_t diag = rng.uniform_below(m);
        const ecc::BlockIndex block{rng.uniform_below(n / m),
                                    rng.uniform_below(n / m)};
        pair.fast.inject_check_error(axis, diag, block);
        pair.ref.inject_check_error(axis, diag, block);
        if (rng.bernoulli(0.5)) {
          const CheckReport fr = pair.fast.check_block_col(block.block_col * m);
          const CheckReport rr = pair.ref.check_block_col(block.block_col * m);
          EXPECT_EQ(fr, rr) << "op " << i;
        }
        break;
      }
      case 7: {  // periodic full scrub
        const CheckReport fr = pair.fast.scrub();
        const CheckReport rr = pair.ref.scrub();
        EXPECT_EQ(fr, rr) << "op " << i;
        break;
      }
      case 8: {  // double error in one block -> detected uncorrectable
        const std::size_t br = rng.uniform_below(n / m);
        const std::size_t bc = rng.uniform_below(n / m);
        const std::size_t r1 = br * m;
        const std::size_t c1 = bc * m;
        pair.fast.inject_data_error(r1, c1);
        pair.ref.inject_data_error(r1, c1);
        pair.fast.inject_data_error(r1 + 1, c1 + 1);
        pair.ref.inject_data_error(r1 + 1, c1 + 1);
        const CheckReport fr = pair.fast.scrub();
        const CheckReport rr = pair.ref.scrub();
        EXPECT_EQ(fr, rr) << "op " << i;
        break;
      }
      default: {  // before-use band check of a random line
        const std::size_t line = rng.uniform_below(n);
        if (rng.bernoulli(0.5)) {
          EXPECT_EQ(pair.fast.check_block_row(line), pair.ref.check_block_row(line));
        } else {
          EXPECT_EQ(pair.fast.check_block_col(line), pair.ref.check_block_col(line));
        }
        break;
      }
    }
    ASSERT_TRUE(machines_agree(pair)) << "op " << i << " kind " << kind;
  }
}

// ------------------------------------------------- randomized differential

TEST(ArchEngineDifferential, RandomProgramsAgreeN45M9) {
  run_differential_program(45, 9, 0xA1, 120);
}

TEST(ArchEngineDifferential, RandomProgramsAgreeN60M15) {
  // m = 15 (the paper's case study block size); segments straddle the
  // 64-bit word boundary inside every band walk.
  run_differential_program(60, 15, 0xB2, 100);
}

TEST(ArchEngineDifferential, RandomProgramsAgreeN66M3) {
  // Many small blocks; lines span two backing words.
  run_differential_program(66, 3, 0xC3, 100);
}

TEST(ArchEngineDifferential, RandomProgramsAgreeN45M5) {
  run_differential_program(45, 5, 0xD4, 100);
}

/// Masked controller row writes (random masks, including empty and full
/// ones) interleaved with explicit-lane gates in both orientations: the
/// lane-major machine touches only the masked cells and must stay in full
/// lockstep -- contents, check state, counters and row activations.
void run_masked_write_program(std::size_t n, std::size_t m, std::uint64_t seed,
                              int ops) {
  MachinePair pair(make_params(n, m));
  util::Rng rng(seed);
  pair.load(random_matrix(n, rng));
  for (int i = 0; i < ops; ++i) {
    const std::uint64_t kind = rng.uniform_below(4);
    if (kind <= 1) {
      const std::size_t r = rng.uniform_below(n);
      const util::BitVector values = random_vector(n, rng);
      util::BitVector mask(n);
      const std::uint64_t shape = rng.uniform_below(8);
      if (shape == 0) {
        mask.fill(true);
      } else if (shape != 1) {  // shape 1 keeps the empty mask
        for (std::size_t c = 0; c < n; ++c) {
          mask.set(c, rng.bernoulli(shape == 2 ? 0.9 : 0.15));
        }
      }
      pair.fast.write_row_masked_protected(r, values, mask);
      pair.ref.write_row_masked_protected(r, values, mask);
    } else {
      const std::size_t out = rng.uniform_below(n);
      const std::size_t in = (out + 1 + rng.uniform_below(n - 1)) % n;
      const std::vector<std::size_t> outs{out};
      const std::vector<std::size_t> ins{in};
      const std::vector<std::size_t> lanes = random_lanes(n, rng);
      if (kind == 2) {
        pair.fast.magic_init_rows_protected(outs);
        pair.ref.magic_init_rows_protected(outs);
        pair.fast.magic_nor_rows_protected(ins, out, lanes);
        pair.ref.magic_nor_rows_protected(ins, out, lanes);
      } else {
        pair.fast.magic_init_cols_protected(outs);
        pair.ref.magic_init_cols_protected(outs);
        pair.fast.magic_nor_cols_protected(ins, out, lanes);
        pair.ref.magic_nor_cols_protected(ins, out, lanes);
      }
    }
    ASSERT_TRUE(machines_agree(pair)) << "op " << i << " kind " << kind;
    ASSERT_TRUE(pair.fast.ecc_consistent()) << "op " << i;
  }
  for (std::size_t r = 0; r < n; r += 7) {
    util::BitVector fast_col, ref_col;
    pair.fast.column_into(r, fast_col);
    pair.ref.column_into(r, ref_col);
    ASSERT_EQ(fast_col, ref_col) << "column " << r;
    for (std::size_t c = 0; c < n; c += 5) {
      ASSERT_EQ(pair.fast.get(r, c), pair.ref.get(r, c)) << r << "," << c;
    }
  }
}

TEST(ArchEngineDifferential, MaskedRowWritesAgreeN66M3) {
  run_masked_write_program(66, 3, 0x3A51, 120);
}

TEST(ArchEngineDifferential, MaskedRowWritesAgreeN135M15) {
  run_masked_write_program(135, 15, 0x3A52, 80);
}

TEST(ArchEngineDifferential, MaskedRowWriteRejectsBadShapesWithoutMutating) {
  MachinePair pair(make_params(45, 9));
  util::Rng rng(0x3A53);
  pair.load(random_matrix(45, rng));
  const util::BitVector ok(45), short_vec(44);
  EXPECT_THROW(pair.fast.write_row_masked_protected(45, ok, ok), std::out_of_range);
  EXPECT_THROW(pair.ref.write_row_masked_protected(45, ok, ok), std::out_of_range);
  EXPECT_THROW(pair.fast.write_row_masked_protected(0, short_vec, ok),
               std::invalid_argument);
  EXPECT_THROW(pair.ref.write_row_masked_protected(0, short_vec, ok),
               std::invalid_argument);
  EXPECT_THROW(pair.fast.write_row_masked_protected(0, ok, short_vec),
               std::invalid_argument);
  EXPECT_THROW(pair.ref.write_row_masked_protected(0, ok, short_vec),
               std::invalid_argument);
  EXPECT_TRUE(machines_agree(pair));
  EXPECT_EQ(pair.fast.counters().critical_ops, 0u);
}

// ----------------------------------------------- ProtectedVm end to end

/// Maps `netlist` onto the smallest row width from an m-multiple ladder.
simpler::MappedProgram map_with_ladder(const simpler::Netlist& netlist,
                                       std::size_t m, std::size_t& n_out) {
  for (std::size_t cand = 7 * m; cand <= 35 * m; cand += 7 * m) {
    simpler::MapperOptions options;
    options.row_width = cand;
    try {
      simpler::MappedProgram program = simpler::map_to_row(netlist, options);
      n_out = cand;
      return program;
    } catch (const std::runtime_error&) {
    }
  }
  throw std::runtime_error("circuit does not fit the test ladder");
}

TEST(ArchEngineDifferential, ProtectedVmCircuitRunsAgree) {
  for (const char* name : {"ctrl", "int2float"}) {
    SCOPED_TRACE(name);
    const circuits::CircuitSpec spec = circuits::build_circuit(name);
    std::size_t n = 0;
    const simpler::MappedProgram program = map_with_ladder(spec.netlist, 9, n);
    const ArchParams params = make_params(n, 9);
    MachinePair pair(params);
    util::Rng rng(0xE5);
    pair.load(random_matrix(n, rng));

    util::BitMatrix inputs(n, spec.netlist.num_inputs());
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t i = 0; i < inputs.cols(); ++i) {
        inputs.set(r, i, rng.bernoulli(0.5));
      }
    }
    const simpler::ProtectedRunResult fast_result = simpler::run_program_protected(
        pair.fast, spec.netlist, program, inputs);
    const simpler::ProtectedRunResult ref_result = simpler::run_program_protected(
        pair.ref, spec.netlist, program, inputs);

    EXPECT_EQ(fast_result.outputs, ref_result.outputs);
    EXPECT_EQ(fast_result.input_check_corrections, ref_result.input_check_corrections);
    EXPECT_TRUE(fast_result.ecc_consistent_after);
    EXPECT_TRUE(ref_result.ecc_consistent_after);
    EXPECT_TRUE(machines_agree(pair));
    for (std::size_t r = 0; r < n; ++r) {
      ASSERT_EQ(fast_result.outputs.row(r), spec.reference(inputs.row(r)))
          << "row " << r;
    }
  }
}

TEST(ArchEngineDifferential, ProtectedVmRepairsPreRunFaultIdentically) {
  const circuits::CircuitSpec spec = circuits::build_circuit("ctrl");
  std::size_t n = 0;
  const simpler::MappedProgram program = map_with_ladder(spec.netlist, 9, n);
  MachinePair pair(make_params(n, 9));
  util::Rng rng(0xF6);
  pair.load(random_matrix(n, rng));

  // A soft error lands on an input cell before the run; the VM's before-use
  // check must repair it on both machines and the computation proceed.
  pair.fast.inject_data_error(3, program.input_cells[0]);
  pair.ref.inject_data_error(3, program.input_cells[0]);

  util::BitMatrix inputs(n, spec.netlist.num_inputs());
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t i = 0; i < inputs.cols(); ++i) {
      inputs.set(r, i, rng.bernoulli(0.5));
    }
  }
  const simpler::ProtectedRunResult fast_result =
      simpler::run_program_protected(pair.fast, spec.netlist, program, inputs);
  const simpler::ProtectedRunResult ref_result =
      simpler::run_program_protected(pair.ref, spec.netlist, program, inputs);
  EXPECT_EQ(fast_result.input_check_corrections, 1u);
  EXPECT_EQ(ref_result.input_check_corrections, 1u);
  EXPECT_EQ(fast_result.outputs, ref_result.outputs);
  EXPECT_TRUE(machines_agree(pair));
}

/// Forwards the protected-VM surface of a machine and injects one data
/// error and one check-bit error right after the `at`-th gate or init, so
/// both machines take the faults mid-program at the same point.
template <typename Machine>
struct FaultAfterOp {
  Machine& machine;
  std::size_t at;
  std::size_t data_r, data_c;
  Axis axis;
  std::size_t diagonal;
  ecc::BlockIndex block;
  std::size_t ops = 0;

  [[nodiscard]] std::size_t n() const { return machine.n(); }
  [[nodiscard]] std::size_t m() const { return machine.m(); }
  CheckReport check_all_block_rows() { return machine.check_all_block_rows(); }
  void write_row_masked_protected(std::size_t r, const util::BitVector& values,
                                  const util::BitVector& mask) {
    machine.write_row_masked_protected(r, values, mask);
  }
  void magic_init_rows_protected(std::span<const std::size_t> cols) {
    machine.magic_init_rows_protected(cols);
    after_op();
  }
  void magic_nor_rows_protected(std::span<const std::size_t> ins,
                                std::size_t out) {
    machine.magic_nor_rows_protected(ins, out);
    after_op();
  }
  void column_into(std::size_t c, util::BitVector& out) const {
    machine.column_into(c, out);
  }
  [[nodiscard]] bool ecc_consistent() const { return machine.ecc_consistent(); }

 private:
  void after_op() {
    if (ops++ != at) return;
    machine.inject_data_error(data_r, data_c);
    machine.inject_check_error(axis, diagonal, block);
  }
};

// The served shape (n = 255, m = 15, the circuits the benchmark's run
// requests use): a full protected run with a data error and a check-bit
// error landing mid-program.  The data error sits outside the program's
// cells, so the outputs stay right; both faults outlive the run and the
// closing scrub must repair them identically on both machines.
TEST(ArchEngineDifferential, ServedShapeRunWithMidRunFaultsAgrees) {
  const std::size_t n = 255, m = 15;
  for (const char* name : {"ctrl", "cavlc", "int2float"}) {
    SCOPED_TRACE(name);
    const circuits::CircuitSpec spec = circuits::build_circuit(name);
    simpler::MapperOptions options;
    options.row_width = n;
    const simpler::MappedProgram program =
        simpler::map_to_row(spec.netlist, options);
    ASSERT_LT(program.peak_cells_used, n);
    MachinePair pair(make_params(n, m));
    util::Rng rng(0x5E7ED);
    pair.load(random_matrix(n, rng));
    const util::BitMatrix inputs =
        util::random_bit_matrix(n, spec.netlist.num_inputs(), rng);

    const std::size_t at = program.ops.size() / 2;
    const std::size_t data_r = rng.uniform_below(n);
    const ecc::BlockIndex block{rng.uniform_below(n / m),
                                rng.uniform_below(n / m)};
    const std::size_t diagonal = rng.uniform_below(m);
    // The check-bit error goes to a block other than the data error's, so
    // the closing scrub sees two single errors, not one double.
    const ecc::BlockIndex data_block{data_r / m, (n - 1) / m};
    const ecc::BlockIndex check_block =
        block == data_block ? ecc::BlockIndex{(block.block_row + 1) % (n / m),
                                              block.block_col}
                            : block;
    FaultAfterOp<PimMachine> fast{pair.fast, at, data_r, n - 1, Axis::kCounter,
                                  diagonal, check_block};
    FaultAfterOp<ReferencePimMachine> ref{pair.ref, at, data_r, n - 1,
                                          Axis::kCounter, diagonal, check_block};
    const simpler::ProtectedRunResult fast_result =
        simpler::run_program_protected(fast, spec.netlist, program, inputs);
    const simpler::ProtectedRunResult ref_result =
        simpler::run_program_protected(ref, spec.netlist, program, inputs);
    ASSERT_EQ(fast.ops, program.ops.size());

    EXPECT_EQ(fast_result.outputs, ref_result.outputs);
    EXPECT_FALSE(fast_result.ecc_consistent_after);
    EXPECT_FALSE(ref_result.ecc_consistent_after);
    EXPECT_TRUE(machines_agree(pair));
    for (std::size_t r = 0; r < n; ++r) {
      ASSERT_EQ(fast_result.outputs.row(r), spec.reference(inputs.row(r)))
          << "row " << r;
    }

    const CheckReport fast_scrub = pair.fast.scrub();
    EXPECT_EQ(fast_scrub, pair.ref.scrub());
    EXPECT_EQ(fast_scrub.corrected_data, 1u);
    EXPECT_EQ(fast_scrub.corrected_check, 1u);
    EXPECT_TRUE(pair.fast.ecc_consistent());
    EXPECT_TRUE(machines_agree(pair));
  }
}

// ------------------------------------------------- deferred check fold

/// One protected op that leaves a delta pending on PimMachine (nothing in
/// here reads the check bits), or a fault injected while deltas pend.
void pending_op(MachinePair& pair, util::Rng& rng) {
  const std::size_t n = pair.fast.n();
  const std::size_t m = pair.fast.m();
  const std::size_t out = rng.uniform_below(n);
  const std::vector<std::size_t> outs{out};
  const std::vector<std::size_t> ins{(out + 1 + rng.uniform_below(n - 1)) % n};
  switch (rng.uniform_below(6)) {
    case 0: {  // row-parallel init + NOR: physical-row deltas
      pair.fast.magic_init_rows_protected(outs);
      pair.ref.magic_init_rows_protected(outs);
      if (rng.bernoulli(0.3)) {
        const std::vector<std::size_t> lanes = random_lanes(n, rng);
        pair.fast.magic_nor_rows_protected(ins, out, lanes);
        pair.ref.magic_nor_rows_protected(ins, out, lanes);
      } else {
        pair.fast.magic_nor_rows_protected(ins, out);
        pair.ref.magic_nor_rows_protected(ins, out);
      }
      break;
    }
    case 1: {  // column-parallel init + NOR: physical-column deltas
      pair.fast.magic_init_cols_protected(outs);
      pair.ref.magic_init_cols_protected(outs);
      pair.fast.magic_nor_cols_protected(ins, out);
      pair.ref.magic_nor_cols_protected(ins, out);
      break;
    }
    case 2: {
      const util::BitVector values = random_vector(n, rng);
      pair.fast.write_row_protected(out, values);
      pair.ref.write_row_protected(out, values);
      break;
    }
    case 3: {
      const util::BitVector values = random_vector(n, rng);
      util::BitVector mask(n);
      for (std::size_t c = 0; c < n; ++c) mask.set(c, rng.bernoulli(0.2));
      pair.fast.write_row_masked_protected(out, values, mask);
      pair.ref.write_row_masked_protected(out, values, mask);
      break;
    }
    case 4: {
      const std::size_t c = rng.uniform_below(n);
      pair.fast.inject_data_error(out, c);
      pair.ref.inject_data_error(out, c);
      break;
    }
    default: {
      const Axis axis = rng.bernoulli(0.5) ? Axis::kLeading : Axis::kCounter;
      const std::size_t diag = rng.uniform_below(m);
      const ecc::BlockIndex block{rng.uniform_below(n / m),
                                  rng.uniform_below(n / m)};
      pair.fast.inject_check_error(axis, diag, block);
      pair.ref.inject_check_error(axis, diag, block);
      break;
    }
  }
}

/// Bursts of pending ops, each closed by one reader or overwriter of the
/// check bits: every fold trigger (the checks, scrub, check_all_block_rows,
/// ecc_consistent, check_code, save_machine_checkpoint), every discard
/// (load, restore) and a throwing restore, which must leave the pending
/// delta in place.  Nothing else reads the fast machine's check state
/// between triggers, so the deltas pile up; lockstep is asserted at the
/// end and on the non-folding state after every burst.
void run_deferred_fold_program(std::size_t n, std::size_t m, std::uint64_t seed,
                               int bursts) {
  const ArchParams params = make_params(n, m);
  MachinePair pair(params);
  util::Rng rng(seed);
  pair.load(random_matrix(n, rng));

  struct Snapshot {
    util::BitMatrix data;
    ecc::ArrayCode code;
    arch::MachineCounters counters;
    xbar::Crossbar::Counters mem_counters;
    ReferencePimMachine ref;
  };
  std::optional<Snapshot> snapshot;

  for (int burst = 0; burst < bursts; ++burst) {
    const std::uint64_t ops = 1 + rng.uniform_below(6);
    for (std::uint64_t i = 0; i < ops; ++i) pending_op(pair, rng);
    const std::uint64_t trigger = rng.uniform_below(11);
    SCOPED_TRACE(::testing::Message() << "burst " << burst << " trigger " << trigger);
    switch (trigger) {
      case 0: {
        const std::size_t row = rng.uniform_below(n);
        ASSERT_EQ(pair.fast.check_block_row(row), pair.ref.check_block_row(row));
        break;
      }
      case 1: {
        const std::size_t col = rng.uniform_below(n);
        ASSERT_EQ(pair.fast.check_block_col(col), pair.ref.check_block_col(col));
        break;
      }
      case 2:
        ASSERT_EQ(pair.fast.scrub(), pair.ref.scrub());
        break;
      case 3:
        ASSERT_EQ(pair.fast.check_all_block_rows(), pair.ref.check_all_block_rows());
        break;
      case 4:
        ASSERT_EQ(pair.fast.ecc_consistent(), pair.ref.ecc_consistent());
        break;
      case 5:
        ASSERT_TRUE(pair.ref.check_memory().matches(pair.fast.check_code()));
        break;
      case 6: {  // checkpoint bytes carry the folded state
        std::stringstream stream;
        arch::save_machine_checkpoint(stream, pair.fast);
        PimMachine copy(params);
        arch::load_machine_checkpoint(stream, copy);
        ASSERT_EQ(copy.data(), pair.ref.data());
        ASSERT_TRUE(pair.ref.check_memory().matches(copy.check_code()));
        ASSERT_EQ(copy.counters(), pair.ref.counters());
        break;
      }
      case 7:
        pair.load(random_matrix(n, rng));
        break;
      case 8:  // capture now, restore at a later trigger
        snapshot = Snapshot{pair.fast.data(), pair.fast.check_code(),
                            pair.fast.counters(), pair.fast.mem_counters(),
                            pair.ref};
        break;
      case 9:
        if (snapshot) {
          pair.fast.restore(snapshot->data, snapshot->code, snapshot->counters,
                            snapshot->mem_counters);
          pair.ref = snapshot->ref;
          // restore() keeps the activation history; the copied reference
          // brought its own back, so restart both.
          pair.fast.reset_mem_row_activations();
          pair.ref.reset_mem_row_activations();
        }
        break;
      default:  // rejected restores: validated before anything moves
        EXPECT_THROW(pair.fast.restore(util::BitMatrix(n, n - 1),
                                       ecc::ArrayCode(n, m), pair.fast.counters(),
                                       pair.fast.mem_counters()),
                     std::invalid_argument);
        EXPECT_THROW(pair.fast.restore(pair.fast.data(), ecc::ArrayCode(2 * n, m),
                                       pair.fast.counters(),
                                       pair.fast.mem_counters()),
                     std::invalid_argument);
        break;
    }
    ASSERT_EQ(pair.fast.data(), pair.ref.data());
    ASSERT_EQ(pair.fast.counters(), pair.ref.counters());
  }
  for (int i = 0; i < 4; ++i) pending_op(pair, rng);
  EXPECT_TRUE(machines_agree(pair));
  EXPECT_EQ(pair.fast.scrub(), pair.ref.scrub());
  EXPECT_TRUE(machines_agree(pair));
}

TEST(ArchEngineDeferredFold, EveryTriggerAgreesN45M9) {
  run_deferred_fold_program(45, 9, 0xDEF1, 150);
}

TEST(ArchEngineDeferredFold, EveryTriggerAgreesN135M15) {
  run_deferred_fold_program(135, 15, 0xDEF2, 80);
}

TEST(ArchEngineDeferredFold, EveryTriggerAgreesN66M3) {
  run_deferred_fold_program(66, 3, 0xDEF3, 100);
}

TEST(ArchEngineDeferredFold, EveryTriggerAgreesBitSerialFallbackM65) {
  // m > 64: the fold takes ArrayCode's one-update-per-set-bit fallback.
  run_deferred_fold_program(130, 65, 0xDEF4, 25);
}

/// Data and check-bit faults injected while deltas pend are repaired by the
/// next check exactly as on an eagerly updated machine: the flips commute
/// with the pending XOR, so no fold is needed at injection time.
TEST(ArchEngineDeferredFold, FaultsInjectedWhileDeltasPendAreRepaired) {
  const std::size_t n = 60, m = 15;
  MachinePair pair(make_params(n, m));
  util::Rng rng(0xDEF5);
  pair.load(random_matrix(n, rng));
  const auto program = [](auto& machine) {
    const std::vector<std::size_t> outs{3};
    const std::vector<std::size_t> ins{20, 41};
    machine.magic_init_rows_protected(outs);
    machine.magic_nor_rows_protected(ins, 3);
    machine.inject_data_error(50, 3);  // a cell the NOR just wrote
    machine.inject_check_error(Axis::kCounter, 4, {0, 2});
    machine.magic_init_rows_protected(std::vector<std::size_t>{40});
  };
  program(pair.fast);
  program(pair.ref);

  EXPECT_FALSE(pair.fast.ecc_consistent());
  const CheckReport report = pair.fast.scrub();
  EXPECT_EQ(report, pair.ref.scrub());
  EXPECT_EQ(report.corrected_data, 1u);
  EXPECT_EQ(report.corrected_check, 1u);
  EXPECT_EQ(report.uncorrectable, 0u);
  EXPECT_TRUE(pair.fast.ecc_consistent());
  EXPECT_TRUE(machines_agree(pair));
}

// ------------------------------------------------ check_all_block_rows

/// check_all_block_rows against the n/m check_block_row calls it replaces,
/// on both machines from identical faulted states: the same summed report,
/// repairs, check state and counters (checks += n/m, no scrub).
void expect_all_block_rows_is_the_loop(
    std::size_t n, std::size_t m, std::uint64_t seed,
    const std::function<void(MachinePair&)>& faults) {
  const ArchParams params = make_params(n, m);
  MachinePair all(params);
  MachinePair loop(params);
  util::Rng rng(seed);
  const util::BitMatrix image = random_matrix(n, rng);
  all.load(image);
  loop.load(image);
  faults(all);
  faults(loop);
  const arch::MachineCounters before = all.fast.counters();

  const CheckReport fast_all = all.fast.check_all_block_rows();
  const CheckReport ref_all = all.ref.check_all_block_rows();
  CheckReport fast_loop, ref_loop;
  const auto add = [](CheckReport& total, const CheckReport& r) {
    total.blocks_checked += r.blocks_checked;
    total.corrected_data += r.corrected_data;
    total.corrected_check += r.corrected_check;
    total.uncorrectable += r.uncorrectable;
  };
  for (std::size_t band = 0; band < n / m; ++band) {
    add(fast_loop, loop.fast.check_block_row(band * m));
    add(ref_loop, loop.ref.check_block_row(band * m));
  }
  EXPECT_EQ(fast_all, fast_loop);
  EXPECT_EQ(ref_all, ref_loop);
  EXPECT_EQ(fast_all, ref_all);
  EXPECT_EQ(fast_all.blocks_checked, (n / m) * (n / m));
  EXPECT_EQ(all.fast.counters().checks, before.checks + n / m);
  EXPECT_EQ(all.fast.counters().scrubs, before.scrubs);
  EXPECT_EQ(all.fast.counters(), loop.fast.counters());
  EXPECT_EQ(all.ref.counters(), loop.ref.counters());
  EXPECT_EQ(all.fast.data(), loop.fast.data());
  EXPECT_TRUE(loop.ref.check_memory().matches(all.fast.check_code()));
  EXPECT_TRUE(machines_agree(all));
  EXPECT_TRUE(machines_agree(loop));
}

TEST(ArchEngineAllBlockRows, SingleDataErrorsInDistinctBlocks) {
  expect_all_block_rows_is_the_loop(60, 15, 0xA11, [](MachinePair& pair) {
    for (const auto& [r, c] : {std::pair{0, 0}, {17, 44}, {59, 31}, {33, 2}}) {
      pair.fast.inject_data_error(r, c);
      pair.ref.inject_data_error(r, c);
    }
  });
}

TEST(ArchEngineAllBlockRows, CheckBitErrors) {
  expect_all_block_rows_is_the_loop(45, 9, 0xA12, [](MachinePair& pair) {
    for (const auto& [axis, diag, br, bc] :
         {std::tuple{Axis::kLeading, 0, 0, 4}, {Axis::kCounter, 8, 3, 1},
          {Axis::kCounter, 1, 4, 4}}) {
      pair.fast.inject_check_error(axis, diag, {std::size_t(br), std::size_t(bc)});
      pair.ref.inject_check_error(axis, diag, {std::size_t(br), std::size_t(bc)});
    }
  });
}

TEST(ArchEngineAllBlockRows, TwoErrorsInOneBlockAmongSingles) {
  expect_all_block_rows_is_the_loop(66, 3, 0xA13, [](MachinePair& pair) {
    for (const auto& [r, c] : {std::pair{9, 9}, {10, 11}, {40, 5}, {65, 65}}) {
      pair.fast.inject_data_error(r, c);
      pair.ref.inject_data_error(r, c);
    }
    pair.fast.inject_check_error(Axis::kLeading, 2, {1, 1});
    pair.ref.inject_check_error(Axis::kLeading, 2, {1, 1});
  });
}

TEST(ArchEngineAllBlockRows, FaultsBehindPendingDeltas) {
  expect_all_block_rows_is_the_loop(135, 15, 0xA14, [](MachinePair& pair) {
    util::Rng rng(0xA15);  // same stream for both pairs
    for (int i = 0; i < 12; ++i) pending_op(pair, rng);
  });
}

// ---------------------------------------------------- cycle-count pinning

/// Table 1 guard: a full ProtectedVm run of a bench_circuits netlist must
/// cost the exact same cycle counters on the fast and reference machines --
/// any drift in either engine's protocol accounting fails the pin.
class CyclePinningTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CyclePinningTest, ProtectedVmCyclesAgreeExactly) {
  const circuits::CircuitSpec spec = circuits::build_circuit(GetParam());
  const std::size_t m = 15;
  std::size_t n = 0;
  const simpler::MappedProgram program = map_with_ladder(spec.netlist, m, n);
  MachinePair pair(make_params(n, m));
  util::Rng rng(0x715);
  pair.load(random_matrix(n, rng));

  util::BitMatrix inputs(n, spec.netlist.num_inputs());
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t i = 0; i < inputs.cols(); ++i) {
      inputs.set(r, i, rng.bernoulli(0.5));
    }
  }
  const simpler::ProtectedRunResult fast_result =
      simpler::run_program_protected(pair.fast, spec.netlist, program, inputs);
  const simpler::ProtectedRunResult ref_result =
      simpler::run_program_protected(pair.ref, spec.netlist, program, inputs);

  const arch::MachineCounters& f = pair.fast.counters();
  EXPECT_EQ(f, pair.ref.counters());
  // The run must have actually exercised the protocol: one critical op per
  // protected row load, init cycle, and gate.
  EXPECT_GE(f.critical_ops, n + program.ops.size());
  EXPECT_EQ(f.checks, n / m);  // the before-use check of every band
  EXPECT_EQ(fast_result.outputs, ref_result.outputs);
  for (std::size_t r = 0; r < n; ++r) {
    ASSERT_EQ(fast_result.outputs.row(r), spec.reference(inputs.row(r)))
        << "row " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(BenchCircuits, CyclePinningTest,
                         ::testing::Values("ctrl", "cavlc", "int2float", "dec"));

// ------------------------------------------------------------ metamorphic

/// After every public operation: the ECC invariant holds, and a forced
/// single-bit flip anywhere (data or check) is detected and repaired.
void run_metamorphic_program(std::size_t n, std::size_t m, std::uint64_t seed,
                             int ops) {
  PimMachine machine(make_params(n, m));
  util::Rng rng(seed);
  machine.load(random_matrix(n, rng));

  for (int i = 0; i < ops; ++i) {
    const std::uint64_t kind = rng.uniform_below(3);
    const std::size_t out = rng.uniform_below(n);
    std::size_t in1 = rng.uniform_below(n);
    if (in1 == out) in1 = (in1 + 1) % n;
    const std::vector<std::size_t> outs{out};
    const std::vector<std::size_t> ins{in1};
    if (kind == 0) {
      machine.magic_init_rows_protected(outs);
      machine.magic_nor_rows_protected(ins, out);
    } else if (kind == 1) {
      machine.magic_init_cols_protected(outs);
      machine.magic_nor_cols_protected(ins, out);
    } else {
      machine.write_row_protected(out, random_vector(n, rng));
    }
    ASSERT_TRUE(machine.ecc_consistent()) << "op " << i;

    if (rng.bernoulli(0.5)) {
      // Forced data flip anywhere: detected, located, repaired.
      const std::size_t r = rng.uniform_below(n);
      const std::size_t c = rng.uniform_below(n);
      const util::BitMatrix snapshot = machine.data();
      machine.inject_data_error(r, c);
      ASSERT_FALSE(machine.ecc_consistent());
      const CheckReport report = machine.check_block_row(r);
      EXPECT_EQ(report.corrected_data, 1u) << "op " << i;
      ASSERT_TRUE(machine.ecc_consistent()) << "op " << i;
      EXPECT_EQ(machine.data(), snapshot);
    } else {
      // Forced check-bit flip: repaired in the check store.
      const Axis axis = rng.bernoulli(0.5) ? Axis::kLeading : Axis::kCounter;
      const std::size_t diag = rng.uniform_below(m);
      const ecc::BlockIndex block{rng.uniform_below(n / m),
                                  rng.uniform_below(n / m)};
      machine.inject_check_error(axis, diag, block);
      ASSERT_FALSE(machine.ecc_consistent());
      const CheckReport report = machine.check_block_col(block.block_col * m);
      EXPECT_EQ(report.corrected_check, 1u) << "op " << i;
      ASSERT_TRUE(machine.ecc_consistent()) << "op " << i;
    }
  }
}

TEST(ArchEngineMetamorphic, ConsistencyAndSingleFlipRepairN45M9) {
  run_metamorphic_program(45, 9, 0x3117, 60);
}

TEST(ArchEngineMetamorphic, ConsistencyAndSingleFlipRepairN60M15) {
  run_metamorphic_program(60, 15, 0x3118, 50);
}

// ------------------------------------------------ validate-before-mutate

/// Every rejecting entry point must leave the machine -- contents, check
/// state, cycle counters -- exactly as it was (the PR 2/3 convention
/// applied to the arch layer).  Template: the contract is part of the
/// shared public API of both machines.
template <typename Machine>
void expect_rejects_without_mutating(Machine& machine) {
  const std::size_t n = machine.n();
  const util::BitMatrix data_before = machine.data();
  const arch::MachineCounters counters_before = machine.counters();

  EXPECT_THROW(machine.load(util::BitMatrix(n, n - 1)), std::invalid_argument);
  EXPECT_THROW(machine.write_row_protected(n, util::BitVector(n)),
               std::out_of_range);
  EXPECT_THROW(machine.write_row_protected(0, util::BitVector(n - 1)),
               std::invalid_argument);

  const std::vector<std::size_t> bad_line{n};
  const std::vector<std::size_t> ins{1, 2};
  const std::vector<std::size_t> dup{3, 3};
  EXPECT_THROW(machine.magic_nor_rows_protected(bad_line, 5), std::out_of_range);
  EXPECT_THROW(machine.magic_nor_rows_protected(ins, n), std::out_of_range);
  EXPECT_THROW(machine.magic_nor_rows_protected(ins, 5, dup),
               std::invalid_argument);
  EXPECT_THROW(machine.magic_nor_rows_protected(ins, 5, bad_line),
               std::out_of_range);
  EXPECT_THROW(machine.magic_nor_cols_protected(bad_line, 5), std::out_of_range);
  EXPECT_THROW(machine.magic_nor_cols_protected(ins, n), std::out_of_range);
  EXPECT_THROW(machine.magic_nor_cols_protected(ins, 5, dup),
               std::invalid_argument);
  // Duplicate init lines: before this engine, the second update cancelled
  // the first (both deltas were computed against the same pre-init
  // snapshot), silently corrupting the ECC; now the batch is rejected
  // up front.
  EXPECT_THROW(machine.magic_init_rows_protected(dup), std::invalid_argument);
  EXPECT_THROW(machine.magic_init_rows_protected(bad_line), std::out_of_range);
  EXPECT_THROW(machine.magic_init_cols_protected(dup), std::invalid_argument);
  EXPECT_THROW(machine.magic_init_cols_protected(bad_line), std::out_of_range);

  EXPECT_THROW((void)machine.check_block_row(n), std::out_of_range);
  EXPECT_THROW((void)machine.check_block_col(n), std::out_of_range);
  EXPECT_THROW(machine.inject_data_error(n, 0), std::out_of_range);
  EXPECT_THROW(machine.inject_data_error(0, n), std::out_of_range);
  EXPECT_THROW(machine.inject_check_error(Axis::kLeading, machine.m(), {0, 0}),
               std::out_of_range);
  EXPECT_THROW(machine.inject_check_error(Axis::kCounter, 0, {n, 0}),
               std::out_of_range);

  EXPECT_EQ(machine.data(), data_before);
  EXPECT_EQ(machine.counters(), counters_before);
  EXPECT_TRUE(machine.ecc_consistent());
}

TEST(ArchValidation, FastMachineRejectsBeforeMutating) {
  PimMachine machine(make_params(45, 9));
  util::Rng rng(0x7A11);
  machine.load(random_matrix(45, rng));
  expect_rejects_without_mutating(machine);
}

TEST(ArchValidation, ReferenceMachineRejectsBeforeMutating) {
  ReferencePimMachine machine(make_params(45, 9));
  util::Rng rng(0x7A12);
  machine.load(random_matrix(45, rng));
  expect_rejects_without_mutating(machine);
}

// --------------------------------------------------------- scheduler engine

TEST(SchedulerEngine, CalendarSkipChainMatchesNaiveLinearProbe) {
  arch::CalendarResource cal;
  std::set<std::uint64_t> naive;
  util::Rng rng(17);
  // Dense earliest-times force long occupied runs, exercising the skip
  // chain and its path compression.
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t earliest = rng.uniform_below(400);
    std::uint64_t expected = earliest;
    while (naive.contains(expected)) ++expected;
    naive.insert(expected);
    ASSERT_EQ(cal.reserve(earliest), expected) << "reservation " << i;
  }
}

TEST(SchedulerEngine, ConstructorValidatesParamsBeforeAnyState) {
  ArchParams p = make_params(45, 9);
  p.num_pcs = 0;
  EXPECT_THROW(arch::ProtocolScheduler{p}, std::invalid_argument);
  p = make_params(45, 9);
  p.xor3_cycles = 0;
  EXPECT_THROW(arch::ProtocolScheduler{p}, std::invalid_argument);
}

// ------------------------------------------------------------- smoke gate

TEST(ArchEngineSmoke, TinyDifferentialProgram) {
  run_differential_program(12, 3, 0x5130, 40);
}

TEST(ArchEngineSmoke, TinyMetamorphicConsistency) {
  run_metamorphic_program(12, 3, 0x5131, 20);
}

}  // namespace
}  // namespace pimecc
