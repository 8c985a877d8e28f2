// Tests for the protected program VM -- the end-to-end composition of
// SIMPLER and the base architecture model.
#include <gtest/gtest.h>

#include "arch/pim_machine.hpp"
#include "simpler/logic.hpp"
#include "simpler/mapper.hpp"
#include "simpler/protected_vm.hpp"
#include "util/rng.hpp"

namespace pimecc {
namespace {

// ------------------------------------------------------------ protected VM

simpler::Netlist build_add4() {
  simpler::Netlist nl("add4");
  simpler::LogicBuilder b(nl);
  const simpler::Bus x = b.input_bus(4);
  const simpler::Bus y = b.input_bus(4);
  const simpler::AddResult sum = b.ripple_add(x, y, b.constant(false));
  b.output_bus(sum.sum);
  b.output(sum.carry_out);
  return nl;
}

TEST(ProtectedVm, SimdExecutionMatchesNetlistPerRow) {
  arch::ArchParams params;
  params.n = 45;
  params.m = 9;
  arch::PimMachine machine(params);
  machine.load(util::BitMatrix(45, 45));

  const simpler::Netlist nl = build_add4();
  simpler::MapperOptions options;
  options.row_width = 45;
  const simpler::MappedProgram program = simpler::map_to_row(nl, options);

  util::Rng rng(5);
  util::BitMatrix inputs(45, 8);
  for (std::size_t r = 0; r < 45; ++r) {
    for (std::size_t i = 0; i < 8; ++i) inputs.set(r, i, rng.bernoulli(0.5));
  }
  const simpler::ProtectedRunResult result = simpler::run_program_protected(
      machine, nl, program, inputs, /*check_inputs_first=*/true);
  EXPECT_TRUE(result.ecc_consistent_after);
  for (std::size_t r = 0; r < 45; ++r) {
    EXPECT_EQ(result.outputs.row(r), nl.eval(inputs.row(r))) << "row " << r;
  }
}

TEST(ProtectedVm, PreCheckRepairsInjectedInputError) {
  arch::ArchParams params;
  params.n = 45;
  params.m = 9;
  arch::PimMachine machine(params);
  machine.load(util::BitMatrix(45, 45));

  const simpler::Netlist nl = build_add4();
  simpler::MapperOptions options;
  options.row_width = 45;
  const simpler::MappedProgram program = simpler::map_to_row(nl, options);

  util::BitMatrix inputs(45, 8);
  inputs.set(7, 0, true);  // row 7 computes 1 + 0

  // A soft error lands somewhere in the array before the run.  The VM's
  // pre-check (which runs *before* its protected loads -- otherwise the
  // load would trigger the Section III overwrite-before-check race) must
  // repair it, leaving the computation and the ECC state intact.
  machine.inject_data_error(7, program.input_cells[0]);
  const simpler::ProtectedRunResult result = simpler::run_program_protected(
      machine, nl, program, inputs, /*check_inputs_first=*/true);
  EXPECT_EQ(result.input_check_corrections, 1u);
  EXPECT_TRUE(result.ecc_consistent_after);
  EXPECT_EQ(result.outputs.row(7), nl.eval(inputs.row(7)));
}

TEST(ProtectedVm, ValidatesShapes) {
  arch::ArchParams params;
  params.n = 45;
  params.m = 9;
  arch::PimMachine machine(params);
  machine.load(util::BitMatrix(45, 45));
  const simpler::Netlist nl = build_add4();
  simpler::MapperOptions options;
  options.row_width = 45;
  const simpler::MappedProgram program = simpler::map_to_row(nl, options);
  EXPECT_THROW(simpler::run_program_protected(machine, nl, program,
                                              util::BitMatrix(45, 7)),
               std::invalid_argument);
  simpler::MapperOptions wide;
  wide.row_width = 90;
  const simpler::MappedProgram too_wide = simpler::map_to_row(nl, wide);
  EXPECT_THROW(simpler::run_program_protected(machine, nl, too_wide,
                                              util::BitMatrix(45, 8)),
               std::invalid_argument);
}

}  // namespace
}  // namespace pimecc
