// pimecc quickstart: store data in a MAGIC crossbar with diagonal-parity
// ECC attached, compute in-memory with the critical-operation protocol,
// then survive an injected soft error.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build &&
//               ./build/examples/quickstart
#include <iostream>

#include "arch/params.hpp"
#include "arch/pim_machine.hpp"
#include "util/bitmatrix.hpp"
#include "util/rng.hpp"

int main() {
  using namespace pimecc;

  // A small unit: 45 x 45 crossbar, 9 x 9 ECC blocks (m odd, m | n).
  arch::ArchParams params;
  params.n = 45;
  params.m = 9;
  arch::PimMachine machine(params);

  // 1. Load data; the CMEM encodes every block's 2m diagonal parities.
  util::Rng rng(42);
  util::BitMatrix image(params.n, params.n);
  for (std::size_t r = 0; r < params.n; ++r) {
    for (std::size_t c = 0; c < params.n; ++c) {
      image.set(r, c, rng.bernoulli(0.5));
    }
  }
  machine.load(image);
  std::cout << "loaded " << params.n << "x" << params.n
            << " bits; ECC consistent: " << std::boolalpha
            << machine.ecc_consistent() << '\n';

  // 2. Compute in-memory: column 2 <- NOR(column 0, column 1) in every row
  //    simultaneously -- one gate cycle for 45 NORs, with the check bits
  //    continuously updated through the shifters and processing crossbars.
  const std::size_t out_col = 2;
  const std::size_t in_cols[2] = {0, 1};
  machine.magic_init_rows_protected(std::span<const std::size_t>(&out_col, 1));
  machine.magic_nor_rows_protected(in_cols, out_col);
  std::cout << "after row-parallel NOR, ECC consistent: "
            << machine.ecc_consistent() << '\n';

  // 3. A soft error strikes a memristor...
  machine.inject_data_error(7, 2);
  std::cout << "after soft error at (7,2), ECC consistent: "
            << machine.ecc_consistent() << '\n';

  // 4. ...and the before-use check of that block-row finds and repairs it.
  const arch::CheckReport report = machine.check_block_row(7);
  std::cout << "check_block_row(7): " << report.corrected_data
            << " data bit(s) corrected, " << report.uncorrectable
            << " uncorrectable\n";
  std::cout << "repaired; ECC consistent: " << machine.ecc_consistent() << '\n';

  // 5. The data survived end to end: verify the NOR results.
  bool all_correct = true;
  for (std::size_t r = 0; r < params.n; ++r) {
    const bool expected = !(image.get(r, 0) || image.get(r, 1));
    all_correct = all_correct && machine.get(r, out_col) == expected;
  }
  std::cout << "all 45 in-memory NOR results correct: " << all_correct << '\n';

  std::cout << "cycles -- MEM: " << machine.counters().mem_cycles
            << ", CMEM: " << machine.counters().cmem_cycles
            << ", critical ops: " << machine.counters().critical_ops << '\n';
  return all_correct && report.corrected_data == 1 ? 0 : 1;
}
