// Data-intensive workload: a database bitmap-index scan executed in-memory
// across a bank of crossbars, with a scrub running before each query step
// (the controller-level deployment of the paper's periodic check).
//
// Setup: each crossbar row r is one record; columns 0..3 hold predicate
// bitmaps (region flags), computed-in-place query results land in higher
// columns.  Query: SELECT count(*) WHERE (A AND NOT B) OR C -- evaluated
// with MAGIC NOR algebra simultaneously for every record of every unit,
// while soft errors rain in and the block-row checks keep the bank clean.
#include <cstdint>
#include <iostream>
#include <set>
#include <vector>

#include "arch/pim_machine.hpp"
#include "util/rng.hpp"

int main() {
  using namespace pimecc;

  arch::ArchParams params;
  params.n = 45;
  params.m = 9;
  constexpr std::size_t kUnits = 4;
  constexpr std::size_t kErrorsPerStep = 2;

  // One caller draw, unit u loaded from substream u: every unit's image
  // is independent of how many units the bank has.
  util::Rng rng(0xDB17ull);
  const std::uint64_t base_seed = rng.next();
  std::vector<arch::PimMachine> bank;
  bank.reserve(kUnits);
  for (std::size_t u = 0; u < kUnits; ++u) {
    util::Rng unit_rng = util::Rng::for_stream(base_seed, u);
    bank.emplace_back(params).load(
        util::random_bit_matrix(params.n, params.n, unit_rng));
  }

  std::cout << "bank: " << bank.size() << " crossbars, " << kUnits * params.n
            << " records, bitmaps in columns A=0 B=1 C=2\n";

  // Expected result from a host-side golden evaluation.
  std::size_t expected = 0;
  for (const arch::PimMachine& unit : bank) {
    for (std::size_t r = 0; r < params.n; ++r) {
      const bool a = unit.get(r, 0), b = unit.get(r, 1),
                 c = unit.get(r, 2);
      if ((a && !b) || c) ++expected;
    }
  }

  // In-memory evaluation on every unit, each preceded by injected soft
  // errors and a scrub.  (A AND NOT B) OR C in MAGIC NOR algebra:
  //   t1 = NOR(A', B)   [= A AND NOT B], with A' = NOT A
  //   q  = NOR(NOR(t1, C)) = t1 OR C
  // Columns: 10 = A', 11 = t1, 12 = NOR(t1, C), 13 = q.
  std::size_t matched = 0;
  std::size_t scrub_corrections = 0;
  bool all_consistent = true;
  for (arch::PimMachine& unit : bank) {
    // Background radiation between queries, at a rate the code corrects:
    // at most one flipped cell per block between two scrubs...
    std::set<std::size_t> hit_blocks;
    while (hit_blocks.size() < kErrorsPerStep) {
      const std::size_t r = rng.uniform_below(params.n);
      const std::size_t c = rng.uniform_below(params.n);
      if (hit_blocks.insert((r / params.m) * params.blocks_per_side() +
                            c / params.m).second) {
        unit.inject_data_error(r, c);
      }
    }
    // ...and the scrub: one block-row check per band.
    for (std::size_t band = 0; band < params.blocks_per_side(); ++band) {
      scrub_corrections += unit.check_block_row(band * params.m).corrected_data;
    }

    const std::size_t stages[4] = {10, 11, 12, 13};
    unit.magic_init_rows_protected(stages);
    const std::size_t in_a[1] = {0};
    unit.magic_nor_rows_protected(in_a, 10);  // A'
    const std::size_t in_t1[2] = {10, 1};
    unit.magic_nor_rows_protected(in_t1, 11);  // A AND NOT B
    const std::size_t in_or[2] = {11, 2};
    unit.magic_nor_rows_protected(in_or, 12);  // NOR(t1, C)
    const std::size_t in_q[1] = {12};
    unit.magic_nor_rows_protected(in_q, 13);  // t1 OR C

    for (std::size_t r = 0; r < params.n; ++r) {
      if (unit.get(r, 13)) ++matched;
    }
    all_consistent = all_consistent && unit.ecc_consistent();
  }

  const bool repaired = scrub_corrections == kUnits * kErrorsPerStep;
  std::cout << "query (A AND NOT B) OR C: " << matched << " records matched, "
            << expected << " expected -> "
            << (matched == expected ? "CORRECT" : "WRONG") << '\n'
            << "scrub corrected " << scrub_corrections << " of "
            << kUnits * kErrorsPerStep
            << " soft errors during the scan; bank consistent: "
            << std::boolalpha << all_consistent << '\n';
  return matched == expected && repaired && all_consistent ? 0 : 1;
}
