// Domain scenario: in-memory image morphology under ECC protection.  A
// bitmap lives in the protected crossbar; left-edge detection
//   edge(r, c) = img(r, c) AND NOT img(r, c-1) = NOR(NOT img(r,c), img(r,c-1))
// runs as column-parallel MAGIC NOR operations (each covering a whole
// crossbar row in one cycle), with every write maintained by the
// critical-operation protocol.  A soft error strikes mid-computation and
// the before-use block check repairs it before it can corrupt the result.
#include <iostream>
#include <string>
#include <vector>

#include "arch/params.hpp"
#include "arch/pim_machine.hpp"
#include "util/bitmatrix.hpp"

namespace {

// 15 rows x 45 columns of ASCII art ('#' = 1).
const std::vector<std::string> kArt = {
    "                                             ",
    "   ####      ###   #   #                     ",
    "   #   #      #    ## ##                     ",
    "   ####       #    # # #                     ",
    "   #          #    #   #                     ",
    "   #         ###   #   #   ### ###  ###      ",
    "                           #   #   #         ",
    "                           ##  #   #         ",
    "                           #   #   #         ",
    "                           ### ### ###       ",
    "        #############################        ",
    "                                             ",
    "     ##   ##   ##   ##   ##   ##   ##   #    ",
    "     ##   ##   ##   ##   ##   ##   ##   #    ",
    "                                             ",
};

constexpr std::size_t kImgRows = 15;
constexpr std::size_t kImgCols = 45;

void print(const pimecc::util::BitMatrix& data, std::size_t row0,
           const char* title) {
  std::cout << title << '\n';
  for (std::size_t r = 0; r < kImgRows; ++r) {
    std::string line;
    for (std::size_t c = 0; c < kImgCols; ++c) {
      line += data.get(row0 + r, c) ? '#' : '.';
    }
    std::cout << "  " << line << '\n';
  }
}

}  // namespace

int main() {
  using namespace pimecc;

  // 60 x 60 crossbar, 15 x 15 ECC blocks.  Row bands: image 0..14,
  // inverted copy 15..29, shifted copy 30..44, edge result 45..59.
  arch::ArchParams params;
  params.n = 60;
  params.m = 15;
  arch::PimMachine machine(params);

  util::BitMatrix image(params.n, params.n);
  for (std::size_t r = 0; r < kImgRows; ++r) {
    for (std::size_t c = 0; c < kImgCols; ++c) {
      image.set(r, c, kArt[r][c] == '#');
    }
  }
  machine.load(image);
  print(machine.data(), 0, "input bitmap (ECC-protected):");

  // Step 1: inverted copy -- one column-parallel MAGIC NOT per image row
  // (60 cells each, one cycle each), ECC updated continuously.
  for (std::size_t r = 0; r < kImgRows; ++r) {
    const std::size_t inv_row = 15 + r;
    const std::size_t init_rows[1] = {inv_row};
    machine.magic_init_cols_protected(init_rows);
    const std::size_t in_rows[1] = {r};
    machine.magic_nor_cols_protected(in_rows, inv_row);
  }

  // A stray soft error hits the inverted copy.  Before using that band as
  // gate inputs, the architecture checks its block-row and repairs it
  // (the paper's check-before-use discipline).
  machine.inject_data_error(17, 8);
  const arch::CheckReport repair = machine.check_block_row(17);
  std::cout << "\nsoft error injected at (17,8); block-row check corrected "
            << repair.corrected_data << " bit(s)\n\n";

  // Step 2: left-neighbor copy.  Shifting crosses column boundaries, which
  // MAGIC alone cannot do inside the array, so the controller writes the
  // shifted rows (each write ECC-maintained through the same protocol).
  for (std::size_t r = 0; r < kImgRows; ++r) {
    util::BitVector shifted(params.n);
    for (std::size_t c = 1; c < kImgCols; ++c) {
      shifted.set(c, machine.get(r, c - 1));
    }
    machine.write_row_protected(30 + r, shifted);
  }

  // Step 3: edge rows -- one column-parallel MAGIC NOR per image row:
  // edge = NOR(NOT img, left neighbor) = img AND NOT left.
  for (std::size_t r = 0; r < kImgRows; ++r) {
    const std::size_t edge_row = 45 + r;
    const std::size_t init_rows[1] = {edge_row};
    machine.magic_init_cols_protected(init_rows);
    const std::size_t in_rows[2] = {15 + r, 30 + r};
    machine.magic_nor_cols_protected(in_rows, edge_row);
  }
  print(machine.data(), 45, "left-edge map (computed in-memory):");

  // Verify against a host-side reference.
  bool correct = true;
  for (std::size_t r = 0; r < kImgRows; ++r) {
    for (std::size_t c = 0; c < kImgCols; ++c) {
      const bool img = image.get(r, c);
      const bool left = c > 0 && image.get(r, c - 1);
      correct = correct && machine.get(45 + r, c) == (img && !left);
    }
  }
  std::cout << "\nedge map correct: " << std::boolalpha << correct
            << "; ECC consistent: " << machine.ecc_consistent()
            << "; MEM cycles " << machine.counters().mem_cycles
            << ", critical ops " << machine.counters().critical_ops << '\n';
  return correct && machine.ecc_consistent() && repair.corrected_data == 1 ? 0 : 1;
}
