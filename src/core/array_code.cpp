#include "core/array_code.hpp"

#include <array>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "util/simd.hpp"

namespace pimecc::ecc {

namespace {

/// Row word-pointer table for the dispatched kernels: rows
/// [row0, row0 + m) of `data`.  m <= diagword::kMaxM == 64.
std::array<const std::uint64_t*, diagword::kMaxM> row_ptrs(
    const util::BitMatrix& data, std::size_t row0, std::size_t m) {
  std::array<const std::uint64_t*, diagword::kMaxM> ptrs;
  const std::span<const util::BitVector> rows = data.rows_span();
  for (std::size_t r = 0; r < m; ++r) ptrs[r] = rows[row0 + r].words().data();
  return ptrs;
}

/// Accumulates the fresh per-block parity words of one block band (rows
/// [band_row0, band_row0 + m)): lead[bc]/cnt[bc] receive the leading and
/// counter parity of block column bc, counter already reflected into
/// diagonal order.  m <= diagword::kMaxM.  Dispatched (scalar/AVX2/AVX-512).
void accumulate_band(const util::BitMatrix& data, std::size_t band_row0,
                     std::size_t m, std::vector<std::uint64_t>& lead,
                     std::vector<std::uint64_t>& cnt) {
  const std::size_t bps = lead.size();
  const auto ptrs = row_ptrs(data, band_row0, m);
  util::simd::kernels().band_accumulate(ptrs.data(), m, bps, lead.data(),
                                        cnt.data());
  for (std::size_t bc = 0; bc < bps; ++bc) {
    cnt[bc] = diagword::reflect(cnt[bc], m);
  }
}

/// Fresh leading/counter parity words of the single block anchored at
/// (row0, col0), counter already reflected.  m <= diagword::kMaxM.
void accumulate_block(const util::BitMatrix& data, std::size_t row0,
                      std::size_t col0, std::size_t m, std::uint64_t& lead,
                      std::uint64_t& cnt) {
  const auto ptrs = row_ptrs(data, row0, m);
  util::simd::kernels().block_peel(ptrs.data(), m, col0, &lead, &cnt);
  cnt = diagword::reflect(cnt, m);
}

/// Folds one bit-serial DecodeResult into a ScrubReport.
void tally(ScrubReport& report, const DecodeResult& r) {
  ++report.blocks_checked;
  switch (r.status) {
    case DecodeStatus::kClean: ++report.clean; break;
    case DecodeStatus::kCorrectedData: ++report.corrected_data; break;
    case DecodeStatus::kCorrectedCheck: ++report.corrected_check; break;
    case DecodeStatus::kDetectedUncorrectable: ++report.uncorrectable; break;
  }
}

}  // namespace

ArrayCode::ArrayCode(std::size_t n, std::size_t m) : n_(n), codec_(m) {
  if (n == 0 || n % m != 0) {
    throw std::invalid_argument("ArrayCode: n must be a positive multiple of m");
  }
  blocks_.assign(block_count(), CheckBits(m));
}

std::size_t ArrayCode::flat_index(BlockIndex b) const {
  if (b.block_row >= blocks_per_side() || b.block_col >= blocks_per_side()) {
    throw std::out_of_range("ArrayCode: block index out of range");
  }
  return b.block_row * blocks_per_side() + b.block_col;
}

void ArrayCode::require_shape(const util::BitMatrix& data) const {
  if (data.rows() != n_ || data.cols() != n_) {
    throw std::invalid_argument("ArrayCode: data matrix must be n x n");
  }
}

const CheckBits& ArrayCode::check_bits(BlockIndex b) const {
  return blocks_[flat_index(b)];
}

CheckBits& ArrayCode::check_bits_mutable(BlockIndex b) {
  return blocks_[flat_index(b)];
}

void ArrayCode::encode_all(const util::BitMatrix& data) {
  require_shape(data);
  const std::size_t mm = m();
  const std::size_t bps = blocks_per_side();
  if (mm > diagword::kMaxM) {
    for (std::size_t br = 0; br < bps; ++br) {
      for (std::size_t bc = 0; bc < bps; ++bc) {
        blocks_[br * bps + bc] = codec_.encode(data, br * mm, bc * mm);
      }
    }
    return;
  }
  // Batch band path: each row of a block band is read once, its per-block
  // segments peeled and folded into all blocks of the band simultaneously.
  std::vector<std::uint64_t> lead(bps);
  std::vector<std::uint64_t> cnt(bps);
  for (std::size_t br = 0; br < bps; ++br) {
    accumulate_band(data, br * mm, mm, lead, cnt);
    for (std::size_t bc = 0; bc < bps; ++bc) {
      CheckBits& check = blocks_[br * bps + bc];
      check.leading.set_low_word(lead[bc]);
      check.counter.set_low_word(cnt[bc]);
    }
  }
}

void ArrayCode::apply_writes(const std::vector<CellWrite>& writes) {
  // Validate the whole batch before the first parity flip: a bad cell
  // mid-batch must not leave earlier writes half-applied.
  for (const CellWrite& w : writes) {
    if (w.r >= n_ || w.c >= n_) {
      throw std::out_of_range("ArrayCode::apply_writes: cell out of range");
    }
  }
  for (const CellWrite& w : writes) {
    CheckBits& check = blocks_[flat_index(block_of(w.r, w.c))];
    codec_.update_for_write(check, w.r % m(), w.c % m(), w.old_value, w.new_value);
  }
}

DecodeResult ArrayCode::check_block(util::BitMatrix& data, BlockIndex b) {
  require_shape(data);
  return codec_.check_and_correct(data, b.block_row * m(), b.block_col * m(),
                                  blocks_[flat_index(b)]);
}

ScrubReport ArrayCode::scrub(util::BitMatrix& data) {
  require_shape(data);
  ScrubReport report;
  const std::size_t mm = m();
  const std::size_t bps = blocks_per_side();
  if (mm > diagword::kMaxM) {
    for (std::size_t br = 0; br < bps; ++br) {
      for (std::size_t bc = 0; bc < bps; ++bc) {
        tally(report, check_block(data, {br, bc}));
      }
    }
    return report;
  }
  // Batch band path: fresh parities for all blocks of a band in one pass
  // over its rows, then per-block word-level syndrome classification
  // (blocks are disjoint, so correcting a data bit here cannot affect any
  // other block's already-computed parity).  Semantics identical to
  // check_block per block -- pinned by the differential suite.
  std::vector<std::uint64_t> lead(bps);
  std::vector<std::uint64_t> cnt(bps);
  for (std::size_t br = 0; br < bps; ++br) {
    accumulate_band(data, br * mm, mm, lead, cnt);
    for (std::size_t bc = 0; bc < bps; ++bc) {
      classify_and_repair(data, {br, bc}, lead[bc], cnt[bc], report);
    }
  }
  return report;
}

void ArrayCode::classify_and_repair(util::BitMatrix& data, BlockIndex b,
                                    std::uint64_t fresh_lead,
                                    std::uint64_t fresh_cnt, ScrubReport& report,
                                    BlockRepair* repair) {
  const std::size_t mm = m();
  CheckBits& stored = blocks_[b.block_row * blocks_per_side() + b.block_col];
  const std::uint64_t syn_lead = fresh_lead ^ stored.leading.low_word();
  const std::uint64_t syn_cnt = fresh_cnt ^ stored.counter.low_word();
  ++report.blocks_checked;
  if (syn_lead == 0 && syn_cnt == 0) {
    ++report.clean;
    if (repair) repair->status = DecodeStatus::kClean;
    return;
  }
  const int nl = std::popcount(syn_lead);
  const int nc = std::popcount(syn_cnt);
  if (nl == 1 && nc == 1) {
    const Cell cell = codec_.geometry().locate(
        {static_cast<std::size_t>(std::countr_zero(syn_lead)),
         static_cast<std::size_t>(std::countr_zero(syn_cnt))});
    data.flip(b.block_row * mm + cell.r, b.block_col * mm + cell.c);
    ++report.corrected_data;
    if (repair) {
      repair->status = DecodeStatus::kCorrectedData;
      repair->data_r = b.block_row * mm + cell.r;
      repair->data_c = b.block_col * mm + cell.c;
    }
  } else if (nl == 1 && nc == 0) {
    const auto index = static_cast<std::size_t>(std::countr_zero(syn_lead));
    stored.leading.flip(index);
    ++report.corrected_check;
    if (repair) {
      repair->status = DecodeStatus::kCorrectedCheck;
      repair->check_on_leading_axis = true;
      repair->check_index = index;
    }
  } else if (nl == 0 && nc == 1) {
    const auto index = static_cast<std::size_t>(std::countr_zero(syn_cnt));
    stored.counter.flip(index);
    ++report.corrected_check;
    if (repair) {
      repair->status = DecodeStatus::kCorrectedCheck;
      repair->check_on_leading_axis = false;
      repair->check_index = index;
    }
  } else {
    ++report.uncorrectable;
    if (repair) repair->status = DecodeStatus::kDetectedUncorrectable;
  }
}

BlockRepair ArrayCode::scrub_block(util::BitMatrix& data, BlockIndex b) {
  require_shape(data);
  const std::size_t mm = m();
  BlockRepair repair;
  if (mm > diagword::kMaxM) {
    // Bit-serial fallback via the per-block codec path; translate the
    // DecodeResult's block-relative coordinates to absolute ones.
    const DecodeResult r = check_block(data, b);
    repair.status = r.status;
    if (r.data_error) {
      repair.data_r = b.block_row * mm + r.data_error->r;
      repair.data_c = b.block_col * mm + r.data_error->c;
    }
    if (r.check_error) {
      repair.check_on_leading_axis = r.check_error->on_leading_axis;
      repair.check_index = r.check_error->index;
    }
    return repair;
  }
  (void)flat_index(b);  // bounds check before touching any state
  std::uint64_t lead = 0;
  std::uint64_t cnt = 0;
  accumulate_block(data, b.block_row * mm, b.block_col * mm, mm, lead, cnt);
  ScrubReport scratch;
  classify_and_repair(data, b, lead, cnt, scratch, &repair);
  return repair;
}

ScrubReport ArrayCode::scrub_band(util::BitMatrix& data, bool row_band,
                                  std::size_t band) {
  require_shape(data);
  const std::size_t bps = blocks_per_side();
  if (band >= bps) {
    throw std::out_of_range("ArrayCode::scrub_band: band out of range");
  }
  ScrubReport report;
  const std::size_t mm = m();
  if (mm > diagword::kMaxM) {
    for (std::size_t j = 0; j < bps; ++j) {
      const BlockIndex b = row_band ? BlockIndex{band, j} : BlockIndex{j, band};
      tally(report, check_block(data, b));
    }
    return report;
  }
  if (row_band) {
    std::vector<std::uint64_t> lead(bps);
    std::vector<std::uint64_t> cnt(bps);
    accumulate_band(data, band * mm, mm, lead, cnt);
    for (std::size_t bc = 0; bc < bps; ++bc) {
      classify_and_repair(data, {band, bc}, lead[bc], cnt[bc], report);
    }
  } else {
    for (std::size_t br = 0; br < bps; ++br) {
      std::uint64_t lead = 0;
      std::uint64_t cnt = 0;
      accumulate_block(data, br * mm, band * mm, mm, lead, cnt);
      classify_and_repair(data, {br, band}, lead, cnt, report);
    }
  }
  return report;
}

template <typename RowWords>
void ArrayCode::fold_band(const RowWords& row_words, std::size_t band) {
  const std::size_t mm = m();
  const std::size_t bps = blocks_per_side();
  if (band >= bps) {
    throw std::out_of_range("ArrayCode::fold_delta_band: band out of range");
  }
  CheckBits* const checks = blocks_.data() + band * bps;
  if (mm > diagword::kMaxM) {
    // Bit-serial fallback: one continuous-parity update per set delta bit
    // (bits past column n, in the last word's padding, are never read).
    const std::size_t words = (n_ + 63) / 64;
    const std::uint64_t tail = util::simd::low_mask(n_ - (words - 1) * 64);
    for (std::size_t r = 0; r < mm; ++r) {
      const std::uint64_t* const row = row_words(band * mm + r);
      for (std::size_t wi = 0; wi < words; ++wi) {
        std::uint64_t w = wi + 1 == words ? row[wi] & tail : row[wi];
        for (; w != 0; w &= w - 1) {
          const std::size_t c =
              wi * 64 + static_cast<std::size_t>(std::countr_zero(w));
          codec_.update_for_write(checks[c / mm], r, c % mm, false, true);
        }
      }
    }
    return;
  }
  std::array<const std::uint64_t*, diagword::kMaxM> ptrs;
  for (std::size_t r = 0; r < mm; ++r) ptrs[r] = row_words(band * mm + r);
  std::vector<std::uint64_t> lead(bps);
  std::vector<std::uint64_t> cnt(bps);
  util::simd::kernels().band_accumulate(ptrs.data(), mm, bps, lead.data(),
                                        cnt.data());
  // Both words stay within the low m bits, so XORing them straight into
  // word 0 keeps the padding invariant.
  for (std::size_t bc = 0; bc < bps; ++bc) {
    checks[bc].leading.words_mutable()[0] ^= lead[bc];
    checks[bc].counter.words_mutable()[0] ^= diagword::reflect(cnt[bc], mm);
  }
}

void ArrayCode::fold_delta_band(const util::BitMatrix& delta, std::size_t band) {
  require_shape(delta);
  const std::span<const util::BitVector> rows = delta.rows_span();
  fold_band([&](std::size_t r) { return rows[r].words().data(); }, band);
}

void ArrayCode::fold_delta_band(std::span<const std::uint64_t> delta,
                                std::size_t band) {
  const std::size_t words = (n_ + 63) / 64;
  if (delta.size() != n_ * words) {
    throw std::invalid_argument(
        "ArrayCode::fold_delta_band: delta must be n rows of ceil(n/64) words");
  }
  fold_band([&](std::size_t r) { return delta.data() + r * words; }, band);
}

bool ArrayCode::consistent_with(const util::BitMatrix& data) const {
  require_shape(data);
  const std::size_t mm = m();
  const std::size_t bps = blocks_per_side();
  if (mm > diagword::kMaxM) {
    for (std::size_t br = 0; br < bps; ++br) {
      for (std::size_t bc = 0; bc < bps; ++bc) {
        const CheckBits fresh = codec_.encode(data, br * mm, bc * mm);
        if (!(fresh == blocks_[br * bps + bc])) return false;
      }
    }
    return true;
  }
  std::vector<std::uint64_t> lead(bps);
  std::vector<std::uint64_t> cnt(bps);
  for (std::size_t br = 0; br < bps; ++br) {
    accumulate_band(data, br * mm, mm, lead, cnt);
    for (std::size_t bc = 0; bc < bps; ++bc) {
      const CheckBits& stored = blocks_[br * bps + bc];
      if (lead[bc] != stored.leading.low_word() ||
          cnt[bc] != stored.counter.low_word()) {
        return false;
      }
    }
  }
  return true;
}

ArrayCode ArrayCode::transposed() const {
  const std::size_t mm = m();
  const std::size_t bps = blocks_per_side();
  ArrayCode out(n_, mm);
  for (std::size_t br = 0; br < bps; ++br) {
    for (std::size_t bc = 0; bc < bps; ++bc) {
      const CheckBits& from = blocks_[br * bps + bc];
      CheckBits& to = out.blocks_[bc * bps + br];
      to.leading = from.leading;
      if (mm <= diagword::kMaxM) {
        to.counter.set_low_word(diagword::reflect(from.counter.low_word(), mm));
      } else {
        for (std::size_t d = 0; d < mm; ++d) {
          to.counter.set((mm - d) % mm, from.counter.get(d));
        }
      }
    }
  }
  return out;
}

bool ArrayCode::writes_touch_each_diagonal_once(
    const std::vector<CellWrite>& writes) const {
  // touched[block][axis][diag] as a flat bitmap.
  std::vector<bool> touched(block_count() * 2 * m(), false);
  for (const CellWrite& w : writes) {
    if (w.r >= n_ || w.c >= n_) return false;
    const std::size_t block = flat_index(block_of(w.r, w.c));
    const DiagonalPair d = codec_.geometry().diagonals(w.r % m(), w.c % m());
    const std::size_t lead_slot = (block * 2 + 0) * m() + d.leading;
    const std::size_t cnt_slot = (block * 2 + 1) * m() + d.counter;
    if (touched[lead_slot] || touched[cnt_slot]) return false;
    touched[lead_slot] = true;
    touched[cnt_slot] = true;
  }
  return true;
}

}  // namespace pimecc::ecc
