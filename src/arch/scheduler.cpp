#include "arch/scheduler.hpp"

#include <algorithm>

namespace pimecc::arch {

std::uint64_t xor3_fold_levels(std::uint64_t count) noexcept {
  std::uint64_t levels = 0;
  while (count > 1) {
    // Each level groups triples; a final pair folds via an XOR3 with one
    // zero operand (without the special case, 2/3 + 2%3 == 2 never
    // converges).
    count = count == 2 ? 1 : count / 3 + count % 3;
    ++levels;
  }
  return levels;
}

std::uint64_t CalendarResource::reserve(std::uint64_t earliest) {
  // Hop the skip chain to the first free cycle >= earliest.  The invariant
  // busy_[t] = u  <=>  cycles [t, u) all taken guarantees no free cycle is
  // skipped, so the result equals linear probing's.
  std::uint64_t t = earliest;
  path_.clear();
  for (auto it = busy_.find(t); it != busy_.end(); it = busy_.find(t)) {
    path_.push_back(t);
    t = it->second;
  }
  busy_.emplace(t, t + 1);
  // Path compression: every chain entry walked now skips straight past t
  // (all cycles in between were already taken, and t just became so).
  for (const std::uint64_t u : path_) busy_[u] = t + 1;
  return t;
}

ProtocolScheduler::ProtocolScheduler(const ArchParams& params) : params_(params) {
  params_.validate();
  pc_free_.assign(params_.num_pcs, 0);
}

std::uint64_t ProtocolScheduler::mem_reserve_tracking_stalls(std::uint64_t earliest,
                                                             const char* label) {
  const std::uint64_t free_at = mem_.next_free();
  const std::uint64_t t = mem_.reserve(earliest);
  if (t > free_at) stats_.stall_cycles += t - free_at;
  ++stats_.mem_cycles;
  stats_.mem_last_end = t + 1;
  note_event_end(t + 1);
  record(t, 1, ScheduledEvent::Unit::kMem, label);
  return t;
}

std::uint64_t ProtocolScheduler::reserve_pc_pass(std::uint64_t earliest,
                                                 std::uint64_t span,
                                                 const char* label) {
  auto it = std::min_element(pc_free_.begin(), pc_free_.end());
  const std::uint64_t start = std::max(earliest, *it);
  *it = start + span;
  note_event_end(start + span);
  record(start, span, ScheduledEvent::Unit::kPc, label);
  return start;
}

std::uint64_t ProtocolScheduler::pc_pair_ready() const noexcept {
  if (pc_free_.size() < 2) return pc_free_.front();
  std::uint64_t first = ~std::uint64_t{0};
  std::uint64_t second = ~std::uint64_t{0};
  for (const std::uint64_t t : pc_free_) {
    if (t < first) {
      second = first;
      first = t;
    } else if (t < second) {
      second = t;
    }
  }
  return second;
}

std::uint64_t ProtocolScheduler::hazard_ready(CheckCellKey key) const {
  if (params_.hazard == HazardPolicy::kForward) return 0;
  const auto it = hazards_.find(key);
  return it == hazards_.end() ? 0 : it->second;
}

void ProtocolScheduler::note_hazard(CheckCellKey key, std::uint64_t ready) {
  if (params_.hazard == HazardPolicy::kStall) {
    auto [it, inserted] = hazards_.try_emplace(key, ready);
    if (!inserted) it->second = std::max(it->second, ready);
  }
}

void ProtocolScheduler::note_event_end(std::uint64_t end) {
  last_event_end_ = std::max(last_event_end_, end);
}

void ProtocolScheduler::schedule_input_check() {
  // m MAGIC-NOT copies of the spanned block-row into the CMEM.
  std::uint64_t last_copy_end = 0;
  for (std::size_t i = 0; i < params_.m; ++i) {
    const std::uint64_t t = mem_reserve_tracking_stalls(0, "check-copy");
    ++stats_.input_check_cycles;
    last_copy_end = t + 1;
  }
  // CMEM folds the m copied rows plus the stored parity with an XOR3 tree,
  // then compares syndromes to zero in the checking crossbar (2 cycles) and
  // the controller senses the flags (1 cycle).  This occupies one PC.
  const std::uint64_t levels = xor3_fold_levels(params_.m + 1);
  const std::uint64_t tree_span = levels * params_.xor3_cycles;
  const std::uint64_t tree_start =
      reserve_pc_pass(last_copy_end, tree_span, "check-fold");
  check_done_ = tree_start + tree_span + 2 + 1;
  note_event_end(check_done_);
}

std::uint64_t ProtocolScheduler::schedule_plain_op() {
  ++stats_.plain_ops;
  return mem_reserve_tracking_stalls(0, "op");
}

std::uint64_t ProtocolScheduler::schedule_critical_op(CheckCellKey key) {
  ++stats_.critical_ops;
  const std::uint64_t tc = params_.transfer_cycles;
  const std::uint64_t pass_span = params_.pc_occupancy_cycles();
  // Old-data transfer: needs MEM and both PC passes ready to receive, and
  // any in-flight update of the same check bits to have retired (kStall).
  // With >= 2 PCs the two axis passes run in parallel, so the op can start
  // once the *second*-soonest PC frees; with one PC the passes serialize.
  const std::uint64_t earliest_old =
      std::max(pc_pair_ready(), hazard_ready(key));
  const std::uint64_t t_old = mem_reserve_tracking_stalls(earliest_old, "xfer-old");
  // Check-bit read into the PCs via the connection unit (off MEM's path).
  const std::uint64_t t_cbx_read = cbx_.reserve(t_old + tc);
  record(t_cbx_read, 1, ScheduledEvent::Unit::kCbx, "read");
  // The critical gate itself; optionally gated on the input check.
  const std::uint64_t gate_earliest =
      params_.wait_check_before_critical
          ? std::max(t_old + tc, check_done_)
          : t_old + tc;
  const std::uint64_t t_gate =
      mem_reserve_tracking_stalls(gate_earliest, "critical-gate");
  // New-data transfer.
  const std::uint64_t t_new = mem_reserve_tracking_stalls(t_gate + 1, "xfer-new");
  // XOR3 starts once all three operands arrived.
  const std::uint64_t compute_start =
      std::max(t_new + tc, t_cbx_read + tc);
  const std::uint64_t compute_end = compute_start + params_.xor3_cycles;
  // Write-back through the connection unit.
  const std::uint64_t t_wb = cbx_.reserve(compute_end);
  record(t_wb, 1, ScheduledEvent::Unit::kCbx, "writeback");
  const std::uint64_t retire = t_wb + params_.writeback_cycles;
  // Both axis passes occupy PC windows ending at retirement.
  const std::uint64_t span = std::max(pass_span, retire - t_old);
  reserve_pc_pass(t_old, span, "update-lead");
  reserve_pc_pass(t_old, span, "update-counter");
  note_hazard(key, retire);
  note_event_end(retire);
  return t_gate;
}

std::uint64_t ProtocolScheduler::schedule_cancel_batch(
    const std::vector<CheckCellKey>& keys) {
  if (keys.empty()) return mem_.next_free();
  stats_.cancel_ops += keys.size();
  const std::uint64_t tc = params_.transfer_cycles;
  // Wait for any in-flight updates of the same check bits (kStall).
  std::uint64_t earliest = 0;
  for (const CheckCellKey key : keys) {
    earliest = std::max(earliest, hazard_ready(key));
  }
  // The PC pair must be free to receive the first transfer.
  earliest = std::max(earliest, pc_pair_ready());
  // One old-data line transfer per canceled cell.
  std::uint64_t first_transfer = 0;
  std::uint64_t last_transfer_end = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::uint64_t t =
        mem_reserve_tracking_stalls(i == 0 ? earliest : 0, "xfer-cancel");
    if (i == 0) first_transfer = t;
    last_transfer_end = t + tc;
  }
  // Stored check bits join the fold tree.
  const std::uint64_t t_cbx_read = cbx_.reserve(first_transfer + tc);
  record(t_cbx_read, 1, ScheduledEvent::Unit::kCbx, "read");
  // XOR3 fold of (B old lines + stored parity) inside the PC pair.
  const std::uint64_t levels = xor3_fold_levels(keys.size() + 1);
  const std::uint64_t compute_start =
      std::max(last_transfer_end, t_cbx_read + tc);
  const std::uint64_t compute_end =
      compute_start + levels * params_.xor3_cycles;
  const std::uint64_t t_wb = cbx_.reserve(compute_end);
  record(t_wb, 1, ScheduledEvent::Unit::kCbx, "writeback");
  const std::uint64_t retire = t_wb + params_.writeback_cycles;
  const std::uint64_t span = retire - first_transfer;
  reserve_pc_pass(first_transfer, span, "cancel-lead");
  reserve_pc_pass(first_transfer, span, "cancel-counter");
  for (const CheckCellKey key : keys) note_hazard(key, retire);
  note_event_end(retire);
  return first_transfer;
}

ScheduleStats ProtocolScheduler::finish() const {
  ScheduleStats out = stats_;
  out.makespan = last_event_end_;
  return out;
}

}  // namespace pimecc::arch
