#include "trace.hpp"

#include <fstream>

namespace perfbench {

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

Tracer::Id Tracer::open(const char* name, Id parent, std::uint64_t request) {
  if (!enabled_) return kNone;
  const std::int64_t start = now_ns();
  std::lock_guard lock(mutex_);
  spans_.push_back(Span{name, parent, request, start, -1});
  return static_cast<Id>(spans_.size() - 1);
}

void Tracer::close(Id id) {
  if (id == kNone) return;
  const std::int64_t end = now_ns();
  std::lock_guard lock(mutex_);
  spans_[id].end_ns = end;
}

Tracer::Totals Tracer::totals(std::string_view name) const {
  std::lock_guard lock(mutex_);
  Totals totals;
  for (const Span& span : spans_) {
    if (span.end_ns < 0 || name != span.name) continue;
    ++totals.count;
    totals.seconds += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  }
  return totals;
}

double Tracer::child_coverage(std::string_view name) const {
  std::lock_guard lock(mutex_);
  double parents = 0.0;
  double children = 0.0;
  for (const Span& span : spans_) {
    if (span.end_ns < 0) continue;
    const auto duration = static_cast<double>(span.end_ns - span.start_ns);
    if (name == span.name) parents += duration;
    if (span.parent != kNone && name == spans_[span.parent].name) {
      children += duration;
    }
  }
  return parents > 0.0 ? children / parents : 0.0;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard lock(mutex_);
  out << "id\tname\tparent\trequest\tstart_ns\tend_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << i << '\t' << span.name << '\t';
    if (span.parent == kNone) {
      out << '-';
    } else {
      out << span.parent;
    }
    out << '\t' << span.request << '\t' << span.start_ns << '\t'
        << span.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
