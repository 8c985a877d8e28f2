// pimecc benchmark -- in-memory span recorder for the traced run.
//
// A span is one call into a layer's public function, opened and closed by
// the benchmark's own code around that call: name, start, end, the span
// that caused it, and the request it belongs to.  Spans stay in memory
// and are written out once, when the run ends.  With tracing off every
// operation is a no-op that never reads the clock.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Tracer {
 public:
  using Id = std::uint32_t;
  static constexpr Id kNone = 0xffffffffu;

  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a span named `name` (a string literal) under `parent`; returns
  /// its id, or kNone when tracing is off.  Safe from any thread.
  Id open(const char* name, Id parent, std::uint64_t request);
  void close(Id id);

  /// Opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, Id parent = kNone,
          std::uint64_t request = 0)
        : tracer_(tracer), id_(tracer.open(name, parent, request)) {}
    ~Scope() { tracer_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] Id id() const noexcept { return id_; }

   private:
    Tracer& tracer_;
    Id id_;
  };

  /// Number of closed spans named `name` and their summed duration.
  struct Totals {
    std::size_t count = 0;
    double seconds = 0.0;
    [[nodiscard]] double mean_us() const {
      return count == 0 ? 0.0 : seconds * 1e6 / static_cast<double>(count);
    }
  };
  [[nodiscard]] Totals totals(std::string_view name) const;
  /// Share of the time inside spans named `name` that their direct child
  /// spans cover (children of one span never overlap in this benchmark).
  [[nodiscard]] double child_coverage(std::string_view name) const;

  /// Writes every span as tab-separated `id name parent request start_ns
  /// end_ns` lines, times relative to the tracer's construction.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    Id parent;
    std::uint64_t request;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

}  // namespace perfbench
