#pragma once
// In-memory span recorder for the traced run.
//
// A span is a name, a start and an end (microseconds since the tracer was
// made), the span that caused it, and the job it belongs to.  Spans are kept
// in memory and written out once, when the run ends.  Self time is a span's
// duration minus the part of it its children cover.  The benchmark records
// spans around its own calls into each layer; nothing inside the program is
// instrumented.

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  std::int32_t parent = -1;
  std::uint64_t job = 0;
  double duration_us() const { return end_us - start_us; }
};

class Tracer {
 public:
  using Id = std::int32_t;
  static constexpr Id kNone = -1;

  Id begin(std::string name, std::uint64_t job, Id parent = kNone) {
    return record(std::move(name), job, parent, Clock::now(), Clock::time_point{});
  }
  void end(Id id) { spans_[static_cast<std::size_t>(id)].end_us = at_us(Clock::now()); }
  /// A span timed by the caller; an empty `end` leaves it open for end().
  Id record(std::string name, std::uint64_t job, Id parent, Clock::time_point start,
            Clock::time_point end) {
    spans_.push_back(Span{std::move(name), at_us(start),
                          end == Clock::time_point{} ? 0.0 : at_us(end), parent, job});
    return static_cast<Id>(spans_.size() - 1);
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Self time of every span, indexed like spans().
  std::vector<double> self_us() const;
  /// Durations of every span called `name`, in recording order.
  std::vector<double> durations_us(const std::string& name) const;
  /// Writes every span, with its self time, as one JSON document.
  void write_json(const std::string& path) const;

 private:
  double at_us(Clock::time_point t) const { return us_between(origin_, t); }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction; a null tracer
/// records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, std::uint64_t job, Tracer::Id parent = Tracer::kNone)
      : tracer_(tracer), id_(tracer ? tracer->begin(std::move(name), job, parent) : Tracer::kNone) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  Tracer::Id id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  Tracer::Id id_;
};

}  // namespace perfbench
