#include "tracer.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "json/json.hpp"

namespace perfbench {

std::vector<double> Tracer::self_us() const {
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent >= 0) children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<double, double>> cover;
    for (std::size_t c : children[i])
      cover.emplace_back(std::max(span.start_us, spans_[c].start_us),
                         std::min(span.end_us, spans_[c].end_us));
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double reach = span.start_us;
    for (const auto& [lo, hi] : cover) {
      const double from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    self[i] = span.duration_us() - covered;
  }
  return self;
}

std::vector<double> Tracer::durations_us(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_)
    if (span.name == name) out.push_back(span.duration_us());
  return out;
}

void Tracer::write_json(const std::string& path) const {
  const std::vector<double> self = self_us();
  quml::json::Array rows;
  rows.reserve(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    quml::json::Value row = quml::json::Value::object();
    row.set("name", span.name);
    row.set("start_us", span.start_us);
    row.set("end_us", span.end_us);
    row.set("self_us", self[i]);
    row.set("parent", static_cast<std::int64_t>(span.parent));
    row.set("job", span.job);
    rows.push_back(std::move(row));
  }
  quml::json::Value doc = quml::json::Value::object();
  doc.set("spans", quml::json::Value(std::move(rows)));
  std::ofstream out(path);
  out << quml::json::dump(doc) << "\n";
  if (!out) throw std::runtime_error("cannot write spans to " + path);
}

}  // namespace perfbench
