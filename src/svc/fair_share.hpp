#pragma once
// Weighted fair-share ordering for one ExecutionService backend queue.
//
// Stride scheduling over per-lane FIFOs: each lane carries a `pass` value;
// pop() serves the lane with the smallest pass and advances it by 1/weight,
// so over time lane throughput converges to the weight ratio regardless of
// arrival order or burstiness — a tenant flooding its lane cannot starve the
// others.  A lane exists only while it holds items, and a lane that (re)joins
// starts at the global virtual time (the largest pass served so far): an idle
// tenant does not accumulate credit it could later spend as a monopolizing
// burst.
//
// In-process callers all share the default lane "", where this degenerates
// to a plain FIFO.  The quml_serve daemon gives each tenant its own lane, so
// fair share is a priority factor inside the one queue a job crosses — per
// engine, since every backend queue orders its own lanes.
//
// A plain data structure with no locking: the owning queue's mutex guards it.

#include <algorithm>
#include <cstddef>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <utility>

namespace quml::svc {

template <class T>
class FairShareQueue {
 public:
  /// Enqueues `item` on `lane_name`.  `weight` is the lane's relative share
  /// of pops under contention, clamped below to a small positive value; the
  /// latest push sets it.
  void push(const std::string& lane_name, double weight, T item) {
    const auto [it, joined] = lanes_.try_emplace(lane_name);
    Lane& lane = it->second;
    if (joined) lane.pass = virtual_time_;  // idle lanes earn no backlog credit
    lane.weight = std::max(weight, kMinWeight);
    lane.fifo.push_back(std::move(item));
    ++size_;
  }

  /// The next item in fair-share order; nullopt when every lane is empty.
  std::optional<T> pop() {
    auto best = lanes_.end();
    for (auto it = lanes_.begin(); it != lanes_.end(); ++it) {
      // Strict < keeps ties deterministic: the lexicographically first lane
      // (map order) wins, so single-threaded tests can assert exact sequences.
      if (best == lanes_.end() || it->second.pass < best->second.pass) best = it;
    }
    if (best == lanes_.end()) return std::nullopt;
    Lane& lane = best->second;
    std::optional<T> item(std::move(lane.fifo.front()));
    lane.fifo.pop_front();
    --size_;
    lane.pass += 1.0 / lane.weight;
    virtual_time_ = std::max(virtual_time_, lane.pass);
    if (lane.fifo.empty()) lanes_.erase(best);
    return item;
  }

  /// Items queued on `lane` (the daemon's per-tenant admission bound input).
  std::size_t depth(const std::string& lane) const {
    const auto it = lanes_.find(lane);
    return it == lanes_.end() ? 0 : it->second.fifo.size();
  }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  static constexpr double kMinWeight = 1e-6;

  struct Lane {
    std::deque<T> fifo;
    double weight = 1.0;
    double pass = 0.0;
  };

  std::map<std::string, Lane> lanes_;  // non-empty lanes only
  double virtual_time_ = 0.0;
  std::size_t size_ = 0;
};

}  // namespace quml::svc
