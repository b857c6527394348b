#include "anneal/ising.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "util/errors.hpp"

namespace quml::anneal {

IsingModel::IsingModel(int num_spins) {
  if (num_spins < 0) throw ValidationError("negative spin count");
  h.assign(static_cast<std::size_t>(num_spins), 0.0);
  adjacency.assign(static_cast<std::size_t>(num_spins), {});
}

void IsingModel::add_coupling(int i, int j, double value) {
  if (i == j) throw ValidationError("Ising coupling requires distinct spins");
  if (i < 0 || j < 0 || i >= num_spins() || j >= num_spins())
    throw ValidationError("Ising coupling index out of range");
  if (i > j) std::swap(i, j);
  // A duplicate shows up in spin i's neighbour list, O(degree); only then
  // is the coupling list searched.
  auto& nbrs_i = adjacency[static_cast<std::size_t>(i)];
  const auto hit = std::find_if(nbrs_i.begin(), nbrs_i.end(),
                                [j](const std::pair<int, double>& e) { return e.first == j; });
  if (hit != nbrs_i.end()) {
    hit->second += value;
    for (auto& [nbr, w] : adjacency[static_cast<std::size_t>(j)])
      if (nbr == i) w += value;
    for (auto& [a, b, v] : couplings)
      if (a == i && b == j) v += value;
    return;
  }
  couplings.emplace_back(i, j, value);
  adjacency[static_cast<std::size_t>(i)].emplace_back(j, value);
  adjacency[static_cast<std::size_t>(j)].emplace_back(i, value);
}

void IsingModel::set_field(int i, double value) {
  if (i < 0 || i >= num_spins()) throw ValidationError("field index out of range");
  h[static_cast<std::size_t>(i)] = value;
}

double IsingModel::energy(const Spins& spins) const {
  if (static_cast<int>(spins.size()) != num_spins())
    throw ValidationError("spin vector size mismatch");
  double e = 0.0;
  for (int i = 0; i < num_spins(); ++i) e += h[static_cast<std::size_t>(i)] * spins[static_cast<std::size_t>(i)];
  for (const auto& [i, j, v] : couplings)
    e += v * spins[static_cast<std::size_t>(i)] * spins[static_cast<std::size_t>(j)];
  return e;
}

double IsingModel::flip_delta(const Spins& spins, int i) const {
  double local = h[static_cast<std::size_t>(i)];
  for (const auto& [j, v] : adjacency[static_cast<std::size_t>(i)])
    local += v * spins[static_cast<std::size_t>(j)];
  return -2.0 * spins[static_cast<std::size_t>(i)] * local;
}

double IsingModel::max_abs_field() const {
  double max_field = 0.0;
  for (int i = 0; i < num_spins(); ++i) {
    double field = std::abs(h[static_cast<std::size_t>(i)]);
    for (const auto& [_, v] : adjacency[static_cast<std::size_t>(i)]) field += std::abs(v);
    max_field = std::max(max_field, field);
  }
  return max_field;
}

double IsingModel::min_nonzero_field() const {
  double min_field = 0.0;
  bool found = false;
  for (int i = 0; i < num_spins(); ++i) {
    double field = std::abs(h[static_cast<std::size_t>(i)]);
    for (const auto& [_, v] : adjacency[static_cast<std::size_t>(i)]) field += std::abs(v);
    if (field > 0.0 && (!found || field < min_field)) {
      min_field = field;
      found = true;
    }
  }
  return found ? min_field : 1.0;
}

IsingModel IsingModel::from_qubo(const QuboModel& qubo, double* offset) {
  IsingModel ising(qubo.num_vars());
  double constant = 0.0;
  std::vector<double> fields(static_cast<std::size_t>(qubo.num_vars()), 0.0);
  for (const auto& [i, j, q] : qubo.terms) {
    if (i == j) {
      // Q_ii x_i with x = (s+1)/2 -> (Q_ii/2) s_i + Q_ii/2.
      fields[static_cast<std::size_t>(i)] += q / 2.0;
      constant += q / 2.0;
    } else {
      // Q_ij x_i x_j -> (Q_ij/4)(s_i s_j + s_i + s_j + 1).
      ising.add_coupling(i, j, q / 4.0);
      fields[static_cast<std::size_t>(i)] += q / 4.0;
      fields[static_cast<std::size_t>(j)] += q / 4.0;
      constant += q / 4.0;
    }
  }
  for (int i = 0; i < qubo.num_vars(); ++i) ising.set_field(i, fields[static_cast<std::size_t>(i)]);
  if (offset) *offset = constant;
  return ising;
}

json::Value IsingModel::to_json() const {
  json::Object o;
  o.emplace_back("num_spins", json::Value(static_cast<std::int64_t>(num_spins())));
  json::Array fields;
  for (const double v : h) fields.emplace_back(v);
  o.emplace_back("h", json::Value(std::move(fields)));
  json::Array edges;
  for (const auto& [i, j, v] : couplings) {
    json::Array edge;
    edge.emplace_back(static_cast<std::int64_t>(i));
    edge.emplace_back(static_cast<std::int64_t>(j));
    edge.emplace_back(v);
    edges.emplace_back(std::move(edge));
  }
  o.emplace_back("J", json::Value(std::move(edges)));
  return json::Value(std::move(o));
}

IsingModel IsingModel::from_json(const json::Value& doc) {
  const int n = static_cast<int>(doc.at("num_spins").as_int());
  IsingModel model(n);
  const json::Array& fields = doc.at("h").as_array();
  if (static_cast<int>(fields.size()) != n) throw ValidationError("h length mismatch");
  for (int i = 0; i < n; ++i) model.set_field(i, fields[static_cast<std::size_t>(i)].as_double());
  for (const auto& edge : doc.at("J").as_array())
    model.add_coupling(static_cast<int>(edge[0].as_int()), static_cast<int>(edge[1].as_int()),
                       edge[2].as_double());
  return model;
}

QuboModel::QuboModel(int num_vars) : n(num_vars) {
  if (num_vars < 0) throw ValidationError("negative variable count");
}

void QuboModel::add(int i, int j, double value) {
  if (i < 0 || j < 0 || i >= n || j >= n) throw ValidationError("QUBO index out of range");
  if (i > j) std::swap(i, j);
  for (auto& [a, b, v] : terms) {
    if (a == i && b == j) {
      v += value;
      return;
    }
  }
  terms.emplace_back(i, j, value);
}

double QuboModel::energy(const std::vector<std::int8_t>& x) const {
  if (static_cast<int>(x.size()) != n) throw ValidationError("binary vector size mismatch");
  double e = 0.0;
  for (const auto& [i, j, v] : terms)
    e += v * x[static_cast<std::size_t>(i)] * x[static_cast<std::size_t>(j)];
  return e;
}

QuboModel QuboModel::from_ising(const IsingModel& ising, double* offset) {
  QuboModel qubo(ising.num_spins());
  double constant = 0.0;
  // s = 2x - 1: h_i s_i -> 2 h_i x_i - h_i;
  // J_ij s_i s_j -> 4 J_ij x_i x_j - 2 J_ij x_i - 2 J_ij x_j + J_ij.
  for (int i = 0; i < ising.num_spins(); ++i) {
    const double hi = ising.h[static_cast<std::size_t>(i)];
    if (hi != 0.0) qubo.add(i, i, 2.0 * hi);
    constant -= hi;
  }
  for (const auto& [i, j, v] : ising.couplings) {
    qubo.add(i, j, 4.0 * v);
    qubo.add(i, i, -2.0 * v);
    qubo.add(j, j, -2.0 * v);
    constant += v;
  }
  if (offset) *offset = constant;
  return qubo;
}

}  // namespace quml::anneal
