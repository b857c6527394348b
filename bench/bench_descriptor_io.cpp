// EXP-IO — the middle layer's own overhead (paper §7 minimality claim):
// parsing, validating, and packaging descriptor artifacts must be negligible
// next to execution.  The report prints artifact sizes; the benchmarks
// measure parse / validate / round-trip / package throughput.

#include <benchmark/benchmark.h>

#include "bench_common.hpp"

#include <cstdio>

#include "algolib/ising.hpp"
#include "algolib/qaoa.hpp"
#include "algolib/qft.hpp"
#include "core/bundle.hpp"
#include "schema/descriptor_schemas.hpp"

using namespace quml;

namespace {

json::Value sample_qdt() { return algolib::make_phase_register("reg_phase", 10).to_json(); }

json::Value sample_qod() {
  return algolib::qft_descriptor(algolib::make_phase_register("reg_phase", 10), {}).to_json();
}

json::Value sample_ctx() {
  core::Context ctx;
  ctx.exec.engine = "gate.aer_simulator";
  ctx.exec.samples = 4096;
  ctx.exec.seed = 42;
  ctx.exec.target.basis_gates = {"sx", "rz", "cx"};
  for (int q = 0; q + 1 < 10; ++q) ctx.exec.target.coupling_map.emplace_back(q, q + 1);
  core::QecPolicy qec;
  qec.distance = 7;
  qec.logical_gate_set = {"H", "S", "CNOT", "T", "MEASURE_Z"};
  ctx.qec = qec;
  return ctx.to_json();
}

core::JobBundle sample_bundle() {
  const core::QuantumDataType reg = algolib::make_ising_register("ising_vars", 4);
  core::RegisterSet regs;
  regs.add(reg);
  core::Context ctx;
  ctx.exec.engine = "gate.aer_simulator";
  return core::JobBundle::package(
      std::move(regs),
      algolib::qaoa_sequence(reg, algolib::Graph::cycle(4), algolib::ring_p1_angles()), ctx);
}

void report() {
  std::printf("=== EXP-IO: descriptor artifact sizes and layer overhead ===\n");
  std::printf("%-18s %-10s\n", "artifact", "bytes");
  std::printf("%-18s %-10zu\n", "QDT (Listing 2)", json::dump(sample_qdt()).size());
  std::printf("%-18s %-10zu\n", "QOD (Listing 3)", json::dump(sample_qod()).size());
  std::printf("%-18s %-10zu\n", "CTX (Listing 4+5)", json::dump(sample_ctx()).size());
  std::printf("%-18s %-10zu\n\n", "job.json (Fig. 2)", json::dump(sample_bundle().to_json()).size());
}

void BM_ParseQdt(benchmark::State& state) {
  const std::string text = json::dump(sample_qdt());
  for (auto _ : state) benchmark::DoNotOptimize(json::parse(text).size());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * text.size()));
}
BENCHMARK(BM_ParseQdt);

void BM_ValidateQdt(benchmark::State& state) {
  const json::Value doc = sample_qdt();
  for (auto _ : state) benchmark::DoNotOptimize(schema::qdt_validator().validate(doc).size());
}
BENCHMARK(BM_ValidateQdt);

void BM_ValidateCtx(benchmark::State& state) {
  const json::Value doc = sample_ctx();
  for (auto _ : state) benchmark::DoNotOptimize(schema::ctx_validator().validate(doc).size());
}
BENCHMARK(BM_ValidateCtx);

void BM_QdtFromJson(benchmark::State& state) {
  const json::Value doc = sample_qdt();
  for (auto _ : state)
    benchmark::DoNotOptimize(core::QuantumDataType::from_json(doc).width);
}
BENCHMARK(BM_QdtFromJson);

void BM_DecodeTyped(benchmark::State& state) {
  const core::QuantumDataType reg = algolib::make_phase_register("reg_phase", 10);
  for (auto _ : state) {
    for (std::uint64_t k = 0; k < 1024; ++k) benchmark::DoNotOptimize(reg.decode(k).real_value);
  }
  state.counters["decodes/s"] =
      benchmark::Counter(1024, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_DecodeTyped)->UseRealTime();

void BM_PackageBundle(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(sample_bundle().to_json().size());
}
BENCHMARK(BM_PackageBundle);

void BM_BundleRoundTrip(benchmark::State& state) {
  const std::string text = json::dump(sample_bundle().to_json());
  for (auto _ : state)
    benchmark::DoNotOptimize(core::JobBundle::from_json(json::parse(text)).registers.size());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * text.size()));
}
BENCHMARK(BM_BundleRoundTrip);

void BM_PrettyPrintBundle(benchmark::State& state) {
  const json::Value doc = sample_bundle().to_json();
  for (auto _ : state) benchmark::DoNotOptimize(json::dump_pretty(doc).size());
}
BENCHMARK(BM_PrettyPrintBundle);

}  // namespace

int main(int argc, char** argv) {
  return quml::bench::run(argc, argv, report);
}
