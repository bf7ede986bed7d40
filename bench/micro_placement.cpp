// Micro-benchmarks: full deployment engines end-to-end (the cost of one
// restoration run at paper scale).
#include <benchmark/benchmark.h>

#include "decor/decor.hpp"

namespace {

using namespace decor;

core::DecorParams paper_params(std::uint32_t k) {
  core::DecorParams p;  // defaults are the paper's setup
  p.k = k;
  return p;
}

void run_engine_bench(benchmark::State& state, core::Scheme scheme,
                      std::uint32_t k) {
  for (auto _ : state) {
    state.PauseTiming();
    common::Rng rng(42);
    core::Field field(paper_params(k), rng);
    field.deploy_random(200, rng);
    state.ResumeTiming();
    auto result = core::run_engine(scheme, field, rng);
    benchmark::DoNotOptimize(result);
  }
}

void BM_CentralizedGreedy(benchmark::State& state) {
  run_engine_bench(state, core::Scheme::kCentralized,
                   static_cast<std::uint32_t>(state.range(0)));
}
BENCHMARK(BM_CentralizedGreedy)->Arg(1)->Arg(3);

void BM_GridDecor(benchmark::State& state) {
  run_engine_bench(state, core::Scheme::kGrid,
                   static_cast<std::uint32_t>(state.range(0)));
}
BENCHMARK(BM_GridDecor)->Arg(1)->Arg(3);

void BM_VoronoiDecor(benchmark::State& state) {
  run_engine_bench(state, core::Scheme::kVoronoi,
                   static_cast<std::uint32_t>(state.range(0)));
}
BENCHMARK(BM_VoronoiDecor)->Arg(1)->Arg(3);

void BM_RandomPlacement(benchmark::State& state) {
  run_engine_bench(state, core::Scheme::kRandom,
                   static_cast<std::uint32_t>(state.range(0)));
}
BENCHMARK(BM_RandomPlacement)->Arg(1)->Arg(3);

// --- naive vs. indexed greedy at scale ---------------------------------------
//
// The ISSUE acceptance benchmark: a 500x500 field with 4096 approximation
// points and k=3 (the paper geometry scaled 5x, rs=20 / rc=40 keeps the
// disc/point density comparable). The naive variant rescans every
// uncovered candidate per placement (centralized_greedy_reference); the
// indexed variant maintains Equation-1 benefits incrementally in a
// BenefitIndex and pops the lazy max-heap.

core::DecorParams large_params() {
  core::DecorParams p;
  p.field = geom::make_rect(0, 0, 500, 500);
  p.num_points = 4096;
  p.k = 3;
  p.rs = 20.0;
  p.rc = 40.0;
  return p;
}

void run_large_greedy(benchmark::State& state, bool indexed) {
  for (auto _ : state) {
    state.PauseTiming();
    common::Rng rng(42);
    core::Field field(large_params(), rng);
    field.deploy_random(200, rng);
    state.ResumeTiming();
    auto result = indexed ? core::centralized_greedy(field)
                          : core::centralized_greedy_reference(field);
    benchmark::DoNotOptimize(result);
    state.counters["placements"] =
        static_cast<double>(result.placements.size());
  }
}

void BM_LargeGreedyNaive(benchmark::State& state) {
  run_large_greedy(state, false);
}
BENCHMARK(BM_LargeGreedyNaive)->Unit(benchmark::kMillisecond);

void BM_LargeGreedyIndexed(benchmark::State& state) {
  run_large_greedy(state, true);
}
BENCHMARK(BM_LargeGreedyIndexed)->Unit(benchmark::kMillisecond);

// The cold-start cost the indexed path pays once per run: the scatter
// rebuild of all 4096 benefits.
void BM_LargeIndexRebuild(benchmark::State& state) {
  common::Rng rng(42);
  core::Field field(large_params(), rng);
  field.deploy_random(200, rng);
  for (auto _ : state) {
    coverage::BenefitIndex index(field.map, field.params.k);
    benchmark::DoNotOptimize(index);
  }
}
BENCHMARK(BM_LargeIndexRebuild)->Unit(benchmark::kMillisecond);

void BM_AreaFailureRestoration(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    common::Rng rng(42);
    core::Field field(paper_params(3), rng);
    field.deploy_random(200, rng);
    core::grid_decor(field, rng);
    state.ResumeTiming();
    auto outcome = core::restore_after_area_failure(
        core::Scheme::kGrid, field, {{50, 50}, 24.0}, rng);
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_AreaFailureRestoration);

}  // namespace
