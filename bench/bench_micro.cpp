// Engineering micro-benchmarks (google-benchmark): GEMM/conv throughput per
// device (naive vs blocked vs sparse at several mask densities), mask
// operations, and the two aggregation rules (the DESIGN.md §4.2
// counting-vs-strict-intersection ablation at the per-op level).
//
// The per-device GEMM matrix is the perf-trajectory record for the kernel layer;
// CI runs it as
//   ./bench_micro --benchmark_filter='GemmBackend|ConvForward' \
//       --benchmark_out=BENCH_gemm.json --benchmark_out_format=json
// and uploads BENCH_gemm.json, so regressions show up run over run.
#include <benchmark/benchmark.h>

#include "core/aggregate.h"
#include "nn/conv2d.h"
#include "nn/model_zoo.h"
#include "pruning/unstructured.h"
#include "tensor/backend.h"
#include "tensor/device.h"
#include "util/rng.h"

namespace subfed {
namespace {

const char* const kBackendNames[] = {"naive", "blocked", "sparse"};

/// A [n×n] matrix with `density_pct`% nonzeros — pruning masks make weights
/// exact zeros, which is what the sparse device keys on.
std::vector<float> masked_matrix(Rng& rng, std::size_t size, int density_pct) {
  std::vector<float> out(size);
  for (auto& x : out) {
    x = rng.bernoulli(density_pct / 100.0) ? static_cast<float>(rng.normal()) : 0.0f;
  }
  return out;
}

void BM_Gemm(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<float> a(n * n), b(n * n), c(n * n);
  for (auto& x : a) x = static_cast<float>(rng.normal());
  for (auto& x : b) x = static_cast<float>(rng.normal());
  for (auto _ : state) {
    gemm(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128);

/// Sets math_threads for one benchmark's scope and restores it afterwards.
class MathThreadsScope {
 public:
  explicit MathThreadsScope(std::size_t n) : saved_(math_threads()) { set_math_threads(n); }
  ~MathThreadsScope() { set_math_threads(saved_); }
  MathThreadsScope(const MathThreadsScope&) = delete;
  MathThreadsScope& operator=(const MathThreadsScope&) = delete;

 private:
  std::size_t saved_;
};

/// args: {size, device index, weight density %}, through Device::gemm with
/// no weight hint (the sparse device scans A per call). items/sec is
/// dense-equiv FLOPs, so "sparse at 20%" reads directly against "blocked at
/// 100%". Runs single-threaded, as BENCH_gemm's kernel ratios were measured:
/// the blocked kernel fans out over row panels and the CSR kernel gains less,
/// so the sparse-vs-blocked ratio would otherwise depend on the core count.
void BM_GemmBackend(benchmark::State& state) {
  const MathThreadsScope single_threaded(1);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Device& dev = get_device(kBackendNames[state.range(1)]);
  const int density_pct = static_cast<int>(state.range(2));
  Rng rng(1);
  std::vector<float> a = masked_matrix(rng, n * n, density_pct);
  std::vector<float> b(n * n), c(n * n);
  for (auto& x : b) x = static_cast<float>(rng.normal());
  for (auto _ : state) {
    dev.gemm(GemmOp::kNN, a.data(), b.data(), c.data(), n, n, n, /*accumulate=*/false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetLabel(dev.name() + "/d" + std::to_string(density_pct));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 * n * n * n);
}
BENCHMARK(BM_GemmBackend)
    // Dense: the naive→blocked headline (acceptance: blocked ≥ 3× at 128³).
    ->Args({128, 0, 100})
    ->Args({128, 1, 100})
    ->Args({128, 2, 100})
    ->Args({256, 0, 100})
    ->Args({256, 1, 100})
    // Masked weights: dense blocked vs sparse CSR across the pruning range.
    ->Args({128, 1, 20})
    ->Args({128, 2, 20})
    ->Args({128, 2, 10})
    ->Args({128, 2, 5})
    ->Args({256, 1, 10})
    ->Args({256, 2, 10});

void BM_LeNetForward(benchmark::State& state) {
  Rng rng(2);
  Model model = ModelSpec::lenet5(10).build_init(rng);
  Tensor batch({10, 3, 32, 32});
  batch.fill_normal(rng, 0.0f, 1.0f);
  for (auto _ : state) {
    Tensor out = model.forward(batch, /*train=*/false);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10);
}
BENCHMARK(BM_LeNetForward);

/// args: {device index, weight density %} — whole-model eval forward through
/// the batched-im2col conv path on each device.
void BM_ConvForwardBackend(benchmark::State& state) {
  Rng rng(2);
  ModelSpec spec = ModelSpec::lenet5(10);
  spec.backend = kBackendNames[state.range(0)];
  Model model = spec.build_init(rng);
  const int density_pct = static_cast<int>(state.range(1));
  if (density_pct < 100) {
    Rng mask_rng(3);
    for (Parameter* p : model.parameters()) {
      if (!p->prunable) continue;
      for (std::size_t i = 0; i < p->value.numel(); ++i) {
        if (!mask_rng.bernoulli(density_pct / 100.0)) p->value[i] = 0.0f;
      }
    }
  }
  Tensor batch({10, 3, 32, 32});
  batch.fill_normal(rng, 0.0f, 1.0f);
  for (auto _ : state) {
    Tensor out = model.forward(batch, /*train=*/false);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(std::string(spec.backend) + "/d" + std::to_string(density_pct));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10);
}
BENCHMARK(BM_ConvForwardBackend)
    ->Args({0, 100})
    ->Args({1, 100})
    ->Args({2, 100})
    ->Args({1, 15})
    ->Args({2, 15});

void BM_MagnitudeMaskDerivation(benchmark::State& state) {
  Rng rng(3);
  Model model = ModelSpec::lenet5(10).build_init(rng);
  ModelMask mask = ModelMask::ones_like(model, MaskScope::kAllPrunable);
  for (auto _ : state) {
    ModelMask next = derive_magnitude_mask(model, mask, 0.5);
    benchmark::DoNotOptimize(&next);
  }
}
BENCHMARK(BM_MagnitudeMaskDerivation);

void BM_SubFedAvgAggregate(benchmark::State& state) {
  const std::size_t clients = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  Model model = ModelSpec::lenet5(10).build_init(rng);
  const StateDict global = model.state();

  std::vector<ClientUpdate> updates(clients);
  for (std::size_t k = 0; k < clients; ++k) {
    Rng crng = rng.split("client", k);
    Model m = ModelSpec::lenet5(10).build_init(crng);
    ModelMask mask = ModelMask::ones_like(m, MaskScope::kAllPrunable);
    mask = derive_magnitude_mask(m, mask, 0.5);
    updates[k] = {m.state(), mask, 500};
  }
  const bool strict = state.range(1) != 0;
  for (auto _ : state) {
    StateDict out = strict ? sub_fedavg_aggregate_strict(updates, global)
                           : sub_fedavg_aggregate(updates, global);
    benchmark::DoNotOptimize(&out);
  }
}
BENCHMARK(BM_SubFedAvgAggregate)
    ->Args({5, 0})
    ->Args({10, 0})
    ->Args({10, 1});

}  // namespace
}  // namespace subfed

BENCHMARK_MAIN();
