// Second property-sweep suite: quantization error laws, driver scheduling
// invariants, and aggregation algebra under mixed sparsity.
#include <gtest/gtest.h>

#include <cmath>

#include "comm/channel.h"
#include "core/aggregate.h"
#include "fl/driver.h"
#include "fl/standalone.h"
#include "nn/model_zoo.h"
#include "pruning/unstructured.h"
#include "util/logging.h"
#include "util/rng.h"

namespace subfed {
namespace {

// ---------- Quantization error scales with value magnitude -------------------

class QuantScaleSweep : public ::testing::TestWithParam<double> {};

TEST_P(QuantScaleSweep, Int8ErrorProportionalToRange) {
  const double scale = GetParam();
  Rng rng(static_cast<std::uint64_t>(scale * 100) + 1);
  StateDict state;
  Tensor t({1024});
  t.fill_normal(rng, 0.0f, static_cast<float>(scale));
  state.add("w", t);

  const StateDict back = decode_payload(encode_payload(state, nullptr, QuantCodec::kInt8));
  const float bound = t.abs_max() / 127.0f * 0.51f + 1e-7f;
  double max_err = 0.0;
  for (std::size_t i = 0; i < t.numel(); ++i) {
    max_err = std::max(max_err, static_cast<double>(std::fabs(back[0].second[i] - t[i])));
  }
  EXPECT_LE(max_err, bound);
  // Error really does grow with the range (not a constant-precision codec).
  EXPECT_GE(bound, scale / 127.0 * 0.3);
}

TEST_P(QuantScaleSweep, Fp16RelativeErrorScaleFree) {
  const double scale = GetParam();
  Rng rng(static_cast<std::uint64_t>(scale * 100) + 2);
  StateDict state;
  Tensor t({1024});
  t.fill_normal(rng, 0.0f, static_cast<float>(scale));
  state.add("w", t);

  const StateDict back = decode_payload(encode_payload(state, nullptr, QuantCodec::kFp16));
  for (std::size_t i = 0; i < t.numel(); ++i) {
    const float v = t[i];
    // Half precision: ~2^-11 relative error, plus a subnormal floor.
    EXPECT_NEAR(back[0].second[i], v, std::max(6.2e-5f, std::fabs(v) * 1.0e-3f));
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, QuantScaleSweep, ::testing::Values(0.01, 0.1, 1.0, 10.0));

// ---------- Driver scheduling invariants -------------------------------------

class DriverSweep : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(DriverSweep, CheckpointCountAndFinalEvalAlwaysPresent) {
  set_log_level(LogLevel::kWarn);
  const auto [rounds, sample_rate] = GetParam();

  static FederatedData data(DatasetSpec::mnist(), [] {
    FederatedDataConfig config;
    config.partition = {5, 2, 10};
    config.test_per_class = 3;
    config.seed = 91;
    return config;
  }());
  FlContext ctx;
  ctx.data = &data;
  ctx.spec = ModelSpec::cnn5(10);
  ctx.train = {1, 10};
  ctx.seed = 91;

  Standalone alg(ctx);
  DriverConfig driver;
  driver.rounds = static_cast<std::size_t>(rounds);
  driver.sample_rate = sample_rate;
  driver.eval_every = 2;
  driver.seed = 91;
  const RunResult result = run_federation(alg, driver);

  // Checkpoints at every 2nd round plus always the final round.
  ASSERT_FALSE(result.curve.empty());
  EXPECT_EQ(result.curve.back().round, static_cast<std::size_t>(rounds));
  const std::size_t expected =
      static_cast<std::size_t>(rounds) / 2 + (rounds % 2 == 0 ? 0 : 1);
  EXPECT_EQ(result.curve.size(), expected);
  // Per-client accuracies populated and bounded.
  EXPECT_EQ(result.final_per_client.size(), 5u);
  for (const double a : result.final_per_client) {
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, DriverSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3, 5),
                                            ::testing::Values(0.2, 0.6, 1.0)));

// ---------- Aggregation algebra under mixed sparsity -------------------------

class MixedSparsityAggregate : public ::testing::TestWithParam<std::tuple<double, double>> {
};

TEST_P(MixedSparsityAggregate, IdenticalUpdatesAreFixedPoint) {
  // Aggregating N copies of the same masked update must return exactly that
  // update on kept entries and the previous global elsewhere — for any
  // sparsity mix.
  const auto [sparsity_a, sparsity_b] = GetParam();
  Rng rng(static_cast<std::uint64_t>(sparsity_a * 100 + sparsity_b * 10) + 5);
  Model m = ModelSpec::cnn5(10).build_init(rng);
  const StateDict prev = m.state();

  ModelMask mask = ModelMask::ones_like(m, MaskScope::kAllPrunable);
  mask = derive_magnitude_mask(m, mask, sparsity_a);
  mask.apply_to_weights(m);
  ClientUpdate update{m.state(), mask, 50};

  std::vector<ClientUpdate> updates(3, update);
  const StateDict merged = sub_fedavg_aggregate(updates, prev);
  for (std::size_t e = 0; e < merged.size(); ++e) {
    const auto& [name, tensor] = merged[e];
    const Tensor* mt = mask.find(name);
    for (std::size_t i = 0; i < tensor.numel(); ++i) {
      if (mt != nullptr && (*mt)[i] == 0.0f) {
        EXPECT_EQ(tensor[i], prev[e].second[i]) << name;
      } else {
        EXPECT_NEAR(tensor[i], update.state[e].second[i], 1e-6f) << name;
      }
    }
  }
}

TEST_P(MixedSparsityAggregate, CountingEqualsStrictWhenMasksAgree) {
  const auto [sparsity_a, sparsity_b] = GetParam();
  (void)sparsity_b;
  Rng rng(static_cast<std::uint64_t>(sparsity_a * 1000) + 9);
  Model m = ModelSpec::cnn5(10).build_init(rng);
  const StateDict prev = m.state();

  ModelMask mask = ModelMask::ones_like(m, MaskScope::kAllPrunable);
  mask = derive_magnitude_mask(m, mask, sparsity_a);

  std::vector<ClientUpdate> updates;
  for (int k = 0; k < 3; ++k) {
    Rng crng = rng.split("client", k);
    Model cm = ModelSpec::cnn5(10).build_init(crng);
    mask.apply_to_weights(cm);
    updates.push_back({cm.state(), mask, 10});
  }
  const StateDict counting = sub_fedavg_aggregate(updates, prev);
  const StateDict strict = sub_fedavg_aggregate_strict(updates, prev);
  for (std::size_t e = 0; e < counting.size(); ++e) {
    EXPECT_EQ(counting[e].second, strict[e].second) << counting[e].first;
  }
}

INSTANTIATE_TEST_SUITE_P(Mixes, MixedSparsityAggregate,
                         ::testing::Combine(::testing::Values(0.2, 0.5, 0.8),
                                            ::testing::Values(0.3, 0.7)));

}  // namespace
}  // namespace subfed
