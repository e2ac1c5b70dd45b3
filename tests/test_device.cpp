// Device API: registry, execution-plan cache (incl. concurrency and
// mask-epoch invalidation), workspace leases, the input layer's
// parameter-only backward (bit-identical grads, one GEMM fewer), and the
// registered env-knob table (asserted against the README in both directions).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fl/experiment.h"
#include "nn/model_zoo.h"
#include "pruning/unstructured.h"
#include "tensor/device.h"
#include "util/check.h"
#include "util/env.h"
#include "util/rng.h"

namespace subfed {
namespace {

std::vector<float> random_vec(Rng& rng, std::size_t n) {
  std::vector<float> out(n);
  for (auto& x : out) x = static_cast<float>(rng.normal());
  return out;
}

/// Reference result through the naive oracle.
std::vector<float> naive_nn(const std::vector<float>& a, const std::vector<float>& b,
                            std::size_t m, std::size_t k, std::size_t n) {
  std::vector<float> c(m * n, 0.0f);
  get_device("naive").gemm(GemmOp::kNN, a.data(), b.data(), c.data(), m, k, n, false);
  return c;
}

void expect_close(const std::vector<float>& want, const float* got, double rel,
                  const std::string& label) {
  for (std::size_t i = 0; i < want.size(); ++i) {
    const double tol = rel * (1.0 + std::fabs(want[i]));
    ASSERT_NEAR(want[i], got[i], tol) << label << " at " << i;
  }
}

// ---------------------------------------------------------------------------
// Registry and aliases

TEST(DeviceRegistry, NamesResolveOntoSingletonDevices) {
  const Device& blocked = get_device("blocked");
  EXPECT_EQ(blocked.name(), "blocked");
  EXPECT_EQ(blocked.kind(), DeviceKind::kBlocked);
  EXPECT_EQ(&blocked, &get_device("blocked"));
  EXPECT_EQ(get_device("naive").kind(), DeviceKind::kNaive);
  EXPECT_EQ(get_device("sparse").kind(), DeviceKind::kSparse);

  EXPECT_TRUE(has_device("naive"));
  EXPECT_FALSE(has_device("cublas"));
  EXPECT_FALSE(has_device("blocked+fp16"));

  EXPECT_EQ(list_devices(), (std::vector<std::string>{"blocked", "naive", "sparse"}));
}

TEST(DeviceRegistry, UnknownNamesFailListingTheValidOnes) {
  try {
    get_device("cublas");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("naive | blocked | sparse"), std::string::npos)
        << e.what();
  }
}

TEST(DeviceRegistry, SpecValidationListsDevicesAndRejectsFp16) {
  ExperimentSpec bogus;
  bogus.clients = 4;
  bogus.shards_per_client = 2;
  bogus.shard = 20;
  bogus.test_per_class = 4;
  bogus.backend = "cublas";
  const FederatedData data(bogus.dataset_spec(), bogus.data_config());
  try {
    bogus.make_context(data);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    // The message enumerates the device registry.
    EXPECT_NE(what.find("naive"), std::string::npos) << what;
    EXPECT_NE(what.find("sparse"), std::string::npos) << what;
  }

  // GEMMs run in fp32 only: "fp16" is rejected like any unknown dtype, both
  // through the experiment spec and on a model spec built directly.
  bogus.backend = "auto";
  bogus.compute = "fp8";
  EXPECT_THROW(bogus.make_context(data), CheckError);
  bogus.compute = "fp16";
  EXPECT_THROW(bogus.make_context(data), CheckError);
  bogus.compute = "fp32";
  EXPECT_EQ(bogus.make_context(data).compute, "fp32");
  ModelSpec half = ModelSpec::cnn5(10);
  half.compute = "fp16";
  EXPECT_THROW(half.build(), CheckError);
}

// ---------------------------------------------------------------------------
// Execution-plan cache

TEST(PlanCache, SecondCallOnAShapeIsAHit) {
  const Device& dev = get_device("blocked");
  const std::size_t m = 37, k = 53, n = 29;  // unlikely to collide with other tests
  Rng rng(11);
  const std::vector<float> a = random_vec(rng, m * k);
  const std::vector<float> b = random_vec(rng, k * n);
  std::vector<float> c(m * n);

  const DeviceStats before = dev.stats();
  dev.gemm(GemmOp::kNN, a.data(), b.data(), c.data(), m, k, n, false);
  dev.gemm(GemmOp::kNN, a.data(), b.data(), c.data(), m, k, n, false);
  const DeviceStats after = dev.stats();

  EXPECT_GE(after.plan_misses, before.plan_misses + 1);
  EXPECT_GE(after.plan_hits, before.plan_hits + 1);
  EXPECT_GE(after.plan_entries, 1u);
  expect_close(naive_nn(a, b, m, k, n), c.data(), 1e-4, "plan-cache gemm");
}

TEST(PlanCache, ConcurrentCallersShareThePlanSafely) {
  const Device& dev = get_device("blocked");
  const std::size_t m = 41, k = 67, n = 31;
  Rng rng(12);
  const std::vector<float> a = random_vec(rng, m * k);
  const std::vector<float> b = random_vec(rng, k * n);
  const std::vector<float> want = naive_nn(a, b, m, k, n);

  constexpr std::size_t kThreads = 8, kCallsPerThread = 50;
  const DeviceStats before = dev.stats();
  std::vector<std::thread> workers;
  std::vector<int> ok(kThreads, 0);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<float> c(m * n);
      for (std::size_t i = 0; i < kCallsPerThread; ++i) {
        dev.gemm(GemmOp::kNN, a.data(), b.data(), c.data(), m, k, n, false);
      }
      for (std::size_t i = 0; i < want.size(); ++i) {
        if (std::fabs(c[i] - want[i]) > 1e-4 * (1.0 + std::fabs(want[i]))) return;
      }
      ok[t] = 1;
    });
  }
  for (auto& w : workers) w.join();
  for (std::size_t t = 0; t < kThreads; ++t) EXPECT_EQ(ok[t], 1) << "thread " << t;

  const DeviceStats after = dev.stats();
  const std::uint64_t calls = kThreads * kCallsPerThread;
  EXPECT_EQ(after.plan_hits + after.plan_misses, before.plan_hits + before.plan_misses + calls);
  // All but the racing first resolutions should hit.
  EXPECT_GE(after.plan_hits, before.plan_hits + calls - kThreads);
}

TEST(PlanCache, SparseDecisionIsCachedUntilTheMaskEpochMoves) {
  const Device& dev = get_device("sparse");
  const std::size_t m = 48, k = 64, n = 24;
  Rng rng(13);
  std::vector<float> w(m * k, 0.0f);
  for (auto& x : w) {
    if (rng.bernoulli(0.1)) x = static_cast<float>(rng.normal());
  }
  const std::vector<float> b = random_vec(rng, k * n);
  std::vector<float> c(m * n);
  const std::uint64_t uid = next_parameter_uid();

  const auto scans = [&] { return dev.stats().density_scans; };
  const std::uint64_t s0 = scans();
  dev.gemm(GemmOp::kNN, w.data(), b.data(), c.data(), m, k, n, false, WeightSide::kA, uid, 0);
  EXPECT_EQ(scans(), s0 + 1);
  expect_close(naive_nn(w, b, m, k, n), c.data(), 1e-4, "sparse planned gemm");

  // Same weight identity, same epoch: the O(weight) scan is skipped.
  dev.gemm(GemmOp::kNN, w.data(), b.data(), c.data(), m, k, n, false, WeightSide::kA, uid, 0);
  dev.gemm(GemmOp::kNN, w.data(), b.data(), c.data(), m, k, n, false, WeightSide::kA, uid, 0);
  EXPECT_EQ(scans(), s0 + 1);

  // A pruning pass bumps the epoch → exactly one rescan.
  dev.gemm(GemmOp::kNN, w.data(), b.data(), c.data(), m, k, n, false, WeightSide::kA, uid, 1);
  dev.gemm(GemmOp::kNN, w.data(), b.data(), c.data(), m, k, n, false, WeightSide::kA, uid, 1);
  EXPECT_EQ(scans(), s0 + 2);

  // Anonymous weights (uid 0) keep the legacy inspect-per-call behaviour.
  dev.gemm(GemmOp::kNN, w.data(), b.data(), c.data(), m, k, n, false, WeightSide::kA, 0, 0);
  dev.gemm(GemmOp::kNN, w.data(), b.data(), c.data(), m, k, n, false, WeightSide::kA, 0, 0);
  EXPECT_EQ(scans(), s0 + 4);
}

TEST(PlanCache, ParameterIdentityTracksPruningAndStateLoads) {
  Parameter p("w", Tensor({4, 4}), /*is_prunable=*/true);
  EXPECT_NE(p.uid, 0u);
  EXPECT_EQ(p.mask_epoch, 0u);

  // Copies are distinct tensors → fresh uid; assignment keeps identity but
  // advances the epoch (the incoming values may be masked differently).
  Parameter q = p;
  EXPECT_NE(q.uid, p.uid);
  const std::uint64_t q_uid = q.uid;
  q = p;
  EXPECT_EQ(q.uid, q_uid);
  EXPECT_EQ(q.mask_epoch, 1u);

  // Mask application bumps exactly the masked (prunable) parameters.
  Rng rng(14);
  Model model = ModelSpec::cnn5(10).build_init(rng);
  std::vector<std::uint64_t> before;
  for (Parameter* param : model.parameters()) before.push_back(param->mask_epoch);
  ModelMask mask = ModelMask::ones_like(model, MaskScope::kAllPrunable);
  mask = derive_magnitude_mask(model, mask, 0.5);
  mask.apply_to_weights(model);
  std::size_t i = 0, bumped = 0;
  for (Parameter* param : model.parameters()) {
    if (param->prunable) {
      EXPECT_EQ(param->mask_epoch, before[i] + 1) << param->name;
      ++bumped;
    } else {
      EXPECT_EQ(param->mask_epoch, before[i]) << param->name;
    }
    ++i;
  }
  EXPECT_GT(bumped, 0u);

  // load_state invalidates everything (a loaded global may be pruned).
  const StateDict snapshot = model.state();
  const std::uint64_t epoch0 = model.parameters().front()->mask_epoch;
  model.load_state(snapshot);
  EXPECT_EQ(model.parameters().front()->mask_epoch, epoch0 + 1);
}

// ---------------------------------------------------------------------------
// Workspace leases

TEST(Workspace, LeasesRecycleThroughTheDevicePool) {
  const Device& dev = get_device("naive");  // quiet pool, stats readable
  const DeviceStats before = dev.stats();
  float* first = nullptr;
  {
    WorkspaceLease lease = dev.lease(1000);
    ASSERT_TRUE(lease);
    EXPECT_GE(lease.size(), 1000u);
    first = lease.data();
    lease.data()[0] = 1.0f;  // writable
  }
  WorkspaceLease again = dev.lease(900);  // same size class (1024)
  EXPECT_EQ(again.data(), first);
  const DeviceStats after = dev.stats();
  EXPECT_EQ(after.workspace_leases, before.workspace_leases + 2);
  EXPECT_GE(after.workspace_reuses, before.workspace_reuses + 1);

  // Moves transfer ownership; reset is idempotent.
  WorkspaceLease moved = std::move(again);
  EXPECT_EQ(moved.data(), first);
  EXPECT_FALSE(again);  // NOLINT(bugprone-use-after-move)
  moved.reset();
  moved.reset();
  EXPECT_FALSE(moved);
}

// ---------------------------------------------------------------------------
// Eval and input-layer backward

/// A model with nonzero conv biases and moved BN running stats, so forward
/// and backward exercise every term (bias, γ/β/mean/var, relu).
Model warmed_model(const ModelSpec& spec, std::uint64_t seed) {
  Rng rng(seed);
  Model model = spec.build_init(rng);
  Rng brng = rng.split("bias");
  for (Parameter* p : model.parameters()) {
    if (p->name.find(".bias") != std::string::npos) p->value.fill_normal(brng, 0.0f, 0.1f);
  }
  Tensor warm({4, spec.in_channels, spec.input_hw, spec.input_hw});
  warm.fill_normal(brng, 0.0f, 1.0f);
  model.forward(warm, /*train=*/true);  // move BN running stats off their init
  return model;
}

TEST(EvalForward, BackwardAfterEvalStillFailsLoudly) {
  Model model = warmed_model(ModelSpec::cnn5(10), 23);
  Rng rng(24);
  Tensor batch({2, 1, 28, 28});
  batch.fill_normal(rng, 0.0f, 1.0f);
  const Tensor out = model.forward(batch, /*train=*/false);
  Tensor grad(out.shape());
  grad.fill_normal(rng, 0.0f, 1.0f);
  EXPECT_THROW(model.backward(grad), CheckError);
}

/// Runs one train step (forward + backward of a fixed dLoss/dLogits) and
/// returns the number of GEMMs it issued on `dev`. `full_reference` replaces
/// Model::backward with a loop calling every layer's full backward(), input
/// layer included.
std::uint64_t train_step_gemms(Model& model, const Device& dev, const Tensor& batch,
                               bool full_reference) {
  const DeviceStats before = dev.stats();
  const Tensor logits = model.forward(batch, /*train=*/true);
  Rng rng(26);
  Tensor grad(logits.shape());
  grad.fill_normal(rng, 0.0f, 1.0f);
  if (full_reference) {
    Tensor g = grad;
    for (std::size_t i = model.num_layers(); i-- > 0;) g = model.layer(i).backward(g);
  } else {
    model.backward(grad);
  }
  const DeviceStats after = dev.stats();
  return (after.plan_hits + after.plan_misses) - (before.plan_hits + before.plan_misses);
}

TEST(InputLayerBackward, SkippingDxLeavesEveryParameterGradientBitIdentical) {
  struct Net {
    const char* name;
    ModelSpec spec;
  };
  const Net nets[] = {{"cnn5", ModelSpec::cnn5(10)},
                      {"lenet5", ModelSpec::lenet5(10)},
                      {"cnn_deep", ModelSpec::cnn_deep(10)}};
  for (const Net& net : nets) {
    for (const char* backend : {"naive", "blocked", "sparse"}) {
      ModelSpec spec = net.spec;
      spec.backend = backend;
      const Device& dev = get_device(backend);
      Model model = warmed_model(spec, 25);
      Model reference = warmed_model(spec, 25);
      Rng rng(27);
      Tensor batch({3, spec.in_channels, spec.input_hw, spec.input_hw});
      batch.fill_normal(rng, 0.0f, 1.0f);

      const std::uint64_t skipped = train_step_gemms(model, dev, batch, false);
      const std::uint64_t full = train_step_gemms(reference, dev, batch, true);
      // The skipped work is exactly the input conv's dX GEMM.
      EXPECT_EQ(skipped + 1, full) << net.name << " on " << backend;
      if (std::string(net.name) == "lenet5") {
        // 2 conv + 3 fc layers: 5 forward GEMMs, 2 per layer backward, less
        // the input layer's dX.
        EXPECT_EQ(full, 15u) << backend;
        EXPECT_EQ(skipped, 14u) << backend;
      }

      const std::vector<Parameter*> got = model.parameters();
      const std::vector<Parameter*> want = reference.parameters();
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i]->grad.shape(), want[i]->grad.shape());
        EXPECT_EQ(std::memcmp(got[i]->grad.data(), want[i]->grad.data(),
                              got[i]->grad.numel() * sizeof(float)),
                  0)
            << net.name << " on " << backend << ": " << got[i]->name;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Env-knob registry

TEST(EnvKnobs, AccessorsRejectUnregisteredNames) {
  EXPECT_THROW(env_int("SUBFEDAVG_NOT_A_KNOB", 1), CheckError);
  EXPECT_THROW(env_string("TOTALLY_UNKNOWN", "x"), CheckError);
  // Registered names work, test-only ones stay out of the documented set.
  EXPECT_EQ(env_string("SUBFEDAVG_BACKEND", "blocked").empty(), false);
  bool found_test_knob = false;
  for (const EnvKnob& knob : list_env_knobs()) {
    if (std::string(knob.name) == "SUBFEDAVG_TEST_ENV") {
      found_test_knob = true;
      EXPECT_FALSE(knob.documented);
    }
  }
  EXPECT_TRUE(found_test_knob);
}

std::string unescape_cell(std::string cell) {
  std::size_t pos = 0;
  while ((pos = cell.find("\\|", pos)) != std::string::npos) cell.erase(pos, 1);
  return cell;
}

TEST(EnvKnobs, ReadmeTableMatchesTheRegistryBothWays) {
  const char* repo = std::getenv("SUBFED_REPO_DIR");
  if (repo == nullptr || *repo == '\0') {
    GTEST_SKIP() << "SUBFED_REPO_DIR not set (ctest sets it; set it manually otherwise)";
  }
  std::ifstream readme(std::filesystem::path(repo) / "README.md");
  ASSERT_TRUE(readme.good());

  // Parse `| \`SUBFEDAVG_*\` | default | doc |` rows.
  struct Row {
    std::string name, fallback, doc;
  };
  std::vector<Row> rows;
  std::string line;
  while (std::getline(readme, line)) {
    if (line.rfind("| `SUBFEDAVG_", 0) != 0) continue;
    ASSERT_GE(line.size(), 4u) << line;
    std::string body = line.substr(2, line.size() - 4);  // strip "| " and " |"
    std::vector<std::string> cells;
    std::size_t start = 0;
    while (true) {
      const std::size_t sep = body.find(" | ", start);
      if (sep == std::string::npos) {
        cells.push_back(body.substr(start));
        break;
      }
      cells.push_back(body.substr(start, sep - start));
      start = sep + 3;
    }
    ASSERT_EQ(cells.size(), 3u) << line;
    Row row;
    row.name = cells[0].substr(1, cells[0].size() - 2);  // strip backticks
    row.fallback = unescape_cell(cells[1]);
    row.doc = unescape_cell(cells[2]);
    rows.push_back(row);
  }
  ASSERT_FALSE(rows.empty());

  // Every documented knob has a row with the exact default and doc string —
  // and the README has no rows the registry doesn't know about.
  std::size_t documented = 0;
  for (const EnvKnob& knob : list_env_knobs()) {
    if (!knob.documented) continue;
    ++documented;
    bool found = false;
    for (const Row& row : rows) {
      if (row.name != knob.name) continue;
      found = true;
      EXPECT_EQ(row.fallback, knob.fallback) << knob.name;
      EXPECT_EQ(row.doc, knob.doc) << knob.name;
    }
    EXPECT_TRUE(found) << knob.name << " missing from the README env table";
  }
  EXPECT_EQ(rows.size(), documented) << "README rows without a registered knob";
  for (const Row& row : rows) {
    bool known = false;
    for (const EnvKnob& knob : list_env_knobs()) {
      if (row.name == knob.name) known = true;
    }
    EXPECT_TRUE(known) << row.name << " is in the README but not util/env.cpp";
  }
}

}  // namespace
}  // namespace subfed
