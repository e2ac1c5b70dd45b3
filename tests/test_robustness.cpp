// FedAvg+FT baseline, corrupted-update handling, and bounded decoding of
// updates, quantized payloads and envelopes.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "comm/channel.h"
#include "comm/quantize.h"
#include "comm/serialize.h"
#include "core/aggregate.h"
#include "fl/driver.h"
#include "fl/experiment.h"
#include "fl/fedavg.h"
#include "fl/fedavg_ft.h"
#include "fl/robust.h"
#include "util/check.h"
#include "util/logging.h"

namespace subfed {
namespace {

const FederatedData& data() {
  static FederatedData instance(DatasetSpec::mnist(), [] {
    FederatedDataConfig config;
    config.partition = {6, 2, 25};
    config.test_per_class = 8;
    config.seed = 41;
    return config;
  }());
  return instance;
}

FlContext ctx() {
  set_log_level(LogLevel::kWarn);
  FlContext c;
  c.data = &data();
  c.spec = ModelSpec::cnn5(10);
  c.train = {2, 10};
  c.seed = 41;
  return c;
}

TEST(FedAvgFinetune, BeatsPlainFedAvgOnPersonalizedEval) {
  DriverConfig driver{/*rounds=*/5, /*sample_rate=*/1.0, 0, 41};

  FedAvg plain(ctx());
  const double plain_acc = run_federation(plain, driver).final_avg_accuracy;

  FedAvgFinetune ft(ctx(), /*finetune_epochs=*/2);
  const double ft_acc = run_federation(ft, driver).final_avg_accuracy;

  // Fine-tuning on local data recovers personalization the global model
  // lacks under non-IID splits.
  EXPECT_GT(ft_acc, plain_acc + 0.1);
  EXPECT_GT(ft.extra_finetune_steps(), 0u);
}

TEST(FedAvgFinetune, ZeroEpochsEqualsPlainFedAvg) {
  DriverConfig driver{3, 1.0, 0, 41};
  FedAvg plain(ctx());
  const double plain_acc = run_federation(plain, driver).final_avg_accuracy;
  FedAvgFinetune ft(ctx(), 0);
  const double ft_acc = run_federation(ft, driver).final_avg_accuracy;
  EXPECT_EQ(plain_acc, ft_acc);
  EXPECT_EQ(ft.extra_finetune_steps(), 0u);
}

TEST(FedAvgFinetune, TracksOverheadSteps) {
  FedAvgFinetune ft(ctx(), 2);
  DriverConfig driver{2, 1.0, 0, 41};
  run_federation(ft, driver);
  // Each of the 6 clients fine-tunes 2 epochs over 45 examples at batch 10
  // (= 5 steps/epoch) at final evaluation; intermediate evals add more.
  EXPECT_GE(ft.extra_finetune_steps(), 6u * 2 * 5);
}

TEST(CorruptUpdate, ReplacesPayloadKeepsMetadata) {
  Rng rng(1);
  Model m = ModelSpec::cnn5(10).build_init(rng);
  ClientUpdate update;
  update.state = m.state();
  update.num_examples = 123;
  const StateDict original = update.state;

  CorruptionConfig config{1.0, 2.0f};
  corrupt_update(update, config, rng);
  EXPECT_EQ(update.num_examples, 123u);
  bool changed = false;
  for (std::size_t e = 0; e < original.size(); ++e) {
    changed |= !(update.state[e].second == original[e].second);
  }
  EXPECT_TRUE(changed);
}

TEST(UpdateDistance, ZeroForIdenticalAndPositiveOtherwise) {
  Rng rng(2);
  Model m = ModelSpec::cnn5(10).build_init(rng);
  ClientUpdate update;
  update.state = m.state();
  EXPECT_DOUBLE_EQ(update_distance(update, m.state()), 0.0);

  StateDict shifted = m.state();
  (*shifted.find("fc1.weight"))[0] += 3.0f;
  EXPECT_NEAR(update_distance(update, shifted), 3.0, 1e-5);
}

TEST(NormFilter, DropsObviousOutliers) {
  Rng rng(3);
  Model m = ModelSpec::cnn5(10).build_init(rng);
  const StateDict global = m.state();

  std::vector<ClientUpdate> updates;
  for (int k = 0; k < 5; ++k) {
    ClientUpdate u;
    u.state = global;
    // Honest clients drift slightly.
    (*u.state.find("fc1.weight"))[static_cast<std::size_t>(k)] += 0.01f;
    updates.push_back(std::move(u));
  }
  // One corrupted update far away.
  CorruptionConfig config{1.0, 5.0f};
  Rng crng(4);
  corrupt_update(updates[2], config, crng);

  const auto passed = filter_updates_by_norm(updates, global, /*filter_factor=*/3.0);
  EXPECT_EQ(passed.size(), 4u);
  for (const std::size_t i : passed) EXPECT_NE(i, 2u);
}

TEST(NormFilter, SmallCohortsPassThrough) {
  Rng rng(5);
  Model m = ModelSpec::cnn5(10).build_init(rng);
  std::vector<ClientUpdate> updates(2);
  updates[0].state = m.state();
  updates[1].state = m.state();
  const auto passed = filter_updates_by_norm(updates, m.state(), 3.0);
  EXPECT_EQ(passed.size(), 2u);
}

TEST(NormFilter, DegenerateMedianKeepsEveryone) {
  Rng rng(6);
  Model m = ModelSpec::cnn5(10).build_init(rng);
  // All updates identical to the global → all distances zero → median zero.
  std::vector<ClientUpdate> updates(4);
  for (auto& u : updates) u.state = m.state();
  const auto passed = filter_updates_by_norm(updates, m.state(), 3.0);
  EXPECT_EQ(passed.size(), 4u);
}

TEST(RobustSpec, CorruptionAndFilterAreSpecReachable) {
  // End-to-end through ExperimentSpec (the sweep CLI path): heavy corruption
  // wrecks plain FedAvg; the norm filter screens the corrupted uploads out
  // and recovers most of the clean accuracy.
  ExperimentSpec spec;
  spec.dataset = "mnist";
  spec.clients = 6;
  spec.shard = 25;
  spec.test_per_class = 8;
  spec.rounds = 4;
  spec.epochs = 2;
  spec.sample = 1.0;
  spec.algo = "fedavg";
  spec.seed = 41;

  const ExecutedRun clean = execute_experiment(spec);
  EXPECT_EQ(clean.metrics.count("corrupted_updates"), 0u);  // knobs off → no metric

  spec.corrupt_fraction = 0.34;
  spec.corrupt_noise = 5.0;
  const ExecutedRun corrupted = execute_experiment(spec);
  ASSERT_EQ(corrupted.metrics.count("corrupted_updates"), 1u);
  EXPECT_GT(corrupted.metrics.at("corrupted_updates"), 0.0);
  EXPECT_DOUBLE_EQ(corrupted.metrics.at("filtered_updates"), 0.0);

  spec.robust_filter = 3.0;
  const ExecutedRun defended = execute_experiment(spec);
  ASSERT_EQ(defended.metrics.count("filtered_updates"), 1u);
  EXPECT_GT(defended.metrics.at("filtered_updates"), 0.0);

  EXPECT_GT(clean.result.final_avg_accuracy,
            corrupted.result.final_avg_accuracy + 0.1);
  EXPECT_GT(defended.result.final_avg_accuracy,
            corrupted.result.final_avg_accuracy + 0.1);

  // Algorithms outside the FedAvg family and Sub-FedAvg cannot report
  // corruption; running them "under corruption" at clean accuracy would
  // poison robustness tables.
  spec.algo = "standalone";
  EXPECT_THROW(execute_experiment(spec), CheckError);
}

TEST(RobustSpec, SubFedAvgHonorsCorruptionAndMaskAwareFilter) {
  // The ROADMAP's open robustness item: the same knobs on the masked
  // Sub-FedAvg aggregation path. Corruption rides the channel (post-decode,
  // so it composes with codecs); the defense filters on mask-aware distance.
  ExperimentSpec spec;
  spec.dataset = "mnist";
  spec.clients = 6;
  spec.shard = 25;
  spec.test_per_class = 8;
  spec.rounds = 4;
  spec.epochs = 2;
  spec.sample = 1.0;
  spec.algo = "subfedavg_un";
  spec.seed = 41;
  spec.transport = "loopback";  // corruption must compose with real encoding

  const ExecutedRun clean = execute_experiment(spec);
  EXPECT_EQ(clean.metrics.count("corrupted_updates"), 0u);

  spec.corrupt_fraction = 0.34;
  spec.corrupt_noise = 5.0;
  const ExecutedRun corrupted = execute_experiment(spec);
  ASSERT_EQ(corrupted.metrics.count("corrupted_updates"), 1u);
  EXPECT_GT(corrupted.metrics.at("corrupted_updates"), 0.0);
  EXPECT_DOUBLE_EQ(corrupted.metrics.at("filtered_updates"), 0.0);

  spec.robust_filter = 3.0;
  const ExecutedRun defended = execute_experiment(spec);
  ASSERT_EQ(defended.metrics.count("filtered_updates"), 1u);
  EXPECT_GT(defended.metrics.at("filtered_updates"), 0.0);

  // Personalized evaluation blunts the damage relative to plain FedAvg (each
  // client retrains its masked model locally), so the margins are smaller —
  // but corruption must cost accuracy and the filter must claw most back.
  EXPECT_GT(clean.result.final_avg_accuracy,
            corrupted.result.final_avg_accuracy + 0.03);
  EXPECT_GT(defended.result.final_avg_accuracy,
            corrupted.result.final_avg_accuracy + 0.03);
}

TEST(UpdateDistance, MaskAwareCountsOnlyUploadedEntries) {
  Rng rng(9);
  Model m = ModelSpec::cnn5(10).build_init(rng);
  const StateDict reference = m.state();

  ClientUpdate update;
  update.state = reference;
  // The client "uploads" only the first row of fc1.weight; everything it
  // pruned decodes as zero — a huge dense distance, but zero mask-aware.
  Tensor* fc1 = update.state.find("fc1.weight");
  ASSERT_NE(fc1, nullptr);
  Tensor bits{fc1->shape()};
  for (std::size_t i = 0; i < 8; ++i) bits[i] = 1.0f;
  for (std::size_t i = 8; i < fc1->numel(); ++i) (*fc1)[i] = 0.0f;
  update.mask.set("fc1.weight", std::move(bits));

  EXPECT_DOUBLE_EQ(update_distance(update, reference), 0.0);

  // A genuine drift on an uploaded position still registers.
  (*update.state.find("fc1.weight"))[0] += 2.5f;
  EXPECT_NEAR(update_distance(update, reference), 2.5, 1e-5);
}

TEST(NormFilter, FilteredAggregationSurvivesCorruption) {
  // End-to-end: aggregate honest + corrupted cohorts with and without the
  // filter; the filtered global stays near the honest mean.
  Rng rng(7);
  Model m = ModelSpec::cnn5(10).build_init(rng);
  const StateDict global = m.state();

  std::vector<ClientUpdate> updates;
  for (int k = 0; k < 6; ++k) {
    ClientUpdate u;
    u.state = global;
    u.num_examples = 10;
    updates.push_back(std::move(u));
  }
  Rng crng(8);
  CorruptionConfig config{1.0, 10.0f};
  corrupt_update(updates[0], config, crng);
  corrupt_update(updates[3], config, crng);

  // Unfiltered FedAvg gets dragged away from the honest value.
  const StateDict dirty = fedavg_aggregate(updates);
  double dirty_drift = 0.0;
  for (std::size_t e = 0; e < global.size(); ++e) {
    Tensor diff = sub(dirty[e].second, global[e].second);
    dirty_drift += diff.squared_norm();
  }

  const auto passed = filter_updates_by_norm(updates, global, 3.0);
  std::vector<ClientUpdate> clean;
  for (const std::size_t i : passed) clean.push_back(updates[i]);
  const StateDict filtered = fedavg_aggregate(clean);
  double clean_drift = 0.0;
  for (std::size_t e = 0; e < global.size(); ++e) {
    Tensor diff = sub(filtered[e].second, global[e].second);
    clean_drift += diff.squared_norm();
  }
  EXPECT_LT(clean_drift, 1e-9);
  EXPECT_GT(dirty_drift, 1.0);
}

// ---------------------------------------------------------------------------
// Bounded update decoding: a crafted header fails with CheckError before the
// decoder sizes anything from it, never with bad_alloc.

/// An update header for one entry named "w": magic, entry count, name, rank,
/// dims, then the masked flag — with no payload behind it.
std::vector<std::uint8_t> crafted_update(std::uint32_t rank,
                                         const std::vector<std::uint32_t>& dims,
                                         std::uint8_t masked) {
  std::vector<std::uint8_t> out;
  const auto put = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  put(0x53464156);  // "SFAV"
  put(1);
  put(1);
  out.push_back('w');
  put(rank);
  for (const std::uint32_t d : dims) put(d);
  out.push_back(masked);
  return out;
}

TEST(BoundedDecode, HugeDeclaredShapeIsACheckErrorNotAnAllocation) {
  // 26 bytes declaring a 200000 x 200000 float tensor (160 GB).
  const std::vector<std::uint8_t> unmasked = crafted_update(2, {200000, 200000}, 0);
  ASSERT_EQ(unmasked.size(), 26u);
  EXPECT_THROW(decode_update(unmasked), CheckError);
  // Masked, the same shape declares a 5 GB bitmap.
  ModelMask mask;
  EXPECT_THROW(decode_update(crafted_update(2, {200000, 200000}, 1), &mask), CheckError);
}

TEST(BoundedDecode, HugeRankIsACheckError) {
  EXPECT_THROW(decode_update(crafted_update(0xFFFFFFFFu, {}, 0)), CheckError);
  EXPECT_THROW(decode_update(crafted_update(9, std::vector<std::uint32_t>(9, 1), 0)),
               CheckError);
}

TEST(BoundedDecode, ElementCountOverflowIsACheckError) {
  // 0xFFFFFFFF^3 overflows a 64-bit element count.
  const std::vector<std::uint32_t> dims(3, 0xFFFFFFFFu);
  EXPECT_THROW(decode_update(crafted_update(3, dims, 0)), CheckError);
  EXPECT_THROW(decode_update(crafted_update(3, dims, 1)), CheckError);
}

TEST(BoundedDecode, ValidUpdatesStillRoundTrip) {
  Rng rng(3);
  Model m = ModelSpec::cnn5(10).build_init(rng);
  const StateDict state = m.state();
  ModelMask mask = ModelMask::ones_like(m, MaskScope::kAllPrunable);
  const Tensor* conv1 = mask.find("conv1.weight");
  ASSERT_NE(conv1, nullptr);
  Tensor bits = *conv1;
  for (std::size_t i = 0; i < bits.numel(); i += 3) bits.data()[i] = 0.0f;
  mask.set("conv1.weight", bits);

  const StateDict plain = decode_update(encode_update(state, nullptr));
  ASSERT_EQ(plain.size(), state.size());
  for (std::size_t e = 0; e < state.size(); ++e) {
    EXPECT_TRUE(plain[e] == state[e]) << state[e].first;
  }
  ModelMask decoded_mask;
  const StateDict masked = decode_update(encode_update(state, &mask), &decoded_mask);
  ASSERT_NE(decoded_mask.find("conv1.weight"), nullptr);
  EXPECT_EQ(*decoded_mask.find("conv1.weight"), bits);
  const Tensor& w = masked[0].second;
  const Tensor& want = state[0].second;
  for (std::size_t i = 0; i < w.numel(); ++i) {
    EXPECT_EQ(w.data()[i], bits.data()[i] != 0.0f ? want.data()[i] : 0.0f) << i;
  }
}

// The same bounds on the quantized payload codec and the envelope framing:
// fanout-style int8/fp16 uploads decode through decode_payload, and every
// transport message through decode_envelope.

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/// A quantized payload header for one entry named "w" (magic, codec tag,
/// entry count, name, rank, dims, masked flag) with no values behind it.
std::vector<std::uint8_t> crafted_payload(QuantCodec codec, std::uint32_t rank,
                                          const std::vector<std::uint32_t>& dims,
                                          std::uint8_t masked) {
  std::vector<std::uint8_t> out;
  put_u32(out, 0x53465150);  // "SFQP"
  out.push_back(static_cast<std::uint8_t>(codec));
  put_u32(out, 1);
  put_u32(out, 1);
  out.push_back('w');
  put_u32(out, rank);
  for (const std::uint32_t d : dims) put_u32(out, d);
  out.push_back(masked);
  return out;
}

TEST(BoundedDecode, EnvelopeHugeSectionCountIsACheckError) {
  Envelope envelope;
  envelope.kind = MessageKind::kClientUpdate;
  std::vector<std::uint8_t> bytes = encode_envelope(envelope);
  // The section count is the header's last field; declare 2^32 - 1 sections.
  ASSERT_GE(bytes.size(), 4u);
  for (std::size_t i = bytes.size() - 4; i < bytes.size(); ++i) bytes[i] = 0xFF;
  EXPECT_THROW(decode_envelope(bytes), CheckError);
  // A plausible count with too few bytes behind it fails the same way.
  bytes.resize(bytes.size() - 4);
  put_u32(bytes, 3);
  put_u32(bytes, 0);
  EXPECT_THROW(decode_envelope(bytes), CheckError);
}

TEST(BoundedDecode, QuantizedPayloadHugeRankIsACheckError) {
  for (const QuantCodec codec : {QuantCodec::kFp16, QuantCodec::kInt8}) {
    ModelMask mask;
    EXPECT_THROW(decode_payload(crafted_payload(codec, 0xFFFFFFFFu, {}, 0)), CheckError);
    EXPECT_THROW(
        decode_payload(crafted_payload(codec, 9, std::vector<std::uint32_t>(9, 1), 1), &mask),
        CheckError);
  }
}

TEST(BoundedDecode, QuantizedPayloadHugeShapeIsACheckErrorNotAnAllocation) {
  const std::vector<std::uint32_t> huge = {200000, 200000};  // 4·10^10 elements
  const std::vector<std::uint32_t> overflow(3, 0xFFFFFFFFu);
  for (const QuantCodec codec : {QuantCodec::kFp16, QuantCodec::kInt8}) {
    for (const std::uint8_t masked : {0, 1}) {
      ModelMask mask;
      EXPECT_THROW(decode_payload(crafted_payload(codec, 2, huge, masked), &mask), CheckError);
      EXPECT_THROW(decode_payload(crafted_payload(codec, 3, overflow, masked), &mask),
                   CheckError);
    }
  }
}

TEST(BoundedDecode, ValidQuantizedPayloadsStillRoundTrip) {
  Rng rng(5);
  Model m = ModelSpec::cnn5(10).build_init(rng);
  const StateDict state = m.state();
  ModelMask mask = ModelMask::ones_like(m, MaskScope::kAllPrunable);
  Tensor bits = *mask.find("conv1.weight");
  for (std::size_t i = 0; i < bits.numel(); i += 3) bits.data()[i] = 0.0f;
  mask.set("conv1.weight", bits);

  for (const QuantCodec codec : {QuantCodec::kFp16, QuantCodec::kInt8}) {
    for (const bool masked : {false, true}) {
      const std::string label = quant_codec_name(codec) + (masked ? " masked" : "");
      ModelMask decoded_mask;
      const StateDict back =
          decode_payload(encode_payload(state, masked ? &mask : nullptr, codec), &decoded_mask);
      ASSERT_EQ(back.size(), state.size()) << label;
      EXPECT_EQ(decoded_mask.find("conv1.weight") != nullptr, masked) << label;
      if (masked) EXPECT_EQ(*decoded_mask.find("conv1.weight"), bits) << label;
      for (std::size_t e = 0; e < state.size(); ++e) {
        const Tensor& want = state[e].second;
        const Tensor& got = back[e].second;
        ASSERT_EQ(back[e].first, state[e].first) << label;
        ASSERT_EQ(got.shape(), want.shape()) << label;
        const Tensor* keep = masked ? mask.find(state[e].first) : nullptr;
        const float int8_bound = want.abs_max() / 127.0f * 0.51f + 1e-7f;
        for (std::size_t i = 0; i < want.numel(); ++i) {
          if (keep != nullptr && keep->data()[i] == 0.0f) {
            ASSERT_EQ(got.data()[i], 0.0f) << label << " " << state[e].first << " at " << i;
          } else if (codec == QuantCodec::kFp16) {
            ASSERT_EQ(got.data()[i], fp16_to_fp32(fp32_to_fp16(want.data()[i])))
                << label << " " << state[e].first << " at " << i;
          } else {
            ASSERT_NEAR(got.data()[i], want.data()[i], int8_bound)
                << label << " " << state[e].first << " at " << i;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace subfed
