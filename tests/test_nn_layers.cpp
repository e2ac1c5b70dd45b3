// Layer-level forward/backward semantics (shapes, known values, caching).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/model_zoo.h"
#include "nn/pooling.h"
#include "nn/sgd.h"
#include "util/check.h"
#include "util/rng.h"

namespace subfed {
namespace {

TEST(Conv2d, KnownValueForward) {
  // 1x1 input channel, 3x3 image, 2x2 kernel of ones, zero bias:
  // each output = sum of the 2x2 patch.
  Conv2d conv("c", 1, 1, 2);
  conv.weight().value.fill(1.0f);
  Tensor x({1, 1, 3, 3}, std::vector<float>{1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor y = conv.forward(x, true);
  EXPECT_EQ(y.shape(), Shape({1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(y[0], 1 + 2 + 4 + 5);
  EXPECT_FLOAT_EQ(y[3], 5 + 6 + 8 + 9);
}

TEST(Conv2d, BiasBroadcasts) {
  Conv2d conv("c", 1, 2, 1);
  conv.weight().value.fill(0.0f);
  conv.bias().value[0] = 1.5f;
  conv.bias().value[1] = -2.0f;
  Tensor x({1, 1, 2, 2}, 7.0f);
  Tensor y = conv.forward(x, true);
  EXPECT_FLOAT_EQ(y.at4(0, 0, 1, 1), 1.5f);
  EXPECT_FLOAT_EQ(y.at4(0, 1, 0, 0), -2.0f);
}

TEST(Conv2d, StrideAndPadGeometry) {
  Conv2d conv("c", 3, 4, 3, 2, 1);
  Tensor x({2, 3, 8, 8});
  Tensor y = conv.forward(x, true);
  EXPECT_EQ(y.shape(), Shape({2, 4, 4, 4}));
}

TEST(Conv2d, InputChannelMismatchThrows) {
  Conv2d conv("c", 3, 4, 3);
  Tensor x({1, 2, 8, 8});
  EXPECT_THROW(conv.forward(x, true), CheckError);
}

TEST(Conv2d, BackwardBeforeForwardThrows) {
  Conv2d conv("c", 1, 1, 1);
  Tensor g({1, 1, 1, 1});
  EXPECT_THROW(conv.backward(g), CheckError);
}

TEST(Linear, KnownValueForward) {
  Linear fc("f", 3, 2);
  // W = [[1,2,3],[4,5,6]], b = [10, 20], x = [1,1,1]
  fc.weight().value = Tensor({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  fc.bias().value = Tensor({2}, std::vector<float>{10, 20});
  Tensor x({1, 3}, std::vector<float>{1, 1, 1});
  Tensor y = fc.forward(x, true);
  EXPECT_FLOAT_EQ(y.at2(0, 0), 16.0f);
  EXPECT_FLOAT_EQ(y.at2(0, 1), 35.0f);
}

TEST(Linear, BackwardShapesAndGradAccumulation) {
  Linear fc("f", 3, 2);
  Rng rng(1);
  fc.init(rng);
  Tensor x({4, 3});
  x.fill_normal(rng, 0.0f, 1.0f);
  fc.forward(x, true);
  Tensor g({4, 2}, 1.0f);
  Tensor gx = fc.backward(g);
  EXPECT_EQ(gx.shape(), Shape({4, 3}));
  // db = column sums of g = batch size each.
  EXPECT_FLOAT_EQ(fc.bias().grad[0], 4.0f);
  // Second backward accumulates.
  fc.forward(x, true);
  fc.backward(g);
  EXPECT_FLOAT_EQ(fc.bias().grad[0], 8.0f);
}

TEST(ReLU, ForwardZeroesNegatives) {
  ReLU relu;
  Tensor x({1, 4}, std::vector<float>{-1.0f, 0.0f, 2.0f, -0.5f});
  Tensor y = relu.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  EXPECT_FLOAT_EQ(y[3], 0.0f);
}

TEST(ReLU, BackwardGatesGradient) {
  ReLU relu;
  Tensor x({1, 3}, std::vector<float>{-1.0f, 1.0f, 3.0f});
  relu.forward(x, true);
  Tensor g({1, 3}, std::vector<float>{5.0f, 6.0f, 7.0f});
  Tensor gx = relu.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[1], 6.0f);
  EXPECT_FLOAT_EQ(gx[2], 7.0f);
}

TEST(ReLU, EvalForwardMatchesTrainAndKeepsNoMask) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  ReLU relu;
  Tensor x({1, 5}, std::vector<float>{-1.0f, -0.0f, 0.0f, 2.0f, nan});
  const Tensor train_y = relu.forward(x, /*train=*/true);
  const Tensor eval_y = relu.forward(x, /*train=*/false);
  EXPECT_EQ(std::memcmp(train_y.data(), eval_y.data(), x.numel() * sizeof(float)), 0);
  // Eval builds no mask for backward to read, so backward after it fails.
  EXPECT_THROW(relu.backward(Tensor({1, 5}, 1.0f)), CheckError);
}

TEST(MaxPool2d, ForwardPicksMaxAndBackwardRoutes) {
  MaxPool2d pool(2);
  Tensor x({1, 1, 2, 2}, std::vector<float>{1, 9, 3, 4});
  Tensor y = pool.forward(x, true);
  EXPECT_EQ(y.shape(), Shape({1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 9.0f);
  Tensor g({1, 1, 1, 1}, 2.5f);
  Tensor gx = pool.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[1], 2.5f);  // gradient routed to the argmax only
  EXPECT_FLOAT_EQ(gx[2], 0.0f);
}

TEST(MaxPool2d, TruncatesOddSpatial) {
  MaxPool2d pool(2);
  Tensor x({1, 1, 5, 5});
  Tensor y = pool.forward(x, true);
  EXPECT_EQ(y.shape(), Shape({1, 1, 2, 2}));
}

TEST(Flatten, RoundTrip) {
  Flatten flat;
  Tensor x({2, 3, 4, 4});
  Tensor y = flat.forward(x, true);
  EXPECT_EQ(y.shape(), Shape({2, 48}));
  Tensor g({2, 48}, 1.0f);
  EXPECT_EQ(flat.backward(g).shape(), x.shape());
}

// ---------------------------------------------------------------------------
// Raw-span loops vs checked reference loops: ReLU, MaxPool2d and Sgd index
// raw pointers after one up-front shape check. Each reference below is the
// plain per-element loop through the bounds-checked Tensor::operator[]; the
// layer must match it bit for bit, signed zeros and NaNs included.

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

TEST(RawSpanLoops, ReLUMatchesCheckedReferenceOnSignedZerosAndNaNs) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  ReLU relu;
  // Two steps of one shape (the mask is reused), then a new shape.
  const std::vector<Shape> shapes = {Shape{2, 6}, Shape{2, 6}, Shape{3, 5}};
  for (std::size_t step = 0; step < shapes.size(); ++step) {
    const Shape& shape = shapes[step];
    Rng rng(40 + step);
    Tensor x(shape);
    x.fill_normal(rng, 0.0f, 1.0f);
    const float specials[] = {-0.0f, 0.0f, nan, -nan, inf, -inf, 1e-42f, -1e-42f};
    for (std::size_t i = 0; i < std::size(specials); ++i) x[i + step] = specials[i];
    Tensor dy(shape);
    dy.fill_normal(rng, 0.0f, 1.0f);
    dy[0] = -0.0f;
    dy[2] = nan;  // lands on a masked-out position (x = -0.0f / NaN) each step
    dy[3] = -4.0f;

    Tensor ref_y = x;
    Tensor ref_mask(shape);
    for (std::size_t i = 0; i < ref_y.numel(); ++i) {
      if (ref_y[i] > 0.0f) {
        ref_mask[i] = 1.0f;
      } else {
        ref_y[i] = 0.0f;
      }
    }
    Tensor ref_dx = dy;
    for (std::size_t i = 0; i < ref_dx.numel(); ++i) ref_dx[i] = ref_dx[i] * ref_mask[i];

    const Tensor y = relu.forward(x, /*train=*/true);
    const Tensor dx = relu.backward(dy);
    EXPECT_TRUE(bitwise_equal(y, ref_y)) << "forward, step " << step;
    EXPECT_TRUE(bitwise_equal(dx, ref_dx)) << "backward, step " << step;
  }
  // A negative gradient through a closed gate stays a negative zero.
  Tensor x({1, 2}, std::vector<float>{-1.0f, 2.0f});
  relu.forward(x, /*train=*/true);
  const Tensor dx = relu.backward(Tensor({1, 2}, std::vector<float>{-3.0f, -3.0f}));
  EXPECT_TRUE(std::signbit(dx[0]));
  EXPECT_EQ(dx[0], 0.0f);
  EXPECT_EQ(dx[1], -3.0f);
}

TEST(RawSpanLoops, MaxPoolMatchesCheckedReferenceWithTiedMaxima) {
  const std::size_t window = 2;
  for (const Shape& shape : {Shape{2, 3, 4, 4}, Shape{1, 2, 5, 7}}) {
    const std::size_t batch = shape[0], channels = shape[1], h = shape[2], w = shape[3];
    const std::size_t oh = h / window, ow = w / window;
    Tensor x(shape);
    // Values from a three-level set: most windows hold tied maxima.
    for (std::size_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>((i * 7 + i / 5) % 3);
    Rng rng(50);
    Tensor dy({batch, channels, oh, ow});
    dy.fill_normal(rng, 0.0f, 1.0f);

    // Reference: first maximum in row-major window order wins.
    Tensor ref_y({batch, channels, oh, ow});
    Tensor ref_dx(shape);
    std::size_t out_idx = 0;
    for (std::size_t nc = 0; nc < batch * channels; ++nc) {
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox, ++out_idx) {
          std::size_t best = nc * h * w + oy * window * w + ox * window;
          for (std::size_t dy_ = 0; dy_ < window; ++dy_) {
            for (std::size_t dx_ = 0; dx_ < window; ++dx_) {
              const std::size_t idx = nc * h * w + (oy * window + dy_) * w + ox * window + dx_;
              if (x[idx] > x[best]) best = idx;
            }
          }
          ref_y[out_idx] = x[best];
          ref_dx[best] += dy[out_idx];
        }
      }
    }

    MaxPool2d pool(window);
    EXPECT_TRUE(bitwise_equal(pool.forward(x, /*train=*/true), ref_y)) << shape.to_string();
    EXPECT_TRUE(bitwise_equal(pool.backward(dy), ref_dx)) << shape.to_string();
  }
}

TEST(RawSpanLoops, SgdMatchesCheckedReferenceWithMomentumAndWeightDecay) {
  for (const float wd : {0.0f, 1e-3f}) {
    const SgdConfig config{/*lr=*/0.05f, /*momentum=*/0.9f, /*weight_decay=*/wd};
    Rng rng(60);
    Parameter weight("w", Tensor({4, 5}), /*is_prunable=*/true);
    Parameter bias("b", Tensor({5}), /*is_prunable=*/false);
    weight.value.fill_normal(rng, 0.0f, 1.0f);
    bias.value.fill_normal(rng, 0.0f, 1.0f);
    Sgd sgd({&weight, &bias}, config);

    std::vector<Tensor> ref_w = {weight.value, bias.value};
    std::vector<Tensor> ref_v = {Tensor(weight.value.shape()), Tensor(bias.value.shape())};
    Parameter* params[] = {&weight, &bias};
    for (int step = 0; step < 4; ++step) {
      for (std::size_t i = 0; i < 2; ++i) {
        Parameter& p = *params[i];
        p.grad.fill_normal(rng, 0.0f, 1.0f);
        p.grad[0] = -0.0f;
        for (std::size_t j = 0; j < p.grad.numel(); ++j) {
          float g = p.grad[j];
          if (wd != 0.0f) g += wd * ref_w[i][j];
          ref_v[i][j] = config.momentum * ref_v[i][j] + g;
          ref_w[i][j] -= config.lr * ref_v[i][j];
        }
      }
      sgd.step();
      for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_TRUE(bitwise_equal(params[i]->value, ref_w[i]))
            << params[i]->name << " step " << step << " wd " << wd;
        EXPECT_EQ(params[i]->grad.squared_norm(), 0.0);
      }
    }
  }
}

TEST(RawSpanLoops, SgdRejectsMismatchedGradAndVelocitySizes) {
  Parameter p("w", Tensor({4}), /*is_prunable=*/true);
  Sgd sgd({&p}, SgdConfig{});
  p.grad = Tensor({3});  // grad smaller than the value
  EXPECT_THROW(sgd.step(), CheckError);

  Parameter q("w", Tensor({4}), /*is_prunable=*/true);
  Sgd sgd_q({&q}, SgdConfig{});
  q.value = Tensor({6});  // value and grad agree, the velocity does not
  q.grad = Tensor({6});
  EXPECT_THROW(sgd_q.step(), CheckError);
}

TEST(BatchNorm2d, NormalizesBatchStatistics) {
  BatchNorm2d bn("bn", 2);
  Rng rng(3);
  Tensor x({8, 2, 4, 4});
  x.fill_normal(rng, 5.0f, 3.0f);
  Tensor y = bn.forward(x, /*train=*/true);

  // Per-channel output mean ~0, var ~1 under γ=1, β=0.
  const std::size_t spatial = 16;
  for (std::size_t c = 0; c < 2; ++c) {
    double mean = 0.0, var = 0.0;
    for (std::size_t n = 0; n < 8; ++n) {
      for (std::size_t s = 0; s < spatial; ++s) mean += y.at4(n, c, s / 4, s % 4);
    }
    mean /= 8 * spatial;
    for (std::size_t n = 0; n < 8; ++n) {
      for (std::size_t s = 0; s < spatial; ++s) {
        const double d = y.at4(n, c, s / 4, s % 4) - mean;
        var += d * d;
      }
    }
    var /= 8 * spatial;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm2d, RunningStatsConvergeTowardBatchStats) {
  BatchNorm2d bn("bn", 1, /*momentum=*/0.5f);
  Tensor x({4, 1, 2, 2}, 10.0f);
  // Constant input: batch mean = 10, var = 0.
  bn.forward(x, true);
  auto buffers = bn.buffers();
  EXPECT_NEAR(buffers[0]->value[0], 5.0f, 1e-5);   // 0.5·0 + 0.5·10
  EXPECT_NEAR(buffers[1]->value[0], 0.5f, 1e-5);   // 0.5·1 + 0.5·0
  bn.forward(x, true);
  EXPECT_NEAR(buffers[0]->value[0], 7.5f, 1e-5);
}

TEST(BatchNorm2d, EvalModeUsesRunningStats) {
  BatchNorm2d bn("bn", 1);
  auto buffers = bn.buffers();
  buffers[0]->value[0] = 2.0f;  // running mean
  buffers[1]->value[0] = 4.0f;  // running var
  Tensor x({1, 1, 1, 2}, std::vector<float>{2.0f, 6.0f});
  Tensor y = bn.forward(x, /*train=*/false);
  EXPECT_NEAR(y[0], 0.0f, 1e-3);
  EXPECT_NEAR(y[1], 2.0f, 1e-3);  // (6-2)/sqrt(4) = 2
}

TEST(BatchNorm2d, BackwardRequiresTrainForward) {
  BatchNorm2d bn("bn", 1);
  Tensor x({1, 1, 2, 2});
  bn.forward(x, /*train=*/false);
  EXPECT_THROW(bn.backward(x), CheckError);
}

TEST(BatchNorm2d, L1PenaltyPushesGammaGradient) {
  BatchNorm2d bn("bn", 1);
  bn.set_l1_gamma(0.1f);
  Tensor x({2, 1, 2, 2});
  Rng rng(5);
  x.fill_normal(rng, 0.0f, 1.0f);
  bn.forward(x, true);
  Tensor g(x.shape());  // zero upstream gradient isolates the penalty
  bn.backward(g);
  EXPECT_NEAR(bn.gamma().grad[0], 0.1f, 1e-6);  // sign(γ=1)·0.1
}

TEST(Softmax, RowsSumToOne) {
  Tensor logits({2, 5});
  Rng rng(6);
  logits.fill_normal(rng, 0.0f, 3.0f);
  Tensor p = softmax(logits);
  for (std::size_t n = 0; n < 2; ++n) {
    double sum = 0.0;
    for (std::size_t c = 0; c < 5; ++c) sum += p.at2(n, c);
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Softmax, NumericallyStableWithHugeLogits) {
  Tensor logits({1, 3}, std::vector<float>{1000.0f, 1001.0f, 999.0f});
  Tensor p = softmax(logits);
  EXPECT_TRUE(std::isfinite(p[0]));
  EXPECT_GT(p[1], p[0]);
}

TEST(CrossEntropy, KnownValue) {
  // Uniform logits over 4 classes → loss = ln 4.
  Tensor logits({1, 4}, 0.0f);
  std::vector<std::int32_t> labels{2};
  const LossResult r = softmax_cross_entropy(logits, labels);
  EXPECT_NEAR(r.loss, std::log(4.0), 1e-5);
  // Gradient = (p − onehot)/N.
  EXPECT_NEAR(r.grad_logits.at2(0, 2), 0.25f - 1.0f, 1e-5);
  EXPECT_NEAR(r.grad_logits.at2(0, 0), 0.25f, 1e-5);
}

TEST(CrossEntropy, CountsCorrectPredictions) {
  Tensor logits({2, 3}, std::vector<float>{5, 0, 0, 0, 0, 5});
  std::vector<std::int32_t> labels{0, 1};
  const LossResult r = softmax_cross_entropy(logits, labels);
  EXPECT_EQ(r.correct, 1u);
}

TEST(CrossEntropy, RejectsBadLabels) {
  Tensor logits({1, 3});
  std::vector<std::int32_t> labels{3};
  EXPECT_THROW(softmax_cross_entropy(logits, labels), CheckError);
}

TEST(ModelZoo, Cnn5ParameterCountMatchesArchitecture) {
  Model m = ModelSpec::cnn5(10).build();
  // conv1: 1·10·25+10, conv2: 10·20·25+20, bn: 2·10+2·20,
  // fc1: 320·50+50, fc2: 50·10+10.
  const std::size_t expected = (250 + 10) + (5000 + 20) + (20 + 40) + (16000 + 50) + (500 + 10);
  EXPECT_EQ(m.num_parameters(), expected);
  EXPECT_EQ(m.topology().conv_blocks.size(), 2u);
  EXPECT_EQ(m.topology().fc_layers.size(), 2u);
}

TEST(ModelZoo, LeNet5ParameterCountMatchesPaper) {
  Model m = ModelSpec::lenet5(10).build();
  // Paper: "62000 total parameters" — exact: 62 006 with BN affine terms.
  const std::size_t expected = (3 * 6 * 25 + 6) + (6 * 16 * 25 + 16) + (12 + 32) +
                               (400 * 120 + 120) + (120 * 84 + 84) + (84 * 10 + 10);
  EXPECT_EQ(m.num_parameters(), expected);
  EXPECT_NEAR(static_cast<double>(m.num_parameters()), 62000.0, 100.0);
}

TEST(ModelZoo, ForwardShapes) {
  Rng rng(7);
  Model cnn = ModelSpec::cnn5(47).build_init(rng);
  Tensor x({3, 1, 28, 28});
  EXPECT_EQ(cnn.forward(x, false).shape(), Shape({3, 47}));

  Model lenet = ModelSpec::lenet5(100).build_init(rng);
  Tensor y({2, 3, 32, 32});
  EXPECT_EQ(lenet.forward(y, false).shape(), Shape({2, 100}));
}

TEST(Model, StateRoundTrip) {
  Rng rng(8);
  Model a = ModelSpec::cnn5(10).build_init(rng);
  Model b = ModelSpec::cnn5(10).build();
  b.load_state(a.state());

  Tensor x({2, 1, 28, 28});
  x.fill_normal(rng, 0.0f, 1.0f);
  Tensor ya = a.forward(x, false);
  Tensor yb = b.forward(x, false);
  for (std::size_t i = 0; i < ya.numel(); ++i) EXPECT_FLOAT_EQ(ya[i], yb[i]);
}

TEST(Model, LoadStateValidatesNamesAndShapes) {
  Model a = ModelSpec::cnn5(10).build();
  Model b = ModelSpec::lenet5(10).build();
  EXPECT_THROW(a.load_state(b.state()), CheckError);
}

TEST(Model, StateIncludesBuffers) {
  Model m = ModelSpec::cnn5(10).build();
  const StateDict s = m.state();
  EXPECT_NE(s.find("bn1.running_mean"), nullptr);
  EXPECT_NE(s.find("bn1.gamma"), nullptr);
  EXPECT_NE(s.find("conv2.weight"), nullptr);
  EXPECT_EQ(s.find("nonexistent"), nullptr);
}

TEST(Model, ZeroGradClearsAll) {
  Rng rng(9);
  Model m = ModelSpec::cnn5(10).build_init(rng);
  Tensor x({2, 1, 28, 28});
  x.fill_normal(rng, 0.0f, 1.0f);
  Tensor logits = m.forward(x, true);
  std::vector<std::int32_t> labels{0, 1};
  const LossResult loss = softmax_cross_entropy(logits, labels);
  m.backward(loss.grad_logits);

  double grad_norm = 0.0;
  for (Parameter* p : m.parameters()) grad_norm += p->grad.squared_norm();
  EXPECT_GT(grad_norm, 0.0);
  m.zero_grad();
  for (Parameter* p : m.parameters()) EXPECT_EQ(p->grad.squared_norm(), 0.0);
}

}  // namespace
}  // namespace subfed
