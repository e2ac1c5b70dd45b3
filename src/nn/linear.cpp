#include "nn/linear.h"

#include <cmath>

#include "tensor/device.h"
#include "util/check.h"
#include "util/rng.h"

namespace subfed {

Linear::Linear(std::string name, std::size_t in_features, std::size_t out_features)
    : in_features_(in_features),
      out_features_(out_features),
      weight_(name + ".weight", Tensor({out_features, in_features}), /*is_prunable=*/true),
      bias_(name + ".bias", Tensor({out_features}), /*is_prunable=*/false) {}

void Linear::init(Rng& rng) {
  weight_.value.fill_normal(rng, 0.0f,
                            static_cast<float>(std::sqrt(2.0 / static_cast<double>(in_features_))));
  bias_.value.zero();
}

Tensor Linear::forward(const Tensor& input, bool train) {
  SUBFEDAVG_CHECK(input.shape().rank() == 2 && input.shape()[1] == in_features_,
                  "linear input " << input.shape().to_string() << " expected (N, "
                                  << in_features_ << ")");
  const std::size_t batch = input.shape()[0];
  // The cached input exists only for backward; inference skips the deep copy
  // and clears any stale cache so backward-after-eval fails loudly.
  cached_input_ = train ? input : Tensor();

  Tensor output({batch, out_features_});
  // y[N, out] = x[N, in] · Wᵀ
  device().gemm(GemmOp::kNT, input.data(), weight_.value.data(), output.data(), batch,
                in_features_, out_features_, /*accumulate=*/false, WeightSide::kB,
                weight_.uid, weight_.mask_epoch);
  const float* bias = bias_.value.data();
  for (std::size_t n = 0; n < batch; ++n) {
    float* row = output.data() + n * out_features_;
    for (std::size_t o = 0; o < out_features_; ++o) row[o] += bias[o];
  }
  return output;
}

Tensor Linear::backward(const Tensor& grad_output) {
  SUBFEDAVG_CHECK(!cached_input_.empty(), "backward before forward");
  const std::size_t batch = cached_input_.shape()[0];
  SUBFEDAVG_CHECK(grad_output.shape() == Shape({batch, out_features_}),
                  "grad_output shape " << grad_output.shape().to_string());

  // dW[out, in] += dYᵀ[out, N] · x[N, in], accumulated straight into the
  // gradient — no per-batch dw temporary. Neither operand is a weight.
  device().gemm(GemmOp::kTN, grad_output.data(), cached_input_.data(), weight_.grad.data(),
                out_features_, batch, in_features_, /*accumulate=*/true);

  // db[out] += column sums of dY
  float* bias_grad = bias_.grad.data();
  for (std::size_t n = 0; n < batch; ++n) {
    const float* row = grad_output.data() + n * out_features_;
    for (std::size_t o = 0; o < out_features_; ++o) bias_grad[o] += row[o];
  }

  // dX[N, in] = dY[N, out] · W[out, in]
  Tensor grad_input({batch, in_features_});
  device().gemm(GemmOp::kNN, grad_output.data(), weight_.value.data(), grad_input.data(),
                batch, out_features_, in_features_, /*accumulate=*/false, WeightSide::kB,
                weight_.uid, weight_.mask_epoch);
  return grad_input;
}

}  // namespace subfed
