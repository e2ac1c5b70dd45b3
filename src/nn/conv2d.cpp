#include "nn/conv2d.h"

#include <cmath>
#include <cstring>

#include "tensor/device.h"
#include "util/check.h"
#include "util/rng.h"

namespace subfed {

Conv2d::Conv2d(std::string name, std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t pad)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      weight_(name + ".weight", Tensor({out_channels, in_channels, kernel, kernel}),
              /*is_prunable=*/true),
      bias_(name + ".bias", Tensor({out_channels}), /*is_prunable=*/false) {
  SUBFEDAVG_CHECK(kernel > 0 && stride > 0, "bad conv geometry");
}

void Conv2d::init(Rng& rng) {
  const double fan_in = static_cast<double>(in_channels_ * kernel_ * kernel_);
  weight_.value.fill_normal(rng, 0.0f, static_cast<float>(std::sqrt(2.0 / fan_in)));
  bias_.value.zero();
}

Tensor Conv2d::forward(const Tensor& input, bool train) {
  SUBFEDAVG_CHECK(input.shape().rank() == 4, "conv input must be NCHW, got "
                                                 << input.shape().to_string());
  const std::size_t batch = input.shape()[0];
  SUBFEDAVG_CHECK(input.shape()[1] == in_channels_,
                  "conv in_channels " << in_channels_ << " vs input " << input.shape()[1]);
  const ConvGeometry g{in_channels_, input.shape()[2], input.shape()[3],
                       kernel_,      stride_,          pad_};
  const std::size_t oh = g.out_h(), ow = g.out_w(), spatial = oh * ow;

  // The cached input exists only for backward; inference skips the deep copy
  // and clears any stale cache so backward-after-eval fails loudly.
  cached_input_ = train ? input : Tensor();
  Tensor output({batch, out_channels_, oh, ow});

  const Device& dev = device();
  const std::size_t cols = batch * spatial;  // one column per output pixel of the batch
  const std::size_t in_plane = in_channels_ * g.in_h * g.in_w;
  if (columns_.size() < g.patch_size() * cols) {
    columns_.reset();
    columns_ = dev.lease(g.patch_size() * cols);
  }
  WorkspaceLease gemm_out = dev.lease(out_channels_ * cols);

  // Unroll every sample into one wide patch matrix, then convolve the whole
  // batch with a single GEMM: out[oc, n·spatial] = W[oc, ckk] · cols[ckk, n·spatial].
  for (std::size_t n = 0; n < batch; ++n) {
    dev.im2col(input.data() + n * in_plane, g, columns_.data(), cols, n * spatial);
  }
  dev.gemm(GemmOp::kNN, weight_.value.data(), columns_.data(), gemm_out.data(),
           out_channels_, g.patch_size(), cols, /*accumulate=*/false, WeightSide::kA,
           weight_.uid, weight_.mask_epoch);

  // Regroup [oc, N·spatial] → [N, oc, spatial] and add the bias.
  const float* bias = bias_.value.data();
  for (std::size_t n = 0; n < batch; ++n) {
    float* out_n = output.data() + n * out_channels_ * spatial;
    for (std::size_t oc = 0; oc < out_channels_; ++oc) {
      const float* src = gemm_out.data() + oc * cols + n * spatial;
      float* dst = out_n + oc * spatial;
      const float b = bias[oc];
      if (b == 0.0f) {
        std::memcpy(dst, src, spatial * sizeof(float));
      } else {
        for (std::size_t s = 0; s < spatial; ++s) dst[s] = src[s] + b;
      }
    }
  }
  return output;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  return backward_impl(grad_output, /*want_input_grad=*/true);
}

void Conv2d::backward_params(const Tensor& grad_output) {
  backward_impl(grad_output, /*want_input_grad=*/false);
}

Tensor Conv2d::backward_impl(const Tensor& grad_output, bool want_input_grad) {
  SUBFEDAVG_CHECK(!cached_input_.empty(), "backward before forward");
  const Tensor& input = cached_input_;
  const std::size_t batch = input.shape()[0];
  const ConvGeometry g{in_channels_, input.shape()[2], input.shape()[3],
                       kernel_,      stride_,          pad_};
  const std::size_t oh = g.out_h(), ow = g.out_w(), spatial = oh * ow;
  SUBFEDAVG_CHECK(grad_output.shape() == Shape({batch, out_channels_, oh, ow}),
                  "grad_output shape " << grad_output.shape().to_string());

  const Device& dev = device();
  const std::size_t cols = batch * spatial;
  WorkspaceLease grad_packed = dev.lease(out_channels_ * cols);

  // Regroup dY [N, oc, spatial] → [oc, N·spatial] so both weight and input
  // gradients are single whole-batch GEMMs. columns_ still holds this
  // batch's patches: only the train-mode forward that set cached_input_
  // fills them, and eval forwards clear cached_input_ (failing the check
  // above), so backward never needs to re-unroll.
  for (std::size_t n = 0; n < batch; ++n) {
    const float* go_n = grad_output.data() + n * out_channels_ * spatial;
    for (std::size_t oc = 0; oc < out_channels_; ++oc) {
      std::memcpy(grad_packed.data() + oc * cols + n * spatial, go_n + oc * spatial,
                  spatial * sizeof(float));
    }
  }

  // dW[oc, ckk] += dY[oc, N·spatial] · colsᵀ — accumulated straight into the
  // gradient, no per-sample temporary. Neither operand is a weight.
  dev.gemm(GemmOp::kNT, grad_packed.data(), columns_.data(), weight_.grad.data(),
           out_channels_, cols, g.patch_size(), /*accumulate=*/true);

  // db[oc] += sum over the batch's spatial positions of dY.
  float* bias_grad = bias_.grad.data();
  for (std::size_t oc = 0; oc < out_channels_; ++oc) {
    float acc = 0.0f;
    const float* row = grad_packed.data() + oc * cols;
    for (std::size_t s = 0; s < cols; ++s) acc += row[s];
    bias_grad[oc] += acc;
  }
  if (!want_input_grad) return Tensor();

  // dCols[ckk, N·spatial] = Wᵀ[ckk, oc] · dY[oc, N·spatial]; scatter per sample.
  Tensor grad_input(input.shape());
  const std::size_t in_plane = in_channels_ * g.in_h * g.in_w;
  WorkspaceLease grad_columns = dev.lease(g.patch_size() * cols);
  dev.gemm(GemmOp::kTN, weight_.value.data(), grad_packed.data(), grad_columns.data(),
           g.patch_size(), out_channels_, cols, /*accumulate=*/false, WeightSide::kA,
           weight_.uid, weight_.mask_epoch);
  for (std::size_t n = 0; n < batch; ++n) {
    dev.col2im(grad_columns.data(), g, grad_input.data() + n * in_plane, cols, n * spatial);
  }
  return grad_input;
}

}  // namespace subfed
