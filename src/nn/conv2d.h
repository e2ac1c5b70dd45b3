// 2-D convolution (square kernel) via batched im2col + GEMM: the whole batch
// is unrolled into one [C·K·K, N·outH·outW] patch matrix so each pass is a
// single large GEMM on the layer's Device instead of a per-sample loop.
#pragma once

#include <vector>

#include "nn/layer.h"
#include "tensor/device.h"
#include "tensor/gemm.h"

namespace subfed {

class Rng;

class Conv2d final : public Layer {
 public:
  /// Weight shape [out_channels, in_channels, kernel, kernel]; bias [out_channels].
  Conv2d(std::string name, std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, std::size_t stride = 1, std::size_t pad = 0);

  /// Kaiming-normal weight init, zero bias.
  void init(Rng& rng);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  /// dW/db only: no input-gradient GEMM, col2im or grad_columns lease.
  void backward_params(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  std::string kind() const override { return "Conv2d"; }

  std::size_t in_channels() const noexcept { return in_channels_; }
  std::size_t out_channels() const noexcept { return out_channels_; }
  std::size_t kernel() const noexcept { return kernel_; }
  std::size_t stride() const noexcept { return stride_; }
  std::size_t pad() const noexcept { return pad_; }

  Parameter& weight() noexcept { return weight_; }
  Parameter& bias() noexcept { return bias_; }

 private:
  /// Shared backward: dW/db always; dX (returned) only when
  /// `want_input_grad`, else an empty tensor.
  Tensor backward_impl(const Tensor& grad_output, bool want_input_grad);

  std::size_t in_channels_, out_channels_, kernel_, stride_, pad_;
  Parameter weight_;
  Parameter bias_;
  Tensor cached_input_;  // [N, C, H, W] saved by forward for backward
  /// im2col patches [patch × N·spatial], leased from the layer's device and
  /// held across calls. Invariant: whenever cached_input_ is non-empty (only
  /// train-mode forwards set it, and eval forwards clear it), `columns_`
  /// holds exactly that input's patches — so backward never recomputes the
  /// im2col. Other scratch (forward GEMM output, backward column/packed
  /// grads) is leased per call and returned to the device pool on scope exit.
  WorkspaceLease columns_;
};

}  // namespace subfed
