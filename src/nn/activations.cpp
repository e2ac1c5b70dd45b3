#include "nn/activations.h"

#include "util/check.h"

namespace subfed {

Tensor ReLU::forward(const Tensor& input, bool train) {
  Tensor output(input.shape());
  const float* x = input.data();
  float* y = output.data();
  if (!train) {
    // Only backward reads the mask: an eval forward builds none and drops the
    // last one, so a backward after it fails loudly.
    mask_ = Tensor();
    for (std::size_t i = 0, n = input.numel(); i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
    return output;
  }
  // The mask is overwritten in full below, so it is reused while the shape
  // holds (every step of a fixed batch size).
  if (mask_.shape() != input.shape()) mask_ = Tensor(input.shape());
  float* mask = mask_.data();
  for (std::size_t i = 0, n = input.numel(); i < n; ++i) {
    const bool pos = x[i] > 0.0f;  // false for -0.0f and NaN: both map to +0
    y[i] = pos ? x[i] : 0.0f;
    mask[i] = pos ? 1.0f : 0.0f;
  }
  return output;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  SUBFEDAVG_CHECK(grad_output.numel() == mask_.numel(), "relu backward before forward");
  // A multiply, not a select: dY·0 keeps the sign of zero and NaN of dY.
  Tensor grad_input(grad_output.shape());
  const float* dy = grad_output.data();
  const float* mask = mask_.data();
  float* dx = grad_input.data();
  for (std::size_t i = 0, n = grad_output.numel(); i < n; ++i) dx[i] = dy[i] * mask[i];
  return grad_input;
}

Tensor Flatten::forward(const Tensor& input, bool /*train*/) {
  SUBFEDAVG_CHECK(input.shape().rank() >= 2, "flatten needs a batch dim");
  input_shape_ = input.shape();
  const std::size_t batch = input.shape()[0];
  Tensor output = input;
  output.reshape({batch, input.numel() / batch});
  return output;
}

Tensor Flatten::backward(const Tensor& grad_output) {
  Tensor grad_input = grad_output;
  grad_input.reshape(input_shape_);
  return grad_input;
}

}  // namespace subfed
