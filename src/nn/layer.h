// Layer interface: explicit forward / backward with cached activations.
//
// The library uses per-layer analytic backward passes instead of a taped
// autograd: the paper's models are straight-line Sequential CNNs, and explicit
// backward keeps the hot path allocation-light and easy to verify against
// finite differences (see tests/test_nn_gradcheck.cpp).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/parameter.h"
#include "tensor/device.h"
#include "tensor/tensor.h"

namespace subfed {

class Layer {
 public:
  virtual ~Layer() = default;

  /// Selects the device this layer's forward/backward run on; nullptr
  /// restores the process default. Only GEMM-backed layers (Conv2d, Linear)
  /// consult it, but it lives on the base so Model::set_device is uniform.
  void set_device(const Device* device) noexcept { device_ = device; }
  /// The active device: the explicit one, else default_device().
  const Device& device() const {
    return device_ != nullptr ? *device_ : default_device();
  }

  /// Computes the layer output. `train` toggles training-time behaviour
  /// (BatchNorm batch statistics). Implementations cache what backward needs.
  virtual Tensor forward(const Tensor& input, bool train) = 0;

  /// Given dLoss/dOutput, accumulates parameter gradients and returns
  /// dLoss/dInput. Must be called after forward with matching shapes.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Backward for a model's input layer: accumulates exactly the parameter
  /// gradients backward() would, but nothing consumes dLoss/dInput, so a
  /// layer may skip computing it (Conv2d runs no input-gradient GEMM or
  /// col2im). The default runs backward() and drops the result.
  virtual void backward_params(const Tensor& grad_output) { backward(grad_output); }

  /// Learnable parameters (empty for stateless layers). Pointers remain valid
  /// for the life of the layer.
  virtual std::vector<Parameter*> parameters() { return {}; }

  /// Persistent non-learnable buffers (BatchNorm running stats).
  virtual std::vector<Parameter*> buffers() { return {}; }

  /// Human-readable kind, e.g. "Conv2d".
  virtual std::string kind() const = 0;

 private:
  const Device* device_ = nullptr;  ///< nullptr → default_device()
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace subfed
