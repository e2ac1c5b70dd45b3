#include "tensor/device.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <new>
#include <unordered_map>
#include <utility>

#include "tensor/backend.h"
#include "tensor/kernels.h"
#include "telemetry/telemetry.h"
#include "util/check.h"
#include "util/env.h"

namespace subfed {
namespace {

/// Registered devices, sorted by name (list_devices' order).
constexpr std::pair<const char*, DeviceKind> kDeviceNames[] = {
    {"blocked", DeviceKind::kBlocked},
    {"naive", DeviceKind::kNaive},
    {"sparse", DeviceKind::kSparse}};

const char* device_name(DeviceKind kind) noexcept {
  for (const auto& [name, known] : kDeviceNames) {
    if (known == kind) return name;
  }
  return "blocked";
}

/// Largest B-side operand the sparse device density-scans when a call names
/// no weight side: covers every weight matrix in the model zoo (cnn_deep's
/// fc1 is 2048×64 = 2^17) while excluding the biggest im2col activation
/// matrices, which would cost a measurable fraction of the GEMM to scan.
constexpr std::size_t kMaxInferredWeightB = std::size_t{1} << 18;

struct PlanKey {
  GemmOp op;
  WeightSide side;
  std::size_t m, k, n;

  bool operator==(const PlanKey& o) const noexcept {
    return op == o.op && side == o.side && m == o.m && k == o.k && n == o.n;
  }
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& key) const noexcept {
    std::size_t h = static_cast<std::size_t>(key.op) * 3u + static_cast<std::size_t>(key.side);
    for (std::size_t v : {key.m, key.k, key.n}) {
      h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    }
    return h;
  }
};

/// Cached sparse-vs-dense choice for one weight tensor at one mask epoch.
struct WeightDecision {
  std::uint64_t uid = 0;
  std::uint64_t epoch = 0;
  bool use_sparse = false;
};

struct PlanEntry {
  std::size_t chunks = 1;
  /// math_threads()/pool size the chunk count was planned for; a runtime
  /// change of the cap replans (counted as a miss) instead of going stale.
  std::size_t threads_seen = ~std::size_t{0};
  /// MRU list, newest first, capped — one shape is shared by at most a
  /// handful of live weights (e.g. the conv layers of concurrent clients).
  std::vector<WeightDecision> decisions;
};

constexpr std::size_t kMaxDecisionsPerShape = 8;

/// What Device::gemm resolved for one call.
struct Plan {
  std::size_t chunks = 1;
  bool use_sparse = false;
};

constexpr std::size_t kMinLeaseFloats = 256;

std::size_t lease_class(std::size_t floats) noexcept {
  std::size_t c = kMinLeaseFloats;
  while (c < floats) c <<= 1;
  return c;
}

}  // namespace

// -- Impl ---------------------------------------------------------------------

struct Device::Impl {
  mutable std::mutex plan_mu;
  std::unordered_map<PlanKey, PlanEntry, PlanKeyHash> plans;

  mutable std::mutex pool_mu;
  std::unordered_map<std::size_t, std::vector<float*>> pool;  // size class → free buffers

  std::atomic<std::uint64_t> plan_hits{0};
  std::atomic<std::uint64_t> plan_misses{0};
  std::atomic<std::uint64_t> density_scans{0};
  std::atomic<std::uint64_t> workspace_leases{0};
  std::atomic<std::uint64_t> workspace_reuses{0};
  std::atomic<std::uint64_t> bytes_allocated{0};
};

// -- WorkspaceLease -----------------------------------------------------------

WorkspaceLease::WorkspaceLease(WorkspaceLease&& other) noexcept
    : device_(other.device_), data_(other.data_), size_(other.size_) {
  other.device_ = nullptr;
  other.data_ = nullptr;
  other.size_ = 0;
}

WorkspaceLease& WorkspaceLease::operator=(WorkspaceLease&& other) noexcept {
  if (this != &other) {
    reset();
    device_ = other.device_;
    data_ = other.data_;
    size_ = other.size_;
    other.device_ = nullptr;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

WorkspaceLease::~WorkspaceLease() { reset(); }

void WorkspaceLease::reset() noexcept {
  if (data_ != nullptr) device_->release(data_, size_);
  device_ = nullptr;
  data_ = nullptr;
  size_ = 0;
}

// -- Device -------------------------------------------------------------------

Device::Device(DeviceKind kind) : kind_(kind), name_(device_name(kind)), impl_(new Impl) {}

Device::~Device() {
  std::lock_guard<std::mutex> lock(impl_->pool_mu);
  for (auto& [size_class, buffers] : impl_->pool) {
    for (float* data : buffers) {
      ::operator delete(data, std::align_val_t{64});
    }
  }
}

float* Device::allocate(std::size_t floats) const {
  if (floats == 0) floats = 1;
  impl_->bytes_allocated.fetch_add(floats * sizeof(float), std::memory_order_relaxed);
  return static_cast<float*>(::operator new(floats * sizeof(float), std::align_val_t{64}));
}

void Device::deallocate(float* data, std::size_t /*floats*/) const noexcept {
  if (data != nullptr) ::operator delete(data, std::align_val_t{64});
}

WorkspaceLease Device::lease(std::size_t floats) const {
  const std::size_t size_class = lease_class(floats);
  impl_->workspace_leases.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(impl_->pool_mu);
    auto it = impl_->pool.find(size_class);
    if (it != impl_->pool.end() && !it->second.empty()) {
      float* data = it->second.back();
      it->second.pop_back();
      impl_->workspace_reuses.fetch_add(1, std::memory_order_relaxed);
      return WorkspaceLease(this, data, size_class);
    }
  }
  return WorkspaceLease(this, allocate(size_class), size_class);
}

void Device::release(float* data, std::size_t floats) const noexcept {
  std::lock_guard<std::mutex> lock(impl_->pool_mu);
  impl_->pool[floats].push_back(data);
}

DeviceStats Device::stats() const noexcept {
  DeviceStats s;
  s.plan_hits = impl_->plan_hits.load(std::memory_order_relaxed);
  s.plan_misses = impl_->plan_misses.load(std::memory_order_relaxed);
  s.density_scans = impl_->density_scans.load(std::memory_order_relaxed);
  s.workspace_leases = impl_->workspace_leases.load(std::memory_order_relaxed);
  s.workspace_reuses = impl_->workspace_reuses.load(std::memory_order_relaxed);
  s.bytes_allocated = impl_->bytes_allocated.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(impl_->plan_mu);
    s.plan_entries = impl_->plans.size();
  }
  return s;
}

void Device::im2col(const float* image, const ConvGeometry& g, float* columns,
                    std::size_t col_stride, std::size_t col_offset) const {
  im2col_strided(image, g, columns, col_stride, col_offset);
}

void Device::col2im(const float* columns, const ConvGeometry& g, float* image,
                    std::size_t col_stride, std::size_t col_offset) const {
  col2im_strided(columns, g, image, col_stride, col_offset);
}

void Device::gemm(GemmOp op, const float* a, const float* b, float* c, std::size_t m,
                  std::size_t k, std::size_t n, bool accumulate, WeightSide weight_side,
                  std::uint64_t weight_uid, std::uint64_t weight_epoch) const {
  static telemetry::Counter& plan_hit_c = telemetry::counter("device.plan_hit");
  static telemetry::Counter& plan_miss_c = telemetry::counter("device.plan_miss");
  static telemetry::Counter& density_scan_c = telemetry::counter("device.density_scan");

  if (kern::handle_trivial(c, m, k, n, accumulate)) return;

  // Resolve the execution plan: chunk fan-out always; sparse-vs-dense only on
  // the sparse device.
  const bool sparse_device = kind_ == DeviceKind::kSparse;
  Plan plan;
  bool hit = true;
  bool need_scan = false;
  const PlanKey key{op, weight_side, m, k, n};
  const std::size_t threads_now = math_threads();
  const std::size_t flops = 2 * m * k * n;
  {
    std::lock_guard<std::mutex> lock(impl_->plan_mu);
    PlanEntry& entry = impl_->plans[key];
    if (entry.threads_seen != threads_now) {
      entry.chunks = kern::plan_chunks(m, flops);
      entry.threads_seen = threads_now;
      hit = false;
    }
    plan.chunks = entry.chunks;
    if (sparse_device) {
      if (weight_side == WeightSide::kNone || weight_uid == 0) {
        need_scan = true;  // anonymous operand: inspect per call
        hit = false;
      } else {
        auto it = std::find_if(entry.decisions.begin(), entry.decisions.end(),
                               [&](const WeightDecision& d) { return d.uid == weight_uid; });
        if (it != entry.decisions.end() && it->epoch == weight_epoch) {
          plan.use_sparse = it->use_sparse;
          if (it != entry.decisions.begin()) std::rotate(entry.decisions.begin(), it, it + 1);
        } else {
          need_scan = true;
          hit = false;
        }
      }
    }
  }

  // O(operand) scans run outside the lock; concurrent first-callers may scan
  // the same weight once each, then all insert the identical decision.
  const auto sparse_enough = [&](const float* data, std::size_t size) {
    impl_->density_scans.fetch_add(1, std::memory_order_relaxed);
    density_scan_c.add();
    return kern::density(data, size) <= sparse_density_threshold();
  };
  WeightSide side = weight_side;
  if (need_scan && side == WeightSide::kNone) {
    // No weight hint (conv dW is kNT, linear dW is kTN): the weight is taken
    // to be A for nn/tn, else B for nn/nt when it is at most weight-sized.
    if (op != GemmOp::kNT && sparse_enough(a, m * k)) {
      side = WeightSide::kA;
    } else if (op != GemmOp::kTN && k * n <= kMaxInferredWeightB && sparse_enough(b, k * n)) {
      side = WeightSide::kB;
    }
    plan.use_sparse = side != WeightSide::kNone;
  } else if (need_scan) {
    // A has m·k elements and B k·n in every orientation.
    plan.use_sparse = side == WeightSide::kA ? sparse_enough(a, m * k) : sparse_enough(b, k * n);
    if (weight_uid != 0) {
      std::lock_guard<std::mutex> lock(impl_->plan_mu);
      PlanEntry& entry = impl_->plans[key];
      auto it = std::find_if(entry.decisions.begin(), entry.decisions.end(),
                             [&](const WeightDecision& d) { return d.uid == weight_uid; });
      if (it != entry.decisions.end()) entry.decisions.erase(it);
      entry.decisions.insert(entry.decisions.begin(),
                             WeightDecision{weight_uid, weight_epoch, plan.use_sparse});
      if (entry.decisions.size() > kMaxDecisionsPerShape) entry.decisions.pop_back();
    }
  }
  if (hit) {
    impl_->plan_hits.fetch_add(1, std::memory_order_relaxed);
    plan_hit_c.add();
  } else {
    impl_->plan_misses.fetch_add(1, std::memory_order_relaxed);
    plan_miss_c.add();
  }

  execute(op, side, a, b, c, m, k, n, accumulate, plan.chunks, plan.use_sparse);
}

void Device::execute(GemmOp op, WeightSide side, const float* a, const float* b, float* c,
                     std::size_t m, std::size_t k, std::size_t n, bool accumulate,
                     std::size_t chunks, bool use_sparse) const {
  if (use_sparse) {
    // Sparse execution: the decision is made, so only pack + run here.
    // "Weight on A, un/transposed" becomes per-output-row CSR + axpy;
    // "weight on B" becomes per-output-column CSR + dot.
    kern::Csr csr;
    bool axpy = false;
    if (side == WeightSide::kA && op == GemmOp::kNN) {
      csr = kern::Csr::pack(a, m, k);
      axpy = true;
    } else if (side == WeightSide::kA && op == GemmOp::kTN) {
      csr = kern::Csr::pack_transposed(a, k, m);
      axpy = true;
    } else if (side == WeightSide::kB && op == GemmOp::kNN) {
      csr = kern::Csr::pack_transposed(b, k, n);
    } else if (side == WeightSide::kB && op == GemmOp::kNT) {
      csr = kern::Csr::pack(b, n, k);
    } else {
      // Weight placements the CSR kernels have no fast path for (kTN weight
      // on B, kNT weight on A) never arise from the layers; run dense.
      use_sparse = false;
    }
    if (use_sparse) {
      if (axpy) {
        kern::run_row_chunks(m, chunks, [&](std::size_t i0, std::size_t i1) {
          kern::sparse_axpy_panel(csr.row_begin.data(), csr.col.data(), csr.val.data(), b, c,
                                  n, i0, i1, accumulate);
        });
      } else {
        kern::run_row_chunks(m, chunks, [&](std::size_t i0, std::size_t i1) {
          kern::sparse_dot_panel(csr.row_begin.data(), csr.col.data(), csr.val.data(), a, c,
                                 k, n, i0, i1, accumulate);
        });
      }
      return;
    }
  }

  // The naive reference loops run unchunked.
  if (kind_ == DeviceKind::kNaive) {
    switch (op) {
      case GemmOp::kNN:
        accumulate ? gemm_accumulate(a, b, c, m, k, n) : subfed::gemm(a, b, c, m, k, n);
        break;
      case GemmOp::kTN:
        accumulate ? gemm_at_b_accumulate(a, b, c, m, k, n) : gemm_at_b(a, b, c, m, k, n);
        break;
      case GemmOp::kNT:
        accumulate ? gemm_a_bt_accumulate(a, b, c, m, k, n) : gemm_a_bt(a, b, c, m, k, n);
        break;
    }
    return;
  }

  // Dense blocked execution with the planned fan-out.
  switch (op) {
    case GemmOp::kNN:
      kern::run_row_chunks(m, chunks, [&](std::size_t i0, std::size_t i1) {
        kern::gemm_panel_nn(a, b, c, /*lda=*/k, k, n, i0, i1, accumulate);
      });
      break;
    case GemmOp::kTN:
      kern::run_row_chunks(m, chunks, [&](std::size_t i0, std::size_t i1) {
        kern::gemm_panel_tn(a, b, c, /*lda=*/m, k, n, i0, i1, accumulate);
      });
      break;
    case GemmOp::kNT:
      kern::run_row_chunks(m, chunks, [&](std::size_t i0, std::size_t i1) {
        kern::gemm_panel_nt(a, b, c, k, n, i0, i1, accumulate);
      });
      break;
  }
}

// -- registry -----------------------------------------------------------------

const Device& get_device(const std::string& name) {
  // Heap-allocated and never destroyed: leases held by static-lifetime
  // objects may drain back into a pool during any phase of shutdown, and the
  // devices stay reachable for LSan through this table.
  static Device* const devices[] = {new Device(DeviceKind::kNaive),
                                    new Device(DeviceKind::kBlocked),
                                    new Device(DeviceKind::kSparse)};
  for (const auto& [known, kind] : kDeviceNames) {
    if (name == known) return *devices[static_cast<std::size_t>(kind)];
  }
  SUBFEDAVG_CHECK(false, "unknown device '" << name << "' (naive | blocked | sparse)");
  return *devices[0];  // unreachable
}

bool has_device(const std::string& name) {
  for (const auto& [known, kind] : kDeviceNames) {
    if (name == known) return true;
  }
  return false;
}

std::vector<std::string> list_devices() {
  std::vector<std::string> names;
  for (const auto& [name, kind] : kDeviceNames) names.emplace_back(name);
  return names;
}

const Device& default_device() {
  static const Device& device = get_device(env_string("SUBFEDAVG_BACKEND", "blocked"));
  return device;
}

}  // namespace subfed
