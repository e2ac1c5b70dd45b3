#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "nn/model_zoo.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Workloads
//
// Every workload names transport=loopback (payloads really materialize, and a
// later change of the default transport does not move the workload) and
// leaves backend/compute at auto (device changes show). Rounds and evaluation
// cadence are sized so one federation takes a few seconds on a 4-core x86
// box and a run holds at least two of them.

std::vector<std::string> workload_names() {
  return {"hybrid_cifar10", "dense_cifar10", "fanout_mnist"};
}

bool make_workload(const std::string& name, std::uint64_t seed, bool smoke,
                   std::size_t threads, Workload& out) {
  subfed::ExperimentSpec spec;
  spec.seed = seed;
  spec.transport = "loopback";
  spec.backend = "auto";
  spec.compute = "auto";
  spec.math_threads = threads;
  spec.telemetry = "off";
  if (name == "hybrid_cifar10" || name == "dense_cifar10") {
    spec.dataset = "cifar10";
    spec.model = "lenet5";
    spec.clients = smoke ? 6 : 20;
    spec.shard = smoke ? 10 : 50;
    spec.epochs = smoke ? 2 : 5;
    spec.batch = 10;
    spec.sample = smoke ? 0.5 : 0.3;
    spec.rounds = smoke ? 2 : 10;
    spec.eval_every = smoke ? 1 : 2;
    spec.target = 0.7;
    if (name == "hybrid_cifar10") {
      spec.algo = "subfedavg_hy";
      spec.algo_params.set_double("channel_target", 0.5);
      out.weight_target = 0.7;
      out.channel_target = 0.5;
    } else {
      spec.algo = "fedavg";
    }
  } else if (name == "fanout_mnist") {
    spec.dataset = "mnist";
    spec.model = "cnn5";
    spec.algo = "subfedavg_un";
    spec.clients = smoke ? 20 : 200;
    spec.shard = 10;
    spec.epochs = 2;
    spec.batch = 10;
    spec.sample = 0.25;
    spec.client_cache = smoke ? 4 : 64;
    spec.quantize = "int8";
    spec.rounds = smoke ? 2 : 16;
    spec.eval_every = smoke ? 1 : 4;
    spec.target = 0.5;
    out.weight_target = 0.5;
  } else {
    return false;
  }
  out.name = name;
  out.spec = spec;
  out.accuracy_floor = smoke ? 0.0 : 0.2;  // toy sizes are too small to learn
  return true;
}

std::vector<std::string> layer_metric_stems() {
  // lenet5 is cnn5 with one more FC block; both share layer kinds 0..11.
  subfed::Model model = subfed::ModelSpec::lenet5(10).build();
  std::vector<std::string> stems;
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    char prefix[32];
    std::snprintf(prefix, sizeof(prefix), "nn.%02zu.", i);
    stems.push_back(prefix + model.layer(i).kind());
  }
  return stems;
}

// ---------------------------------------------------------------------------
// Fingerprint

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

bool Fingerprint::operator==(const Fingerprint& other) const { return diff(other).empty(); }

std::string Fingerprint::diff(const Fingerprint& other) const {
  std::ostringstream os;
  os.precision(17);
  if (curve.size() != other.curve.size()) {
    os << "curve length " << curve.size() << " vs " << other.curve.size();
    return os.str();
  }
  for (std::size_t i = 0; i < curve.size(); ++i) {
    if (curve[i].first != other.curve[i].first ||
        !same_bits(curve[i].second, other.curve[i].second)) {
      os << "curve point " << i << ": round " << curve[i].first << " acc " << curve[i].second
         << " vs round " << other.curve[i].first << " acc " << other.curve[i].second;
      return os.str();
    }
  }
  if (per_client.size() != other.per_client.size()) {
    os << "client count " << per_client.size() << " vs " << other.per_client.size();
    return os.str();
  }
  for (std::size_t k = 0; k < per_client.size(); ++k) {
    if (!same_bits(per_client[k], other.per_client[k])) {
      os << "client " << k << " accuracy " << per_client[k] << " vs " << other.per_client[k];
      return os.str();
    }
  }
  if (up_bytes != other.up_bytes || down_bytes != other.down_bytes) {
    os << "bytes up/down " << up_bytes << "/" << down_bytes << " vs " << other.up_bytes << "/"
       << other.down_bytes;
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Statistics

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

std::pair<double, double> tail(std::vector<double> values) {
  const std::size_t n = values.size();
  if (n < 21) return {median(values), 50.0};
  std::sort(values.begin(), values.end());
  // values[n - 11] has exactly ten samples above it.
  const double pct = std::floor(100.0 * static_cast<double>(n - 10) / static_cast<double>(n));
  return {values[n - 11], pct};
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// ---------------------------------------------------------------------------
// Metrics

std::string Metrics::json() const {
  std::ostringstream os;
  os.precision(17);
  os << '{';
  bool first = true;
  for (const auto& [name, entry] : values_) {
    if (!first) os << ", ";
    first = false;
    const double v = std::isfinite(entry.first) ? entry.first : 0.0;
    os << '"' << name << "\": {\"value\": " << v << ", \"unit\": \"" << entry.second << "\"}";
  }
  os << '}';
  return os.str();
}

// ---------------------------------------------------------------------------
// Tracer

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
}

int Tracer::begin(const std::string& name, int parent, int round) {
  const std::int64_t start = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, start, -1, parent, round});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int id) {
  const std::int64_t stop = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ns = stop;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_ns >= s.start_ns) out.push_back((s.end_ns - s.start_ns) * 1e-6);
  }
  return out;
}

std::vector<double> Tracer::per_round_sum_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<int, double> sums;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_ns >= s.start_ns) sums[s.round] += (s.end_ns - s.start_ns) * 1e-6;
  }
  std::vector<double> out;
  for (const auto& [round, sum] : sums) out.push_back(sum);
  return out;
}

std::vector<double> Tracer::self_ms() const {
  const std::vector<Span> all = spans();
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(all.size());
  for (const Span& s : all) {
    if (s.parent >= 0) children[static_cast<std::size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
  }
  std::vector<double> out(all.size(), 0.0);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::vector<std::pair<std::int64_t, std::int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    std::int64_t covered = 0, reach = s.start_ns;
    for (const auto& [a, b] : kids) {
      const std::int64_t lo = std::max(a, reach);
      const std::int64_t hi = std::min(b, s.end_ns);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, std::min(b, s.end_ns));
    }
    out[i] = std::max<std::int64_t>(0, s.end_ns - s.start_ns - covered) * 1e-6;
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = self_ms();
  std::ofstream file(path);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    file << "{\"id\": " << i << ", \"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
         << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
         << ", \"round\": " << s.round << ", \"self_ms\": " << self[i] << "}\n";
  }
}

}  // namespace perfbench
