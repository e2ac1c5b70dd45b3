// Shared pieces of the federation benchmark: workloads, run fingerprints,
// statistics, the metric sink and the span tracer.
//
// The benchmark drives whole federations through the public
// FederationSession API (timed mode) and replays the same rounds from the
// library's public building blocks with spans around each call (traced mode).
// Nothing here reaches into the library's internals.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "fl/experiment.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  std::string name;
  subfed::ExperimentSpec spec;
  /// Committed pruned-fraction ceilings the run must respect (0 = none).
  double weight_target = 0.0;
  double channel_target = 0.0;
  /// The mean final personalized accuracy must clear this (10-class chance
  /// is 0.1).
  double accuracy_floor = 0.0;
};

/// The named workload's spec, generated from `seed` alone. `smoke` shrinks it
/// to a toy size that runs in seconds. Returns false for an unknown name.
bool make_workload(const std::string& name, std::uint64_t seed, bool smoke,
                   std::size_t threads, Workload& out);
std::vector<std::string> workload_names();

// ---------------------------------------------------------------------------
// Results that must repeat bit for bit

struct Fingerprint {
  std::vector<std::pair<std::size_t, double>> curve;  ///< (round, mean accuracy)
  std::vector<double> per_client;                      ///< final accuracies
  std::uint64_t up_bytes = 0;
  std::uint64_t down_bytes = 0;

  bool operator==(const Fingerprint& other) const;
  /// First difference, for the failure message ("" when equal).
  std::string diff(const Fingerprint& other) const;
};

// ---------------------------------------------------------------------------
// Statistics

double median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> values, double p);
/// The highest percentile that still has at least ten samples above it
/// (the median when there are fewer than 21 samples): {value, percentile}.
std::pair<double, double> tail(std::vector<double> values);
double mean(const std::vector<double>& values);

// ---------------------------------------------------------------------------
// Metrics

class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  const std::map<std::string, std::pair<double, std::string>>& values() const noexcept {
    return values_;
  }
  /// {"name": {"value": v, "unit": "u"}, ...} with every digit of each value.
  std::string json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

// ---------------------------------------------------------------------------
// Tracing

/// One recorded interval. `parent` is the index of the enclosing span (-1 for
/// a root); `round` is the 1-based federation round it belongs to (0 for
/// set-up work).
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int round = 0;
};

/// In-memory span recorder, safe to call from the thread pool. Spans are kept
/// until write() at exit.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Opens a span now; close it with end().
  int begin(const std::string& name, int parent, int round);
  void end(int id);

  /// Snapshot of the spans recorded so far.
  std::vector<Span> spans() const;
  /// Durations (ms) of every closed span named `name`.
  std::vector<double> durations_ms(const std::string& name) const;
  /// Per round: summed duration (ms) of spans named `name` (rounds without
  /// one are skipped).
  std::vector<double> per_round_sum_ms(const std::string& name) const;

  /// Self time of every span: its duration minus the part of its interval
  /// covered by its children (overlapping children count once).
  std::vector<double> self_ms() const;

  /// One JSON object per line: name, start/end (ns since the tracer began),
  /// parent, round, self time.
  void write(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Closes its span on scope exit.
class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name, int parent, int round)
      : tracer_(tracer), id_(tracer.begin(name, parent, round)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

// ---------------------------------------------------------------------------
// Traced replay

struct ReplayResult {
  Fingerprint fingerprint;
  double run_s = 0.0;     ///< replay wall time, probes excluded
  std::size_t rounds = 0;
};

/// Replays `workload`'s rounds on the benchmark's own objects with spans
/// around every call into the library, and fills the per-layer metrics that
/// come from the replay (nn, tensor, pruning, core, comm, data, fl).
ReplayResult replay(const Workload& workload, Tracer& tracer, Metrics& metrics);

/// Names of the per-layer timing metrics, in model layer order, that the
/// benchmark reports for every workload: the union over the zoo's lenet5 and
/// cnn5 (a layer a model lacks reports 0).
std::vector<std::string> layer_metric_stems();

}  // namespace perfbench
