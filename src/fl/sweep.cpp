#include "fl/sweep.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <set>
#include <sstream>
#include <thread>

#include "comm/transport.h"
#include "util/check.h"
#include "util/json.h"
#include "util/parse.h"
#include "util/thread_pool.h"

namespace subfed {

namespace {

/// Spec keys that always differ between runs but never identify a result row.
bool is_bookkeeping_key(const std::string& key) {
  return key == "out" || key == "checkpoint_path" || key == "tag";
}

/// Matches the sweep_run_file_name pattern: "NNNNN-<name>.json".
bool is_sweep_run_file(const std::string& name) {
  if (name.size() < 11 || name.substr(name.size() - 5) != ".json") return false;
  for (std::size_t i = 0; i < 5; ++i) {
    if (!std::isdigit(static_cast<unsigned char>(name[i]))) return false;
  }
  return name[5] == '-';
}

double elapsed_seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - since).count();
}

/// Everything FederatedData synthesis depends on; runs that agree on this key
/// can share one instance (FederatedData is immutable after construction).
std::string data_cache_key(const ExperimentSpec& spec) {
  const FederatedDataConfig config = spec.data_config();
  std::ostringstream os;
  // Full double precision: configs differing past the default 6 significant
  // digits must not collide into one shared dataset.
  os.precision(std::numeric_limits<double>::max_digits10);
  os << spec.dataset << '|' << static_cast<int>(config.partition.kind) << '|'
     << config.partition.num_clients << '|' << config.partition.shards_per_client << '|'
     << config.partition.shard_size << '|' << config.partition.dirichlet_alpha << '|'
     << config.test_per_class << '|' << config.val_fraction << '|' << config.seed;
  return os.str();
}

/// Per-sweep dataset cache: the first run needing a configuration synthesizes
/// it (outside the lock) and publishes it through a shared_future; later runs
/// with the same key block on that future instead of re-synthesizing. The
/// cache is constructed with each key's total use count, and release() drops
/// an entry once its last run finished — peak residency is bounded by the
/// datasets of the runs in flight, not the whole grid.
class FederatedDataCache {
 public:
  explicit FederatedDataCache(std::map<std::string, std::size_t> uses)
      : remaining_(std::move(uses)) {}

  std::shared_ptr<const FederatedData> get(const std::string& key,
                                           const ExperimentSpec& spec) {
    std::shared_future<std::shared_ptr<const FederatedData>> future;
    std::promise<std::shared_ptr<const FederatedData>> promise;
    bool creator = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto [it, inserted] = entries_.emplace(key, future);
      if (inserted) {
        it->second = promise.get_future().share();
        creator = true;
        ++synthesized_;
      }
      future = it->second;
    }
    if (creator) {
      try {
        promise.set_value(
            std::make_shared<const FederatedData>(spec.dataset_spec(), spec.data_config()));
      } catch (...) {
        promise.set_exception(std::current_exception());
      }
    }
    return future.get();  // rethrows the creator's synthesis error, if any
  }

  /// One run with this key finished (successfully or not).
  void release(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = remaining_.find(key);
    if (it == remaining_.end()) return;
    if (--it->second == 0) {
      entries_.erase(key);
      remaining_.erase(it);
    }
  }

  /// Distinct data configurations actually synthesized.
  std::size_t synthesized() const {
    std::lock_guard<std::mutex> lock(mu_);
    return synthesized_;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::size_t> remaining_;
  std::map<std::string, std::shared_future<std::shared_ptr<const FederatedData>>> entries_;
  std::size_t synthesized_ = 0;
};

}  // namespace

SweepAxis parse_axis(const std::string& text) {
  const std::size_t eq = text.find('=');
  SUBFEDAVG_CHECK(eq != std::string::npos && eq > 0,
                  "axis expects key=v1,v2,..., got '" << text << "'");
  SweepAxis axis;
  axis.key = text.substr(0, eq);
  std::string rest = text.substr(eq + 1);
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = rest.find(',', start);
    const std::string value = rest.substr(start, comma - start);
    SUBFEDAVG_CHECK(!value.empty(),
                    "axis '" << axis.key << "' has an empty value in '" << text << "'");
    axis.values.push_back(value);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return axis;
}

void SweepDescription::add_axis(const std::string& text) {
  SweepAxis axis = parse_axis(text);
  for (const SweepAxis& existing : axes) {
    SUBFEDAVG_CHECK(existing.key != axis.key,
                    "axis '" << axis.key << "' declared twice");
  }
  axes.push_back(std::move(axis));
}

void SweepDescription::add_replicas(std::size_t n) {
  SUBFEDAVG_CHECK(n > 0, "replicas must be positive");
  for (const SweepAxis& existing : axes) {
    SUBFEDAVG_CHECK(existing.key != "seed",
                    "cannot add replicas: a seed axis is already declared");
  }
  SweepAxis axis;
  axis.key = "seed";
  for (std::size_t i = 0; i < n; ++i) {
    axis.values.push_back(std::to_string(base.seed + i));
  }
  axes.push_back(std::move(axis));
}

void SweepDescription::apply_file(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) line.pop_back();
    const std::size_t start = line.find_first_not_of(' ');
    if (start == std::string::npos) continue;
    line = line.substr(start);
    if (line[0] == '#') continue;
    if (line.find(',') != std::string::npos) {
      add_axis(line);
    } else {
      base.apply_kv(line);
    }
  }
}

std::size_t SweepDescription::total_runs() const {
  std::size_t total = 1;
  for (const SweepAxis& axis : axes) total *= axis.values.size();
  return total;
}

std::vector<SweepRun> SweepDescription::expand() const {
  for (const SweepAxis& axis : axes) {
    SUBFEDAVG_CHECK(!axis.values.empty(), "axis '" << axis.key << "' has no values");
  }
  const std::size_t total = total_runs();
  std::vector<SweepRun> runs;
  runs.reserve(total);

  std::vector<std::size_t> pick(axes.size(), 0);
  for (std::size_t index = 0; index < total; ++index) {
    SweepRun run;
    run.index = index;
    run.spec = base;
    std::ostringstream name;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      const std::string& key = axes[a].key;
      const std::string& value = axes[a].values[pick[a]];
      // apply_kv validates the key and value exactly like a spec file would.
      run.spec.apply_kv(key + "=" + value);
      run.assignment.emplace_back(key, value);
      if (a != 0) name << ',';
      name << key << '=' << value;
    }
    run.name = axes.empty() ? "run" : name.str();
    runs.push_back(std::move(run));

    // Odometer increment, last axis fastest.
    for (std::size_t a = axes.size(); a-- > 0;) {
      if (++pick[a] < axes[a].values.size()) break;
      pick[a] = 0;
    }
  }
  return runs;
}

std::string sweep_run_file_name(const SweepRun& run) {
  std::string safe;
  for (const char c : run.name) {
    if (c == ',') {
      safe += "__";
    } else if (std::isalnum(static_cast<unsigned char>(c)) || c == '=' || c == '.' ||
               c == '-' || c == '_') {
      safe += c;
    } else {
      safe += '_';
    }
  }
  // Five digits keep lexicographic file order equal to expansion order for
  // any realistic grid (a 100k-run sweep would take days anyway).
  char index[16];
  std::snprintf(index, sizeof(index), "%05zu", run.index);
  return std::string(index) + "-" + safe + ".json";
}

std::size_t SweepSummary::num_ok() const {
  std::size_t n = 0;
  for (const SweepRunOutcome& o : outcomes) n += o.ok ? 1 : 0;
  return n;
}

std::size_t SweepSummary::num_failed() const { return outcomes.size() - num_ok(); }

void report_failed_runs(const SweepSummary& summary) {
  for (const SweepRunOutcome& outcome : summary.outcomes) {
    if (!outcome.ok) {
      std::fprintf(stderr, "failed: %s: %s\n", outcome.run.name.c_str(),
                   outcome.error.c_str());
    }
  }
}

namespace {

void prepare_out_dir(const SweepOptions& options) {
  if (options.out_dir.empty()) return;
  std::filesystem::create_directories(options.out_dir);
  // A reused directory must not blend stale runs into later aggregation:
  // clear previous sweeps' per-run files — and ONLY those (the NNNNN-*.json
  // pattern), so pointing --out-dir at a directory with unrelated JSONs
  // never destroys user data.
  for (const auto& entry : std::filesystem::directory_iterator(options.out_dir)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_regular_file() && is_sweep_run_file(name)) {
      std::filesystem::remove(entry.path());
    }
  }
}

/// Rebuilds a SweepRunOutcome from the result JSON a remote worker streamed
/// back — the exact run_result_json document a local run would have written.
/// Throws CheckError on malformed JSON.
SweepRunOutcome outcome_from_result_json(SweepRun run, const std::string& json) {
  const JsonValue doc = parse_json(json);
  SUBFEDAVG_CHECK(doc.is_object(), "worker result for '" << run.name
                                                         << "' is not a JSON object");
  SweepRunOutcome outcome;
  outcome.run = std::move(run);
  outcome.ok = true;
  outcome.algorithm_name = doc.string_or("algorithm", "");
  outcome.result.final_avg_accuracy = doc.number_or("final_avg_accuracy", 0.0);
  outcome.result.up_bytes = static_cast<std::uint64_t>(doc.number_or("up_bytes", 0.0));
  outcome.result.down_bytes = static_cast<std::uint64_t>(doc.number_or("down_bytes", 0.0));
  outcome.result.simulated_seconds = doc.number_or("simulated_seconds", 0.0);
  outcome.result.dropped_clients =
      static_cast<std::size_t>(doc.number_or("dropped_clients", 0.0));
  outcome.result.skipped_rounds =
      static_cast<std::size_t>(doc.number_or("skipped_rounds", 0.0));
  if (const JsonValue* curve = doc.find("curve"); curve != nullptr && curve->is_array()) {
    for (const JsonValue& point : curve->array) {
      outcome.result.curve.push_back(
          {static_cast<std::size_t>(point.number_or("round", 0.0)),
           point.number_or("avg_accuracy", 0.0)});
    }
  }
  if (const JsonValue* per_client = doc.find("final_per_client");
      per_client != nullptr && per_client->is_array()) {
    for (const JsonValue& accuracy : per_client->array) {
      if (accuracy.is_number()) outcome.result.final_per_client.push_back(accuracy.number);
    }
  }
  if (const JsonValue* metrics = doc.find("metrics"); metrics != nullptr) {
    for (const auto& [key, value] : metrics->object) {
      if (value.is_number()) outcome.metrics[key] = value.number;
    }
  }
  return outcome;
}

/// Dispatches every run as a whole (kRunSpec) to the remote workers joined at
/// options.listen; the coordinator machine only routes frames and writes the
/// returned JSON. Runs that die with their worker are retried once on
/// whoever is connected then, and recorded as failed outcomes after that.
SweepSummary run_sweep_remote(const std::vector<SweepRun>& runs, const SweepOptions& options) {
  SweepSummary summary;
  summary.outcomes.resize(runs.size());
  summary.workers = options.remote_workers;
  if (runs.empty()) return summary;
  prepare_out_dir(options);

  TransportOptions transport_options;
  transport_options.workers = options.remote_workers;
  transport_options.listen = options.listen;
  transport_options.rpc_timeout_ms = static_cast<int>(options.rpc_timeout_ms);
  transport_options.tolerate_failures = true;  // a dead worker fails runs, not the sweep
  transport_options.whole_runs = true;
  const std::unique_ptr<Transport> transport = make_transport("tcp", transport_options);
  if (options.echo_progress) {
    std::fprintf(stderr, "sweep: %zu runs sharded over %zu remote workers at %s\n",
                 runs.size(), options.remote_workers, transport->endpoint().c_str());
  }

  const auto request_for = [&runs](std::size_t i) {
    ExperimentSpec spec = runs[i].spec;  // the coordinator owns all files
    spec.out.clear();
    spec.checkpoint_every = 0;
    spec.checkpoint_path.clear();
    const std::string kv = spec.to_kv();
    return std::vector<std::uint8_t>(kv.begin(), kv.end());
  };

  const auto sweep_start = std::chrono::steady_clock::now();
  std::size_t completed = 0;
  // `map[batch index] = run index`: retries dispatch a sub-batch.
  const auto ingest = [&](const std::vector<TransportArrival>& arrivals,
                          const std::vector<std::size_t>& map,
                          std::vector<std::size_t>* retry) {
    for (const TransportArrival& arrival : arrivals) {
      const std::size_t i = map[arrival.index];
      SweepRunOutcome& outcome = summary.outcomes[i];
      if (!arrival.ok) {
        if (retry != nullptr) {
          retry->push_back(i);
          continue;
        }
        outcome.run = runs[i];
        outcome.error = arrival.error;
      } else {
        const std::string json(arrival.response.begin(), arrival.response.end());
        try {
          outcome = outcome_from_result_json(runs[i], json);
          if (!options.out_dir.empty()) {
            const std::string path =
                (std::filesystem::path(options.out_dir) / sweep_run_file_name(runs[i]))
                    .string();
            std::ofstream file(path, std::ios::trunc);
            file << json;
            if (file.good()) outcome.json_path = path;
          }
        } catch (const std::exception& e) {
          outcome.run = runs[i];
          outcome.ok = false;
          outcome.error = e.what();
        }
      }
      outcome.seconds = elapsed_seconds(sweep_start);  // arrival time, not run time
      if (options.echo_progress) {
        ++completed;
        if (outcome.ok) {
          std::fprintf(stderr, "[%zu/%zu] ok   %s: acc %.4f (remote)\n", completed,
                       runs.size(), outcome.run.name.c_str(),
                       outcome.result.final_avg_accuracy);
        } else if (retry != nullptr) {
          --completed;  // not resolved yet; the retry will report it
        } else {
          std::fprintf(stderr, "[%zu/%zu] FAIL %s: %s\n", completed, runs.size(),
                       outcome.run.name.c_str(), outcome.error.c_str());
        }
      }
    }
  };

  std::vector<std::vector<std::uint8_t>> requests(runs.size());
  std::vector<std::size_t> map(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    requests[i] = request_for(i);
    map[i] = i;
  }
  std::vector<std::size_t> retry;
  ingest(transport->collect(requests, TransportHandler{}), map, &retry);

  if (!retry.empty()) {
    std::vector<std::vector<std::uint8_t>> retry_requests(retry.size());
    for (std::size_t b = 0; b < retry.size(); ++b) retry_requests[b] = request_for(retry[b]);
    ingest(transport->collect(retry_requests, TransportHandler{}), retry, nullptr);
  }

  summary.seconds = elapsed_seconds(sweep_start);
  if (options.echo_progress) {
    std::fprintf(stderr, "sweep: %zu ok, %zu failed in %.1fs (remote, %zu retried)\n",
                 summary.num_ok(), summary.num_failed(), summary.seconds, retry.size());
  }
  return summary;
}

}  // namespace

SweepSummary run_sweep(const std::vector<SweepRun>& runs, const SweepOptions& options) {
  if (!options.listen.empty()) return run_sweep_remote(runs, options);

  SweepSummary summary;
  summary.outcomes.resize(runs.size());
  if (runs.empty()) return summary;

  prepare_out_dir(options);

  ThreadPool pool(options.jobs);
  summary.workers = pool.size();

  // Cache keys are precomputed so the cache knows each configuration's total
  // use count up front (entries free as their last run completes). A spec
  // whose data config does not even parse gets no key and fails inside
  // execute_experiment with its normal error.
  std::vector<std::string> cache_keys(runs.size());
  std::vector<bool> has_cache_key(runs.size(), false);
  std::map<std::string, std::size_t> key_uses;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    try {
      cache_keys[i] = data_cache_key(runs[i].spec);
      has_cache_key[i] = true;
      ++key_uses[cache_keys[i]];
    } catch (const std::exception&) {
    }
  }
  FederatedDataCache data_cache(std::move(key_uses));
  const auto sweep_start = std::chrono::steady_clock::now();

  // The subprocess transport fork()s without exec, so a child inherits every
  // mutex another thread of this process holds at that moment (device pools,
  // the data cache, telemetry, stdio) and can block on it forever. Such runs
  // hold this lock exclusively and every other run holds it shared, both
  // from before the data-cache lookup until the run is reported: no other
  // run's thread is inside the library when a child is forked.
  std::shared_mutex fork_mu;
  std::mutex progress_mu;
  std::size_t completed = 0;
  if (options.echo_progress) {
    std::fprintf(stderr, "sweep: %zu runs on %zu workers\n", runs.size(), summary.workers);
  }

  pool.parallel_for(runs.size(), [&](std::size_t i) {
    SweepRunOutcome outcome;
    outcome.run = runs[i];
    if (!options.out_dir.empty()) {
      outcome.run.spec.out =
          (std::filesystem::path(options.out_dir) / sweep_run_file_name(runs[i])).string();
    } else {
      outcome.run.spec.out.clear();
    }
    // Checkpoint paths must be unique per run or concurrent snapshots clobber
    // each other: an explicit base path gets the run index spliced in before
    // its extension; an empty one (with no out to derive from) gets the run's
    // file name. The out_dir case is already unique via `out`.
    if (outcome.run.spec.checkpoint_every > 0 && runs.size() > 1) {
      std::string& path = outcome.run.spec.checkpoint_path;
      if (!path.empty()) {
        char index[16];
        std::snprintf(index, sizeof(index), "-%05zu", runs[i].index);
        const std::size_t dot = path_extension_dot(path);
        path.insert(dot == std::string::npos ? path.size() : dot, index);
      } else if (outcome.run.spec.out.empty()) {
        std::string name = sweep_run_file_name(runs[i]);
        name.replace(name.size() - 5, 5, ".ckpt");
        path = name;
      }
    }

    std::shared_lock<std::shared_mutex> shared_run(fork_mu, std::defer_lock);
    std::unique_lock<std::shared_mutex> exclusive_run(fork_mu, std::defer_lock);
    if (outcome.run.spec.transport == "subprocess") {
      exclusive_run.lock();
    } else {
      shared_run.lock();
    }
    const auto run_start = std::chrono::steady_clock::now();
    try {
      std::shared_ptr<const FederatedData> data;
      if (has_cache_key[i]) data = data_cache.get(cache_keys[i], outcome.run.spec);
      ExecutedRun executed =
          execute_experiment(outcome.run.spec, /*observer=*/nullptr, data.get());
      outcome.ok = true;
      outcome.algorithm_name = std::move(executed.algorithm_name);
      outcome.result = std::move(executed.result);
      outcome.metrics = std::move(executed.metrics);
      outcome.json_path = outcome.run.spec.out;
    } catch (const std::exception& e) {
      outcome.error = e.what();
    }
    if (has_cache_key[i]) data_cache.release(cache_keys[i]);
    outcome.seconds = elapsed_seconds(run_start);

    {
      std::lock_guard<std::mutex> lock(progress_mu);
      ++completed;
      if (options.echo_progress) {
        if (outcome.ok) {
          std::fprintf(stderr, "[%zu/%zu] ok   %s: acc %.4f (%.1fs)\n", completed,
                       runs.size(), outcome.run.name.c_str(),
                       outcome.result.final_avg_accuracy, outcome.seconds);
        } else {
          std::fprintf(stderr, "[%zu/%zu] FAIL %s: %s\n", completed, runs.size(),
                       outcome.run.name.c_str(), outcome.error.c_str());
        }
      }
    }
    summary.outcomes[i] = std::move(outcome);
  });

  summary.seconds = elapsed_seconds(sweep_start);
  summary.unique_datasets = data_cache.synthesized();
  if (options.echo_progress) {
    std::fprintf(stderr, "sweep: %zu ok, %zu failed in %.1fs (%zu dataset%s synthesized)\n",
                 summary.num_ok(), summary.num_failed(), summary.seconds,
                 summary.unique_datasets, summary.unique_datasets == 1 ? "" : "s");
  }
  return summary;
}

// -- aggregation -------------------------------------------------------------

namespace {

std::map<std::string, std::string> kv_to_map(const std::string& kv_text) {
  std::map<std::string, std::string> out;
  std::istringstream is(kv_text);
  std::string line;
  while (std::getline(is, line)) {
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos || eq == 0) continue;
    out[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return out;
}

/// The record's value for a metric column; false when this record lacks it.
bool metric_value(const SweepRecord& record, const std::string& metric, double* value) {
  if (metric == "accuracy") {
    *value = record.final_avg_accuracy;
    return true;
  }
  if (metric == "comm") {
    *value = static_cast<double>(record.total_bytes());
    return true;
  }
  if (metric == "round_time") {
    *value = record.simulated_seconds;
    return true;
  }
  const auto it = record.metrics.find(metric);
  if (it == record.metrics.end()) return false;
  *value = it->second;
  return true;
}

std::string format_mean_std(const std::string& metric, const Summary& s) {
  std::string mean, std_part;
  if (metric == "accuracy" || metric.find("pruned") != std::string::npos) {
    mean = format_percent(s.mean);
    std_part = format_percent(s.stddev);
  } else if (metric == "comm") {
    mean = format_bytes(s.mean);
    std_part = format_bytes(s.stddev);
  } else if (metric == "round_time") {
    mean = format_float(s.mean, 1) + "s";
    std_part = format_float(s.stddev, 1) + "s";
  } else {
    mean = format_float(s.mean, 4);
    std_part = format_float(s.stddev, 4);
  }
  return s.count > 1 ? mean + " ± " + std_part : mean;
}

}  // namespace

SweepRecord load_run_record(const std::string& path) {
  std::ifstream file(path);
  SUBFEDAVG_CHECK(file.good(), "cannot read run result '" << path << "'");
  std::ostringstream text;
  text << file.rdbuf();
  const JsonValue doc = parse_json(text.str());
  SUBFEDAVG_CHECK(doc.is_object(), "run result '" << path << "' is not a JSON object");

  SweepRecord record;
  record.path = path;
  record.algorithm = doc.string_or("algorithm", "");
  const JsonValue& spec = doc.at("spec");
  SUBFEDAVG_CHECK(spec.is_object(), "run result '" << path << "' has no spec object");
  for (const auto& [key, value] : spec.object) {
    SUBFEDAVG_CHECK(value.is_string(), "spec member '" << key << "' is not a string");
    record.spec[key] = value.string;
  }
  record.final_avg_accuracy = doc.number_or("final_avg_accuracy", 0.0);
  record.up_bytes = static_cast<std::uint64_t>(doc.number_or("up_bytes", 0.0));
  record.down_bytes = static_cast<std::uint64_t>(doc.number_or("down_bytes", 0.0));
  record.simulated_seconds = doc.number_or("simulated_seconds", 0.0);
  if (const JsonValue* metrics = doc.find("metrics"); metrics != nullptr) {
    for (const auto& [key, value] : metrics->object) {
      if (value.is_number()) record.metrics[key] = value.number;
    }
  }
  return record;
}

std::vector<SweepRecord> load_run_records(const std::string& dir) {
  SUBFEDAVG_CHECK(std::filesystem::is_directory(dir),
                  "'" << dir << "' is not a directory");
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".json") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<SweepRecord> records;
  records.reserve(paths.size());
  for (const std::string& path : paths) records.push_back(load_run_record(path));
  return records;
}

SweepRecord record_from_outcome(const SweepRunOutcome& outcome) {
  SUBFEDAVG_CHECK(outcome.ok, "cannot build a record from failed run '"
                                  << outcome.run.name << "': " << outcome.error);
  SweepRecord record;
  record.algorithm = outcome.algorithm_name;
  record.spec = kv_to_map(outcome.run.spec.to_kv());
  record.final_avg_accuracy = outcome.result.final_avg_accuracy;
  record.up_bytes = outcome.result.up_bytes;
  record.down_bytes = outcome.result.down_bytes;
  record.simulated_seconds = outcome.result.simulated_seconds;
  record.metrics = outcome.metrics;
  return record;
}

std::vector<std::string> resolve_group_by(const std::vector<SweepRecord>& records,
                                          const AggregateOptions& options) {
  if (!options.group_by.empty()) return options.group_by;
  // Infer: every spec key whose value varies across records, except the
  // replicate axis and per-run bookkeeping.
  std::map<std::string, std::set<std::string>> values;
  for (const SweepRecord& record : records) {
    for (const auto& [key, value] : record.spec) values[key].insert(value);
  }
  std::vector<std::string> group_by;
  for (const auto& [key, seen] : values) {
    if (seen.size() > 1 && key != options.over && !is_bookkeeping_key(key)) {
      group_by.push_back(key);
    }
  }
  return group_by;
}

std::vector<AggregateRow> aggregate_records(const std::vector<SweepRecord>& records,
                                            const AggregateOptions& options) {
  const std::vector<std::string> group_by = resolve_group_by(records, options);

  // Group in first-appearance order.
  std::vector<AggregateRow> rows;
  std::map<std::string, std::size_t> row_index;
  std::vector<std::map<std::string, std::vector<double>>> metric_samples;

  for (const SweepRecord& record : records) {
    std::string id;
    std::vector<std::string> group;
    for (const std::string& key : group_by) {
      const auto it = record.spec.find(key);
      const std::string value = it == record.spec.end() ? "" : it->second;
      group.push_back(value);
      id += value;
      id += '\x1f';
    }
    const auto [it, inserted] = row_index.emplace(id, rows.size());
    if (inserted) {
      AggregateRow row;
      row.group = std::move(group);
      rows.push_back(std::move(row));
      metric_samples.emplace_back();
    }
    AggregateRow& row = rows[it->second];
    ++row.runs;
    for (const std::string& metric : options.metrics) {
      double value = 0.0;
      if (metric_value(record, metric, &value)) {
        metric_samples[it->second][metric].push_back(value);
      }
    }
  }

  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (const std::string& metric : options.metrics) {
      const auto it = metric_samples[r].find(metric);
      if (it != metric_samples[r].end()) {
        rows[r].stats[metric] = summarize(it->second);
      }
    }
  }
  return rows;
}

TablePrinter aggregation_table(const std::vector<AggregateRow>& rows,
                               const AggregateOptions& options) {
  // Callers pass options with group_by resolved (resolve_group_by) so the
  // header names line up with the rows' group values.
  std::vector<std::string> header = options.group_by;
  const std::size_t group_width = rows.empty() ? header.size() : rows.front().group.size();
  while (header.size() < group_width) {
    header.push_back("key" + std::to_string(header.size() + 1));
  }
  header.resize(group_width);
  if (header.empty()) header.push_back("group");
  const std::size_t label_columns = header.size();
  header.push_back("runs");
  for (const std::string& metric : options.metrics) header.push_back(metric);

  TablePrinter table(header);
  for (const AggregateRow& row : rows) {
    std::vector<std::string> cells = row.group;
    if (cells.empty()) cells.push_back("all");
    cells.resize(label_columns);
    cells.push_back(std::to_string(row.runs));
    for (const std::string& metric : options.metrics) {
      const auto it = row.stats.find(metric);
      cells.push_back(it == row.stats.end() ? "-" : format_mean_std(metric, it->second));
    }
    table.add_row(std::move(cells));
  }
  return table;
}

std::string render_table(const TablePrinter& table, const std::string& format) {
  if (format == "ascii") return table.to_string();
  if (format == "csv") return table.to_csv();
  if (format == "markdown") return table.to_markdown();
  SUBFEDAVG_CHECK(false, "unknown table format '" << format
                                                  << "' (ascii | csv | markdown)");
  return {};
}

}  // namespace subfed
