// Traced replay: the workload's rounds rebuilt from the library's public
// building blocks, with a span around every call. The replay owns all of its
// objects (data, clients, state store, global model), so the timed session is
// never touched; its results must equal the session's bit for bit, which
// main.cpp checks.
//
// Span tree of one round (names as printed in the self-time table):
//
//   round
//     sample                       cohort draw (the session's RNG stream)
//     fl.acquire                   client materialization
//       data.client_fault          FederatedData::client_ptr
//       fl.state_read              ClientStateStore::peek of a spilled client
//       fl.state_put               ClientStateStore::put of an evicted client
//     comm.broadcast_encode        phase: one comm.encode per client
//     core.exchange                phase: one core.client_round per client
//       core.client_round          comm.decode → core.run_round → comm.encode
//     comm.collect                 phase: one comm.decode per upload
//     core.aggregate               sub_fedavg_aggregate / fedavg_aggregate
//   eval                           core.client_eval per client (+ fl.acquire)
//
// Probes run after a round on throwaway copies, outside the replay's clock:
//
//   probe.nn.step                  nn.forward (nn.<ii>.<Kind>.fwd per layer),
//                                  nn.loss, nn.backward (… .bwd), nn.grad_mask,
//                                  nn.sgd
//   probe.nn.eval_batch            one 64-row inference forward
//   probe.pruning.magnitude_mask   derive_magnitude_mask
//   probe.pruning.channel_mask     derive_channel_mask (hybrid)
#include <algorithm>
#include <cstdio>
#include <list>
#include <memory>
#include <numeric>
#include <unordered_map>

#include "bench.h"
#include "comm/channel.h"
#include "core/aggregate.h"
#include "core/eval.h"
#include "core/subfedavg_client.h"
#include "fl/client_state.h"
#include "nn/loss.h"
#include "pruning/unstructured.h"
#include "tensor/device.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

using namespace subfed;

/// The registry's subfedavg_un / subfedavg_hy configuration for `spec`,
/// rebuilt from the spec's public resolved parameters.
SubFedAvgConfig subfedavg_config_of(const ExperimentSpec& spec, const FlContext& ctx,
                                    bool hybrid) {
  const AlgoParams p = spec.resolved_algo_params();
  SubFedAvgConfig config;
  config.hybrid = hybrid;
  const double target = p.get_double("target", 0.5);
  const double step = p.get_double("step", 0.1);
  config.unstructured = {p.get_double("acc_threshold", 0.5), target,
                         p.get_double("epsilon", 1e-4), step};
  if (hybrid) {
    config.structured = {p.get_double("channel_acc_threshold", p.get_double("acc_threshold", 0.5)),
                         p.get_double("channel_target", 0.45),
                         p.get_double("channel_epsilon", 0.05),
                         p.get_double("channel_step", step)};
    config.bn_l1 = static_cast<float>(p.get_double("bn_l1", 1e-4));
  }
  config.train = ctx.train;
  config.sgd = ctx.sgd;
  return config;
}

StateDict mask_section(const ModelMask& mask) {
  StateDict state;
  for (const auto& [name, tensor] : mask) state.add(name, tensor);
  return state;
}

StateDict channel_section(const ChannelMask& mask) {
  StateDict state;
  for (std::size_t b = 0; b < mask.num_blocks(); ++b) {
    std::vector<float> keep(mask.block(b).begin(), mask.block(b).end());
    const Shape shape{keep.size()};
    state.add("block" + std::to_string(b), Tensor(shape, std::move(keep)));
  }
  return state;
}

/// {personal model, weight mask, channel mask}: the spill record layout.
StateSections sections_of(const SubFedAvgClient& client) {
  StateSections sections;
  sections.push_back(client.personal_state());
  sections.push_back(mask_section(client.weight_mask()));
  sections.push_back(channel_section(client.channel_mask()));
  return sections;
}

void restore_sections(SubFedAvgClient& client, const StateSections& sections) {
  SUBFEDAVG_CHECK(sections.size() == 3, "spill record needs 3 sections");
  ModelMask weight_mask;
  for (const auto& [name, tensor] : sections[1]) weight_mask.set(name, tensor);
  ChannelMask channel_mask = client.channel_mask();
  for (std::size_t b = 0; b < channel_mask.num_blocks(); ++b) {
    const Tensor* keep = sections[2].find("block" + std::to_string(b));
    SUBFEDAVG_CHECK(keep != nullptr && keep->numel() == channel_mask.block(b).size(),
                    "channel mask block");
    for (std::size_t c = 0; c < channel_mask.block(b).size(); ++c) {
      channel_mask.block(b)[c] = (*keep)[c] != 0.0f ? 1 : 0;
    }
  }
  client.restore(sections[0], std::move(weight_mask), std::move(channel_mask));
}

/// The benchmark's Sub-FedAvg client residency: live client objects behind an
/// LRU bounded by client_cache, evicted clients spilled to a ClientStateStore
/// and rebuilt from it on the next touch — the same policy as fl/subfedavg.
class ClientPool {
 public:
  ClientPool(const FlContext& ctx, const SubFedAvgConfig& config, const StateDict& initial,
             Tracer& tracer)
      : ctx_(ctx), config_(config), initial_(initial), tracer_(tracer) {
    Model model = ctx_.spec.build();
    const ModelMask weight_ones = ModelMask::ones_like(
        model, config_.hybrid ? MaskScope::kFcOnly : MaskScope::kAllPrunable);
    store_.init(ctx_.data->num_clients(),
                {initial_, mask_section(weight_ones),
                 channel_section(ChannelMask::ones_like(model))},
                ctx_.client_cache);
  }

  std::shared_ptr<SubFedAvgClient> acquire(std::size_t k, int parent, int round) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto it = live_.find(k);
      if (it != live_.end()) {
        lru_.splice(lru_.begin(), lru_, lru_it_[k]);
        return it->second;
      }
    }
    const Scope acquire(tracer_, "fl.acquire", parent, round);
    ClientDataPtr data;
    {
      const Scope fault(tracer_, "data.client_fault", acquire.id(), round);
      data = ctx_.data->client_ptr(k);
    }
    auto built = std::make_shared<SubFedAvgClient>(k, ctx_.spec, config_, data,
                                                   Rng(ctx_.seed).split("subfed-client", k));
    bool refaulted = false;
    if (store_.touched(k)) {
      StateSectionsPtr sections;
      {
        const Scope read(tracer_, "fl.state_read", acquire.id(), round);
        sections = store_.peek(k);
      }
      restore_sections(*built, *sections);
      refaulted = true;
    } else {
      built->seed_personal(initial_);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = live_.try_emplace(k, built);
    if (!inserted) {
      lru_.splice(lru_.begin(), lru_, lru_it_[k]);
      return it->second;
    }
    lru_.push_front(k);
    lru_it_[k] = lru_.begin();
    if (refaulted) ++refaults_;
    evict_overflow_locked(k, acquire.id(), round);
    return built;
  }

  std::size_t refaults() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return refaults_;
  }
  const ClientStateStore& store() const noexcept { return store_; }

 private:
  void evict_overflow_locked(std::size_t keep, int parent, int round) {
    const std::size_t cap = ctx_.client_cache;
    if (cap == 0) return;
    auto it = lru_.end();
    while (live_.size() > cap && it != lru_.begin()) {
      --it;
      const std::size_t victim = *it;
      const auto live_it = live_.find(victim);
      // In use by this round's cohort or a concurrent evaluation: skip.
      if (victim == keep || live_it->second.use_count() > 1) continue;
      {
        const Scope put(tracer_, "fl.state_put", parent, round);
        store_.put(victim, sections_of(*live_it->second));
      }
      live_.erase(live_it);
      lru_it_.erase(victim);
      it = lru_.erase(it);
    }
  }

  const FlContext& ctx_;
  const SubFedAvgConfig& config_;
  const StateDict& initial_;
  Tracer& tracer_;
  ClientStateStore store_;
  mutable std::mutex mutex_;
  std::unordered_map<std::size_t, std::shared_ptr<SubFedAvgClient>> live_;
  std::list<std::size_t> lru_;
  std::unordered_map<std::size_t, std::list<std::size_t>::iterator> lru_it_;
  std::size_t refaults_ = 0;
};

DeviceStats operator-(const DeviceStats& a, const DeviceStats& b) {
  DeviceStats d;
  d.plan_hits = a.plan_hits - b.plan_hits;
  d.plan_misses = a.plan_misses - b.plan_misses;
  d.density_scans = a.density_scans - b.density_scans;
  d.workspace_leases = a.workspace_leases - b.workspace_leases;
  d.workspace_reuses = a.workspace_reuses - b.workspace_reuses;
  d.bytes_allocated = a.bytes_allocated - b.bytes_allocated;
  return d;
}

DeviceStats& operator+=(DeviceStats& a, const DeviceStats& b) {
  a.plan_hits += b.plan_hits;
  a.plan_misses += b.plan_misses;
  a.density_scans += b.density_scans;
  a.workspace_leases += b.workspace_leases;
  a.workspace_reuses += b.workspace_reuses;
  a.bytes_allocated += b.bytes_allocated;
  return a;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// One replay: shared state and the round loop for both algorithm families.
class Replay {
 public:
  Replay(const Workload& workload, Tracer& tracer, Metrics& metrics)
      : w_(workload), spec_(workload.spec), tracer_(tracer), metrics_(metrics) {}

  ReplayResult run();

 private:
  struct ClientRound {
    std::vector<std::uint8_t> down, up;
    std::size_t num_examples = 0;
    std::size_t dense_scalars = 0;
    ClientRoundReport report;
    ClientUpdate decoded;
    double client_ms = 0.0;  ///< decode + local round + encode
  };

  void round(std::size_t r);
  double evaluate(int parent, int round, std::vector<double>* per_client);

  /// Probes: throwaway copies of the round's trained state, outside the clock.
  void probe_nn(const StateDict& state, const ModelMask* mask, const ClientData& data,
                int round);
  void probe_pruning(const SubFedAvgClient& client, int round);

  const Workload& w_;
  const ExperimentSpec& spec_;
  Tracer& tracer_;
  Metrics& metrics_;

  std::unique_ptr<FederatedData> data_;
  FlContext ctx_;
  bool sub_ = false;  ///< Sub-FedAvg (else FedAvg)
  SubFedAvgConfig config_;
  QuantCodec quant_ = QuantCodec::kNone;
  StateDict initial_;
  StateDict global_;
  std::unique_ptr<ClientPool> pool_;
  Rng sample_rng_{0};
  std::size_t per_round_ = 1;
  const Device* device_ = nullptr;

  // Accounting.
  std::uint64_t up_bytes_ = 0, down_bytes_ = 0;
  double dense_bytes_ = 0.0;
  std::size_t exchanges_ = 0;
  std::size_t gate_attempts_ = 0, gate_commits_ = 0;
  std::vector<double> last_weight_density_, last_channel_density_;
  double probe_seconds_ = 0.0;
  DeviceStats probe_device_;
  std::uint64_t probe_data_hits_ = 0, probe_data_misses_ = 0;
  std::vector<double> step_gemm_calls_;
  std::vector<double> cohort_spread_;
  std::vector<std::string> stems_;  ///< this model's layer stems
};

ReplayResult Replay::run() {
  ReplayResult result;
  const Clock::time_point t0 = Clock::now();
  {
    const Scope synth(tracer_, "data.synthesize", -1, 0);
    data_ = std::make_unique<FederatedData>(spec_.dataset_spec(), spec_.data_config());
  }
  metrics_.set("data.synthesize_s", seconds_since(t0), "s");

  ctx_ = spec_.make_context(*data_);
  // What the FederatedAlgorithm constructor applies to every model it builds.
  if (ctx_.backend != "auto") ctx_.spec.backend = ctx_.backend;
  if (ctx_.compute != "auto") ctx_.spec.compute = ctx_.compute;
  if (ctx_.math_threads > 0) set_math_threads(ctx_.math_threads);
  const std::string algo = registry().info(spec_.algo).name;
  SUBFEDAVG_CHECK(algo == "subfedavg_un" || algo == "subfedavg_hy" || algo == "fedavg",
                  "the replay covers subfedavg_un, subfedavg_hy and fedavg, not " << algo);
  sub_ = algo != "fedavg";
  config_ = subfedavg_config_of(spec_, ctx_, algo == "subfedavg_hy");
  quant_ = parse_quant_codec(ctx_.quantize);
  SUBFEDAVG_CHECK(ctx_.codec == "sparse" && ctx_.aggregation == "sync" &&
                      spec_.dropout == 0.0 && spec_.arrivals == 0.0,
                  "the replay covers sync, sparse-codec, dropout-free rounds");
  {
    Rng init_rng = Rng(ctx_.seed).split("global-init");
    initial_ = ctx_.spec.build_init(init_rng).state();
  }
  global_ = initial_;
  if (sub_) pool_ = std::make_unique<ClientPool>(ctx_, config_, initial_, tracer_);

  const std::size_t n = data_->num_clients();
  per_round_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(spec_.sample * static_cast<double>(n)));
  sample_rng_ = Rng(spec_.seed).split("client-sampling");

  {
    Model model = ctx_.spec.build();
    device_ = &model.layer(0).device();
    for (std::size_t i = 0; i < model.num_layers(); ++i) {
      char prefix[32];
      std::snprintf(prefix, sizeof(prefix), "nn.%02zu.", i);
      stems_.push_back(prefix + model.layer(i).kind());
    }
  }
  const DeviceStats device_before = device_->stats();
  const std::uint64_t spills_before = sub_ ? pool_->store().spills() : 0;

  for (std::size_t r = 0; r < spec_.rounds; ++r) {
    round(r);
    const std::size_t done = r + 1;
    if (done == spec_.rounds || (spec_.eval_every > 0 && done % spec_.eval_every == 0)) {
      const Scope eval(tracer_, "eval", -1, static_cast<int>(done));
      result.fingerprint.curve.push_back(
          {done, evaluate(eval.id(), static_cast<int>(done), nullptr)});
    }
  }
  {
    const Scope finish(tracer_, "finish", -1, static_cast<int>(spec_.rounds));
    evaluate(finish.id(), static_cast<int>(spec_.rounds), &result.fingerprint.per_client);
  }
  result.fingerprint.up_bytes = up_bytes_;
  result.fingerprint.down_bytes = down_bytes_;
  result.run_s = seconds_since(t0) - probe_seconds_;
  result.rounds = spec_.rounds;

  // ---- per-layer metrics from the spans and counters ----------------------
  const double rounds = static_cast<double>(spec_.rounds);
  auto med = [&](const std::string& span) { return median(tracer_.durations_ms(span)); };

  metrics_.set("nn.step_ms", med("probe.nn.step"), "ms");
  metrics_.set("nn.forward_ms", med("nn.forward"), "ms");
  metrics_.set("nn.backward_ms", med("nn.backward"), "ms");
  metrics_.set("nn.sgd_ms", med("nn.sgd"), "ms");
  metrics_.set("nn.eval_batch_ms", med("probe.nn.eval_batch"), "ms");
  for (const std::string& stem : layer_metric_stems()) {
    metrics_.set(stem + ".fwd_ms", 0.0, "ms");
    metrics_.set(stem + ".bwd_ms", 0.0, "ms");
  }
  for (const std::string& stem : stems_) {
    SUBFEDAVG_CHECK(metrics_.values().count(stem + ".fwd_ms") == 1,
                    "layer " << stem << " has no per-layer metric name");
    metrics_.set(stem + ".fwd_ms", med(stem + ".fwd"), "ms");
    metrics_.set(stem + ".bwd_ms", med(stem + ".bwd"), "ms");
  }

  const DeviceStats dev = device_->stats() - device_before - probe_device_;
  metrics_.set("tensor.gemm_calls_per_step", median(step_gemm_calls_), "count");
  metrics_.set("tensor.plan_hit_ratio",
               ratio(static_cast<double>(dev.plan_hits),
                     static_cast<double>(dev.plan_hits + dev.plan_misses)),
               "ratio");
  metrics_.set("tensor.density_scans_per_round", static_cast<double>(dev.density_scans) / rounds,
               "count");
  metrics_.set("tensor.workspace_reuse_ratio",
               ratio(static_cast<double>(dev.workspace_reuses),
                     static_cast<double>(dev.workspace_leases)),
               "ratio");
  metrics_.set("tensor.alloc_mb", static_cast<double>(dev.bytes_allocated) / 1e6, "MB");

  metrics_.set("pruning.magnitude_mask_ms", med("probe.pruning.magnitude_mask"), "ms");
  metrics_.set("pruning.channel_mask_ms", med("probe.pruning.channel_mask"), "ms");
  metrics_.set("pruning.gate_open_ratio",
               ratio(static_cast<double>(gate_commits_), static_cast<double>(gate_attempts_)),
               "ratio");
  metrics_.set("pruning.weight_density",
               last_weight_density_.empty() ? 1.0 : mean(last_weight_density_), "ratio");
  metrics_.set("pruning.channel_density",
               last_channel_density_.empty() ? 1.0 : mean(last_channel_density_), "ratio");

  const std::vector<double> client_rounds = tracer_.durations_ms("core.client_round");
  metrics_.set("core.client_round_ms_p50", median(client_rounds), "ms");
  metrics_.set("core.client_round_ms_tail", tail(client_rounds).first, "ms");
  metrics_.set("core.cohort_max_over_mean", median(cohort_spread_), "ratio");
  metrics_.set("core.aggregate_ms", med("core.aggregate"), "ms");
  metrics_.set("core.client_eval_ms", med("core.client_eval"), "ms");

  metrics_.set("comm.encode_ms", median(tracer_.per_round_sum_ms("comm.encode")), "ms");
  metrics_.set("comm.decode_ms", median(tracer_.per_round_sum_ms("comm.decode")), "ms");
  metrics_.set("comm.up_kb_per_client",
               ratio(static_cast<double>(up_bytes_), static_cast<double>(exchanges_)) / 1e3, "KB");
  metrics_.set("comm.compression_ratio",
               ratio(dense_bytes_, static_cast<double>(up_bytes_ + down_bytes_)), "ratio");

  const double hits = static_cast<double>(data_->cache_hits() - probe_data_hits_);
  const double misses = static_cast<double>(data_->cache_misses() - probe_data_misses_);
  metrics_.set("data.client_fault_ms", med("data.client_fault"), "ms");
  metrics_.set("data.cache_hit_ratio", data_->lazy() ? ratio(hits, hits + misses) : 1.0, "ratio");

  metrics_.set("fl.state_refaults_per_round",
               sub_ ? static_cast<double>(pool_->refaults()) / rounds : 0.0, "count");
  metrics_.set("fl.state_spills_per_round",
               sub_ ? static_cast<double>(pool_->store().spills() - spills_before) / rounds : 0.0,
               "count");
  metrics_.set("fl.state_read_ms", med("fl.state_read"), "ms");
  metrics_.set("fl.state_put_ms", med("fl.state_put"), "ms");
  return result;
}

void Replay::round(std::size_t r) {
  const int rid = static_cast<int>(r + 1);
  const Scope round_span(tracer_, "round", -1, rid);
  std::vector<std::size_t> sampled;
  {
    const Scope sample(tracer_, "sample", round_span.id(), rid);
    sampled = sample_rng_.sample_without_replacement(data_->num_clients(), per_round_);
  }
  const std::size_t m = sampled.size();

  // Sub-FedAvg pins its cohort for the round and broadcasts each client only
  // the entries its pre-round mask keeps; FedAvg broadcasts the whole model.
  std::vector<std::shared_ptr<SubFedAvgClient>> cohort(sub_ ? m : 0);
  std::vector<ModelMask> pre_masks(sub_ ? m : 0);
  for (std::size_t i = 0; i < cohort.size(); ++i) {
    cohort[i] = pool_->acquire(sampled[i], round_span.id(), rid);
    pre_masks[i] = cohort[i]->combined_mask();
  }

  std::vector<ClientRound> slots(m);
  ThreadPool& pool = ThreadPool::global();
  {
    const Scope phase(tracer_, "comm.broadcast_encode", round_span.id(), rid);
    pool.parallel_for(m, [&](std::size_t i) {
      const Scope encode(tracer_, "comm.encode", phase.id(), rid);
      slots[i].down = encode_payload(global_, sub_ ? &pre_masks[i] : nullptr, quant_);
    });
  }
  {
    const Scope phase(tracer_, "core.exchange", round_span.id(), rid);
    pool.parallel_for(m, [&](std::size_t i) {
      const Clock::time_point start = Clock::now();
      const Scope client_round(tracer_, "core.client_round", phase.id(), rid);
      ClientRound& slot = slots[i];
      StateDict received;
      {
        const Scope decode(tracer_, "comm.decode", client_round.id(), rid);
        received = decode_payload(slot.down);
      }
      ClientUpdate update;
      {
        const Scope run(tracer_, "core.run_round", client_round.id(), rid);
        if (sub_) {
          update = cohort[i]->run_round(received, r, &slot.report);
        } else {
          ClientDataPtr data;
          {
            const Scope fault(tracer_, "data.client_fault", run.id(), rid);
            data = ctx_.data->client_ptr(sampled[i]);
          }
          Model model = ctx_.spec.build();
          model.load_state(received);
          Sgd optimizer(model.parameters(), ctx_.sgd);
          Rng rng = Rng(ctx_.seed).split("client-round", sampled[i] * 1000003ULL + r);
          const Scope train(tracer_, "nn.train_local", run.id(), rid);
          train_local(model, optimizer, data->train_images, data->train_labels, ctx_.train,
                      rng);
          update.state = model.state();
          update.num_examples = data->train_labels.size();
        }
      }
      {
        const Scope encode(tracer_, "comm.encode", client_round.id(), rid);
        slot.up = encode_payload(update.state, update.mask.empty() ? nullptr : &update.mask,
                                 quant_);
      }
      slot.num_examples = update.num_examples;
      slot.dense_scalars = global_.numel() + update.state.numel();
      slot.client_ms = seconds_since(start) * 1e3;
    });
  }
  {
    const Scope phase(tracer_, "comm.collect", round_span.id(), rid);
    pool.parallel_for(m, [&](std::size_t i) {
      const Scope decode(tracer_, "comm.decode", phase.id(), rid);
      slots[i].decoded.state = decode_payload(slots[i].up, &slots[i].decoded.mask);
      slots[i].decoded.num_examples = slots[i].num_examples;
    });
  }
  std::vector<ClientUpdate> updates;
  updates.reserve(m);
  for (ClientRound& slot : slots) {
    up_bytes_ += slot.up.size();
    down_bytes_ += slot.down.size();
    dense_bytes_ += 4.0 * static_cast<double>(slot.dense_scalars);
    ++exchanges_;
    updates.push_back(std::move(slot.decoded));
  }
  {
    const Scope aggregate(tracer_, "core.aggregate", round_span.id(), rid);
    global_ = sub_ ? sub_fedavg_aggregate(updates, global_) : fedavg_aggregate(updates);
  }

  // The slowest client sets a synchronous round's length.
  std::vector<double> times;
  for (const ClientRound& slot : slots) times.push_back(slot.client_ms);
  cohort_spread_.push_back(*std::max_element(times.begin(), times.end()) / mean(times));
  if (sub_) {
    last_weight_density_.clear();
    last_channel_density_.clear();
    for (std::size_t i = 0; i < m; ++i) {
      const ClientRoundReport& rep = slots[i].report;
      gate_attempts_ += config_.hybrid ? 2 : 1;
      gate_commits_ += (rep.pruned_us ? 1 : 0) + (rep.pruned_s ? 1 : 0);
      const ModelMask& mask = updates[i].mask;
      last_weight_density_.push_back(
          ratio(static_cast<double>(mask.kept()), static_cast<double>(mask.covered())));
      last_channel_density_.push_back(1.0 - rep.pruned_fraction_s);
    }
  }

  // Probes on the round's trained state (the first sampled client's).
  const Clock::time_point probe_start = Clock::now();
  const DeviceStats device_before = device_->stats();
  const std::uint64_t hits_before = data_->cache_hits(), misses_before = data_->cache_misses();
  {
    const ClientDataPtr data = data_->client_ptr(sampled[0]);
    if (sub_) {
      const ModelMask mask = cohort[0]->combined_mask();
      probe_nn(cohort[0]->personal_state(), &mask, *data, rid);
      for (std::size_t i = 0; i < std::min<std::size_t>(m, 4); ++i) probe_pruning(*cohort[i], rid);
    } else {
      probe_nn(global_, nullptr, *data, rid);
    }
  }
  probe_data_hits_ += data_->cache_hits() - hits_before;
  probe_data_misses_ += data_->cache_misses() - misses_before;
  probe_device_ += device_->stats() - device_before;
  probe_seconds_ += seconds_since(probe_start);
}

double Replay::evaluate(int parent, int round, std::vector<double>* per_client) {
  const std::size_t n = data_->num_clients();
  std::vector<double> acc(n, 0.0);
  ThreadPool::global().parallel_for(n, [&](std::size_t k) {
    if (sub_) {
      const std::shared_ptr<SubFedAvgClient> c = pool_->acquire(k, parent, round);
      const Scope eval(tracer_, "core.client_eval", parent, round);
      acc[k] = c->evaluate_test().accuracy;
    } else {
      const ClientDataPtr data = ctx_.data->client_ptr(k);
      const Scope eval(tracer_, "core.client_eval", parent, round);
      Model model = ctx_.spec.build();
      model.load_state(global_);
      acc[k] = evaluate_client_test(model, *data).accuracy;
    }
  });
  if (per_client != nullptr) *per_client = acc;
  double sum = 0.0;
  for (const double a : acc) sum += a;
  return acc.empty() ? 0.0 : sum / static_cast<double>(acc.size());
}

void Replay::probe_nn(const StateDict& state, const ModelMask* mask, const ClientData& data,
                      int round) {
  Model model = ctx_.spec.build();
  if (config_.hybrid) model.set_bn_l1(config_.bn_l1);
  model.load_state(state);
  Sgd optimizer(model.parameters(), ctx_.sgd);
  const std::size_t n = data.train_labels.size();
  const std::size_t batch = std::min(ctx_.train.batch_size, n);
  const std::size_t steps = 4;
  const DeviceStats before = device_->stats();
  for (std::size_t s = 0; s < steps; ++s) {
    std::vector<std::size_t> idx(batch);
    std::vector<std::int32_t> labels(batch);
    for (std::size_t j = 0; j < batch; ++j) {
      idx[j] = (s * batch + j) % n;
      labels[j] = data.train_labels[idx[j]];
    }
    const Tensor images = gather_rows(data.train_images, idx);
    const Scope step(tracer_, "probe.nn.step", -1, round);
    Tensor x = images;
    {
      const Scope forward(tracer_, "nn.forward", step.id(), round);
      for (std::size_t i = 0; i < model.num_layers(); ++i) {
        const Scope layer(tracer_, stems_[i] + ".fwd", forward.id(), round);
        x = model.layer(i).forward(x, /*train=*/true);
      }
    }
    LossResult loss;
    {
      const Scope loss_span(tracer_, "nn.loss", step.id(), round);
      loss = softmax_cross_entropy(x, labels);
    }
    {
      const Scope backward(tracer_, "nn.backward", step.id(), round);
      Tensor g = loss.grad_logits;
      for (std::size_t i = model.num_layers(); i-- > 0;) {
        const Scope layer(tracer_, stems_[i] + ".bwd", backward.id(), round);
        g = model.layer(i).backward(g);
      }
    }
    if (mask != nullptr) {
      const Scope grad_mask(tracer_, "nn.grad_mask", step.id(), round);
      mask->apply_to_grads(model);
    }
    const Scope sgd(tracer_, "nn.sgd", step.id(), round);
    optimizer.step();
  }
  const DeviceStats delta = device_->stats() - before;
  step_gemm_calls_.push_back(static_cast<double>(delta.plan_hits + delta.plan_misses) /
                             static_cast<double>(steps));

  // One inference batch the size evaluate_client_test uses.
  if (!data.test.empty()) {
    const Tensor& pool = data.test.front()->images;
    std::vector<std::size_t> idx(std::min<std::size_t>(64, pool.shape()[0]));
    std::iota(idx.begin(), idx.end(), 0);
    const Tensor images = gather_rows(pool, idx);
    const Scope eval(tracer_, "probe.nn.eval_batch", -1, round);
    (void)model.forward(images, /*train=*/false);
  }
}

void Replay::probe_pruning(const SubFedAvgClient& client, int round) {
  Model model = ctx_.spec.build();
  model.load_state(client.personal_state());
  const double next_us = next_pruned_fraction(client.unstructured_pruned(),
                                              config_.unstructured.step_rate,
                                              config_.unstructured.target_rate);
  {
    const Scope span(tracer_, "probe.pruning.magnitude_mask", -1, round);
    (void)derive_magnitude_mask(model, client.weight_mask(), next_us);
  }
  if (config_.hybrid) {
    const double next_s = next_pruned_fraction(client.structured_pruned(),
                                               config_.structured.step_rate,
                                               config_.structured.target_rate);
    const Scope span(tracer_, "probe.pruning.channel_mask", -1, round);
    (void)derive_channel_mask(model, client.channel_mask(), next_s);
  }
}

}  // namespace

ReplayResult replay(const Workload& workload, Tracer& tracer, Metrics& metrics) {
  return Replay(workload, tracer, metrics).run();
}

}  // namespace perfbench
