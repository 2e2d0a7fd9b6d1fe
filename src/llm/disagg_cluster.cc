#include "src/llm/disagg_cluster.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "src/llm/attention.h"
#include "src/llm/kv_allocator.h"
#include "src/llm/serving_substrate.h"
#include "src/util/check.h"

namespace spinfer {
namespace {

// A decode instance's execution substrate: the single-instance substrate,
// whose pool a sequence enters by KV handoff from the prefill pool that
// computed it, so registering the sequence (AddSequenceSharing) is the
// migration. Each step is also priced into the instance's decode samples at
// its batch and mean post-step context (slots held + 1, the engine's context
// expression). Decode engines run with the prefix cache off, so the engine
// never matches or indexes prefixes here.
class HandoffSubstrate final : public SingleInstanceSubstrate {
 public:
  // Where engine request i waits (the engine numbers its requests densely,
  // in SubmitPrefilled order): a prefill pool, under the cluster's id.
  struct Source {
    PagedKvCache* pool;
    int64_t seq;
  };

  HandoffSubstrate(const TinyTransformer* model, const DisaggClusterConfig& cfg,
                   std::vector<DisaggIterationSample>* samples)
      : SingleInstanceSubstrate(model, cfg.kv_block_tokens, cfg.kv_num_blocks),
        cost_(cfg.decode_cost),
        samples_(samples) {}

  std::vector<Source>& sources() { return sources_; }

  bool AddSequenceSharing(int64_t seq_id,
                          const std::vector<int32_t>& /*prompt*/,
                          int64_t /*tokens*/,
                          const PagedKvCache::PrefixMatch& /*match*/) override {
    const Source& src = sources_[static_cast<size_t>(seq_id)];
    return MigrateKvSequence(src.pool, &cache_, src.seq, seq_id);
  }
  void MixedStep(const std::vector<int64_t>& dec_ids,
                 const std::vector<int32_t>& dec_last,
                 const std::vector<PrefillChunk>& chunks, MatmulBackend backend,
                 std::vector<int32_t>* dec_next,
                 std::vector<int32_t>* chunk_next) override {
    SingleInstanceSubstrate::MixedStep(dec_ids, dec_last, chunks, backend,
                                       dec_next, chunk_next);
    const int64_t batch = static_cast<int64_t>(dec_ids.size());
    int64_t context_sum = 0;
    for (const int64_t id : dec_ids) {
      context_sum += cache_.SequenceTokens(id) + 1;
    }
    const int64_t context = context_sum / batch;
    samples_->push_back({batch, context, DecodeStepTimeUs(cost_, batch, context)});
  }

 private:
  EngineConfig cost_;
  std::vector<DisaggIterationSample>* samples_;
  std::vector<Source> sources_;
};

// Decode engines run with ServingEngineConfig defaults plus the cluster's
// batch cap and decode pricing.
ServingEngineConfig DecodeEngineConfig(const DisaggClusterConfig& cfg) {
  ServingEngineConfig e;
  e.max_batch = cfg.max_decode_batch;
  e.cost = cfg.decode_cost;
  return e;
}

struct DecodeInstance {
  HandoffSubstrate substrate;
  ServingEngine engine;  // over `substrate`

  DecodeInstance(const TinyTransformer* model, const DisaggClusterConfig& cfg,
                 std::vector<DisaggIterationSample>* samples)
      : substrate(model, cfg, samples),
        engine(&substrate, DecodeEngineConfig(cfg)) {}
};

}  // namespace

std::string DisaggClusterReport::ToString() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "arrived=%lld rejected=%lld completed=%lld prefills=%lld "
      "migrations=%lld decode_iters=%lld peak_decode_batch=%lld sim_s=%.6f "
      "ttft_ms{mean=%.6f p50=%.6f p95=%.6f p99=%.6f} "
      "lat_ms{mean=%.6f p50=%.6f p95=%.6f p99=%.6f}",
      static_cast<long long>(arrived), static_cast<long long>(rejected),
      static_cast<long long>(completed), static_cast<long long>(prefills),
      static_cast<long long>(migrations),
      static_cast<long long>(decode_iterations),
      static_cast<long long>(peak_decode_batch), sim_time_s, ttft.mean_ms,
      ttft.p50_ms, ttft.p95_ms, ttft.p99_ms, latency.mean_ms, latency.p50_ms,
      latency.p95_ms, latency.p99_ms);
  return std::string(buf);
}

DisaggCluster::DisaggCluster(const TinyTransformer* model,
                             const DisaggClusterConfig& cfg)
    : model_(model), cfg_(cfg) {
  SPINFER_CHECK(model != nullptr);
  SPINFER_CHECK(cfg.prefill_instances >= 0 && cfg.decode_instances >= 0);
  SPINFER_CHECK(cfg.max_decode_batch > 0);
  SPINFER_CHECK_MSG(
      cfg.prefill_cost.model.heads > 0,
      "DisaggClusterConfig::prefill_cost.model is unset (heads == 0)");
  SPINFER_CHECK_MSG(
      cfg.decode_cost.model.heads > 0,
      "DisaggClusterConfig::decode_cost.model is unset (heads == 0)");
  SPINFER_CHECK_MSG(cfg.prefill_cost.num_gpus >= 1,
                    "DisaggClusterConfig::prefill_cost.num_gpus must be >= 1");
  SPINFER_CHECK_MSG(cfg.decode_cost.num_gpus >= 1,
                    "DisaggClusterConfig::decode_cost.num_gpus must be >= 1");
  samples_.resize(static_cast<size_t>(std::max<int64_t>(cfg.decode_instances, 0)));
}

int64_t DisaggCluster::Submit(std::vector<int32_t> prompt,
                              int64_t max_new_tokens, double arrival_s) {
  SPINFER_CHECK(!ran_);
  RequestRecord r;
  r.id = static_cast<int64_t>(records_.size());
  r.prompt = std::move(prompt);
  r.max_new_tokens = max_new_tokens;
  r.arrival_s = arrival_s;
  records_.push_back(std::move(r));
  return records_.back().id;
}

const std::vector<DisaggIterationSample>& DisaggCluster::decode_samples(
    int64_t instance) const {
  SPINFER_CHECK(instance >= 0 &&
                instance < static_cast<int64_t>(samples_.size()));
  return samples_[static_cast<size_t>(instance)];
}

DisaggClusterReport DisaggCluster::Run() {
  SPINFER_CHECK(!ran_);
  ran_ = true;
  DisaggClusterReport report;
  report.arrived = static_cast<int64_t>(records_.size());

  // An unusable topology rejects everything — gracefully, not as UB or a
  // CHECK: the caller asked an empty cluster to serve.
  const bool usable = cfg_.prefill_instances > 0 && cfg_.decode_instances > 0;

  struct PrefillInstance {
    PagedKvCache cache;
    double free_at_s = 0.0;
    explicit PrefillInstance(const PagedKvCacheConfig& kv) : cache(kv) {}
  };

  const PagedKvCacheConfig kv =
      model_->KvCacheConfig(cfg_.kv_block_tokens, cfg_.kv_num_blocks);
  std::vector<PrefillInstance> prefills;
  std::vector<std::unique_ptr<DecodeInstance>> decodes;
  if (usable) {
    prefills.reserve(static_cast<size_t>(cfg_.prefill_instances));
    for (int64_t i = 0; i < cfg_.prefill_instances; ++i) {
      prefills.emplace_back(kv);
    }
    for (int64_t i = 0; i < cfg_.decode_instances; ++i) {
      decodes.push_back(std::make_unique<DecodeInstance>(
          model_, cfg_, &samples_[static_cast<size_t>(i)]));
    }
  }

  // ---- Phase A: prefill scheduling + execution + handoff routing. ----------
  // One prompt at a time per instance; earliest-free instance wins, ties to
  // the lowest index — an analytic schedule over the virtual clock, executed
  // for real in schedule order.
  std::vector<int64_t> order(records_.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<int64_t>(i);
  }
  std::stable_sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    return records_[static_cast<size_t>(a)].arrival_s <
           records_[static_cast<size_t>(b)].arrival_s;
  });

  double sim_end_s = 0.0;
  for (const int64_t id : order) {
    RequestRecord& r = records_[static_cast<size_t>(id)];
    const int64_t len = static_cast<int64_t>(r.prompt.size());
    // Both pools share one geometry, and a prompt's blocks never exceed its
    // worst case, so the decode pool's verdict covers the prefill pool.
    if (!usable || !IsServable(decodes[0]->substrate.cache(), model_->config(),
                               r.prompt, r.max_new_tokens)) {
      r.reason = FinishReason::kRejected;
      ++report.rejected;
      continue;
    }

    int64_t best = 0;
    for (int64_t i = 1; i < cfg_.prefill_instances; ++i) {
      if (prefills[static_cast<size_t>(i)].free_at_s <
          prefills[static_cast<size_t>(best)].free_at_s) {
        best = i;
      }
    }
    PrefillInstance& inst = prefills[static_cast<size_t>(best)];
    // A resident sequence waiting on decode admission still holds its blocks
    // here; a full pool is transient backpressure for a real cluster but a
    // sizing error for this virtual-clock executor — reject, don't wedge.
    if (!inst.cache.AddSequence(r.id, len)) {
      r.reason = FinishReason::kRejected;
      ++report.rejected;
      continue;
    }
    const double start_s = std::max(r.arrival_s, inst.free_at_s);
    const double prefill_ms =
        PrefillTimeUs(cfg_.prefill_cost, /*batch=*/1, len) / 1e3;
    const double done_s = start_s + prefill_ms / 1e3;
    inst.free_at_s = done_s;
    ++report.prefills;

    r.generated.push_back(model_->Prefill(r.prompt, MatmulBackend::kTcaBmeCpu,
                                          &inst.cache, r.id));

    // KV handoff: the prompt's cache pages cross the fabric once, priced on
    // the cost model (the executing tiny pools are stand-ins).
    const double transfer_ms =
        static_cast<double>(
            KvCacheBytes(cfg_.prefill_cost.model, /*batch=*/1, len, 1)) /
        (cfg_.transfer_bw_gbs * 1e6);
    const double ready_s = done_s + transfer_ms / 1e3;
    r.admit_s = start_s;
    r.first_token_s = ready_s;
    r.ttft_ms = (ready_s - r.arrival_s) * 1e3;

    if (r.max_new_tokens == 1) {
      // The prefill token already met the budget; no decode admission.
      inst.cache.RemoveSequence(r.id);
      r.finish_s = ready_s;
      r.latency_ms = (ready_s - r.arrival_s) * 1e3;
      r.reason = FinishReason::kMaxTokens;
      ++report.completed;
      sim_end_s = std::max(sim_end_s, ready_s);
      continue;
    }

    // Route to the least-loaded decode instance; its engine admits the
    // request once the transfer lands (arrival = ready_s).
    size_t target = 0;
    for (size_t i = 1; i < decodes.size(); ++i) {
      if (decodes[i]->substrate.sources().size() <
          decodes[target]->substrate.sources().size()) {
        target = i;
      }
    }
    decodes[target]->substrate.sources().push_back({&inst.cache, r.id});
    decodes[target]->engine.SubmitPrefilled(r.prompt, r.generated.back(),
                                            r.max_new_tokens, ready_s);
  }

  // ---- Phase B: every decode instance's engine serves its handoffs. --------
  for (const std::unique_ptr<DecodeInstance>& d : decodes) {
    const ExecServingReport dr = d->engine.Run();
    report.completed += dr.completed;
    report.migrations += static_cast<int64_t>(d->engine.admission_order().size());
    report.decode_iterations += dr.iterations;
    report.peak_decode_batch = std::max(report.peak_decode_batch, dr.peak_batch);
    sim_end_s = std::max(sim_end_s, dr.sim_time_s);
    // Back to cluster ids: latency runs from the client's arrival, and the
    // TTFT stays Phase A's.
    for (const RequestRecord& e : d->engine.results()) {
      const int64_t id = d->substrate.sources()[static_cast<size_t>(e.id)].seq;
      RequestRecord& r = records_[static_cast<size_t>(id)];
      r.generated = e.generated;
      r.finish_s = e.finish_s;
      r.latency_ms = (e.finish_s - r.arrival_s) * 1e3;
      r.reason = e.reason;
    }
  }

  report.sim_time_s = sim_end_s;
  std::vector<double> ttfts, lats;
  for (const RequestRecord& r : records_) {
    if (r.reason == FinishReason::kMaxTokens) {
      ttfts.push_back(r.ttft_ms);
      lats.push_back(r.latency_ms);
    }
  }
  report.ttft = SummarizeLatenciesMs(std::move(ttfts));
  report.latency = SummarizeLatenciesMs(std::move(lats));
  return report;
}

}  // namespace spinfer
