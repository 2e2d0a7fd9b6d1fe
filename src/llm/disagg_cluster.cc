#include "src/llm/disagg_cluster.h"

#include <algorithm>
#include <cstdio>
#include <deque>

#include "src/llm/attention.h"
#include "src/llm/kv_allocator.h"
#include "src/util/check.h"

namespace spinfer {

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
  struct Handoff {
    int64_t id = 0;
    double ready_s = 0.0;       // transfer complete; admissible from here
    int64_t prefill_inst = 0;   // whose pool still holds the KV
  };
  struct DecodeInstance {
    PagedKvCache cache;
    std::deque<Handoff> queue;  // (ready, id) order
    int64_t assigned = 0;       // router load counter
    explicit DecodeInstance(const PagedKvCacheConfig& kv) : cache(kv) {}
  };

  const PagedKvCacheConfig kv =
      model_->KvCacheConfig(cfg_.kv_block_tokens, cfg_.kv_num_blocks);
  std::vector<PrefillInstance> prefills;
  std::vector<DecodeInstance> decodes;
  if (usable) {
    prefills.reserve(static_cast<size_t>(cfg_.prefill_instances));
    for (int64_t i = 0; i < cfg_.prefill_instances; ++i) {
      prefills.emplace_back(kv);
    }
    decodes.reserve(static_cast<size_t>(cfg_.decode_instances));
    for (int64_t i = 0; i < cfg_.decode_instances; ++i) {
      decodes.emplace_back(kv);
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

  const int64_t max_seq = model_->config().max_seq;
  double sim_end_s = 0.0;
  for (const int64_t id : order) {
    RequestRecord& r = records_[static_cast<size_t>(id)];
    const int64_t len = static_cast<int64_t>(r.prompt.size());
    const bool servable =
        usable && len > 0 && r.max_new_tokens > 0 &&
        len + r.max_new_tokens <= max_seq &&
        prefills[0].cache.BlocksForTokens(len) <=
            prefills[0].cache.total_blocks() &&
        decodes[0].cache.BlocksForTokens(len + r.max_new_tokens) <=
            decodes[0].cache.total_blocks();
    if (!servable) {
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

    r.generated.push_back(
        model_->Prefill(r.prompt, cfg_.backend, &inst.cache, r.id));

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

    int64_t target = 0;
    for (int64_t i = 1; i < cfg_.decode_instances; ++i) {
      if (decodes[static_cast<size_t>(i)].assigned <
          decodes[static_cast<size_t>(target)].assigned) {
        target = i;
      }
    }
    decodes[static_cast<size_t>(target)].queue.push_back(
        Handoff{r.id, ready_s, best});
    ++decodes[static_cast<size_t>(target)].assigned;
  }

  // ---- Phase B: per-decode-instance continuous batching. -------------------
  // Iterate the pools actually built: an unusable topology built none.
  for (int64_t di = 0; di < static_cast<int64_t>(decodes.size()); ++di) {
    DecodeInstance& inst = decodes[static_cast<size_t>(di)];
    std::stable_sort(inst.queue.begin(), inst.queue.end(),
                     [](const Handoff& a, const Handoff& b) {
                       return a.ready_s < b.ready_s;
                     });
    std::vector<int64_t> active;
    std::vector<DisaggIterationSample>& samples =
        samples_[static_cast<size_t>(di)];
    double now_s = 0.0;

    std::vector<int64_t> dec_ids;
    std::vector<int32_t> dec_last, dec_next;
    while (!inst.queue.empty() || !active.empty()) {
      if (active.empty() && !inst.queue.empty()) {
        now_s = std::max(now_s, inst.queue.front().ready_s);
      }
      // Growth-reserve admission (ServingEngine's invariant): admit only
      // while the pool covers the newcomer's blocks now plus everyone's
      // worst-case growth to prompt + max_new, so AppendToken cannot fail.
      while (!inst.queue.empty() &&
             inst.queue.front().ready_s <= now_s &&
             static_cast<int64_t>(active.size()) < cfg_.max_decode_batch) {
        const Handoff h = inst.queue.front();
        const RequestRecord& r = records_[static_cast<size_t>(h.id)];
        const int64_t full = static_cast<int64_t>(r.prompt.size()) +
                             r.max_new_tokens;
        int64_t reserve = 0;
        for (const int64_t aid : active) {
          const RequestRecord& ar = records_[static_cast<size_t>(aid)];
          reserve +=
              inst.cache.BlocksForTokens(static_cast<int64_t>(ar.prompt.size()) +
                                         ar.max_new_tokens) -
              inst.cache.BlocksForTokens(inst.cache.SequenceTokens(aid));
        }
        const int64_t fresh = inst.cache.BlocksForTokens(
            static_cast<int64_t>(r.prompt.size()));
        const int64_t growth = inst.cache.BlocksForTokens(full) - fresh;
        if (inst.cache.used_blocks() + fresh + growth + reserve >
            inst.cache.total_blocks()) {
          break;  // wait for a retirement to free blocks
        }
        SPINFER_CHECK(MigrateKvSequence(
            &prefills[static_cast<size_t>(h.prefill_inst)].cache, &inst.cache,
            h.id));
        ++report.migrations;
        active.push_back(h.id);
        inst.queue.pop_front();
      }
      if (active.empty()) {
        continue;  // clock advanced to the next handoff above
      }

      dec_ids.clear();
      dec_last.clear();
      for (const int64_t id : active) {
        const RequestRecord& r = records_[static_cast<size_t>(id)];
        dec_ids.push_back(id);
        dec_last.push_back(r.generated.back());
      }
      model_->DecodeStep(dec_ids, dec_last, cfg_.backend, &inst.cache,
                         &dec_next);
      int64_t context_sum = 0;
      for (size_t i = 0; i < active.size(); ++i) {
        RequestRecord& r = records_[static_cast<size_t>(active[i])];
        r.generated.push_back(dec_next[i]);
        // ServingEngine's context expression, post-push: prompt +
        // (generated - 1) + 1.
        context_sum += static_cast<int64_t>(r.prompt.size()) +
                       (static_cast<int64_t>(r.generated.size()) - 1) + 1;
      }
      const int64_t batch = static_cast<int64_t>(active.size());
      const double cost_us = DecodeStepTimeUs(cfg_.decode_cost, batch,
                                              context_sum / batch);
      samples.push_back(
          DisaggIterationSample{batch, context_sum / batch, cost_us});
      ++report.decode_iterations;
      report.peak_decode_batch = std::max(report.peak_decode_batch, batch);
      now_s += cost_us / 1e6;

      for (size_t i = 0; i < active.size();) {
        RequestRecord& r = records_[static_cast<size_t>(active[i])];
        if (static_cast<int64_t>(r.generated.size()) >= r.max_new_tokens) {
          inst.cache.RemoveSequence(r.id);
          r.finish_s = now_s;
          r.latency_ms = (now_s - r.arrival_s) * 1e3;
          r.reason = FinishReason::kMaxTokens;
          ++report.completed;
          active.erase(active.begin() + static_cast<int64_t>(i));
        } else {
          ++i;
        }
      }
    }
    sim_end_s = std::max(sim_end_s, now_s);
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
