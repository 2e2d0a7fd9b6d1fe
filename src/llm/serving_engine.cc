#include "src/llm/serving_engine.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/check.h"
#include "src/util/crash_dump.h"
#include "src/util/random.h"

namespace spinfer {
namespace {

// Scheduler iterations the flight recorder's ring and the SLO tracker's
// sliding window span.
inline constexpr int64_t kObsWindowIters = 64;

// Cached global instruments (find-or-create once; recording is lock-free).
struct ServingMetrics {
  obs::Counter* arrived;
  obs::Counter* rejected;
  obs::Counter* cancelled;
  obs::Counter* completed;
  obs::Counter* tokens;
  obs::Counter* iterations;
  obs::Counter* prefix_hit_blocks;
  obs::Counter* prefix_miss_blocks;
  obs::Counter* cow_copies;
  obs::Gauge* queue_depth;
  obs::Gauge* batch_size;
  obs::Gauge* kv_used_blocks;
  obs::Gauge* kv_utilization;
  obs::Gauge* kv_wasted_slots;
  obs::Histogram* latency_ms;
  obs::Histogram* ttft_ms;

  static ServingMetrics& Get() {
    static ServingMetrics m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      ServingMetrics s;
      s.arrived = reg.GetCounter("srv.requests_arrived");
      s.rejected = reg.GetCounter("srv.requests_rejected");
      s.cancelled = reg.GetCounter("srv.requests_cancelled");
      s.completed = reg.GetCounter("srv.requests_completed");
      s.tokens = reg.GetCounter("srv.tokens_generated");
      s.iterations = reg.GetCounter("srv.iterations");
      s.prefix_hit_blocks = reg.GetCounter("srv.prefix_hit_blocks");
      s.prefix_miss_blocks = reg.GetCounter("srv.prefix_miss_blocks");
      s.cow_copies = reg.GetCounter("srv.cow_copies");
      s.queue_depth = reg.GetGauge("srv.queue_depth");
      s.batch_size = reg.GetGauge("srv.batch_size");
      s.kv_used_blocks = reg.GetGauge("srv.kv_used_blocks");
      s.kv_utilization = reg.GetGauge("srv.kv_utilization");
      s.kv_wasted_slots = reg.GetGauge("srv.kv_wasted_slots");
      s.latency_ms = reg.GetHistogram(
          "srv.request_latency_ms",
          obs::Histogram::ExponentialBuckets(0.1, 2.0, 24));
      s.ttft_ms = reg.GetHistogram(
          "srv.ttft_ms", obs::Histogram::ExponentialBuckets(0.1, 2.0, 24));
      return s;
    }();
    return m;
  }
};

}  // namespace

ModelConfig ModelConfigFor(const TinyConfig& cfg) {
  ModelConfig m;
  m.name = "tiny";
  m.hidden = cfg.hidden;
  m.layers = cfg.layers;
  m.heads = cfg.heads;
  m.kv_heads = cfg.kv_head_count();
  m.ffn_hidden = cfg.ffn;
  m.vocab = cfg.vocab;
  return m;
}

std::string ExecServingReport::ToString() const {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "arrived=%lld rejected=%lld cancelled=%lld completed=%lld tokens=%lld "
      "iters=%lld peak_batch=%lld peak_kv_blocks=%lld prefix_hit_blocks=%lld "
      "prefix_miss_blocks=%lld cow_copies=%lld peak_iter_ms=%.6f sim_s=%.6f "
      "tps=%.6f "
      "mean_batch=%.6f ttft_ms{mean=%.6f p50=%.6f p95=%.6f p99=%.6f} "
      "lat_ms{mean=%.6f p50=%.6f p95=%.6f p99=%.6f}",
      static_cast<long long>(arrived), static_cast<long long>(rejected),
      static_cast<long long>(cancelled), static_cast<long long>(completed),
      static_cast<long long>(tokens_generated),
      static_cast<long long>(iterations), static_cast<long long>(peak_batch),
      static_cast<long long>(peak_kv_blocks),
      static_cast<long long>(prefix_hit_blocks),
      static_cast<long long>(prefix_miss_blocks),
      static_cast<long long>(cow_copies), peak_iter_ms, sim_time_s,
      throughput_tps,
      mean_batch, ttft.mean_ms, ttft.p50_ms, ttft.p95_ms, ttft.p99_ms,
      latency.mean_ms, latency.p50_ms, latency.p95_ms, latency.p99_ms);
  return std::string(buf);
}

ServingEngine::ServingEngine(const TinyTransformer* model,
                             const ServingEngineConfig& cfg)
    : ServingEngine(std::make_unique<SingleInstanceSubstrate>(
                        model, cfg.kv_block_tokens, cfg.kv_num_blocks),
                    cfg) {}

ServingEngine::ServingEngine(std::unique_ptr<SingleInstanceSubstrate> owned,
                             const ServingEngineConfig& cfg)
    : ServingEngine(owned.get(), cfg) {
  owned_substrate_ = std::move(owned);
}

ServingEngine::ServingEngine(ServingSubstrate* substrate,
                             const ServingEngineConfig& cfg)
    : substrate_(substrate), cfg_(cfg) {
  SPINFER_CHECK(substrate != nullptr);
  SPINFER_CHECK(cfg.max_batch > 0);
  SPINFER_CHECK(cfg.prefill_chunk_tokens >= 0);
  SPINFER_CHECK_MSG(cfg.cost.model.heads > 0,
                    "ServingEngineConfig::cost.model is unset (heads == 0); "
                    "price the engine with e.g. ModelConfigFor(model.config())");
  SPINFER_CHECK_MSG(cfg.cost.num_gpus >= 1,
                    "ServingEngineConfig::cost.num_gpus must be >= 1");
  if (cfg.obs.enabled) {
    request_log_ = std::make_unique<obs::RequestLog>(cfg.obs.wall_clock);
    flight_recorder_ = std::make_unique<obs::FlightRecorder>(kObsWindowIters);
    obs::SloTrackerConfig slo;
    slo.window_iters = kObsWindowIters;
    slo_tracker_ = std::make_unique<obs::SloTracker>(slo);
  }
}

ServingEngine::~ServingEngine() {
  if (flight_recorder_ != nullptr) {
    // Scoped uninstall: only clears the hook if it still points at our
    // recorder, so a later engine's installation survives.
    UninstallFlightRecorderCrashDump(flight_recorder_.get());
  }
}

int64_t ServingEngine::Submit(std::vector<int32_t> prompt, int64_t max_new_tokens,
                              double arrival_s) {
  std::lock_guard<std::mutex> lock(submit_mu_);
  SPINFER_CHECK_MSG(!ran_, "Submit after Run");
  RequestRecord r;
  r.id = static_cast<int64_t>(records_.size());
  r.prompt = std::move(prompt);
  r.max_new_tokens = max_new_tokens;
  r.arrival_s = arrival_s;
  records_.push_back(std::move(r));
  ServingMetrics::Get().arrived->Increment();
  return records_.back().id;
}

int64_t ServingEngine::SubmitPrefilled(std::vector<int32_t> prompt,
                                       int32_t first_token,
                                       int64_t max_new_tokens,
                                       double arrival_s) {
  SPINFER_CHECK(max_new_tokens >= 2);
  const int64_t id = Submit(std::move(prompt), max_new_tokens, arrival_s);
  std::lock_guard<std::mutex> lock(submit_mu_);
  records_[static_cast<size_t>(id)].generated.push_back(first_token);
  return id;
}

void ServingEngine::Cancel(int64_t id, double at_s) {
  std::lock_guard<std::mutex> lock(submit_mu_);
  cancels_.emplace_back(at_s, id);
}

void ServingEngine::InjectPoissonArrivals(const PoissonTraffic& t) {
  SPINFER_CHECK(t.arrival_rate_rps > 0.0 && t.horizon_s > 0.0);
  SPINFER_CHECK(t.prompt_len_min >= 1 && t.prompt_len_max >= t.prompt_len_min);
  SPINFER_CHECK(t.max_new_min >= 1 && t.max_new_max >= t.max_new_min);
  // Arrival times replay the analytic simulator's exact draw sequence;
  // content comes from a second stream so it cannot perturb the process.
  Rng time_rng(t.seed);
  Rng content_rng(t.seed ^ 0x9e3779b97f4a7c15ull);
  const int64_t vocab = substrate_->model_config().vocab;
  double now = 0.0;
  while (true) {
    now += -std::log(1.0 - time_rng.Uniform()) / t.arrival_rate_rps;
    if (now >= t.horizon_s) {
      break;
    }
    const int64_t prompt_len =
        t.prompt_len_min +
        static_cast<int64_t>(content_rng.Below(
            static_cast<uint64_t>(t.prompt_len_max - t.prompt_len_min + 1)));
    const int64_t max_new =
        t.max_new_min + static_cast<int64_t>(content_rng.Below(
                            static_cast<uint64_t>(t.max_new_max - t.max_new_min + 1)));
    std::vector<int32_t> prompt(static_cast<size_t>(prompt_len));
    for (int32_t& tok : prompt) {
      tok = static_cast<int32_t>(content_rng.Below(static_cast<uint64_t>(vocab)));
    }
    Submit(std::move(prompt), max_new, now);
  }
}

bool IsServable(const PagedKvCache& pool, const TinyConfig& model,
                const std::vector<int32_t>& prompt, int64_t max_new) {
  const int64_t prompt_len = static_cast<int64_t>(prompt.size());
  return prompt_len >= 1 && max_new >= 1 &&
         max_new <= model.max_seq - prompt_len &&  // no overflow on max_new
         pool.BlocksForTokens(prompt_len + max_new) <= pool.total_blocks() &&
         std::all_of(prompt.begin(), prompt.end(), [&](int32_t t) {
           return t >= 0 && t < model.vocab;
         });
}

ExecServingReport ServingEngine::Run() {
  SPINFER_CHECK_MSG(!ran_, "ServingEngine::Run is single-shot");
  ran_ = true;
  ServingMetrics& metrics = ServingMetrics::Get();

  ExecServingReport report;
  report.arrived = static_cast<int64_t>(records_.size());

  // FIFO queue of request ids by (arrival, submission order). stable_sort
  // keeps equal-arrival requests in id order.
  std::vector<int64_t> order(records_.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<int64_t>(i);
  }
  std::stable_sort(order.begin(), order.end(), [this](int64_t a, int64_t b) {
    return records_[static_cast<size_t>(a)].arrival_s <
           records_[static_cast<size_t>(b)].arrival_s;
  });
  std::deque<int64_t> queue(order.begin(), order.end());

  // Observability is read-only on engine state: everything below that touches
  // tl / flight_recorder_ / slo_tracker_ records what already happened and
  // feeds nothing back. Submitted events go out up front in queue
  // (arrival, id) order — the single-writer discipline that keeps the JSONL
  // byte-stable across thread counts.
  obs::RequestLog* const tl = request_log_.get();
  obs::FlightRecorder* const fr = flight_recorder_.get();
  obs::SloTracker* const slo = slo_tracker_.get();
  if (fr != nullptr) {
    InstallFlightRecorderCrashDump(fr);
  }
  if (tl != nullptr) {
    for (const int64_t id : queue) {
      const RequestRecord& r = records_[static_cast<size_t>(id)];
      tl->Append(r.id, obs::RequestEventKind::kSubmitted, -1, r.arrival_s,
                 {{"prompt_tokens", static_cast<int64_t>(r.prompt.size())},
                  {"max_new", r.max_new_tokens}});
    }
  }
  std::vector<int64_t> fr_admitted_ids;

  const auto footprint_of = [this](const RequestRecord& r) {
    return substrate_->cache().BlocksForTokens(static_cast<int64_t>(r.prompt.size()) +
                                  r.max_new_tokens);
  };

  std::vector<Active> running;
  std::vector<int64_t> dec_ids;
  std::vector<int32_t> dec_last;
  std::vector<int32_t> dec_next;
  std::vector<int32_t> chunk_next;
  std::vector<PrefillChunk> chunks;
  std::vector<std::pair<double, int64_t>> due_cancels;
  std::vector<double> latencies_ms;
  std::vector<double> ttfts_ms;
  double now_s = 0.0;
  double batch_time_integral = 0.0;
  int64_t published_cow = 0;

  while (!queue.empty() || !running.empty()) {
    // 0-based index of the iteration this pass would execute; idle passes
    // (clock jumps) share the index with the iteration that follows them.
    const int64_t iter_idx = report.iterations;
    int64_t fr_admitted = 0;
    int64_t fr_rejected = 0;
    fr_admitted_ids.clear();

    // --- Cancellation: applied at iteration boundaries, in (at_s, id) order
    // for determinism, once the virtual clock reaches the cancel time. -----
    due_cancels.clear();
    {
      std::lock_guard<std::mutex> lock(submit_mu_);
      for (size_t i = 0; i < cancels_.size();) {
        if (cancels_[i].first <= now_s) {
          due_cancels.push_back(cancels_[i]);
          cancels_[i] = cancels_.back();
          cancels_.pop_back();
        } else {
          ++i;
        }
      }
    }
    std::sort(due_cancels.begin(), due_cancels.end());
    for (const auto& [at_s, id] : due_cancels) {
      if (id < 0 || id >= static_cast<int64_t>(records_.size())) {
        continue;
      }
      RequestRecord& r = records_[static_cast<size_t>(id)];
      if (r.reason != FinishReason::kNone) {
        continue;  // already finished — cancellation lost the race
      }
      r.reason = FinishReason::kCancelled;
      r.finish_s = now_s;
      ++report.cancelled;
      metrics.cancelled->Increment();
      const auto run_it =
          std::find_if(running.begin(), running.end(),
                       [id](const Active& a) { return a.id == id; });
      const bool was_running = run_it != running.end();
      if (was_running) {
        substrate_->RemoveSequence(id);  // refcount-aware: shared blocks survive
        running.erase(run_it);
      } else {
        queue.erase(std::find(queue.begin(), queue.end(), id));
      }
      if (tl != nullptr) {
        // A running victim is "evicted" (its KV blocks were reclaimed); a
        // queued one was merely "cancelled".
        tl->Append(id,
                   was_running ? obs::RequestEventKind::kEvicted
                               : obs::RequestEventKind::kCancelled,
                   iter_idx, now_s,
                   {{"generated", static_cast<int64_t>(r.generated.size())}});
      }
    }

    // --- Admission: strict FIFO; the head blocks until it fits. ------------
    // Growth reserve: fresh blocks the running set may still demand growing
    // to prompt + max_new. used_blocks + reserve <= total guarantees every
    // future AppendToken finds a free block (the engine's appends never
    // trigger copy-on-write: only full blocks are shared, so a sequence's
    // divergent writes land in private tail blocks). With nothing shared
    // this admission check is integer-for-integer the v1 sum-of-footprints
    // commitment; with sharing it counts shared blocks once.
    int64_t reserve = 0;
    for (const Active& a : running) {
      reserve += footprint_of(records_[static_cast<size_t>(a.id)]) -
                 substrate_->cache().BlocksForTokens(
                     substrate_->cache().SequenceTokens(a.id));
    }
    while (!queue.empty()) {
      RequestRecord& r = records_[static_cast<size_t>(queue.front())];
      if (r.arrival_s > now_s) {
        break;
      }
      const int64_t prompt_len = static_cast<int64_t>(r.prompt.size());
      if (!IsServable(substrate_->cache(), substrate_->model_config(), r.prompt,
                      r.max_new_tokens)) {
        queue.pop_front();
        r.reason = FinishReason::kRejected;
        r.finish_s = now_s;
        ++report.rejected;
        ++fr_rejected;
        metrics.rejected->Increment();
        if (tl != nullptr) {
          tl->Append(r.id, obs::RequestEventKind::kRejected, iter_idx, now_s);
        }
        continue;
      }
      if (static_cast<int64_t>(running.size()) >= cfg_.max_batch) {
        break;
      }
      // Only a request from Submit arrives without a token; a prefilled one
      // brings its prompt's KV through AddSequenceSharing below.
      const bool prefilled = !r.generated.empty();
      PagedKvCache::PrefixMatch match;
      if (cfg_.enable_prefix_cache && !prefilled) {
        match = substrate_->MatchPrefix(r.prompt);
      }
      const int64_t prompt_blocks = substrate_->cache().BlocksForTokens(prompt_len);
      const int64_t fresh_blocks =
          prompt_blocks - static_cast<int64_t>(match.blocks.size());
      const int64_t growth = footprint_of(r) - prompt_blocks;
      if (substrate_->cache().used_blocks() + fresh_blocks + reserve + growth >
          substrate_->cache().total_blocks()) {
        break;
      }
      queue.pop_front();
      SPINFER_CHECK(
          substrate_->AddSequenceSharing(r.id, r.prompt, prompt_len, match));
      reserve += growth;
      r.admit_s = now_s;
      r.cached_prompt_tokens = match.tokens;
      report.prefix_hit_blocks += static_cast<int64_t>(match.blocks.size());
      report.prefix_miss_blocks += fresh_blocks;
      if (cfg_.enable_prefix_cache) {
        metrics.prefix_hit_blocks->Add(
            static_cast<uint64_t>(match.blocks.size()));
        metrics.prefix_miss_blocks->Add(static_cast<uint64_t>(fresh_blocks));
      }
      admission_order_.push_back(r.id);
      ++fr_admitted;
      if (fr != nullptr) {
        fr_admitted_ids.push_back(r.id);
      }
      if (tl != nullptr) {
        tl->Append(r.id, obs::RequestEventKind::kAdmitted, iter_idx, now_s,
                   {{"fresh_blocks", fresh_blocks},
                    {"shared_blocks",
                     static_cast<int64_t>(match.blocks.size())}});
        if (cfg_.enable_prefix_cache) {
          tl->Append(
              r.id, obs::RequestEventKind::kPrefixMatch, iter_idx, now_s,
              {{"hit_blocks", static_cast<int64_t>(match.blocks.size())},
               {"miss_blocks", fresh_blocks},
               {"cached_tokens", match.tokens}});
        }
      }
      // Prefill starts past the adopted prefix; the chunk scheduler below
      // computes the rest (this same iteration when chunking is off). A
      // prefilled request decodes straight away.
      running.push_back(
          Active{r.id, prefilled ? prompt_len : match.tokens, prefilled});
    }

    if (running.empty()) {
      if (queue.empty()) {
        break;
      }
      // Idle: jump the virtual clock to the next event. With an empty batch
      // the head always admits or rejects, so its arrival must be in the
      // future — anything else would spin this loop forever. A pending
      // cancel for a not-yet-arrived request applies at that same boundary.
      const double next_arrival =
          records_[static_cast<size_t>(queue.front())].arrival_s;
      SPINFER_CHECK_MSG(next_arrival > now_s,
                        "scheduler wedged: empty batch cannot admit the "
                        "queue head");
      now_s = next_arrival;
      continue;
    }

    // --- Build the mixed iteration: every prefill-complete sequence decodes
    // one token; prefilling sequences get prompt chunks under the
    // per-iteration token budget (0 = unlimited), in running order. --------
    dec_ids.clear();
    dec_last.clear();
    chunks.clear();
    int64_t chunk_tokens_sum = 0;
    for (const Active& a : running) {
      const RequestRecord& r = records_[static_cast<size_t>(a.id)];
      const int64_t prompt_len = static_cast<int64_t>(r.prompt.size());
      if (a.prefill_pos < prompt_len) {
        int64_t take = prompt_len - a.prefill_pos;
        if (cfg_.prefill_chunk_tokens > 0) {
          take = std::min(take, cfg_.prefill_chunk_tokens - chunk_tokens_sum);
        }
        if (take <= 0) {
          continue;  // budget spent; this sequence resumes next iteration
        }
        chunks.push_back(PrefillChunk{a.id, &r.prompt, a.prefill_pos, take});
        chunk_tokens_sum += take;
      } else {
        dec_ids.push_back(a.id);
        dec_last.push_back(r.generated.back());
      }
    }

    const int64_t batch = static_cast<int64_t>(running.size());
    ++report.iterations;
    metrics.iterations->Increment();
    report.peak_batch = std::max(report.peak_batch, batch);
    report.peak_kv_blocks =
        std::max(report.peak_kv_blocks, substrate_->cache().used_blocks());
    SPINFER_TRACE_SCOPE_ARG("srv.step", "batch", batch);

    if (tl != nullptr) {
      for (const PrefillChunk& c : chunks) {
        tl->Append(c.seq_id, obs::RequestEventKind::kChunkScheduled, iter_idx,
                   now_s, {{"start", c.start}, {"tokens", c.count}});
      }
    }
    // Flight-recorder composition is captured at execution time (post-
    // admission, pre-retire): that is the working set a crash dump needs.
    // Cost and the post-iteration clock are filled in after pricing.
    obs::IterationSnapshot fr_snap;
    if (fr != nullptr) {
      fr_snap.iter = iter_idx;
      fr_snap.batch = batch;
      fr_snap.decode_seqs = static_cast<int64_t>(dec_ids.size());
      fr_snap.prefill_seqs = static_cast<int64_t>(chunks.size());
      fr_snap.chunk_tokens = chunk_tokens_sum;
      fr_snap.admitted = fr_admitted;
      fr_snap.rejected = fr_rejected;
      fr_snap.queue_depth = static_cast<int64_t>(queue.size());
      fr_snap.kv_used_blocks = substrate_->cache().used_blocks();
      fr_snap.kv_total_blocks = substrate_->cache().total_blocks();
      fr_snap.kv_wasted_slots = substrate_->cache().WastedTokenSlots();
      fr_snap.batch_ids.reserve(running.size());
      for (const Active& a : running) {
        fr_snap.batch_ids.push_back(a.id);
      }
      fr_snap.admitted_ids = fr_admitted_ids;
    }

    // --- Execute: ONE matmul per weight with N = decode + chunk columns. ---
    substrate_->MixedStep(dec_ids, dec_last, chunks, cfg_.backend,
                      &dec_next, &chunk_next);
    for (size_t i = 0; i < dec_ids.size(); ++i) {
      records_[static_cast<size_t>(dec_ids[i])].generated.push_back(dec_next[i]);
    }
    for (size_t c = 0; c < chunks.size(); ++c) {
      const int64_t id = chunks[c].seq_id;
      Active& a = *std::find_if(running.begin(), running.end(),
                                [id](const Active& x) { return x.id == id; });
      a.prefill_pos += chunks[c].count;
      RequestRecord& r = records_[static_cast<size_t>(id)];
      if (a.prefill_pos == static_cast<int64_t>(r.prompt.size())) {
        SPINFER_CHECK(chunk_next[c] >= 0);
        r.generated.push_back(chunk_next[c]);
      }
      if (cfg_.enable_prefix_cache) {
        // Newly filled full blocks become adoptable by later arrivals.
        substrate_->IndexPrefix(id, r.prompt, a.prefill_pos);
      }
    }

    // --- Advance the virtual clock: expression-for-expression the analytic
    // simulator's pricing. Chunk columns are priced as prefill work; every
    // producer (decoded or prefill-completed this iteration) now holds
    // g_pre + 1 generated tokens, so its context contribution is
    // prompt + (generated - 1) + 1, the analytic `input_len + g_pre + 1`.
    double iter_us = 0.0;
    if (!chunks.empty()) {
      const int64_t n_chunks = static_cast<int64_t>(chunks.size());
      iter_us += PrefillTimeUs(cfg_.cost, n_chunks, chunk_tokens_sum / n_chunks);
    }
    int64_t producers = 0;
    int64_t context_sum = 0;
    for (const Active& a : running) {
      const RequestRecord& r = records_[static_cast<size_t>(a.id)];
      if (a.prefill_pos < static_cast<int64_t>(r.prompt.size())) {
        continue;  // mid-prefill: produced no token this iteration
      }
      ++producers;
      context_sum += static_cast<int64_t>(r.prompt.size()) +
                     (static_cast<int64_t>(r.generated.size()) - 1) + 1;
    }
    if (producers > 0) {
      iter_us += DecodeStepTimeUs(cfg_.cost, producers, context_sum / producers);
    }
    report.peak_iter_ms = std::max(report.peak_iter_ms, iter_us / 1e3);
    now_s += iter_us / 1e6;
    batch_time_integral += static_cast<double>(batch) * iter_us / 1e6;
    report.tokens_generated += producers;
    metrics.tokens->Add(static_cast<uint64_t>(producers));

    // First-token timestamps for sequences whose prefill completed at this
    // iteration's boundary (decode-phase sequences got theirs earlier).
    for (const PrefillChunk& c : chunks) {
      RequestRecord& r = records_[static_cast<size_t>(c.seq_id)];
      if (c.start + c.count == static_cast<int64_t>(r.prompt.size())) {
        r.first_token_s = now_s;
        r.ttft_ms = (now_s - r.arrival_s) * 1e3;
        if (slo != nullptr) {
          slo->RecordTtftMs(r.ttft_ms);
        }
      }
    }
    if (slo != nullptr) {
      // Every decode-phase producer waited exactly this iteration for its
      // token: the iteration cost IS the inter-token gap.
      for (size_t i = 0; i < dec_ids.size(); ++i) {
        slo->RecordTbtMs(iter_us / 1e3);
      }
    }
    if (tl != nullptr) {
      // One decode event per producer (decode-phase and prefill-completers
      // alike), stamped at the post-iteration boundary where the token
      // materializes.
      for (const Active& a : running) {
        const RequestRecord& r = records_[static_cast<size_t>(a.id)];
        if (a.prefill_pos < static_cast<int64_t>(r.prompt.size())) {
          continue;
        }
        tl->Append(a.id, obs::RequestEventKind::kDecodeIteration, iter_idx,
                   now_s,
                   {{"token", r.generated.back()},
                    {"generated", static_cast<int64_t>(r.generated.size())}});
      }
    }

    // --- Retire: EOS or token budget (mid-prefill sequences stay). ---------
    for (auto it = running.begin(); it != running.end();) {
      RequestRecord& r = records_[static_cast<size_t>(it->id)];
      if (it->prefill_pos < static_cast<int64_t>(r.prompt.size())) {
        ++it;
        continue;
      }
      const bool eos =
          cfg_.eos_token >= 0 && r.generated.back() == cfg_.eos_token;
      if (!eos &&
          static_cast<int64_t>(r.generated.size()) < r.max_new_tokens) {
        ++it;
        continue;
      }
      r.reason = eos ? FinishReason::kEos : FinishReason::kMaxTokens;
      r.finish_s = now_s;
      r.latency_ms = (now_s - r.arrival_s) * 1e3;
      latencies_ms.push_back(r.latency_ms);
      metrics.latency_ms->Record(r.latency_ms);
      if (!it->prefilled) {  // a prefilled first token came from elsewhere
        ttfts_ms.push_back(r.ttft_ms);
        metrics.ttft_ms->Record(r.ttft_ms);
      }
      metrics.completed->Increment();
      ++report.completed;
      substrate_->RemoveSequence(r.id);
      if (tl != nullptr) {
        tl->Append(r.id, obs::RequestEventKind::kFinished, iter_idx, now_s,
                   {{"generated", static_cast<int64_t>(r.generated.size())},
                    {"eos", eos ? 1 : 0}});
      }
      it = running.erase(it);
    }

    if (fr != nullptr) {
      fr_snap.vt_s = now_s;
      fr_snap.cost_ms = iter_us / 1e3;
      fr->Record(std::move(fr_snap));
    }
    if (slo != nullptr) {
      slo->EndIteration(substrate_->cache().Utilization(),
                        &obs::MetricsRegistry::Global());
    }

    metrics.queue_depth->Set(static_cast<double>(queue.size()));
    metrics.batch_size->Set(static_cast<double>(running.size()));
    metrics.kv_used_blocks->Set(
        static_cast<double>(substrate_->cache().used_blocks()));
    metrics.kv_utilization->Set(substrate_->cache().Utilization());
    metrics.kv_wasted_slots->Set(
        static_cast<double>(substrate_->cache().WastedTokenSlots()));
    if (substrate_->cache().cow_copies() > published_cow) {
      metrics.cow_copies->Add(
          static_cast<uint64_t>(substrate_->cache().cow_copies() - published_cow));
      published_cow = substrate_->cache().cow_copies();
    }
  }

  report.cow_copies = substrate_->cache().cow_copies();
  report.sim_time_s = now_s;
  report.throughput_tps =
      static_cast<double>(report.tokens_generated) / std::max(now_s, 1e-9);
  report.mean_batch = batch_time_integral / std::max(now_s, 1e-9);
  report.ttft = SummarizeLatenciesMs(std::move(ttfts_ms));
  report.latency = SummarizeLatenciesMs(std::move(latencies_ms));
  return report;
}

}  // namespace spinfer
