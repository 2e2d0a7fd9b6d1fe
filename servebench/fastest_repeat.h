// Fastest repeat: the timed rounds of one run, combined step by step.
//
// Every round of a run serves the same requests through a fresh engine, and
// the schedule is deterministic (each round's report must equal the
// first's), so step k of every round does the same work. On a shared host
// the same step can take 40% longer while a neighbour contends for the core;
// those slow spells last about a second and fall on different steps in
// different rounds. Taking each step's fastest time over the rounds removes
// them, and the latencies are rebuilt from those times on the schedule the
// rounds share:
//   * the interval of step k runs from the return of step k-1 (StartRun for
//     k = 0) to the return of step k, so it includes the scheduler's own work
//     between steps; its fastest repeat is its minimum over the rounds;
//   * a TBT gap is the sum of the fastest intervals it spans;
//   * the run's pace is the sum of all fastest intervals.
// One round holds too few TTFTs for a p90, so every round's TTFTs are kept,
// each multiplied by the fastest time over its own time of the intervals it
// spans: from the one it was admitted in to the one that emitted its first
// token.
#pragma once

#include <algorithm>
#include <optional>
#include <vector>

#include "timing_substrate.h"

namespace servebench {

struct FastestRepeat {
  std::vector<double> interval_ms;  // fastest interval of each step
  double total_ms = 0.0;            // sum of interval_ms
  std::vector<double> tbt_ms;       // every TBT gap of the schedule
  std::vector<double> ttft_ms;      // every TTFT of every round, rescaled
};

inline bool SameSchedule(const RoundTiming& a, const RoundTiming& b) {
  if (a.steps.size() != b.steps.size() ||
      a.tbt_spans.size() != b.tbt_spans.size() ||
      a.ttft_spans.size() != b.ttft_spans.size()) {
    return false;
  }
  for (size_t i = 0; i < a.tbt_spans.size(); ++i) {
    if (a.tbt_spans[i].from != b.tbt_spans[i].from ||
        a.tbt_spans[i].to != b.tbt_spans[i].to) {
      return false;
    }
  }
  for (size_t i = 0; i < a.ttft_spans.size(); ++i) {
    if (a.ttft_spans[i].first != b.ttft_spans[i].first ||
        a.ttft_spans[i].token != b.ttft_spans[i].token) {
      return false;
    }
  }
  return true;
}

// nullopt when there are no rounds, no steps, or two rounds ran different
// schedules.
inline std::optional<FastestRepeat> CombineFastest(
    const std::vector<const RoundTiming*>& rounds) {
  if (rounds.empty() || rounds.front()->steps.empty()) {
    return std::nullopt;
  }
  const RoundTiming& first = *rounds.front();
  for (const RoundTiming* r : rounds) {
    if (!SameSchedule(first, *r)) {
      return std::nullopt;
    }
  }
  FastestRepeat f;
  f.interval_ms.assign(first.steps.size(), 0.0);
  for (size_t k = 0; k < first.steps.size(); ++k) {
    double best = 0.0;
    for (size_t r = 0; r < rounds.size(); ++r) {
      const std::vector<double>& end = rounds[r]->step_end_ms;
      const double interval = end[k] - (k == 0 ? 0.0 : end[k - 1]);
      best = r == 0 ? interval : std::min(best, interval);
    }
    f.interval_ms[k] = best;
  }
  // end[k] of the fastest schedule, to rebuild the gaps.
  std::vector<double> end(f.interval_ms.size());
  for (size_t k = 0; k < end.size(); ++k) {
    f.total_ms += f.interval_ms[k];
    end[k] = f.total_ms;
  }
  for (const TbtSpan& s : first.tbt_spans) {
    f.tbt_ms.push_back(end[static_cast<size_t>(s.to)] -
                       end[static_cast<size_t>(s.from)]);
  }
  // Where the interval of step k begins: the return of step k-1.
  const auto start = [](const std::vector<double>& end_ms, int32_t k) {
    return k == 0 ? 0.0 : end_ms[static_cast<size_t>(k - 1)];
  };
  for (const RoundTiming* r : rounds) {
    for (size_t i = 0; i < r->ttft_spans.size(); ++i) {
      const TtftSpan& s = r->ttft_spans[i];
      const size_t token = static_cast<size_t>(s.token);
      const double own = r->step_end_ms[token] - start(r->step_end_ms, s.first);
      const double fast = end[token] - start(end, s.first);
      f.ttft_ms.push_back(r->ttft_admitted_ms[i] * fast / own);
    }
  }
  return f;
}

}  // namespace servebench
