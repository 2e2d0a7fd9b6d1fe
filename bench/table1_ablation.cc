// Table 1: kernel-level ablation of SMBD and the asynchronous pipeline.
// The paper removes each optimization and reports duration, peak-bandwidth
// utilization, issue-slot activity, warp cycles per instruction, and Tensor
// Core pipe utilization.
//
// Issue-slot busy and warp-cycles-per-instruction are derived from the model
// as instruction-throughput proxies: issued warp instructions per available
// issue slot, and its inverse scaled to cycles.
#include "bench/bench_util.h"
#include "src/core/spinfer_kernel.h"
#include "src/gpusim/pipeline.h"
#include "src/gpusim/timeline.h"

int main(int argc, char** argv) {
  using namespace spinfer;
  BenchInit(argc, argv);
  const DeviceSpec dev = Rtx4090();
  // The ablation aggregates a decode-phase workload; model the OPT-30B fc1
  // shape, executed many times as in the paper's 303ms total.
  const SpmmProblem p = MakeProblem(28672, 7168, 16, 0.6);
  const int kRepeats = 1000;

  PrintHeader("Table 1: ablation study (SMBD / AsyncPipe), RTX4090, modeled");
  Table t({"SMBD", "AsyncPipe", "Duration(ms)", "MaxBW(%)", "IssueSlotBusy(%)",
           "WarpCyc/Inst", "TCPipeUtil(%)"});

  struct Variant {
    bool smbd;
    bool pipe;
  };
  double base_ms = 0.0;
  double no_smbd_ms = 0.0;
  double no_pipe_ms = 0.0;
  for (const Variant v : {Variant{true, true}, {false, true}, {true, false}}) {
    SpInferKernelConfig cfg;
    cfg.split_k = 0;
    cfg.smbd = v.smbd;
    cfg.async_pipe = v.pipe;
    const SpInferSpmmKernel kernel(cfg);
    const KernelEstimate est = kernel.Estimate(p, dev);
    const double ms = est.time.total_us * kRepeats / 1e3;
    if (v.smbd && v.pipe) {
      base_ms = ms;
    } else if (!v.smbd) {
      no_smbd_ms = ms;
    } else {
      no_pipe_ms = ms;
    }

    // Instruction-throughput proxies. Total issued warp instructions:
    const PerfCounters& c = est.counters;
    const double instrs = static_cast<double>(c.TotalWarpInstrs());
    // Issue slots: 4 schedulers per SM, one instruction per cycle each.
    const double slots = est.time.total_us * 1e-6 * dev.clock_ghz * 1e9 * 4.0 *
                         static_cast<double>(dev.sm_count);
    const double issue_busy = 100.0 * instrs / slots;
    // Warp cycles per issued instruction across resident warps (proxy for
    // latency exposure): assume 12 resident warps per SM on average.
    const double warp_cycles = slots * 12.0 / 4.0 / instrs / 100.0;

    t.AddRow({v.smbd ? "yes" : "no", v.pipe ? "yes" : "no", FormatF(ms, 1),
              FormatF(100.0 * est.time.bw_utilization, 1),
              FormatF(issue_busy, 1), FormatF(warp_cycles, 1),
              FormatF(100.0 * est.time.tc_utilization, 1)});
  }
  std::printf("%s\n", t.Render().c_str());
  std::printf("Measured slowdowns: no-SMBD +%.2f%%, no-AsyncPipe +%.2f%%.\n",
              100.0 * (no_smbd_ms / base_ms - 1.0),
              100.0 * (no_pipe_ms / base_ms - 1.0));
  std::printf(
      "Paper reference (303.1ms baseline): removing SMBD costs +10.0%% duration and\n"
      "collapses bandwidth utilization; removing AsyncPipe costs +2.0%%.\n");

  PrintHeader("Pipeline schedule model (per-iteration stage overlap)");
  const StageTimes stages{/*load_w=*/4.6, /*load_x=*/0.5, /*decode=*/2.9, /*mma=*/2.4};
  Table pt({"variant", "per-iter time", "vs full"});
  PipelineConfig full;
  PipelineConfig coarse;
  coarse.fine_grained_groups = false;
  PipelineConfig serial;
  serial.double_buffer = false;
  const double tf = PipelineIterationTime(stages, full);
  pt.AddRow({"double-buffer + fine-grained groups", FormatF(tf, 2), "1.00x"});
  pt.AddRow({"double-buffer only", FormatF(PipelineIterationTime(stages, coarse), 2),
             FormatF(PipelineIterationTime(stages, coarse) / tf, 2) + "x"});
  pt.AddRow({"fully serialized", FormatF(PipelineIterationTime(stages, serial), 2),
             FormatF(PipelineIterationTime(stages, serial) / tf, 2) + "x"});
  std::printf("%s\n", pt.Render().c_str());

  PrintHeader("Discrete-event timeline (8 iterations; # = DRAM, d = SMBD, M = mma)");
  for (const auto& [label, cfg2] :
       {std::pair<const char*, PipelineConfig>{"full pipeline", full},
        {"no double-buffer (serialized)", serial}}) {
    const TimelineResult r = SimulateKernelTimeline(stages, cfg2, 8);
    std::printf("%s (total %.1f units):\n%s\n", label, r.total_time,
                r.RenderGantt(72).c_str());
  }
  return 0;
}
