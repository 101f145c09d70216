#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

/// \file workloads.h
/// \brief The three perfbench workloads. Each generates its inputs from
/// `options.seed` (simulation time is excluded from every metric), sets up
/// `kSetupRepeats` times with an untimed warm-up, measures for
/// `options.seconds`, checks its outputs, and fills `report`: end-to-end
/// metrics when untraced, per-layer metrics when traced.
///
/// Both modes report the same metric names on every workload; see
/// perfbench/NOTE.md for what each one measures on each workload.

#include <vector>

#include "core/cpa_model.h"
#include "engine/consensus_engine.h"
#include "perfbench/src/harness.h"
#include "perfbench/src/trace.h"

namespace perfbench {

void RunOfflineFit(const RunOptions& options, Report& report, Outcome& outcome);
void RunStreamRefresh(const RunOptions& options, Report& report, Outcome& outcome);
void RunServeMixed(const RunOptions& options, Report& report, Outcome& outcome);

/// Per-layer metrics every traced run reports (names shared by all
/// workloads; each workload fills them from its own spans and replays).
struct LayerMetrics {
  double core_refresh_ms = 0.0;
  double core_speedup_t4 = 0.0;
  double engine_overhead_ms = 0.0;
  double server_overhead_ms = 0.0;
  double observe_decode_ms = 0.0;
  double observe_request_bytes = 0.0;
  double read_encode_ms = 0.0;
  double read_reply_bytes = 0.0;
  double traced_fresh_p50_ms = 0.0;
  double untraced_fresh_p50_ms = 0.0;
  double coverage = 0.0;
};

/// Writes `layers` into `report` under the shared per-layer names.
void ReportLayers(const LayerMetrics& layers, Report& report);

/// Codec timings of the workload's wire shapes, filled into `layers`:
/// binary observe-frame decode (per frame) and a cached-read JSON reply
/// encode of `snapshot` with predictions.
void MeasureCodec(const std::vector<std::string>& observe_frames,
                  const cpa::SharedSnapshot& snapshot, LayerMetrics& layers,
                  Outcome& outcome);

/// Writes the recorder's spans next to the run and adds each span's self
/// time to the info line.
void DumpTrace(const RunOptions& options, const SpanRecorder& recorder,
               Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
