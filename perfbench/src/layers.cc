#include <cstdio>

#include "perfbench/src/workloads.h"
#include "server/binary_codec.h"
#include "server/protocol.h"

namespace perfbench {

void ReportLayers(const LayerMetrics& layers, Report& report) {
  report.Metric("core.refresh_ms", layers.core_refresh_ms, "ms");
  report.Metric("core.refresh_share",
                layers.traced_fresh_p50_ms > 0.0
                    ? layers.core_refresh_ms / layers.traced_fresh_p50_ms
                    : 0.0,
                "ratio");
  report.Metric("core.speedup_t4", layers.core_speedup_t4, "ratio");
  report.Metric("engine.overhead_ms", layers.engine_overhead_ms, "ms");
  report.Metric("server.overhead_ms", layers.server_overhead_ms, "ms");
  report.Metric("server.observe_decode_ms", layers.observe_decode_ms, "ms");
  report.Metric("server.observe_request_bytes", layers.observe_request_bytes,
                "bytes");
  report.Metric("server.read_encode_ms", layers.read_encode_ms, "ms");
  report.Metric("server.read_reply_bytes", layers.read_reply_bytes, "bytes");
  report.Metric("trace.coverage", layers.coverage, "ratio");
  report.Metric("trace.overhead_ms",
                layers.traced_fresh_p50_ms - layers.untraced_fresh_p50_ms, "ms");
}

void MeasureCodec(const std::vector<std::string>& observe_frames,
                  const cpa::SharedSnapshot& snapshot, LayerMetrics& layers,
                  Outcome& outcome) {
  namespace wire = cpa::server;
  double bytes = 0.0;
  for (const std::string& frame : observe_frames) {
    bytes += static_cast<double>(frame.size());
  }
  if (!observe_frames.empty()) {
    layers.observe_request_bytes = bytes / static_cast<double>(observe_frames.size());
    // Decode every frame of the workload once per call, then divide.
    bool decoded_all = true;
    const double all_frames_ms = PerCallMillis([&observe_frames, &decoded_all] {
      for (const std::string& frame : observe_frames) {
        decoded_all = wire::DecodeBinaryRequest(frame).ok() && decoded_all;
      }
    });
    outcome.Check(decoded_all, "an observe frame did not decode");
    layers.observe_decode_ms = all_frames_ms / static_cast<double>(observe_frames.size());
  }
  wire::Response read;
  read.op = wire::Request::Op::kSnapshot;
  read.session = "perfbench-read";
  read.snapshot = snapshot;
  read.include_predictions = true;
  std::size_t reply_bytes = 0;
  layers.read_encode_ms = PerCallMillis([&read, &reply_bytes] {
    reply_bytes = wire::EncodeJsonResponse(read).size();
  });
  layers.read_reply_bytes = static_cast<double>(reply_bytes);
}

void DumpTrace(const RunOptions& options, const SpanRecorder& recorder,
               Report& report) {
  const std::vector<Span> spans = recorder.spans();
  for (const auto& [name, row] : SummarizeSpans(spans)) {
    report.Info("self_ms." + name, row.self_ms, "ms");
  }
  if (options.trace_dir.empty()) return;
  const std::string path = options.trace_dir + "/spans-" + options.workload +
                           "-" + std::to_string(options.seed) + ".json";
  if (recorder.WriteJson(path)) {
    report.InfoText("spans_file", path);
  } else {
    std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
  }
}

}  // namespace perfbench
