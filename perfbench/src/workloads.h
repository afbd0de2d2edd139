// Workload definitions and trial runners of the repository benchmark.
//
// A trial deploys one system through the program's own pipeline
// (workload::build_cluster / make_service over a runtime::Host), attaches
// the benchmark's BenchClient machines, runs warm-up, measurement window
// and drain, then applies the correctness gate and computes metrics.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"

namespace perfbench {

using canopus::Time;

/// What one invocation of perfbench_run runs.
enum class Mode {
  kFull,    ///< the whole workload (lan-canopus: the rate ladder)
  kPlain,   ///< one untraced trial at the operating point
  kTraced,  ///< the same trial with handler proxies (serial kernel)
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  Mode mode = Mode::kFull;
  /// Force the serial kernel (otherwise the workload's own setting).
  bool serial = false;
  /// Run the HistoryAuditor on workloads that have one (it records every
  /// commit and reply, so timing runs leave it off).
  bool audit = true;
  /// Where to write the span/aggregate artifact (empty = nowhere).
  std::string trace_out;
};

/// Everything one invocation reports. `e2e` and `layer` hold metric values
/// keyed by metric name; `digest` holds the simulated outputs that must
/// repeat bit-for-bit (fingerprints, histogram, events, network counters).
struct Report {
  bool ok = true;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::map<std::string, std::string> digest;
  std::vector<std::string> notes;  ///< human-readable lines (top tags, ladder)
  double run_wall_s = 0;           ///< wall of the kernel/run loop only
  /// Wall seconds of consecutive segments of the run: construction, then
  /// fixed slices of simulated time (or the set-up and the fixed schedule
  /// on threads). perfbench/run.py sums them per repetition, rescaled on
  /// the simulator by the reference units below. `setup_parts` end where
  /// the measurement window begins.
  std::vector<double> setup_parts;
  std::vector<double> run_parts;
  /// Wall seconds of one unit of ReferenceWork (calibrate.h) timed right
  /// after each segment; empty on threads.
  std::vector<double> setup_ref;
  std::vector<double> run_ref;
  /// Threads only: latency percentiles (ms) of each sub-window of the
  /// measurement window, by the due time of the request.
  std::vector<double> win_p50, win_p99, win_p999;
  std::uint64_t proxies = 0;       ///< handler proxies installed
};

/// Runs `opt.workload` in `opt.mode`. Throws std::invalid_argument for an
/// unknown workload.
Report run_workload(const Options& opt);

}  // namespace perfbench
