// The end-to-end benchmark's own arithmetic: per-job statistics, the fold
// of a traced run into per-layer self times, and the answer checks.
//
// Kept apart from the workloads (e2e.cpp) so that ledger_test can pin all
// of it without running a single tuning job.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/guard.h"
#include "runtime/multiversion.h"
#include "telemetry/telemetry.h"

namespace perfbench {

// ---- Per-job statistics ---------------------------------------------------

// Median of the samples (mean of the middle two for an even count); 0 when
// empty.
double Median(std::vector<double> samples);

// Geometric mean; 0 when empty.  Every sample must be positive.
double Geomean(const std::vector<double>& samples);

// The tail rule: a timing is reported as its median plus the highest whole
// percentile, at or above the 50th, that still has at least kTailBeyond
// samples ranked above it.  Percentile p of n sorted samples is the sample
// at nearest rank ceil(p * n / 100).
inline constexpr std::size_t kTailBeyond = 10;

struct Tail {
  bool defined = false;  // false when no percentile >= 50 qualifies
  int percentile = 0;
  double value = 0.0;
  std::size_t samples = 0;
};

Tail TailOf(std::vector<double> samples);

// ---- Traced-run fold ------------------------------------------------------

// The src/ module a span belongs to, from its dotted name: "alloc.color" is
// alloc, "compile.level" is core (the spans of src/core are named
// compile.*), and the benchmark's own spans around public calls are named
// after the callee's module ("persist.Session::Open").
std::string LayerOf(std::string_view span_name);

// Every layer the fold attributes time to, in report order.
const std::vector<std::string>& Layers();

// The span around each timed section of the benchmark, on the main
// thread.  The traced wall time is the sum of these spans; their time that
// no other span covers is unattributed.
inline constexpr char kJobSpan[] = "perfbench.job";

// Wall time of the traced phase split by self time.  A span's self time
// is its duration minus the part its child spans cover.
struct SpanFold {
  double wall_s = 0.0;          // total duration of the root spans
  double unattributed_s = 0.0;  // root-span time no other span covers
  std::map<std::string, double> layer_s;  // layer -> self seconds
  std::map<std::string, double> span_s;   // span name -> self seconds
  // Self seconds of a layer grouped by the outermost span of that same
  // layer above it: alloc time under "alloc.analyze" versus under
  // "alloc.module", persist time under "persist.Session::Open", ...
  std::map<std::string, double> scope_s;
  // Inclusive sim.launch seconds inside each "runtime.TunedLauncher::Run"
  // span, split at that span's "iterations_to_settle" argument: launches
  // of earlier iterations are probes, the rest steady state.  Iterations
  // are delimited by the tuner's "tuner.iteration" instants.
  double probe_s = 0.0;
  double steady_s = 0.0;

  void Merge(const SpanFold& other);
  // Sum of the layer buckets; wall_s - attributed_s() == unattributed_s.
  double attributed_s() const;
};

// Folds the events of the timed phase.  `main_thread` runs the timed
// sections.  Spans on other threads (a daemon worker draining the one job
// the benchmark submitted) run while a main-thread span waits for them;
// their self time is moved out of that span.
SpanFold FoldSpans(const std::vector<orion::telemetry::TraceEvent>& events,
                   std::uint32_t main_thread);

// ---- Answer checks --------------------------------------------------------
//
// Each returns an empty string when the answer is right, else what is
// wrong.  A job with any non-empty result counts as failed.

// The answer a tuning job locks.
struct Lock {
  std::uint32_t version = 0;
  std::string tag;
  double steady_ms = 0.0;
};

// `actual` must equal `expected` exactly: answers are deterministic.
std::string CompareLocks(const Lock& expected, const Lock& actual);

// Every candidate's validation verdict must be pass or exempt, the known
// answer for a clean compiler.  `validated` false requires every verdict
// to be not-validated.
std::string CheckVerdicts(const orion::runtime::MultiVersionBinary& binary,
                          bool validated);

// The health of a locked run: no fallback, no faulted iteration, no
// quarantine, and a final version inside the binary.
std::string CheckHealth(const orion::runtime::HealthReport& health,
                        std::size_t faulted_records,
                        std::uint32_t final_version,
                        std::size_t candidates);

// An encoded module must decode and re-encode to identical bytes.
std::string CheckRoundTrip(const std::vector<std::uint8_t>& image);

// Collects the failures of one job.
class JobCheck {
 public:
  void Expect(const std::string& failure) {
    if (!failure.empty() && first_.empty()) {
      first_ = failure;
    }
    failed_ |= !failure.empty();
  }
  bool failed() const { return failed_; }
  const std::string& first_failure() const { return first_; }

 private:
  bool failed_ = false;
  std::string first_;
};

}  // namespace perfbench
