// Self-tests of the benchmark's own arithmetic: statistics, the traced-run
// fold and the answer checks.  No workload is executed.
#include "ledger.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "isa/binary.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

using orion::telemetry::EventArg;
using orion::telemetry::TraceEvent;

// Events in recording order; timestamps in nanoseconds.
class Trace {
 public:
  Trace& Begin(const std::string& name, std::uint64_t ts,
               std::uint32_t thread = 0) {
    events_.push_back({'B', "t", name, ts, thread, 0, {}});
    return *this;
  }
  Trace& End(const std::string& name, std::uint64_t ts,
             std::uint32_t thread = 0, std::vector<EventArg> args = {}) {
    events_.push_back({'E', "t", name, ts, thread, 0, std::move(args)});
    return *this;
  }
  Trace& Instant(const std::string& name, std::uint64_t ts,
                 std::uint32_t thread = 0) {
    events_.push_back({'i', "t", name, ts, thread, 0, {}});
    return *this;
  }
  SpanFold Fold() const { return FoldSpans(events_, /*main_thread=*/0); }

 private:
  std::vector<TraceEvent> events_;
};

constexpr double kNs = 1e-9;

TEST(Stats, MedianOfOddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(Stats, Geomean) {
  EXPECT_NEAR(Geomean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_NEAR(Geomean({2.0, 8.0, 4.0}), 4.0, 1e-12);
  EXPECT_NEAR(Geomean({0.125}), 0.125, 1e-15);
  EXPECT_DOUBLE_EQ(Geomean({}), 0.0);
}

std::vector<double> Ramp(std::size_t n) {
  std::vector<double> samples;
  for (std::size_t i = n; i > 0; --i) {
    samples.push_back(static_cast<double>(i));  // unsorted on purpose
  }
  return samples;
}

TEST(Stats, NoTailWhenFewerThanTenSamplesLieBeyondTheMedian) {
  EXPECT_FALSE(TailOf(Ramp(0)).defined);
  EXPECT_FALSE(TailOf(Ramp(10)).defined);
  // 19 samples: the median (rank 10) has only 9 beyond it.
  const Tail tail = TailOf(Ramp(19));
  EXPECT_FALSE(tail.defined);
  EXPECT_EQ(tail.samples, 19u);
}

TEST(Stats, TailIsTheHighestPercentileWithTenBeyondIt) {
  const Tail twenty = TailOf(Ramp(20));
  ASSERT_TRUE(twenty.defined);
  EXPECT_EQ(twenty.percentile, 50);
  EXPECT_DOUBLE_EQ(twenty.value, 10.0);

  const Tail hundred = TailOf(Ramp(100));
  ASSERT_TRUE(hundred.defined);
  EXPECT_EQ(hundred.percentile, 90);
  EXPECT_DOUBLE_EQ(hundred.value, 90.0);

  const Tail many = TailOf(Ramp(600));
  ASSERT_TRUE(many.defined);
  EXPECT_EQ(many.percentile, 98);
  EXPECT_DOUBLE_EQ(many.value, 588.0);
  EXPECT_EQ(many.samples, 600u);
}

TEST(Layers, NamedAfterSourceModules) {
  EXPECT_EQ(LayerOf("alloc.color"), "alloc");
  EXPECT_EQ(LayerOf("compile.level"), "core");
  EXPECT_EQ(LayerOf("core.TuneBinary"), "core");
  EXPECT_EQ(LayerOf("tuner.iteration"), "runtime");
  EXPECT_EQ(LayerOf("persist.Session::Open"), "persist");
  EXPECT_EQ(LayerOf("sim.launch"), "sim");
}

TEST(Fold, NestedSpansSubtractTheirChildren) {
  const SpanFold fold = Trace()
                            .Begin("perfbench.job", 0)
                            .Begin("isa.decode", 10)
                            .Begin("alloc.color", 20)
                            .End("alloc.color", 40)
                            .End("isa.decode", 60)
                            .End("perfbench.job", 100)
                            .Fold();
  EXPECT_NEAR(fold.wall_s, 100 * kNs, 1e-15);
  EXPECT_NEAR(fold.layer_s.at("isa"), 30 * kNs, 1e-15);
  EXPECT_NEAR(fold.layer_s.at("alloc"), 20 * kNs, 1e-15);
  EXPECT_NEAR(fold.unattributed_s, 50 * kNs, 1e-15);
  EXPECT_NEAR(fold.wall_s - fold.attributed_s(), fold.unattributed_s, 1e-15);
}

TEST(Fold, AdjacentSpansDoNotOverlap) {
  const SpanFold fold = Trace()
                            .Begin("perfbench.job", 0)
                            .Begin("persist.store.get", 10)
                            .End("persist.store.get", 30)
                            .Begin("persist.store.get", 30)
                            .End("persist.store.get", 50)
                            .Begin("sim.launch", 50)
                            .End("sim.launch", 90)
                            .End("perfbench.job", 100)
                            .Fold();
  EXPECT_NEAR(fold.span_s.at("persist.store.get"), 40 * kNs, 1e-15);
  EXPECT_NEAR(fold.layer_s.at("sim"), 40 * kNs, 1e-15);
  EXPECT_NEAR(fold.unattributed_s, 20 * kNs, 1e-15);
  // Unattributed share of the traced wall.
  EXPECT_NEAR(fold.unattributed_s / fold.wall_s, 0.2, 1e-12);
}

TEST(Fold, SpansOutsideTheTimedPhaseAreIgnored) {
  const SpanFold fold = Trace()
                            .Begin("isa.decode", 0)
                            .End("isa.decode", 50)
                            .Begin("perfbench.job", 100)
                            .Begin("isa.decode", 110)
                            .End("isa.decode", 120)
                            .End("perfbench.job", 200)
                            .Begin("isa.encode", 300)
                            .End("isa.encode", 400)
                            .Fold();
  EXPECT_NEAR(fold.wall_s, 100 * kNs, 1e-15);
  EXPECT_NEAR(fold.layer_s.at("isa"), 10 * kNs, 1e-15);
  EXPECT_EQ(fold.span_s.count("isa.encode"), 0u);
}

TEST(Fold, WorkerSpansMoveOutOfTheWaitingSpan) {
  const SpanFold fold = Trace()
                            .Begin("perfbench.job", 0)
                            .Begin("service.Daemon::ServeUntilDrained", 0)
                            .Begin("persist.store.get", 10, 1)
                            .Begin("isa.decode", 20, 1)
                            .End("isa.decode", 30, 1)
                            .End("persist.store.get", 50, 1)
                            .Begin("sim.launch", 60, 1)
                            .End("sim.launch", 80, 1)
                            .End("service.Daemon::ServeUntilDrained", 100)
                            .End("perfbench.job", 100)
                            // A worker span after the timed phase is ignored.
                            .Begin("persist.store.put", 110, 1)
                            .End("persist.store.put", 120, 1)
                            .Fold();
  // The worker's 60 ns of spans leave 40 ns with the waiting span.
  EXPECT_NEAR(fold.layer_s.at("persist"), 30 * kNs, 1e-15);
  EXPECT_NEAR(fold.layer_s.at("isa"), 10 * kNs, 1e-15);
  EXPECT_NEAR(fold.layer_s.at("sim"), 20 * kNs, 1e-15);
  EXPECT_NEAR(fold.layer_s.at("service"), 40 * kNs, 1e-15);
  EXPECT_EQ(fold.span_s.count("persist.store.put"), 0u);
  EXPECT_NEAR(fold.unattributed_s, 0.0, 1e-15);
  EXPECT_NEAR(fold.attributed_s(), fold.wall_s, 1e-15);
}

TEST(Fold, ScopeGroupsALayerUnderItsOutermostSpan) {
  const SpanFold fold = Trace()
                            .Begin("perfbench.job", 0)
                            .Begin("compile.multiversion", 0)
                            .Begin("alloc.analyze", 10)
                            .Begin("alloc.function", 10)
                            .End("alloc.function", 30)
                            .End("alloc.analyze", 40)
                            .Begin("alloc.module", 40)
                            .End("alloc.module", 70)
                            .End("compile.multiversion", 100)
                            .End("perfbench.job", 100)
                            .Fold();
  EXPECT_NEAR(fold.scope_s.at("alloc.analyze"), 30 * kNs, 1e-15);
  EXPECT_NEAR(fold.scope_s.at("alloc.module"), 30 * kNs, 1e-15);
  EXPECT_NEAR(fold.layer_s.at("alloc"), 60 * kNs, 1e-15);
  EXPECT_NEAR(fold.layer_s.at("core"), 40 * kNs, 1e-15);
}

TEST(Fold, LaunchesSplitIntoProbeAndSteadyAtSettle) {
  EventArg settle;
  settle.key = "iterations_to_settle";
  settle.num = 2;
  settle.is_num = true;
  const SpanFold fold = Trace()
                            .Begin("perfbench.job", 0)
                            .Begin("runtime.TunedLauncher::Run", 0)
                            .Begin("sim.launch", 0)
                            .End("sim.launch", 10)
                            .Instant("tuner.iteration", 11)
                            .Begin("sim.launch", 20)
                            .End("sim.launch", 30)
                            .Instant("tuner.iteration", 31)
                            .Begin("sim.launch", 40)
                            .End("sim.launch", 55)
                            .Instant("tuner.iteration", 56)
                            .End("runtime.TunedLauncher::Run", 60, 0, {settle})
                            .End("perfbench.job", 60)
                            .Fold();
  EXPECT_NEAR(fold.probe_s, 20 * kNs, 1e-15);
  EXPECT_NEAR(fold.steady_s, 15 * kNs, 1e-15);
  EXPECT_NEAR(fold.layer_s.at("runtime"), 25 * kNs, 1e-15);
}

TEST(Fold, MergeAddsBuckets) {
  SpanFold a = Trace()
                   .Begin("perfbench.job", 0)
                   .Begin("sim.launch", 0)
                   .End("sim.launch", 10)
                   .End("perfbench.job", 20)
                   .Fold();
  a.Merge(a);
  EXPECT_NEAR(a.wall_s, 40 * kNs, 1e-15);
  EXPECT_NEAR(a.layer_s.at("sim"), 20 * kNs, 1e-15);
  EXPECT_NEAR(a.unattributed_s, 20 * kNs, 1e-15);
}

TEST(Checks, ForgedLockMismatchIsCaught) {
  const Lock cold{2, "occ=0.50", 0.12345};
  EXPECT_EQ(CompareLocks(cold, cold), "");
  Lock forged = cold;
  forged.steady_ms = std::nextafter(forged.steady_ms, 1.0);
  EXPECT_NE(CompareLocks(cold, forged), "");
  forged = cold;
  ++forged.version;
  EXPECT_NE(CompareLocks(cold, forged), "");
  forged = cold;
  forged.tag = "original";
  EXPECT_NE(CompareLocks(cold, forged), "");
}

orion::runtime::MultiVersionBinary BinaryWith(
    std::vector<orion::runtime::ValidationVerdict> verdicts) {
  orion::runtime::MultiVersionBinary binary;
  for (orion::runtime::ValidationVerdict verdict : verdicts) {
    orion::runtime::KernelVersion version;
    version.tag = "v";
    version.validation.verdict = verdict;
    binary.versions.push_back(version);
  }
  return binary;
}

TEST(Checks, VerdictsMustBePassOrExempt) {
  using orion::runtime::ValidationVerdict;
  EXPECT_EQ(CheckVerdicts(BinaryWith({ValidationVerdict::kExempt,
                                      ValidationVerdict::kPass}),
                          true),
            "");
  EXPECT_NE(CheckVerdicts(BinaryWith({ValidationVerdict::kExempt,
                                      ValidationVerdict::kMemoryMismatch}),
                          true),
            "");
  EXPECT_NE(CheckVerdicts(BinaryWith({ValidationVerdict::kNotValidated}), true),
            "");
  EXPECT_EQ(CheckVerdicts(BinaryWith({ValidationVerdict::kNotValidated}), false),
            "");
  EXPECT_NE(CheckVerdicts(BinaryWith({ValidationVerdict::kPass}), false), "");
}

TEST(Checks, UnhealthyRunsFail) {
  orion::runtime::HealthReport healthy;
  EXPECT_EQ(CheckHealth(healthy, 0, 1, 3), "");
  EXPECT_NE(CheckHealth(healthy, 0, 3, 3), "");
  EXPECT_NE(CheckHealth(healthy, 1, 1, 3), "");
  orion::runtime::HealthReport fallback;
  fallback.fallback_taken = true;
  EXPECT_NE(CheckHealth(fallback, 0, 0, 3), "");
  orion::runtime::HealthReport quarantined;
  quarantined.quarantined.push_back({});
  EXPECT_NE(CheckHealth(quarantined, 0, 0, 3), "");
}

TEST(Checks, ForgedImageFailsTheRoundTrip) {
  const std::vector<std::uint8_t> image = orion::isa::EncodeModule(
      orion::workloads::MakeWorkload("matrixmul").module);
  EXPECT_EQ(CheckRoundTrip(image), "");
  std::vector<std::uint8_t> longer = image;
  longer.push_back(0);
  EXPECT_NE(CheckRoundTrip(longer), "");
  std::vector<std::uint8_t> truncated(image.begin(), image.end() - 1);
  EXPECT_NE(CheckRoundTrip(truncated), "");
}

TEST(Checks, JobCheckKeepsTheFirstFailure) {
  JobCheck check;
  check.Expect("");
  EXPECT_FALSE(check.failed());
  check.Expect("first");
  check.Expect("second");
  EXPECT_TRUE(check.failed());
  EXPECT_EQ(check.first_failure(), "first");
}

}  // namespace
}  // namespace perfbench
