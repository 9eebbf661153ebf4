// End-to-end tuning-job benchmark (see README.md).
//
//   perfbench_e2e --workload NAME --seed N --seconds S --trace 0|1
//                 --scratch DIR [--forge-wrong-answer]
//
// Drives the library in-process through the calls `orion-cc run --session
// [--validate]`, `orion-cc tune` and `orion-d` make, checks every answer,
// and prints one JSON result as the last line of stdout.  --trace 0
// reports the end-to-end metrics with telemetry off; --trace 1 repeats
// the measured rounds with telemetry on and folds the spans into per-layer
// self times.  Sessions and service roots live in DIR/run-<pid>, removed
// on exit.  --forge-wrong-answer corrupts the first job's answer before it
// is checked, to show that a wrong answer fails the run.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arch/gpu_spec.h"
#include "common/rng.h"
#include "core/orion.h"
#include "isa/binary.h"
#include "ledger.h"
#include "persist/codec.h"
#include "persist/session.h"
#include "runtime/launcher.h"
#include "service/daemon.h"
#include "service/job.h"
#include "sim/gpu_sim.h"
#include "telemetry/telemetry.h"
#include "validate/validate.h"
#include "workloads/workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace orion;
using perfbench::JobCheck;
using perfbench::Lock;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// App-loop iterations of every tuning job: service::JobSpec's default, the
// length orion-d runs a job with when the client names none.
constexpr std::uint32_t kAppLoop = 8;
// Set-up is repeated and its median reported, so that work moved into
// set-up shows against a steady baseline.
constexpr int kSetupRepeats = 3;

// The kernels of tune_validated.  Every round runs each of them once, so a
// run's cost does not depend on the seed: validated jobs alone range from
// 3 s to 22 s, which no bound on a seeded subset could absorb.
const std::vector<std::string> kValidatedKernels = {"recursiveGaussian",
                                                    "FDTD3d"};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string scratch;
  bool forge = false;
};

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: perfbench_e2e --workload tune_validated|tune_default|"
               "compile_only|serve_cold --seed N --seconds S --trace 0|1 "
               "--scratch DIR [--forge-wrong-answer]\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage();
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--trace") {
      args.trace = value() != "0";
    } else if (flag == "--scratch") {
      args.scratch = value();
    } else if (flag == "--forge-wrong-answer") {
      args.forge = true;
    } else {
      Usage();
    }
  }
  if (args.workload.empty() || !have_seed || args.seconds <= 0.0 ||
      args.scratch.empty()) {
    Usage();
  }
  return args;
}

// SplitMix64 finalizer: independent sub-seeds from the run seed.
std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t NameSalt(const std::string& name) {
  return persist::Fnv64(name.data(), name.size());
}

template <typename T>
void Shuffle(std::vector<T>* items, std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng.NextBounded(i)]);
  }
}

double Seconds(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Times one call into a layer's public function under a span named after
// the callee, so the traced fold can attribute the call's uncovered time.
template <typename Fn>
decltype(auto) Call(const char* name, Fn&& fn) {
  telemetry::ScopedSpan span("perfbench", name);
  return fn();
}

// Owns the run's scratch directory: sessions and service roots.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& base)
      : path_(fs::absolute(base) / ("run-" + std::to_string(getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  std::string Sub(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  fs::path path_;
};

// Facts the benchmark learns from the answers it checks; the per-layer
// report divides them by the job count.
struct Facts {
  std::uint64_t compiles = 0;
  std::uint64_t candidates = 0;
  std::uint64_t cosimulated = 0;  // candidates with a co-simulated verdict
  std::uint64_t passed = 0;
  std::uint64_t tuned_runs = 0;
  std::uint64_t settle_iterations = 0;
  // kernel -> its locked steady ms.  Rounds repeat the same deterministic
  // jobs, so one value per kernel keeps runtime.tuned_sim_ms bit-identical
  // however many rounds a run fits.
  std::map<std::string, double> locked_steady_ms;
  std::map<std::string, std::uint64_t> validated_jobs;  // kernel -> jobs
  std::map<std::string, std::uint64_t> served_jobs;     // kernel -> daemon jobs
};

// The timed phase: per-job wall and CPU time, and the answers' verdicts.
class Ledger {
 public:
  explicit Ledger(bool forge) : forge_(forge) {}

  // Runs `body` as `jobs` jobs of the timed phase under one root span.
  // Exceptions fail every job of the section.
  void Time(const std::function<void()>& body, std::size_t jobs,
            JobCheck* check) {
    const double cpu_before = CpuSeconds();
    const Clock::time_point begin = Clock::now();
    try {
      telemetry::ScopedSpan root("perfbench", perfbench::kJobSpan);
      body();
    } catch (const std::exception& e) {
      check->Expect(std::string("threw: ") + e.what());
    }
    const double wall = Seconds(begin, Clock::now());
    cpu_s_ += CpuSeconds() - cpu_before;
    wall_s_ += wall;
    jobs_ += jobs;
    // A section of several jobs yields one sample: its per-job time.
    job_s_.push_back(wall / static_cast<double>(std::max<std::size_t>(1, jobs)));
  }

  // Books the verdict of one job.
  void Verdict(const JobCheck& check) {
    ++checked_;
    if (check.failed()) {
      ++failed_;
      if (failures_.size() < 5) {
        failures_.push_back(check.first_failure());
      }
    }
  }

  // True exactly once when forging: the first answer checked is corrupted.
  bool Forge() {
    const bool now = forge_;
    forge_ = false;
    return now;
  }

  void FailSetup(const std::string& what) {
    ++setup_failures_;
    failures_.push_back("set-up: " + what);
  }

  Facts& facts() { return facts_; }
  const Facts& facts() const { return facts_; }
  std::size_t jobs() const { return jobs_; }
  std::size_t attempted() const {
    return std::max(jobs_, checked_) + setup_failures_;
  }
  std::size_t failed() const { return failed_ + setup_failures_; }
  double wall_s() const { return wall_s_; }
  double cpu_s() const { return cpu_s_; }
  const std::vector<double>& job_s() const { return job_s_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  bool forge_;
  std::size_t jobs_ = 0;
  std::size_t checked_ = 0;
  std::size_t failed_ = 0;
  std::size_t setup_failures_ = 0;
  double wall_s_ = 0.0;
  double cpu_s_ = 0.0;
  std::vector<double> job_s_;
  std::vector<std::string> failures_;
  Facts facts_;
};

// A built-in kernel as a client holds it: the workload (params, seeded
// memory, canTune) and its encoded binary.
struct Kernel {
  workloads::Workload workload;
  std::vector<std::uint8_t> cubin;
};

Kernel PrepareKernel(const std::string& name, std::uint64_t seed,
                     Ledger* ledger) {
  Kernel kernel{workloads::MakeWorkload(name), {}};
  kernel.workload.seed = Mix(seed, NameSalt(name));
  const Status check = workloads::SelfCheck(name);
  if (!check.ok()) {
    ledger->FailSetup(check.ToString());
  }
  kernel.cubin = isa::EncodeModule(kernel.workload.module);
  return kernel;
}

// ---- One tuning job: the `orion-cc run --session [--validate]` path -----

struct TuneJobConfig {
  const arch::GpuSpec* gpu = &arch::Gtx680();
  arch::CacheConfig cache = arch::CacheConfig::kSmallCache;
  bool validate = false;
  std::uint64_t probe_seed = validate::ProbeOptions{}.seed;
};

persist::SessionMeta MetaFor(const Kernel& kernel, const TuneJobConfig& config) {
  persist::SessionMeta meta;
  meta.kernel_hash = persist::Fnv64(kernel.cubin.data(), kernel.cubin.size());
  meta.gpu = config.gpu->name;
  meta.fingerprint = "perfbench,cache=" +
                     std::to_string(static_cast<int>(config.cache)) +
                     ",iters=" + std::to_string(kAppLoop) +
                     ",validate=" + std::to_string(config.validate ? 1 : 0) +
                     ",probe_seed=" + std::to_string(config.probe_seed);
  return meta;
}

// Runs one cold tuning job in a fresh session at `dir` and checks its
// answer.  The job's timed section is the pipeline alone.  The session
// directory is removed afterwards.
void RunTuneJob(const Kernel& kernel, const TuneJobConfig& config,
                const std::string& dir, Ledger* ledger) {
  const workloads::Workload& w = kernel.workload;
  JobCheck check;
  runtime::MultiVersionBinary binary;
  runtime::TunedRunResult result;
  bool had_binary = false;
  Status saved = Status::Ok();
  bool locked = false;
  Lock recorded;
  bool degraded = false;
  ledger->Time(
      [&] {
        const isa::Module module =
            Call("isa.DecodeModule", [&] { return isa::DecodeModule(kernel.cubin); });
        Result<std::unique_ptr<persist::Session>> opened =
            Call("persist.Session::Open",
                 [&] { return persist::Session::Open(dir, MetaFor(kernel, config)); });
        if (!opened.has_value()) {
          throw OrionError("session: " + opened.status().ToString());
        }
        std::unique_ptr<persist::Session> session = std::move(*opened);
        had_binary = Call("persist.Session::LoadBinary",
                          [&] { return session->LoadBinary(); })
                         .has_value();
        core::TuneOptions options;
        options.cache_config = config.cache;
        options.can_tune = w.can_tune;
        options.validate = config.validate;
        options.probe.seed = config.probe_seed;
        binary = Call("core.CompileMultiVersion", [&] {
          return core::CompileMultiVersion(module, *config.gpu, options);
        });
        saved = Call("persist.Session::SaveBinary",
                     [&] { return session->SaveBinary(binary); });
        sim::GpuSimulator simulator(*config.gpu, config.cache);
        sim::GlobalMemory gmem = Call("workloads.SeedWorkloadMemory",
                                      [&] { return workloads::SeedWorkloadMemory(w); });
        runtime::TunedLauncher launcher(&binary, &simulator);
        runtime::RunPlan plan;
        plan.iterations = kAppLoop;
        plan.journal = session.get();
        {
          telemetry::ScopedSpan span("perfbench", "runtime.TunedLauncher::Run");
          result = launcher.Run(&gmem, w.params, plan,
                                w.per_iteration_params.empty()
                                    ? nullptr
                                    : &w.per_iteration_params);
          span.AddArg("iterations_to_settle", result.iterations_to_settle);
        }
        locked = session->HasLock();
        if (locked) {
          recorded = {session->lock().final_version, "",
                      session->lock().steady_ms};
        }
        degraded = session->degraded();
        Call("persist.Session::~Session", [&] { session.reset(); });
      },
      1, &check);

  if (!check.failed()) {
    Lock answer{result.final_version,
                result.final_version < binary.NumCandidates()
                    ? binary.Candidate(result.final_version).tag
                    : "",
                result.steady_ms};
    if (ledger->Forge()) {
      answer.steady_ms = std::nextafter(answer.steady_ms, HUGE_VAL);
    }
    if (had_binary) {
      check.Expect("a fresh session already held a binary");
    }
    check.Expect(saved.ok() ? "" : "SaveBinary: " + saved.ToString());
    check.Expect(locked ? "" : "the session holds no lock");
    check.Expect(degraded ? "the session degraded" : "");
    const auto faulted = std::count_if(
        result.records.begin(), result.records.end(),
        [](const runtime::IterationRecord& record) { return record.faulted; });
    check.Expect(perfbench::CheckHealth(result.health,
                                        static_cast<std::size_t>(faulted),
                                        result.final_version,
                                        binary.NumCandidates()));
    check.Expect(perfbench::CheckVerdicts(binary, config.validate));
    if (locked) {
      recorded.tag = answer.tag;
      check.Expect(perfbench::CompareLocks(recorded, answer));
    }
  }
  if (!check.failed()) {
    Facts& facts = ledger->facts();
    ++facts.compiles;
    facts.candidates += binary.NumCandidates();
    for (std::size_t i = 0; i < binary.NumCandidates(); ++i) {
      const runtime::ValidationVerdict verdict =
          binary.Candidate(i).validation.verdict;
      if (verdict == runtime::ValidationVerdict::kPass ||
          runtime::ValidationFailed(verdict)) {
        ++facts.cosimulated;
        facts.passed += verdict == runtime::ValidationVerdict::kPass ? 1 : 0;
      }
    }
    ++facts.tuned_runs;
    facts.settle_iterations += result.iterations_to_settle;
    facts.locked_steady_ms[w.name] = result.steady_ms;
    if (config.validate) {
      ++facts.validated_jobs[w.name];
    }
  }
  ledger->Verdict(check);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

// ---- Workloads ------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  // The seeded draw, for the report.
  virtual std::string Draw() const = 0;
  // Runs one round of jobs into `ledger`.
  virtual void Round(Ledger* ledger) = 0;
  // Figures measured outside the traced phase (ReferenceCache and
  // MakeWorkload timings) for the jobs the ledger recorded.
  struct Extras {
    double reference_s = 0.0;  // summed over the ledger's validated jobs
    double reference_steps_per_s = 0.0;
    double make_s = 0.0;  // summed over the ledger's daemon jobs
  };
  virtual Extras Measure(const Facts& facts) const {
    (void)facts;
    return {};
  }
};

// tune_validated / tune_default: closed loop of cold tuning jobs, one
// client, each in a fresh crash-safe session on gtx680.
class TuneWorkload : public Workload {
 public:
  TuneWorkload(const Args& args, bool validated, const std::string& dir,
               Ledger* ledger)
      : dir_(dir) {
    std::vector<std::string> names =
        validated ? kValidatedKernels : workloads::AllNames();
    Shuffle(&names, Mix(args.seed, 1));
    config_.validate = validated;
    config_.probe_seed = Mix(args.seed, 2);
    for (const std::string& name : names) {
      kernels_.push_back(PrepareKernel(name, args.seed, ledger));
    }
  }

  std::string Draw() const override {
    std::string out = "order:";
    for (const Kernel& kernel : kernels_) {
      out += " " + kernel.workload.name + "(memory_seed=" +
             std::to_string(kernel.workload.seed) + ")";
    }
    if (config_.validate) {
      out += ", probe_seed=" + std::to_string(config_.probe_seed);
    }
    return out;
  }

  void Round(Ledger* ledger) override {
    for (const Kernel& kernel : kernels_) {
      RunTuneJob(kernel, config_, dir_ + "/job-" + std::to_string(next_job_++),
                 ledger);
    }
  }

  Extras Measure(const Facts& facts) const override {
    // validate.reference_s: the reference side of each validated kernel's
    // co-simulation, timed on the benchmark's own ReferenceCache with the
    // probe options the jobs used.
    Extras extras;
    double steps = 0.0;
    double seconds = 0.0;
    for (const Kernel& kernel : kernels_) {
      const auto jobs = facts.validated_jobs.find(kernel.workload.name);
      if (jobs == facts.validated_jobs.end()) {
        continue;
      }
      const isa::Module module = isa::DecodeModule(kernel.cubin);
      validate::ProbeOptions probe;
      probe.seed = config_.probe_seed;
      validate::ReferenceCache cache(module, probe);
      const Clock::time_point begin = Clock::now();
      double kernel_steps = 0.0;
      for (std::uint32_t p = 0; p < probe.probes; ++p) {
        kernel_steps += static_cast<double>(cache.Run(p).stats.steps);
      }
      const double kernel_s = Seconds(begin, Clock::now());
      extras.reference_s += kernel_s * static_cast<double>(jobs->second);
      steps += kernel_steps;
      seconds += kernel_s;
    }
    extras.reference_steps_per_s = seconds > 0.0 ? steps / seconds : 0.0;
    return extras;
  }

 private:
  std::string dir_;
  TuneJobConfig config_;
  std::vector<Kernel> kernels_;
  std::uint64_t next_job_ = 0;
};

// compile_only: back-to-back core::TuneBinary calls, the `orion-cc tune`
// path, over every kernel x {gtx680, c2075} x {small, large L1}.
class CompileWorkload : public Workload {
 public:
  CompileWorkload(const Args& args, Ledger* ledger) {
    for (const std::string& name : workloads::AllNames()) {
      kernels_.push_back(PrepareKernel(name, args.seed, ledger));
    }
    for (std::size_t k = 0; k < kernels_.size(); ++k) {
      for (const arch::GpuSpec* gpu : {&arch::Gtx680(), &arch::TeslaC2075()}) {
        for (arch::CacheConfig cache : {arch::CacheConfig::kSmallCache,
                                        arch::CacheConfig::kLargeCache}) {
          inputs_.push_back({k, gpu, cache});
        }
      }
    }
    Shuffle(&inputs_, Mix(args.seed, 1));
  }

  std::string Draw() const override {
    std::string out = "order:";
    for (const Input& input : inputs_) {
      out += " " + kernels_[input.kernel].workload.name + "/" +
             input.gpu->name + "/" +
             (input.cache == arch::CacheConfig::kSmallCache ? "sc" : "lc");
    }
    return out;
  }

  void Round(Ledger* ledger) override {
    for (const Input& input : inputs_) {
      JobCheck check;
      core::TunedBinary tuned;
      ledger->Time(
          [&] {
            core::TuneOptions options;
            options.cache_config = input.cache;
            tuned = Call("core.TuneBinary", [&] {
              return core::TuneBinary(kernels_[input.kernel].cubin, *input.gpu,
                                      options);
            });
          },
          1, &check);
      if (!check.failed()) {
        if (ledger->Forge() && !tuned.images.empty()) {
          tuned.images.front().push_back(0);
        }
        check.Expect(tuned.binary.NumCandidates() == 0 ? "no candidates" : "");
        check.Expect(tuned.images.size() == tuned.binary.modules.size()
                         ? ""
                         : "one image per module expected");
        for (const std::vector<std::uint8_t>& image : tuned.images) {
          check.Expect(perfbench::CheckRoundTrip(image));
        }
      }
      if (!check.failed()) {
        ++ledger->facts().compiles;
        ledger->facts().candidates += tuned.binary.NumCandidates();
      }
      ledger->Verdict(check);
    }
  }

 private:
  struct Input {
    std::size_t kernel = 0;
    const arch::GpuSpec* gpu = nullptr;
    arch::CacheConfig cache = arch::CacheConfig::kSmallCache;
  };
  std::vector<Kernel> kernels_;
  std::vector<Input> inputs_;
};

// serve_cold: orion-d one-shot passes, one client, closed loop.  Each job
// starts a daemon (default options: one worker) on the round's service
// root, submits one kernel, drains and queries it.  Every kernel of the
// round is distinct and every round gets a fresh root, so each job tunes
// cold in its own session and publishes to the shared cache.
class ColdServeWorkload : public Workload {
 public:
  ColdServeWorkload(const Args& args, const std::string& dir, Ledger* ledger)
      : dir_(dir) {
    std::vector<std::string> names = workloads::AllNames();
    Shuffle(&names, Mix(args.seed, 1));
    for (const std::string& name : names) {
      kernels_.push_back(PrepareKernel(name, args.seed, ledger));
    }
  }

  std::string Draw() const override {
    std::string out = "order:";
    for (const Kernel& kernel : kernels_) {
      out += " " + kernel.workload.name;
    }
    return out;
  }

  void Round(Ledger* ledger) override {
    service::DaemonOptions options;
    options.root = dir_ + "/service-" + std::to_string(round_++);
    for (const Kernel& kernel : kernels_) {
      const std::string id = kernel.workload.name;
      service::JobSpec spec;
      spec.id = id;
      spec.workload = id;
      spec.iterations = kAppLoop;
      JobCheck check;
      service::Admission admission;
      Result<service::JobResult> served =
          Status::Error(StatusCode::kNotFound, "not queried");
      ledger->Time(
          [&] {
            service::Daemon daemon(options);
            const Status started =
                Call("service.Daemon::Start", [&] { return daemon.Start(); });
            if (!started.ok()) {
              throw OrionError("daemon start: " + started.ToString());
            }
            admission = Call("service.Daemon::Submit",
                             [&] { return daemon.Submit(spec); });
            Call("service.Daemon::ServeUntilDrained",
                 [&] { daemon.ServeUntilDrained(); });
            served = Call("service.Daemon::Query",
                          [&] { return daemon.Query(id); });
          },
          1, &check);
      if (!check.failed()) {
        check.Expect(admission.accepted ? ""
                                        : "submit refused: " + admission.reason);
        check.Expect(served.has_value() &&
                             served->state == service::JobState::kLocked
                         ? ""
                         : "job did not lock");
      }
      if (!check.failed()) {
        Lock got{served->final_version, served->final_tag, served->steady_ms};
        if (ledger->Forge()) {
          got.steady_ms = std::nextafter(got.steady_ms, HUGE_VAL);
        }
        check.Expect(served->warm_hit ? "a cold job was served warm" : "");
        check.Expect(served->fallback_taken ? "fell back to the original" : "");
        check.Expect(perfbench::CompareLocks(
            SessionLock(options.root + "/jobs/" + id + "/session"), got));
        // Every round must lock what the first one did.
        const auto first = first_answers_.emplace(id, got).first;
        check.Expect(perfbench::CompareLocks(first->second, got));
        ++ledger->facts().served_jobs[id];
        ledger->facts().locked_steady_ms[id] = got.steady_ms;
      }
      ledger->Verdict(check);
    }
    std::error_code ec;
    fs::remove_all(options.root, ec);
  }

  // workloads.make_s: every job rebuilds its kernel inside the daemon,
  // where no span reaches, so the same MakeWorkload calls are timed here.
  Extras Measure(const Facts& facts) const override {
    Extras extras;
    for (const auto& [name, jobs] : facts.served_jobs) {
      std::vector<double> samples;
      for (int i = 0; i < 5; ++i) {
        const Clock::time_point begin = Clock::now();
        (void)workloads::MakeWorkload(name);
        samples.push_back(Seconds(begin, Clock::now()));
      }
      extras.make_s += perfbench::Median(samples) * static_cast<double>(jobs);
    }
    return extras;
  }

 private:
  // The lock a job's session recorded, read back from disk.
  static Lock SessionLock(const std::string& dir) {
    Result<std::unique_ptr<persist::Session>> session =
        persist::Session::Inspect(dir);
    if (!session.has_value() || !(*session)->HasLock()) {
      return {static_cast<std::uint32_t>(-1), "no session lock", 0.0};
    }
    const persist::TuneArtifact& lock = (*session)->lock();
    Result<runtime::MultiVersionBinary> binary = (*session)->LoadBinary();
    const bool known = binary.has_value() &&
                       lock.final_version < binary->NumCandidates();
    return {lock.final_version,
            known ? binary->Candidate(lock.final_version).tag : "no binary",
            lock.steady_ms};
  }

  std::string dir_;
  std::vector<Kernel> kernels_;
  std::map<std::string, Lock> first_answers_;
  std::uint64_t round_ = 0;
};

// ---- Running and reporting ------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::unique_ptr<Workload> SetUp(const Args& args, const std::string& dir,
                                Ledger* ledger) {
  fs::create_directories(dir);
  if (args.workload == "tune_validated" || args.workload == "tune_default") {
    return std::make_unique<TuneWorkload>(
        args, args.workload == "tune_validated", dir, ledger);
  }
  if (args.workload == "compile_only") {
    return std::make_unique<CompileWorkload>(args, ledger);
  }
  if (args.workload == "serve_cold") {
    return std::make_unique<ColdServeWorkload>(args, dir, ledger);
  }
  throw OrionError("unknown workload '" + args.workload + "'");
}

// Runs whole rounds until `seconds` have passed, so every kernel of a
// round weighs the same in every run.  At least one round runs.
int RunRounds(Workload* workload, Ledger* ledger, double seconds) {
  const Clock::time_point begin = Clock::now();
  int rounds = 0;
  do {
    workload->Round(ledger);
    ++rounds;
  } while (Seconds(begin, Clock::now()) < seconds);
  return rounds;
}

struct Traced {
  perfbench::SpanFold fold;
  std::map<std::string, std::uint64_t> counters;
  telemetry::HistogramData job_latency_ms;
  std::uint64_t dropped = 0;
};

// Repeats `rounds` rounds with telemetry on, folding and clearing the
// event buffer after each round.
Traced RunTraced(Workload* workload, Ledger* ledger, int rounds) {
  Traced traced;
  telemetry::Reset();
  telemetry::SetEnabled(true);
  const std::uint32_t main_thread = telemetry::ThreadIndex();
  for (int r = 0; r < rounds; ++r) {
    workload->Round(ledger);
    traced.dropped += telemetry::DroppedEvents();
    traced.fold.Merge(
        perfbench::FoldSpans(telemetry::SnapshotEvents(), main_thread));
    for (const auto& [name, value] : telemetry::SnapshotCounters()) {
      traced.counters[name] += value;
    }
    for (const auto& [name, data] : telemetry::SnapshotHistograms()) {
      if (name == "service.job.latency_ms") {
        traced.job_latency_ms.Merge(data);
      }
    }
    telemetry::Reset();
  }
  telemetry::SetEnabled(false);
  return traced;
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

std::vector<Metric> EndToEnd(const Ledger& ledger,
                             const std::vector<double>& setup_s) {
  return {
      {"jobs_per_s", Ratio(static_cast<double>(ledger.jobs()), ledger.wall_s()),
       "jobs/s"},
      {"job_s_geomean", perfbench::Geomean(ledger.job_s()), "s"},
      {"setup_s", perfbench::Median(setup_s), "s"},
      {"peak_rss_mb", PeakRssMiB(), "MiB"},
  };
}

// The per-layer report of a traced run, whose jobs `ledger` holds.  `*_s`
// figures are self seconds per job, each also given as a share of the
// traced wall time.
std::vector<Metric> PerLayer(const Traced& traced, const Ledger& ledger,
                             const Workload::Extras& extras,
                             double untraced_wall_s,
                             double untraced_cpu_s_per_job) {
  const perfbench::SpanFold& fold = traced.fold;
  const double jobs = static_cast<double>(ledger.jobs());
  const Facts& facts = ledger.facts();
  auto get = [](const std::map<std::string, double>& map,
                const std::string& key) {
    const auto it = map.find(key);
    return it == map.end() ? 0.0 : it->second;
  };
  auto counter = [&](const std::string& name) {
    const auto it = traced.counters.find(name);
    return it == traced.counters.end() ? 0.0
                                       : static_cast<double>(it->second);
  };
  std::vector<Metric> out;
  auto count = [&](const std::string& name, double total) {
    out.push_back({name, Ratio(total, jobs), "count/job"});
  };
  auto time = [&](const std::string& name, double seconds) {
    out.push_back({name + "_s", Ratio(seconds, jobs), "s/job"});
    out.push_back({name + "_share", Ratio(seconds, fold.wall_s), "share"});
  };

  const double validate_s = get(fold.layer_s, "validate");
  time("validate.binary", validate_s);
  time("validate.reference", extras.reference_s);
  time("validate.candidate", std::max(0.0, validate_s - extras.reference_s));
  out.push_back({"validate.ref_steps_per_s", extras.reference_steps_per_s,
                 "steps/s"});
  count("validate.modules", counter("validate.modules"));
  count("validate.probes", counter("validate.probes"));
  count("validate.reference_runs", counter("validate.reference_runs"));
  out.push_back({"validate.pass_ratio",
                 Ratio(static_cast<double>(facts.passed),
                       static_cast<double>(facts.cosimulated)),
                 "ratio"});

  time("sim.launch", get(fold.span_s, "sim.launch"));
  time("sim.build_trace_cache", get(fold.span_s, "sim.build_trace_cache"));
  count("sim.launches", counter("sim.launches"));
  out.push_back({"sim.warp_instr_per_s",
                 Ratio(counter("sim.warp_instructions"),
                       get(fold.layer_s, "sim")),
                 "instr/s"});
  out.push_back({"sim.fused_share",
                 Ratio(counter("sim.trace_cache.fused_instructions"),
                       counter("sim.warp_instructions")),
                 "share"});
  count("sim.warp_instructions", counter("sim.warp_instructions"));
  count("sim.cycles", counter("sim.cycles"));

  time("runtime.probe", fold.probe_s);
  time("runtime.steady", fold.steady_s);
  out.push_back({"runtime.iterations_to_settle",
                 Ratio(static_cast<double>(facts.settle_iterations),
                       static_cast<double>(facts.tuned_runs)),
                 "iterations"});
  count("runtime.guard_retries", counter("guard.retries"));
  out.push_back({"runtime.launch_success_ratio",
                 Ratio(counter("guard.launches_succeeded"),
                       counter("guard.launches_attempted")),
                 "ratio"});
  std::vector<double> locked_ms;
  for (const auto& [kernel, ms] : facts.locked_steady_ms) {
    locked_ms.push_back(ms);
  }
  out.push_back({"runtime.tuned_sim_ms", perfbench::Geomean(locked_ms),
                 "sim_ms"});

  time("isa.decode",
       get(fold.scope_s, "isa.decode") + get(fold.scope_s, "isa.DecodeModule"));
  time("isa.encode", get(fold.scope_s, "isa.encode"));
  const double analyze_s = get(fold.scope_s, "alloc.analyze");
  time("alloc.analyze", analyze_s);
  time("alloc.realize", std::max(0.0, get(fold.layer_s, "alloc") - analyze_s));
  count("alloc.spilled_vregs", counter("alloc.spilled_vregs"));
  count("alloc.park_moves", counter("alloc.park_moves"));
  time("core.compile", get(fold.layer_s, "core"));
  out.push_back({"core.candidates",
                 Ratio(static_cast<double>(facts.candidates),
                       static_cast<double>(facts.compiles)),
                 "count/binary"});

  time("persist.session_open", get(fold.scope_s, "persist.Session::Open"));
  time("persist.store_get", get(fold.span_s, "persist.store.get"));
  time("persist.store_put", get(fold.span_s, "persist.store.put"));
  count("persist.journal_appends", counter("persist.journal.appends"));
  count("persist.io_commits", counter("persist.io.commits"));
  out.push_back({"persist.store_hit_ratio",
                 Ratio(counter("persist.store.hits"),
                       counter("persist.store.hits") +
                           counter("persist.store.misses")),
                 "ratio"});

  time("service.start", get(fold.span_s, "service.Daemon::Start"));
  time("service.submit", get(fold.span_s, "service.Daemon::Submit"));
  time("service.drain", get(fold.span_s, "service.Daemon::ServeUntilDrained"));
  // Log2-bucket upper edges of the daemon's own latency histogram.
  const telemetry::HistogramData& latency = traced.job_latency_ms;
  out.push_back({"service.job_ms_p50", latency.Percentile(0.50), "ms_log2_edge"});
  out.push_back({"service.job_ms_p95", latency.Percentile(0.95), "ms_log2_edge"});

  time("workloads.make", extras.make_s);

  out.push_back({"process.cpu_s", untraced_cpu_s_per_job, "cpu_s/job"});
  out.push_back({"trace.overhead_share",
                 Ratio(fold.wall_s - untraced_wall_s, untraced_wall_s),
                 "share"});
  out.push_back({"trace.unattributed_share",
                 Ratio(fold.unattributed_s, fold.wall_s), "share"});
  for (const std::string& layer : perfbench::Layers()) {
    // validate.binary_share and core.compile_share already cover these.
    if (layer == "validate" || layer == "core") {
      continue;
    }
    out.push_back({"layer." + layer + "_share",
                   Ratio(get(fold.layer_s, layer), fold.wall_s), "share"});
  }
  return out;
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    std::printf("  %-34s %14.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

void PrintResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int Run(const Args& args) {
  const ScratchDir scratch(args.scratch);
  const sim::GpuSimulator default_simulator(arch::Gtx680(),
                                            arch::CacheConfig::kSmallCache);
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("build: %s, default engine: %s, nproc: %u\n",
              PERFBENCH_BUILD_TYPE,
              sim::SimEngineName(default_simulator.engine()),
              std::thread::hardware_concurrency());

  Ledger ledger(args.forge);
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  const int repeats = args.trace ? 1 : kSetupRepeats;
  for (int r = 0; r < repeats; ++r) {
    workload.reset();
    const std::string dir = scratch.Sub("setup-" + std::to_string(r));
    const Clock::time_point begin = Clock::now();
    workload = SetUp(args, dir, &ledger);
    setup_s.push_back(Seconds(begin, Clock::now()));
  }
  std::printf("draw: %s\n", workload->Draw().c_str());

  const int rounds = RunRounds(workload.get(), &ledger, args.seconds);
  const double untraced_wall_s = ledger.wall_s();
  const double untraced_cpu_s = ledger.cpu_s();
  const perfbench::Tail tail = perfbench::TailOf(ledger.job_s());
  std::printf("timed: %d round(s), %zu jobs, %.3f s wall, %.3f s cpu\n",
              rounds, ledger.jobs(), untraced_wall_s, untraced_cpu_s);
  std::printf("job_s_p50: %.6g s over %zu samples\n",
              perfbench::Median(ledger.job_s()), ledger.job_s().size());
  if (tail.defined) {
    std::printf("job_s_tail: p%d = %.6g s over %zu samples\n", tail.percentile,
                tail.value, tail.samples);
  } else {
    std::printf("job_s_tail: none (%zu samples; no percentile from the "
                "median up has %zu beyond it)\n",
                tail.samples, perfbench::kTailBeyond);
  }

  std::vector<Metric> metrics;
  std::size_t attempted = ledger.attempted();
  std::size_t failed = ledger.failed();
  std::vector<std::string> failures = ledger.failures();
  if (!args.trace) {
    metrics = EndToEnd(ledger, setup_s);
  } else {
    // The traced phase repeats the same rounds into a ledger of its own.
    Ledger traced_ledger(false);
    const Traced traced = RunTraced(workload.get(), &traced_ledger, rounds);
    if (traced.dropped > 0) {
      traced_ledger.FailSetup("telemetry dropped " +
                              std::to_string(traced.dropped) + " events");
    }
    std::printf("traced: %zu jobs, %.3f s\n", traced_ledger.jobs(),
                traced.fold.wall_s);
    metrics = PerLayer(
        traced, traced_ledger, workload->Measure(traced_ledger.facts()),
        untraced_wall_s,
        Ratio(untraced_cpu_s, static_cast<double>(ledger.jobs())));
    attempted += traced_ledger.attempted();
    failed += traced_ledger.failed();
    failures.insert(failures.end(), traced_ledger.failures().begin(),
                    traced_ledger.failures().end());
  }
  const bool correct = failed == 0;
  std::printf("failed_share: %.6g (%zu of %zu)\n",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              failed, attempted);
  for (const std::string& failure : failures) {
    std::printf("FAILED: %s\n", failure.c_str());
  }
  PrintMetrics(metrics);
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "perfbench: refusing to report timings from a %s build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 1;
  }
  try {
    return Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
