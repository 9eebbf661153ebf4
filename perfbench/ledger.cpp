#include "ledger.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <iterator>
#include <sstream>

#include "isa/binary.h"

namespace perfbench {

using orion::telemetry::TraceEvent;

double Median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : 0.5 * (samples[mid - 1] + samples[mid]);
}

double Geomean(const std::vector<double>& samples) {
  if (samples.empty()) {
    return 0.0;
  }
  double log_sum = 0.0;
  for (double sample : samples) {
    log_sum += std::log(sample);
  }
  return std::exp(log_sum / static_cast<double>(samples.size()));
}

Tail TailOf(std::vector<double> samples) {
  Tail tail;
  tail.samples = samples.size();
  const std::size_t n = samples.size();
  std::sort(samples.begin(), samples.end());
  for (int p = 99; p >= 50; --p) {
    // Nearest rank, 1-based: ceil(p * n / 100).
    const std::size_t rank = (static_cast<std::size_t>(p) * n + 99) / 100;
    if (rank >= 1 && n - rank >= kTailBeyond) {
      tail.defined = true;
      tail.percentile = p;
      tail.value = samples[rank - 1];
      return tail;
    }
  }
  return tail;
}

std::string LayerOf(std::string_view span_name) {
  const std::string prefix(span_name.substr(0, span_name.find('.')));
  if (prefix == "compile") {
    return "core";
  }
  if (prefix == "tuner" || prefix == "guard") {
    return "runtime";
  }
  return prefix;
}

const std::vector<std::string>& Layers() {
  static const std::vector<std::string> layers = {
      "workloads", "isa",     "alloc",   "opt",     "core",
      "validate",  "sim",     "runtime", "persist", "service"};
  return layers;
}

void SpanFold::Merge(const SpanFold& other) {
  wall_s += other.wall_s;
  unattributed_s += other.unattributed_s;
  for (const auto& [key, value] : other.layer_s) layer_s[key] += value;
  for (const auto& [key, value] : other.span_s) span_s[key] += value;
  for (const auto& [key, value] : other.scope_s) scope_s[key] += value;
  probe_s += other.probe_s;
  steady_s += other.steady_s;
}

double SpanFold::attributed_s() const {
  double total = 0.0;
  for (const auto& [layer, seconds] : layer_s) {
    total += seconds;
  }
  return total;
}

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

struct Span {
  const TraceEvent* begin = nullptr;
  const TraceEvent* end = nullptr;  // carries the span's arguments
  std::size_t parent = kNone;
  double self_s = 0.0;
  bool timed = false;  // inside a root span of the timed phase
};

double Seconds(std::uint64_t begin_ns, std::uint64_t end_ns) {
  return end_ns > begin_ns ? static_cast<double>(end_ns - begin_ns) * 1e-9
                           : 0.0;
}

double DurationOf(const Span& span) {
  return Seconds(span.begin->ts_ns, span.end->ts_ns);
}

double NumArg(const TraceEvent& event, std::string_view key) {
  for (const orion::telemetry::EventArg& arg : event.args) {
    if (arg.key == key && arg.is_num) {
      return arg.num;
    }
  }
  return 0.0;
}

// Pairs each thread's B/E events into spans, parents before children.
// Spans still open when the events end are dropped.
std::vector<Span> PairSpans(const std::vector<TraceEvent>& events) {
  std::vector<Span> spans;
  std::map<std::uint32_t, std::vector<std::size_t>> open;
  std::vector<bool> closed;
  for (const TraceEvent& event : events) {
    std::vector<std::size_t>& stack = open[event.thread];
    if (event.phase == 'B') {
      Span span;
      span.begin = &event;
      span.parent = stack.empty() ? kNone : stack.back();
      stack.push_back(spans.size());
      spans.push_back(span);
      closed.push_back(false);
    } else if (event.phase == 'E' && !stack.empty()) {
      spans[stack.back()].end = &event;
      closed[stack.back()] = true;
      stack.pop_back();
    }
  }
  // Drop unclosed spans (and, with them, any descendants).
  std::vector<std::size_t> remap(spans.size(), kNone);
  std::vector<Span> kept;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::size_t parent = spans[i].parent;
    if (!closed[i] || (parent != kNone && remap[parent] == kNone)) {
      continue;
    }
    remap[i] = kept.size();
    Span span = spans[i];
    span.parent = parent == kNone ? kNone : remap[parent];
    kept.push_back(span);
  }
  return kept;
}

// The outermost span of `index`'s own layer in its unbroken chain of
// same-layer ancestors.
std::size_t ScopeOf(const std::vector<Span>& spans, std::size_t index,
                    const std::string& layer) {
  std::size_t scope = index;
  for (std::size_t up = spans[index].parent;
       up != kNone && LayerOf(spans[up].begin->name) == layer;
       up = spans[up].parent) {
    scope = up;
  }
  return scope;
}

}  // namespace

SpanFold FoldSpans(const std::vector<TraceEvent>& events,
                   std::uint32_t main_thread) {
  std::vector<Span> spans = PairSpans(events);
  for (Span& span : spans) {
    span.self_s = DurationOf(span);
  }
  for (const Span& span : spans) {
    if (span.parent != kNone) {
      spans[span.parent].self_s -= DurationOf(span);
    }
  }

  // Timed main-thread spans, in begin order, for the enclosing-span lookup.
  std::vector<std::size_t> main_spans;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Span& span = spans[i];
    if (span.begin->thread != main_thread) {
      continue;
    }
    span.timed = span.parent != kNone ? spans[span.parent].timed
                                      : span.begin->name == kJobSpan;
    if (span.timed) {
      main_spans.push_back(i);
    }
  }
  auto enclosing = [&](std::uint64_t ts) -> std::size_t {
    auto it = std::upper_bound(
        main_spans.begin(), main_spans.end(), ts,
        [&](std::uint64_t t, std::size_t i) { return t < spans[i].begin->ts_ns; });
    if (it == main_spans.begin()) {
      return kNone;
    }
    for (std::size_t i = *std::prev(it); i != kNone; i = spans[i].parent) {
      if (spans[i].end->ts_ns >= ts) {
        return i;
      }
    }
    return kNone;
  };

  // Worker spans: their self time moves out of the main-thread span that
  // was waiting for the worker.
  for (Span& span : spans) {
    if (span.begin->thread == main_thread) {
      continue;
    }
    const std::size_t host = enclosing(span.begin->ts_ns);
    if (host == kNone) {
      continue;
    }
    span.timed = true;
    spans[host].self_s -= span.self_s;
  }

  SpanFold fold;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (!span.timed) {
      continue;
    }
    const std::string& name = span.begin->name;
    if (span.parent == kNone && span.begin->thread == main_thread) {
      fold.wall_s += DurationOf(span);
      fold.unattributed_s += span.self_s;
      continue;
    }
    const std::string layer = LayerOf(name);
    fold.layer_s[layer] += span.self_s;
    fold.span_s[name] += span.self_s;
    fold.scope_s[spans[ScopeOf(spans, i, layer)].begin->name] += span.self_s;
  }

  // Probe/steady split of each tuning run's launches.  The tuner records
  // one "tuner.iteration" instant after each iteration's launch, so a
  // launch belongs to the iteration numbered by the instants before it.
  std::map<std::uint32_t, std::vector<std::uint64_t>> iteration_marks;
  for (const TraceEvent& event : events) {
    if (event.phase == 'i' && event.name == "tuner.iteration") {
      iteration_marks[event.thread].push_back(event.ts_ns);
    }
  }
  for (const Span& launch : spans) {
    if (!launch.timed || launch.begin->name != "sim.launch") {
      continue;
    }
    std::size_t run = launch.parent;
    while (run != kNone &&
           spans[run].begin->name != "runtime.TunedLauncher::Run") {
      run = spans[run].parent;
    }
    if (run == kNone) {
      continue;
    }
    const std::vector<std::uint64_t>& marks =
        iteration_marks[launch.begin->thread];
    const auto first = std::lower_bound(marks.begin(), marks.end(),
                                        spans[run].begin->ts_ns);
    const auto last = std::upper_bound(first, marks.end(),
                                       launch.begin->ts_ns);
    const double iteration = static_cast<double>(last - first);
    const double settle = NumArg(*spans[run].end, "iterations_to_settle");
    (iteration < settle ? fold.probe_s : fold.steady_s) += DurationOf(launch);
  }
  return fold;
}

std::string CompareLocks(const Lock& expected, const Lock& actual) {
  if (expected.version == actual.version && expected.tag == actual.tag &&
      expected.steady_ms == actual.steady_ms) {
    return "";
  }
  std::ostringstream out;
  out.precision(17);
  out << "lock differs: expected version " << expected.version << " ("
      << expected.tag << ", " << expected.steady_ms << " ms), got version "
      << actual.version << " (" << actual.tag << ", " << actual.steady_ms
      << " ms)";
  return out.str();
}

std::string CheckVerdicts(const orion::runtime::MultiVersionBinary& binary,
                          bool validated) {
  using orion::runtime::ValidationVerdict;
  for (std::size_t i = 0; i < binary.NumCandidates(); ++i) {
    const ValidationVerdict verdict = binary.Candidate(i).validation.verdict;
    const bool right =
        validated ? verdict == ValidationVerdict::kPass ||
                        verdict == ValidationVerdict::kExempt
                  : verdict == ValidationVerdict::kNotValidated;
    if (!right) {
      return "candidate " + std::to_string(i) + " (" +
             binary.Candidate(i).tag + ") has verdict " +
             orion::runtime::ValidationVerdictName(verdict);
    }
  }
  return "";
}

std::string CheckHealth(const orion::runtime::HealthReport& health,
                        std::size_t faulted_records,
                        std::uint32_t final_version,
                        std::size_t candidates) {
  if (final_version >= candidates) {
    return "final version " + std::to_string(final_version) +
           " is not a candidate";
  }
  if (health.fallback_taken) {
    return "fell back to the original version";
  }
  if (!health.quarantined.empty()) {
    return "quarantined " + std::to_string(health.quarantined.size()) +
           " candidate(s)";
  }
  if (faulted_records > 0 || health.faulted_iterations > 0) {
    return "faulted iterations";
  }
  return "";
}

std::string CheckRoundTrip(const std::vector<std::uint8_t>& image) {
  try {
    if (orion::isa::EncodeModule(orion::isa::DecodeModule(image)) != image) {
      return "image does not re-encode to identical bytes";
    }
  } catch (const std::exception& e) {
    return std::string("image does not decode: ") + e.what();
  }
  return "";
}

}  // namespace perfbench
