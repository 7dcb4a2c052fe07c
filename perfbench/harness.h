// The benchmark's own measuring kit: a wall clock, nearest-rank percentiles
// that carry their sample counts, in-memory spans with self-time
// arithmetic, and the correctness gate every workload's outputs pass
// through. Nothing here is instrumented inside the library; spans wrap
// calls into it from the benchmark's side only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "fleet/results.h"
#include "obs/analysis.h"
#include "server/server.h"

namespace perfbench {

// Seconds on a monotonic clock (arbitrary epoch).
double now_s();

// Nearest-rank percentile of `samples`: the value at rank ceil(p * n).
// `beyond` counts the samples ranked above it, so a caller can tell a p99
// resting on 3 samples from one resting on 300.
struct Percentile {
  double value = 0.0;
  std::size_t n = 0;
  std::size_t beyond = 0;
};
Percentile percentile(std::vector<double> samples, double p);

// A timed interval around one call into a library layer. `parent` indexes
// the enclosing span in the recorder (-1 for a root).
struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;
  std::string workload;
};

// Spans of one run, kept in memory and written out when the run ends.
// Single-threaded: begin/end nest on one stack.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::string workload);

  int begin(std::string name);
  void end(int id);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::string workload_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null recorder makes it a no-op, so untraced runs share the
// traced code path.
class Scope {
 public:
  Scope(SpanRecorder* recorder, std::string name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_ = -1;
};

// Self time of every span: its duration minus the part of it that its
// direct children cover. Children may nest, overlap one another or spill
// past the parent; the covered time is the union of their intervals
// clipped to the parent.
std::vector<double> self_times(const std::vector<Span>& spans);

struct SpanTotals {
  std::string name;
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};
// Per-name totals in first-seen order.
std::vector<SpanTotals> summarize(const std::vector<Span>& spans);

// Chrome trace-event JSON ("X" events, microseconds), loadable in Perfetto.
void write_spans(std::ostream& out, const std::vector<Span>& spans);

// Correctness gate: every problem found, empty when the output is sound.
std::vector<std::string> check_outcome(const dmc::server::ServerOutcome& o);
std::vector<std::string> check_record(const dmc::fleet::RunRecord& record);
// The offline report (re-imported Chrome trace) must equal the in-process
// one on trace, session, message and miss counts, its causes must
// partition the misses, and the ring must not have wrapped.
std::vector<std::string> check_forensics(
    const dmc::obs::AnalysisReport& live,
    const dmc::obs::AnalysisReport& offline, std::uint64_t ring_dropped);

// Exact text identity of an outcome's results (hexfloat doubles, fates in
// request order), for determinism checks across passes and worker counts.
std::string outcome_fingerprint(const dmc::server::ServerOutcome& o);

}  // namespace perfbench
