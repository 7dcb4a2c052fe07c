// Self-tests of the benchmark's own measuring kit: span self-time
// arithmetic, percentile sample counts and the correctness gate. Plain
// executable (exit 1 on the first failed check) so the benchmark builds
// without a test framework.
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "experiments/scenarios.h"
#include "harness.h"
#include "server/arrivals.h"
#include "server/server.h"

namespace {

int checks = 0;

void check(bool ok, const std::string& what) {
  ++checks;
  if (!ok) {
    std::cerr << "FAILED: " << what << "\n";
    std::exit(1);
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-12; }

perfbench::Span span(double start, double end, int parent) {
  perfbench::Span s;
  s.name = "s";
  s.start_s = start;
  s.end_s = end;
  s.parent = parent;
  return s;
}

void self_time_nested() {
  // root [0,10] > child [2,5] > grandchild [3,4]: only direct children
  // count against a span.
  const std::vector<perfbench::Span> spans = {span(0, 10, -1), span(2, 5, 0),
                                              span(3, 4, 1)};
  const std::vector<double> self = perfbench::self_times(spans);
  check(near(self[0], 7.0), "nested: root self = 10 - 3");
  check(near(self[1], 2.0), "nested: child self = 3 - 1");
  check(near(self[2], 1.0), "nested: leaf self = its duration");
}

void self_time_overlapping() {
  // Children [1,4] and [3,6] overlap: they cover the union [1,6], not 6 s.
  // A child spilling past the parent ([8,12]) is clipped to [8,10].
  const std::vector<perfbench::Span> spans = {
      span(0, 10, -1), span(1, 4, 0), span(3, 6, 0), span(8, 12, 0)};
  const std::vector<double> self = perfbench::self_times(spans);
  check(near(self[0], 3.0), "overlap: root self = 10 - 5 - 2");

  // Identical and contained siblings count once.
  const std::vector<perfbench::Span> same = {span(0, 4, -1), span(1, 3, 0),
                                             span(1, 3, 0), span(1.5, 2, 0)};
  check(near(perfbench::self_times(same)[0], 2.0),
        "overlap: identical and contained siblings counted once");

  // A child entirely outside its parent covers nothing.
  const std::vector<perfbench::Span> outside = {span(0, 1, -1),
                                                span(2, 3, 0)};
  check(near(perfbench::self_times(outside)[0], 1.0),
        "overlap: disjoint child covers nothing");
}

void recorder_links_parents() {
  perfbench::SpanRecorder recorder("w");
  {
    perfbench::Scope outer(&recorder, "outer");
    { perfbench::Scope inner(&recorder, "inner"); }
    { perfbench::Scope second(&recorder, "second"); }
  }
  { perfbench::Scope null_scope(nullptr, "ignored"); }
  const std::vector<perfbench::Span>& spans = recorder.spans();
  check(spans.size() == 3, "recorder: three spans, null scope ignored");
  check(spans[0].parent == -1 && spans[1].parent == 0 && spans[2].parent == 0,
        "recorder: children point at the open span");
  check(spans[1].workload == "w", "recorder: workload id on every span");
  check(spans[0].end_s >= spans[2].end_s, "recorder: parent closes last");
  const std::vector<perfbench::SpanTotals> totals =
      perfbench::summarize(spans);
  check(totals.size() == 3 && totals[0].name == "outer" &&
            totals[0].count == 1,
        "summarize: per-name totals in first-seen order");
}

void percentiles_report_counts() {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);
  const perfbench::Percentile p50 = perfbench::percentile(samples, 0.5);
  check(p50.n == 100 && p50.value == 50.0 && p50.beyond == 50,
        "percentile: p50 of 1..100 is 50 with 50 beyond");
  const perfbench::Percentile p99 = perfbench::percentile(samples, 0.99);
  check(p99.n == 100 && p99.value == 99.0 && p99.beyond == 1,
        "percentile: p99 of 1..100 rests on 1 sample beyond");
  const perfbench::Percentile one = perfbench::percentile({7.0}, 0.99);
  check(one.n == 1 && one.value == 7.0 && one.beyond == 0,
        "percentile: a single sample");
  const perfbench::Percentile none = perfbench::percentile({}, 0.5);
  check(none.n == 0 && none.beyond == 0, "percentile: empty input has n 0");
}

dmc::server::ServerOutcome small_run() {
  dmc::server::ServerConfig config;
  config.planning_paths = dmc::exp::table3_model_paths();
  config.true_paths = dmc::exp::table3_paths();
  dmc::server::WorkloadOptions workload;
  workload.count = 12;
  workload.arrivals_per_s = 20.0;
  workload.mean_messages = 40;
  return dmc::server::run_server(config, workload);
}

void gate_flags_tampered_outcomes() {
  const dmc::server::ServerOutcome good = small_run();
  check(perfbench::check_outcome(good).empty(), "gate: a real run passes");

  dmc::server::ServerOutcome o = good;
  o.conserved = false;
  check(!perfbench::check_outcome(o).empty(), "gate: conserved = false");

  o = good;
  ++o.rejected;
  check(!perfbench::check_outcome(o).empty(), "gate: broken fate sum");

  o = good;
  o.sessions.pop_back();
  check(!perfbench::check_outcome(o).empty(), "gate: sessions != arrivals");

  o = good;
  o.deadline_miss_rate = std::numeric_limits<double>::quiet_NaN();
  check(!perfbench::check_outcome(o).empty(), "gate: NaN miss rate");

  o = good;
  o.admission_rate = 1.5;
  check(!perfbench::check_outcome(o).empty(), "gate: rate above 1");

  dmc::fleet::RunRecord record;
  record.arrivals = 3;
  record.admitted = 2;
  record.rejected = 1;
  check(perfbench::check_record(record).empty(), "gate: sound record");
  record.ok = false;
  check(!perfbench::check_record(record).empty(), "gate: record not ok");
  record.ok = true;
  record.expired = 1;
  check(!perfbench::check_record(record).empty(), "gate: record fate sum");
}

void gate_flags_forensics_mismatch() {
  dmc::obs::AnalysisReport live;
  live.events = 100;
  live.late = 2;
  live.gave_up = 1;
  live.misses[dmc::obs::MissCause::queue_delay] = 2;
  live.misses[dmc::obs::MissCause::loss_burst] = 1;
  check(perfbench::check_forensics(live, live, 0).empty(),
        "forensics: equal reports pass");
  check(!perfbench::check_forensics(live, live, 5).empty(),
        "forensics: wrapped ring");
  dmc::obs::AnalysisReport offline = live;
  offline.late = 3;
  check(!perfbench::check_forensics(live, offline, 0).empty(),
        "forensics: offline count differs");
  offline = live;
  offline.misses[dmc::obs::MissCause::loss_burst] = 0;
  offline.misses[dmc::obs::MissCause::blackhole] = 1;
  check(!perfbench::check_forensics(live, offline, 0).empty(),
        "forensics: cause counts differ");
  dmc::obs::AnalysisReport unpartitioned = live;
  unpartitioned.misses[dmc::obs::MissCause::replan_lag] = 1;
  check(!perfbench::check_forensics(unpartitioned, unpartitioned, 0).empty(),
        "forensics: causes must partition the misses");
}

}  // namespace

int main() {
  self_time_nested();
  self_time_overlapping();
  recorder_links_parents();
  percentiles_report_counts();
  gate_flags_tampered_outcomes();
  gate_flags_forensics_mismatch();
  std::cout << "perfbench self-test: " << checks << " checks passed\n";
  return 0;
}
