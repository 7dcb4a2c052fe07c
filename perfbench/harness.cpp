#include "harness.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <ostream>
#include <sstream>
#include <utility>

#include "obs/export.h"
#include "util/format.h"

namespace perfbench {

double now_s() {
  // dmc-lint: allow(det-wallclock) the benchmark measures wall time; no
  // clock reading feeds a simulated result
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(t).count();
}

Percentile percentile(std::vector<double> samples, double p) {
  Percentile result;
  result.n = samples.size();
  if (samples.empty()) return result;
  std::sort(samples.begin(), samples.end());
  const double clamped = std::clamp(p, 0.0, 1.0);
  auto rank = static_cast<std::size_t>(
      std::ceil(clamped * static_cast<double>(samples.size())));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  result.value = samples[rank - 1];
  result.beyond = samples.size() - rank;
  return result;
}

SpanRecorder::SpanRecorder(std::string workload)
    : workload_(std::move(workload)) {}

int SpanRecorder::begin(std::string name) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.workload = workload_;
  span.start_s = now_s();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanRecorder::end(int id) {
  // Spans open and close only through Scope, hence in LIFO order.
  assert(!open_.empty() && open_.back() == id);
  spans_[static_cast<std::size_t>(id)].end_s = now_s();
  open_.pop_back();
}

Scope::Scope(SpanRecorder* recorder, std::string name) : recorder_(recorder) {
  if (recorder_ != nullptr) id_ = recorder_->begin(std::move(name));
}

Scope::~Scope() {
  if (recorder_ != nullptr) recorder_->end(id_);
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> covered(spans.size());
  for (const Span& child : spans) {
    if (child.parent < 0) continue;
    const Span& parent = spans[static_cast<std::size_t>(child.parent)];
    const double lo = std::max(child.start_s, parent.start_s);
    const double hi = std::min(child.end_s, parent.end_s);
    if (hi > lo) {
      covered[static_cast<std::size_t>(child.parent)].emplace_back(lo, hi);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<double, double>>& intervals = covered[i];
    std::sort(intervals.begin(), intervals.end());
    double union_s = 0.0;
    double reach = spans[i].start_s;
    for (const auto& [lo, hi] : intervals) {
      const double from = std::max(lo, reach);
      if (hi > from) union_s += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = (spans[i].end_s - spans[i].start_s) - union_s;
  }
  return self;
}

std::vector<SpanTotals> summarize(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::vector<SpanTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto it = std::find_if(totals.begin(), totals.end(),
                           [&](const SpanTotals& t) {
                             return t.name == spans[i].name;
                           });
    if (it == totals.end()) {
      totals.push_back(SpanTotals{spans[i].name});
      it = totals.end() - 1;
    }
    ++it->count;
    it->total_s += spans[i].end_s - spans[i].start_s;
    it->self_s += self[i];
  }
  return totals;
}

void write_spans(std::ostream& out, const std::vector<Span>& spans) {
  const double origin = spans.empty() ? 0.0 : spans.front().start_s;
  const std::vector<double> self = self_times(spans);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "" : ",") << "{\"name\":" << dmc::obs::json_string(s.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << dmc::obs::json_number((s.start_s - origin) * 1e6)
        << ",\"dur\":" << dmc::obs::json_number((s.end_s - s.start_s) * 1e6)
        << ",\"args\":{\"id\":" << dmc::util::to_decimal(i)
        << ",\"parent\":" << dmc::util::to_decimal(s.parent)
        << ",\"workload\":" << dmc::obs::json_string(s.workload)
        << ",\"self_us\":" << dmc::obs::json_number(self[i] * 1e6)
        << "}}";
  }
  out << "]}\n";
}

namespace {

bool unit_interval(double value) {
  return std::isfinite(value) && value >= 0.0 && value <= 1.0;
}

void check_fates(std::uint64_t arrivals, std::uint64_t admitted,
                 std::uint64_t rejected, std::uint64_t expired,
                 std::vector<std::string>& problems) {
  if (arrivals != admitted + rejected + expired) {
    problems.push_back("arrivals " + dmc::util::to_decimal(arrivals) +
                       " != admitted + rejected + expired " +
                       dmc::util::to_decimal(admitted + rejected + expired));
  }
}

void check_rates(double admission_rate, double miss_rate, double goodput_bps,
                 std::vector<std::string>& problems) {
  if (!unit_interval(admission_rate)) {
    problems.emplace_back("admission_rate outside [0,1]");
  }
  if (!unit_interval(miss_rate)) {
    problems.emplace_back("deadline_miss_rate outside [0,1]");
  }
  if (!std::isfinite(goodput_bps) || goodput_bps < 0.0) {
    problems.emplace_back("goodput_bps not finite and >= 0");
  }
}

}  // namespace

std::vector<std::string> check_outcome(const dmc::server::ServerOutcome& o) {
  std::vector<std::string> problems;
  if (!o.conserved) problems.emplace_back("link packet conservation broken");
  check_fates(o.arrivals, o.admitted, o.rejected, o.expired, problems);
  if (o.sessions.size() != o.arrivals) {
    problems.push_back("sessions " + dmc::util::to_decimal(o.sessions.size()) +
                       " != arrivals " + dmc::util::to_decimal(o.arrivals));
  }
  check_rates(o.admission_rate, o.deadline_miss_rate, o.goodput_bps, problems);
  if (!std::isfinite(o.mean_queue_wait_s) || o.mean_queue_wait_s < 0.0) {
    problems.emplace_back("mean_queue_wait_s not finite and >= 0");
  }
  return problems;
}

std::vector<std::string> check_record(const dmc::fleet::RunRecord& record) {
  std::vector<std::string> problems;
  if (!record.ok) problems.push_back("record not ok: " + record.error);
  check_fates(record.arrivals, record.admitted, record.rejected,
              record.expired, problems);
  check_rates(record.admission_rate, record.deadline_miss_rate,
              record.goodput_bps, problems);
  return problems;
}

std::vector<std::string> check_forensics(
    const dmc::obs::AnalysisReport& live,
    const dmc::obs::AnalysisReport& offline, std::uint64_t ring_dropped) {
  std::vector<std::string> problems;
  if (ring_dropped > 0 || live.truncated) {
    problems.push_back("trace ring wrapped: " +
                       dmc::util::to_decimal(ring_dropped) +
                       " events overwritten");
  }
  const auto same = [&](const char* what, std::uint64_t a, std::uint64_t b) {
    if (a != b) {
      problems.push_back(std::string("offline ") + what + " " +
                         dmc::util::to_decimal(b) + " != in-process " +
                         dmc::util::to_decimal(a));
    }
  };
  same("trace events", live.events, offline.events);
  same("dropped", live.dropped, offline.dropped);
  same("sessions", live.sessions_observed, offline.sessions_observed);
  same("admits", live.admits, offline.admits);
  same("rejects", live.rejects, offline.rejects);
  same("messages", live.messages_observed, offline.messages_observed);
  same("on-time", live.on_time, offline.on_time);
  same("late", live.late, offline.late);
  same("gave-up", live.gave_up, offline.gave_up);
  same("blackholed", live.blackholed, offline.blackholed);
  for (std::size_t c = 0; c < dmc::obs::kNumMissCauses; ++c) {
    same(dmc::obs::to_string(static_cast<dmc::obs::MissCause>(c)),
         live.misses.counts[c], offline.misses.counts[c]);
  }
  for (const dmc::obs::AnalysisReport* report : {&live, &offline}) {
    if (report->misses.total() !=
        report->late + report->gave_up + report->blackholed) {
      problems.emplace_back("miss causes do not partition the misses");
    }
  }
  return problems;
}

std::string outcome_fingerprint(const dmc::server::ServerOutcome& o) {
  std::ostringstream out;
  out << std::hexfloat << o.arrivals << ' ' << o.admitted << ' '
      << o.rejected << ' ' << o.expired << ' ' << o.admission_rate << ' '
      << o.deadline_miss_rate << ' ' << o.goodput_bps << ' '
      << o.mean_queue_wait_s << ' ' << o.replans << ' ' << o.elapsed_s << ' '
      << o.events << ' ' << o.orphans.total() << '\n';
  for (const dmc::server::SessionRecord& s : o.sessions) {
    out << s.request_id << ' ' << static_cast<int>(s.fate) << ' '
        << s.queue_wait_s << ' ' << s.trace.on_time << ' ' << s.trace.generated
        << '\n';
  }
  return out.str();
}

}  // namespace perfbench
