// perfbench: the repository's benchmark driver. Runs one named workload
// from a seed, times only calls into public library layers, checks every
// output, and prints its metrics by name and unit. The last stdout line is
// one JSON object {"correct","attempted","failed","metrics"}.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans PATH] [--commit TEXT]
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate run
// that records spans around each library call and reports the per-layer
// metrics. See perfbench/README.md for the workloads and the dictionary.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "core/model.h"
#include "core/planner.h"
#include "core/units.h"
#include "experiments/scenarios.h"
#include "fleet/engine.h"
#include "fleet/job.h"
#include "harness.h"
#include "lp/simplex.h"
#include "lp/validate.h"
#include "obs/analysis.h"
#include "obs/export.h"
#include "server/arrivals.h"
#include "server/server.h"
#include "server/sharded_server.h"
#include "util/format.h"
#include "util/parse.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace dmc;
using perfbench::now_s;
using perfbench::Scope;

// ------------------------------------------------------------- metrics ---

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Untraced runs report exactly these.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"peak_rss_mb", "MB"},
    {"quality", "ratio"},
    {"admission_rate", "ratio"},
    {"goodput_mbps", "Mb/s"},
    {"ok_frac", "ratio"},
};

// Traced runs report exactly these, on every workload; a layer the
// workload does not cross reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"bench.passes", "count"},
    {"bench.warmup_s", "s"},
    {"bench.cold_ratio", "ratio"},
    {"core.model_build_us_p50", "us"},
    {"core.model_build_us_p99", "us"},
    {"core.model_builds", "count"},
    {"lp.solve_us_p50", "us"},
    {"lp.solve_us_p99", "us"},
    {"core.plan_warm_us_p50", "us"},
    {"core.plan_warm_us_p99", "us"},
    {"core.plans", "count"},
    {"lp.warm_solves", "count"},
    {"lp.cold_solves", "count"},
    {"lp.fallbacks", "count"},
    {"lp.warm_pivots", "count"},
    {"lp.pivots_per_warm", "ratio"},
    {"lp.warm_hit_ratio", "ratio"},
    {"server.run_s", "s"},
    {"server.lp_batch_s", "s"},
    {"server.lp_batches", "count"},
    {"server.lp_batch_us_p50", "us"},
    {"server.lp_batch_us_p99", "us"},
    {"server.lp_share", "ratio"},
    {"server.arrivals", "count"},
    {"server.admitted", "count"},
    {"server.rejected", "count"},
    {"server.expired", "count"},
    {"server.replans", "count"},
    {"server.queue_wait_s_p50", "s"},
    {"server.queue_wait_s_p99", "s"},
    {"server.barriers", "count"},
    {"server.slice_events_max_over_mean", "ratio"},
    {"server.worker_speedup", "ratio"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.elapsed_s", "s"},
    {"sim.event_queue_depth_p50", "count"},
    {"sim.event_queue_depth_p99", "count"},
    {"link.offered", "count"},
    {"link.delivered", "count"},
    {"link.queue_drops", "count"},
    {"link.loss_drops", "count"},
    {"link.drop_ratio", "ratio"},
    {"proto.transmissions", "count"},
    {"proto.retransmissions", "count"},
    {"proto.retx_ratio", "ratio"},
    {"proto.gave_up", "count"},
    {"proto.orphans", "count"},
    {"fleet.run_jobs_s", "s"},
    {"fleet.cells", "count"},
    {"fleet.cell_s_p50", "s"},
    {"fleet.cell_s_max", "s"},
    {"fleet.parallel_efficiency", "ratio"},
    {"obs.trace_events", "count"},
    {"obs.trace_dropped", "count"},
    {"obs.export_s", "s"},
    {"obs.export_mb", "MB"},
    {"obs.import_s", "s"},
    {"obs.import_events_per_s", "1/s"},
    {"obs.analyze_s", "s"},
    {"obs.overhead_frac", "ratio"},
};

double median(const std::vector<double>& samples) {
  return perfbench::percentile(samples, 0.5).value;
}

// What one process measured and checked.
class Report {
 public:
  explicit Report(bool traced) {
    if (traced) {
      for (const MetricSpec& m : kPerLayer) values_[m.name] = 0.0;
    }
  }

  void set(const std::string& name, double value) {
    if (!values_.contains(name) && !is_end_to_end(name)) {
      throw std::logic_error("unlisted metric " + name);
    }
    values_[name] = value;
  }

  // Records one gated unit (a pass, cell, report or replayed plan).
  void gate(const std::vector<std::string>& problems, const std::string& what) {
    ++attempted_;
    if (problems.empty()) return;
    ++failed_;
    for (const std::string& p : problems) {
      std::cerr << "perfbench: check failed (" << what << "): " << p << "\n";
    }
  }

  void note(const std::string& text) { std::cout << "note: " << text << "\n"; }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  // Prints the JSON result line; true when correct.
  bool print(bool traced) const {
    bool finite = true;
    std::string metrics;
    const auto emit = [&](const MetricSpec& spec) {
      const auto it = values_.find(spec.name);
      double value = it == values_.end() ? 0.0 : it->second;
      if (!std::isfinite(value)) {
        std::cerr << "perfbench: metric " << spec.name << " is not finite\n";
        finite = false;
        value = 0.0;
      }
      metrics += metrics.empty() ? "" : ",";
      metrics += obs::json_string(spec.name) +
                 ":{\"value\":" + obs::json_number(value) +
                 ",\"unit\":" + obs::json_string(spec.unit) + "}";
    };
    if (traced) {
      for (const MetricSpec& m : kPerLayer) emit(m);
    } else {
      for (const MetricSpec& m : kEndToEnd) emit(m);
    }
    const bool correct = finite && failed_ == 0 && attempted_ > 0;
    std::cout << "{\"correct\":" << (correct ? "true" : "false")
              << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
              << ",\"metrics\":{" << metrics << "}}\n";
    return correct;
  }

 private:
  static bool is_end_to_end(const std::string& name) {
    return std::any_of(std::begin(kEndToEnd), std::end(kEndToEnd),
                       [&](const MetricSpec& m) { return name == m.name; });
  }

  std::map<std::string, double> values_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ------------------------------------------------------------- context ---

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
  std::string commit = "unknown";
};

struct Context {
  Args args;
  std::vector<int> cpus;  // the process's affinity mask
  unsigned nproc = 1;     // cpus.size()
  Report report;
  std::unique_ptr<perfbench::SpanRecorder> spans;  // traced runs only

  perfbench::SpanRecorder* recorder() { return spans.get(); }
};

std::vector<int> affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  if (cpus.empty()) throw std::runtime_error("cannot read the CPU affinity");
  return cpus;
}

// Pins the calling thread to the `turn`-th CPU of the affinity mask for
// the object's lifetime. On a shared VM a vCPU can run ~30% slower for
// seconds at a time, independently of the other vCPUs (measured on a
// 4-vCPU Xeon VM), and the scheduler keeps a lone busy thread on one vCPU
// for a whole run, so one vCPU's state would set the run's median.
// Single-threaded work is pinned to the CPUs in turn instead, so that each
// run samples every vCPU. Threads inherit their creator's mask: work that
// spawns threads must not run pinned.
class PinnedCpu {
 public:
  PinnedCpu(const std::vector<int>& cpus, std::size_t turn) {
    CPU_ZERO(&saved_);
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[turn % cpus.size()], &one);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0 ||
        sched_setaffinity(0, sizeof(one), &one) != 0) {
      throw std::runtime_error("cannot pin the benchmark thread to a CPU");
    }
  }
  ~PinnedCpu() { sched_setaffinity(0, sizeof(saved_), &saved_); }
  PinnedCpu(const PinnedCpu&) = delete;
  PinnedCpu& operator=(const PinnedCpu&) = delete;

 private:
  cpu_set_t saved_;
};

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000U, nullptr) >= 0x80000004U) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002U + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand = brand.c_str();  // stop at the first NUL
    const auto first = brand.find_first_not_of(' ');
    if (first != std::string::npos) return brand.substr(first);
  }
#endif
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------ histogram merge ---

// Bucket counts summed over several histograms of one metric (same
// HistogramOptions, hence the same bucket grid). Quantiles read the
// nearest-rank bucket's upper bound, clamped to the observed range.
struct Buckets {
  std::map<double, std::uint64_t> counts;
  std::uint64_t n = 0;
  double sum = 0.0;
  double min = INFINITY;
  double max = -INFINITY;

  void add(const obs::Histogram& h) {
    for (std::size_t i = 0; i < h.num_buckets(); ++i) {
      if (h.bucket_count(i) > 0) counts[h.bucket_upper(i)] += h.bucket_count(i);
    }
    absorb(h.count(), h.sum(), h.min_seen(), h.max_seen());
  }
  void add(const obs::HistogramSnapshot& h) {
    for (const auto& [upper, count] : h.buckets) counts[upper] += count;
    absorb(h.count, h.sum, h.min, h.max);
  }
  double quantile(double p) const {
    if (n == 0) return 0.0;
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(n))));
    std::uint64_t seen = 0;
    for (const auto& [upper, count] : counts) {
      seen += count;
      if (seen >= rank) return std::clamp(upper, min, max);
    }
    return max;
  }

 private:
  void absorb(std::uint64_t count, double s, double lo, double hi) {
    if (count == 0) return;
    n += count;
    sum += s;
    min = std::min(min, lo);
    max = std::max(max, hi);
  }
};

// Histogram `name` of an observed outcome: the live registry on classic
// runs (wall-clock histograms included), the merged deterministic snapshot
// on sharded runs (wall-clock histograms are dropped by the merge).
void add_histogram(Buckets& buckets, const server::ServerOutcome& outcome,
                   std::string_view name) {
  if (outcome.metrics != nullptr) {
    for (const obs::MetricRegistry::Entry& e : outcome.metrics->entries()) {
      if (e.name == name && e.kind == obs::MetricKind::histogram) {
        buckets.add(e.histogram);
      }
    }
    return;
  }
  for (const obs::HistogramSnapshot& h : outcome.obs.histograms) {
    if (h.name == name) buckets.add(h);
  }
}

// -------------------------------------------------------- layer metrics ---

// Per-layer counts of one or more observed outcomes (a gamma-sweep pass has
// one per cell). `run_s` is the wall time of the observed server runs that
// produced them (a median across passes, or a sum across cells).
void report_outcome_layers(Context& ctx,
                           const std::vector<server::ServerOutcome>& outcomes,
                           double run_s) {
  Report& r = ctx.report;
  lp::IncrementalSolver::Stats lp;
  std::uint64_t arrivals = 0, admitted = 0, rejected = 0, expired = 0;
  std::uint64_t replans = 0, events = 0, orphans = 0;
  double elapsed = 0.0;
  sim::LinkStats links;
  proto::Trace proto;
  Buckets lp_batch, queue_wait, depth;
  for (const server::ServerOutcome& o : outcomes) {
    lp += o.lp;
    arrivals += o.arrivals;
    admitted += o.admitted;
    rejected += o.rejected;
    expired += o.expired;
    replans += o.replans;
    events += o.events;
    orphans += o.orphans.total();
    elapsed += o.elapsed_s;
    for (const sim::LinkStats& l : o.forward_links) {
      links.offered += l.offered;
      links.delivered += l.delivered;
      links.queue_drops += l.queue_drops;
      links.loss_drops += l.loss_drops;
    }
    for (const server::SessionRecord& s : o.sessions) {
      proto.transmissions += s.trace.transmissions;
      proto.retransmissions += s.trace.retransmissions;
      proto.gave_up += s.trace.gave_up;
    }
    add_histogram(lp_batch, o, "dmc_lp_solve_wall_seconds");
    add_histogram(queue_wait, o, "dmc_server_queue_wait_seconds");
    add_histogram(depth, o, "dmc_sim_event_queue_depth");
  }
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };

  r.set("lp.warm_solves", d(lp.warm_solves));
  r.set("lp.cold_solves", d(lp.cold_solves));
  r.set("lp.fallbacks", d(lp.fallbacks));
  r.set("lp.warm_pivots", d(lp.warm_pivots));
  r.set("lp.pivots_per_warm", ratio(d(lp.warm_pivots), d(lp.warm_solves)));
  r.set("lp.warm_hit_ratio",
        ratio(d(lp.warm_solves), d(lp.warm_solves + lp.fallbacks)));

  r.set("server.run_s", run_s);
  r.set("server.lp_batch_s", lp_batch.sum);
  r.set("server.lp_batches", d(lp_batch.n));
  r.set("server.lp_batch_us_p50", lp_batch.quantile(0.5) * 1e6);
  r.set("server.lp_batch_us_p99", lp_batch.quantile(0.99) * 1e6);
  r.set("server.lp_share", ratio(lp_batch.sum, run_s));
  r.set("server.arrivals", d(arrivals));
  r.set("server.admitted", d(admitted));
  r.set("server.rejected", d(rejected));
  r.set("server.expired", d(expired));
  r.set("server.replans", d(replans));
  r.set("server.queue_wait_s_p50", queue_wait.quantile(0.5));
  r.set("server.queue_wait_s_p99", queue_wait.quantile(0.99));

  r.set("sim.events", d(events));
  r.set("sim.events_per_s", ratio(d(events), run_s));
  r.set("sim.elapsed_s", elapsed);
  r.set("sim.event_queue_depth_p50", depth.quantile(0.5));
  r.set("sim.event_queue_depth_p99", depth.quantile(0.99));

  r.set("link.offered", d(links.offered));
  r.set("link.delivered", d(links.delivered));
  r.set("link.queue_drops", d(links.queue_drops));
  r.set("link.loss_drops", d(links.loss_drops));
  r.set("link.drop_ratio",
        ratio(d(links.queue_drops + links.loss_drops), d(links.offered)));

  r.set("proto.transmissions", d(proto.transmissions));
  r.set("proto.retransmissions", d(proto.retransmissions));
  r.set("proto.retx_ratio",
        ratio(d(proto.retransmissions), d(proto.transmissions)));
  r.set("proto.gave_up", d(proto.gave_up));
  r.set("proto.orphans", d(orphans));

  std::cout << "samples: server.lp_batch n=" << lp_batch.n
            << ", server.queue_wait n=" << queue_wait.n
            << ", sim.event_queue_depth n=" << depth.n << "\n";
  if (lp_batch.n == 0) {
    r.note(
        "server.lp_batch_* read 0: dmc_lp_solve_wall_seconds is a wall-clock "
        "histogram and exists on classic runs only (the sharded merge drops "
        "wall-clock metrics)");
  }
}

void report_percentile(Context& ctx, const std::string& prefix,
                       const std::vector<double>& samples_us) {
  const perfbench::Percentile p50 = perfbench::percentile(samples_us, 0.5);
  const perfbench::Percentile p99 = perfbench::percentile(samples_us, 0.99);
  ctx.report.set(prefix + "_p50", p50.value);
  ctx.report.set(prefix + "_p99", p99.value);
  std::cout << "samples: " << prefix << " n=" << p50.n << " (p99 has "
            << p99.beyond << " samples beyond it"
            << (p99.beyond < 10 ? "; fewer than 10, read it as a max" : "")
            << ")\n";
}

// The core/stats replay: the workload's own request stream planned against
// its planning paths outside the server. Each request builds a model
// (where the stats kernels run), solves its LP cold, and is planned by one
// warm Planner; every plan is validated against its LP.
void replay(Context& ctx, const core::PathSet& planning,
            const std::vector<server::SessionRequest>& requests,
            const core::PlanOptions& options) {
  Scope replay_span(ctx.recorder(), "replay");
  std::vector<double> build_us, solve_us, plan_us;
  core::Planner planner(options, /*warm_start=*/true);
  const lp::SimplexSolver solver(options.solver);
  for (const server::SessionRequest& request : requests) {
    double t0 = 0.0;
    std::vector<std::string> problems;
    const auto model = [&] {
      Scope span(ctx.recorder(), "core.model_build");
      t0 = now_s();
      core::Model built(planning, request.traffic, options.model);
      build_us.push_back((now_s() - t0) * 1e6);
      return built;
    }();
    const lp::Problem lp_problem = model.quality_lp();
    const lp::Solution cold = [&] {
      Scope span(ctx.recorder(), "lp.solve");
      t0 = now_s();
      lp::Solution solution = solver.solve(lp_problem);
      solve_us.push_back((now_s() - t0) * 1e6);
      return solution;
    }();
    const core::Plan plan = [&] {
      Scope span(ctx.recorder(), "core.plan");
      t0 = now_s();
      core::Plan planned = planner.plan(planning, request.traffic);
      plan_us.push_back((now_s() - t0) * 1e6);
      return planned;
    }();
    // Row-scaled LP (same feasible set) keeps the absolute tolerance
    // meaningful: the raw bandwidth rows are in bits/s.
    const lp::Problem normalized = model.quality_lp_normalized();
    if (!cold.optimal() || !plan.feasible()) {
      problems.emplace_back("replayed LP not optimal");
    } else {
      if (!lp::validate(normalized, cold.x).feasible) {
        problems.emplace_back("cold solution fails lp::validate");
      }
      if (!lp::validate(plan.model().quality_lp_normalized(), plan.x())
               .feasible) {
        problems.emplace_back("planner solution fails lp::validate");
      }
      const double cold_q = model.evaluate(cold.x).quality;
      if (std::abs(cold_q - plan.quality()) > 1e-6) {
        problems.emplace_back("planner quality differs from cold solve");
      }
    }
    ctx.report.gate(problems, "replay request " +
                                  util::to_decimal(request.id));
  }
  ctx.report.set("core.model_builds", static_cast<double>(build_us.size()));
  ctx.report.set("core.plans", static_cast<double>(plan_us.size()));
  report_percentile(ctx, "core.model_build_us", build_us);
  report_percentile(ctx, "lp.solve_us", solve_us);
  report_percentile(ctx, "core.plan_warm_us", plan_us);
}

// ------------------------------------------------------------ workloads ---

struct PassOutput {
  double wall_s = 0.0;  // time inside library calls only, not the gate
  double quality = 0.0;
  double admission_rate = 0.0;
  double goodput_mbps = 0.0;
  std::string identity;  // exact results, for the determinism check
};

PassOutput outcome_output(double wall_s, const server::ServerOutcome& o) {
  return {wall_s, 1.0 - o.deadline_miss_rate, o.admission_rate,
          o.goodput_bps / 1e6, perfbench::outcome_fingerprint(o)};
}

class Workload {
 public:
  virtual ~Workload() = default;
  // Generates the inputs and constructs the server or engine.
  virtual void setup(Context& ctx) = 0;
  // One untraced pass; gates its own outputs.
  virtual PassOutput pass(Context& ctx) = 0;
  // The traced run: alternates plain and observed passes until `deadline`
  // and reports the per-layer metrics.
  virtual void traced(Context& ctx, double deadline) = 0;
  // Whether a pass runs on the calling thread alone (see PinnedCpu).
  virtual bool single_threaded() const { return false; }
};

// Times `fn` under a span; returns seconds.
template <typename Fn>
double timed(Context& ctx, const char* name, Fn&& fn) {
  Scope span(ctx.recorder(), name);
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

server::ServerConfig table3_config(std::uint64_t seed, const char* policy) {
  server::ServerConfig config;
  config.planning_paths = exp::table3_model_paths();
  config.true_paths = exp::table3_paths();
  config.policy = policy;
  config.seed = fleet::mix_seed(seed, 0x5E4E);
  return config;
}

server::WorkloadOptions poisson(std::uint64_t seed, int count, double rate,
                                double messages) {
  server::WorkloadOptions w;
  w.count = count;
  w.arrivals_per_s = rate;
  w.mean_rate_bps = mbps(20);
  w.mean_messages = messages;
  w.seed = seed;
  return w;
}

// Observation overhead: the observed pass over the plain one, both medians.
void report_overhead(Context& ctx, const std::vector<double>& plain,
                     const std::vector<double>& observed) {
  ctx.report.set("obs.overhead_frac", median(observed) / median(plain) - 1.0);
}

// Classic feasibility-lp server under overload (admit-lp) — also the base
// of the forensics workload.
class AdmitLp : public Workload {
 public:
  void setup(Context& ctx) override {
    config_ = table3_config(ctx.args.seed, "feasibility-lp");
    requests_ =
        server::poisson_arrivals(poisson(ctx.args.seed, 4000, 120.0, 200));
    server_ = std::make_unique<server::SessionServer>(config_);
  }

  PassOutput pass(Context& ctx) override {
    server::ServerOutcome o;
    const double wall = timed(ctx, "server.run",
                              [&] { o = server_->run(requests_); });
    ctx.report.gate(perfbench::check_outcome(o), "admit-lp pass");
    return outcome_output(wall, o);
  }

  bool single_threaded() const override { return true; }

  void traced(Context& ctx, double deadline) override {
    server::ServerConfig observed_config = config_;
    observed_config.collect_metrics = true;
    std::vector<double> plain, observed;
    std::vector<server::ServerOutcome> last(1);
    while (plain.size() < 2 || now_s() < deadline) {
      server::ServerOutcome plain_outcome;
      plain.push_back(timed(ctx, "server.run", [&] {
        plain_outcome = server::SessionServer(config_).run(requests_);
      }));
      observed.push_back(timed(ctx, "server.run.observed", [&] {
        last[0] = server::SessionServer(observed_config).run(requests_);
      }));
      std::vector<std::string> problems = perfbench::check_outcome(last[0]);
      if (perfbench::outcome_fingerprint(plain_outcome) !=
          perfbench::outcome_fingerprint(last[0])) {
        problems.emplace_back("observation changed the outcome");
      }
      ctx.report.gate(problems, "observed pass");
    }
    ctx.report.set("bench.passes", static_cast<double>(plain.size()));
    report_outcome_layers(ctx, last, median(observed));
    report_overhead(ctx, plain, observed);
    replay(ctx, config_.planning_paths, requests_, config_.plan_options);
  }

 private:
  server::ServerConfig config_;
  std::vector<server::SessionRequest> requests_;
  std::unique_ptr<server::SessionServer> server_;
};

// Sharded always-admit flood: the data plane and the epoch barriers.
class ShardFlood : public Workload {
 public:
  void setup(Context& ctx) override {
    config_ = table3_config(ctx.args.seed, "always-admit");
    config_.shards = ctx.nproc;
    config_.shard_slices = 16;
    requests_ =
        server::poisson_arrivals(poisson(ctx.args.seed, 4500, 120.0, 200));
    server_ = std::make_unique<server::ShardedSessionServer>(config_);
  }

  PassOutput pass(Context& ctx) override {
    server::ServerOutcome o;
    const double wall = timed(ctx, "server.run",
                              [&] { o = server_->run(requests_); });
    ctx.report.gate(perfbench::check_outcome(o), "shard-flood pass");
    return outcome_output(wall, o);
  }

  void traced(Context& ctx, double deadline) override {
    server::ServerConfig observed_config = config_;
    observed_config.collect_metrics = true;
    server::ServerConfig single = config_;
    single.shards = 1;
    std::vector<double> plain, observed, one_worker;
    std::vector<server::ServerOutcome> last(1);
    while (plain.size() < 2 || now_s() < deadline) {
      server::ServerOutcome plain_outcome, single_outcome;
      plain.push_back(timed(ctx, "server.run", [&] {
        plain_outcome = server::ShardedSessionServer(config_).run(requests_);
      }));
      observed.push_back(timed(ctx, "server.run.observed", [&] {
        last[0] = server::ShardedSessionServer(observed_config).run(requests_);
      }));
      one_worker.push_back(timed(ctx, "server.run.one_worker", [&] {
        single_outcome = server::ShardedSessionServer(single).run(requests_);
      }));
      std::vector<std::string> problems =
          perfbench::check_outcome(single_outcome);
      const std::string identity = perfbench::outcome_fingerprint(last[0]);
      if (perfbench::outcome_fingerprint(single_outcome) != identity ||
          perfbench::outcome_fingerprint(plain_outcome) != identity) {
        problems.emplace_back(
            "worker count or observation changed the outcome");
      }
      ctx.report.gate(problems, "one-worker pass");
    }
    ctx.report.set("bench.passes", static_cast<double>(plain.size()));
    const server::ServerOutcome& o = last[0];
    report_outcome_layers(ctx, last, median(observed));
    ctx.report.set("server.barriers",
                   std::ceil(o.elapsed_s / config_.reconcile_interval_s));
    std::vector<double> slice_events;
    for (const auto& [name, value] : o.obs.counters) {
      if (name.starts_with("dmc_shard") && name.ends_with("_events_total")) {
        slice_events.push_back(static_cast<double>(value));
      }
    }
    double sum = 0.0, max = 0.0;
    for (const double e : slice_events) {
      sum += e;
      max = std::max(max, e);
    }
    if (!slice_events.empty() && sum > 0.0) {
      ctx.report.set("server.slice_events_max_over_mean",
                     max / (sum / static_cast<double>(slice_events.size())));
    }
    ctx.report.set("server.worker_speedup",
                   median(one_worker) / median(plain));
    std::cout << "samples: server.worker_speedup from " << plain.size()
              << " passes at " << ctx.nproc << " workers and "
              << one_worker.size() << " at 1 worker\n";
    report_overhead(ctx, plain, observed);
    replay(ctx, config_.planning_paths, requests_, config_.plan_options);
  }

 private:
  server::ServerConfig config_;
  std::vector<server::SessionRequest> requests_;
  std::unique_ptr<server::ShardedSessionServer> server_;
};

// Fleet grid of small gamma-path servers: the stats kernels and the engine.
class GammaSweep : public Workload {
 public:
  void setup(Context& ctx) override {
    jobs_.clear();
    std::uint64_t cell = 0;
    for (const double rate : {10.0, 20.0, 30.0, 40.0}) {
      for (int rep = 0; rep < 4; ++rep, ++cell) {
        fleet::ServerJob work;
        work.config.planning_paths = exp::table5_paths();
        work.config.true_paths = exp::table5_paths();
        work.config.policy = "feasibility-lp";
        work.config.seed = fleet::mix_seed(ctx.args.seed, cell);
        work.workload =
            poisson(fleet::mix_seed(work.config.seed, 0xA881), 40, rate, 400);
        work.workload.mean_lifetime_s = ms(750);
        jobs_.push_back(fleet::JobSpec{
            "gamma-sweep",
            {{"arrivals_per_s", rate}, {"replicate", static_cast<double>(rep)}},
            std::move(work)});
      }
    }
    engine_ = std::make_unique<fleet::Engine>(
        fleet::EngineOptions{.threads = ctx.nproc});
  }

  PassOutput pass(Context& ctx) override {
    std::vector<fleet::RunRecord> records;
    const double wall = timed(ctx, "fleet.run_jobs", [&] {
      records = fleet::run_jobs(*engine_, jobs_);
    });
    PassOutput out = summarize(ctx, records);
    out.wall_s = wall;
    return out;
  }

  // The serial and observed-cell passes run first so that the timed loop
  // absorbs their cost into the run's --seconds budget.
  void traced(Context& ctx, double deadline) override {
    std::vector<fleet::JobSpec> observed_jobs = jobs_;
    for (fleet::JobSpec& job : observed_jobs) {
      std::get<fleet::ServerJob>(job.work).config.collect_metrics = true;
    }

    // Serial pass: per-cell times and the records run_jobs must reproduce.
    std::vector<double> cell_s;
    fleet::ResultSet serial;
    {
      Scope span(ctx.recorder(), "fleet.serial");
      for (const fleet::JobSpec& job : jobs_) {
        std::vector<fleet::RunRecord> records;
        cell_s.push_back(timed(ctx, "fleet.run_job",
                               [&] { records = fleet::run_job(job); }));
        for (fleet::RunRecord& rec : records) {
          serial.records.push_back(std::move(rec));
        }
      }
    }

    // Observed classic pass over the same cells, on the engine's workers:
    // the server-layer numbers the fleet records do not carry (LP batch
    // wall time, histograms). Each cell times its own run.
    std::vector<server::ServerOutcome> outcomes(observed_jobs.size());
    std::vector<double> cell_run_s(observed_jobs.size());
    std::vector<std::vector<server::SessionRequest>> requests(
        observed_jobs.size());
    std::vector<std::function<void()>> tasks;
    for (std::size_t i = 0; i < observed_jobs.size(); ++i) {
      tasks.emplace_back([&, i] {
        const auto& work = std::get<fleet::ServerJob>(observed_jobs[i].work);
        requests[i] = server::poisson_arrivals(work.workload);
        const double t0 = now_s();
        outcomes[i] = server::SessionServer(work.config).run(requests[i]);
        cell_run_s[i] = now_s() - t0;
      });
    }
    timed(ctx, "fleet.run_tasks.observed_cells",
          [&] { engine_->run_tasks(std::move(tasks)); });

    std::vector<double> plain, observed;
    std::vector<fleet::RunRecord> parallel, observed_records;
    while (plain.size() < 2 || now_s() < deadline) {
      plain.push_back(timed(ctx, "fleet.run_jobs", [&] {
        parallel = fleet::run_jobs(*engine_, jobs_);
      }));
      observed.push_back(timed(ctx, "fleet.run_jobs.observed", [&] {
        observed_records = fleet::run_jobs(*engine_, observed_jobs);
      }));
      summarize(ctx, parallel);
      summarize(ctx, observed_records);
    }
    ctx.report.set("bench.passes", static_cast<double>(plain.size()));
    report_overhead(ctx, plain, observed);

    ctx.report.gate(serial.json() == fleet::ResultSet{parallel}.json()
                        ? std::vector<std::string>{}
                        : std::vector<std::string>{"serial run_job records "
                                                   "differ from run_jobs"},
                    "serial fleet pass");
    double cell_sum = 0.0;
    for (const double c : cell_s) cell_sum += c;
    const double run_jobs_s = median(plain);
    ctx.report.set("fleet.run_jobs_s", run_jobs_s);
    ctx.report.set("fleet.cells", static_cast<double>(jobs_.size()));
    ctx.report.set("fleet.cell_s_p50", median(cell_s));
    ctx.report.set("fleet.cell_s_max",
                   *std::max_element(cell_s.begin(), cell_s.end()));
    ctx.report.set("fleet.parallel_efficiency",
                   cell_sum / (engine_->threads() * run_jobs_s));

    double server_s = 0.0;
    std::vector<server::SessionRequest> all_requests;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      ctx.report.gate(perfbench::check_outcome(outcomes[i]), "observed cell");
      server_s += cell_run_s[i];
      all_requests.insert(all_requests.end(), requests[i].begin(),
                          requests[i].end());
    }
    report_outcome_layers(ctx, outcomes, server_s);
    const auto& first = std::get<fleet::ServerJob>(jobs_.front().work);
    replay(ctx, first.config.planning_paths, all_requests,
           first.config.plan_options);
  }

 private:
  PassOutput summarize(Context& ctx,
                       const std::vector<fleet::RunRecord>& records) {
    PassOutput out;
    std::uint64_t arrivals = 0, admitted = 0;
    for (const fleet::RunRecord& rec : records) {
      ctx.report.gate(perfbench::check_record(rec), "gamma-sweep cell");
      out.quality += 1.0 - rec.deadline_miss_rate;
      out.goodput_mbps += rec.goodput_bps / 1e6;
      arrivals += rec.arrivals;
      admitted += rec.admitted;
    }
    const auto cells = static_cast<double>(std::max<std::size_t>(
        records.size(), 1));
    out.quality /= cells;
    out.goodput_mbps /= cells;
    out.admission_rate =
        arrivals > 0 ? static_cast<double>(admitted) / arrivals : 0.0;
    out.identity = fleet::ResultSet{records}.json();
    return out;
  }

  std::vector<fleet::JobSpec> jobs_;
  std::unique_ptr<fleet::Engine> engine_;
};

// Observation as a product feature: a traced server with forensics, its
// Chrome trace exported, re-imported and analyzed offline.
class Forensics : public Workload {
 public:
  void setup(Context& ctx) override {
    config_ = table3_config(ctx.args.seed, "feasibility-lp");
    config_.collect_trace = true;
    config_.collect_forensics = true;
    // Room for every event of any seed: a wrapped ring fails the gate.
    config_.trace_capacity = std::size_t{1} << 21;
    requests_ =
        server::poisson_arrivals(poisson(ctx.args.seed, 1200, 40.0, 100));
    server_ = std::make_unique<server::SessionServer>(config_);
  }

  PassOutput pass(Context& ctx) override {
    server::ServerOutcome o;
    double wall =
        timed(ctx, "server.run", [&] { o = server_->run(requests_); });
    ctx.report.gate(perfbench::check_outcome(o), "forensics pass");
    // The trace file is held in memory: the string moves out of the
    // export stream and into the import stream without a copy.
    std::string json;
    wall += timed(ctx, "obs.export", [&] {
      std::ostringstream out;
      obs::write_chrome_trace(out, *o.trace_events);
      if (!out) throw std::runtime_error("Chrome trace export failed");
      json = std::move(out).str();
    });
    last_export_mb_ = static_cast<double>(json.size()) / 1e6;
    obs::TraceData imported;
    wall += timed(ctx, "obs.import", [&] {
      std::istringstream in(std::move(json));
      imported = obs::import_chrome_trace(in);
    });
    obs::AnalysisReport offline;
    wall += timed(ctx, "obs.analyze", [&] {
      offline = obs::analyze(imported, config_.forensics);
    });
    ctx.report.gate(perfbench::check_forensics(*o.forensics, offline,
                                               o.trace_events->dropped()),
                    "forensics report");
    last_trace_events_ = o.trace_events->size();
    last_dropped_ = o.trace_events->dropped();
    return outcome_output(wall, o);
  }

  bool single_threaded() const override { return true; }

  void traced(Context& ctx, double deadline) override {
    server::ServerConfig bare = config_;
    bare.collect_trace = false;
    bare.collect_forensics = false;
    std::vector<double> plain, observed;
    while (plain.size() < 2 || now_s() < deadline) {
      const std::size_t before = ctx.spans->spans().size();
      {
        Scope span(ctx.recorder(), "pass");
        pass(ctx);
      }
      for (std::size_t i = before; i < ctx.spans->spans().size(); ++i) {
        const perfbench::Span& s = ctx.spans->spans()[i];
        const double d = s.end_s - s.start_s;
        if (s.name == "server.run") observed.push_back(d);
        if (s.name == "obs.export") export_s_.push_back(d);
        if (s.name == "obs.import") import_s_.push_back(d);
        if (s.name == "obs.analyze") analyze_s_.push_back(d);
      }
      plain.push_back(timed(ctx, "server.run.bare", [&] {
        const server::ServerOutcome o =
            server::SessionServer(bare).run(requests_);
        ctx.report.gate(perfbench::check_outcome(o), "bare pass");
      }));
    }
    ctx.report.set("bench.passes", static_cast<double>(observed.size()));
    report_overhead(ctx, plain, observed);

    // One observed pass with metrics for the server and sim layers.
    server::ServerConfig with_metrics = config_;
    with_metrics.collect_metrics = true;
    std::vector<server::ServerOutcome> last(1);
    const double run_s = timed(ctx, "server.run.observed", [&] {
      last[0] = server::SessionServer(with_metrics).run(requests_);
    });
    ctx.report.gate(perfbench::check_outcome(last[0]), "observed pass");
    report_outcome_layers(ctx, last, run_s);

    ctx.report.set("obs.trace_events", static_cast<double>(last_trace_events_));
    ctx.report.set("obs.trace_dropped", static_cast<double>(last_dropped_));
    ctx.report.set("obs.export_s", median(export_s_));
    ctx.report.set("obs.export_mb", last_export_mb_);
    ctx.report.set("obs.import_s", median(import_s_));
    ctx.report.set("obs.import_events_per_s",
                   static_cast<double>(last_trace_events_) / median(import_s_));
    ctx.report.set("obs.analyze_s", median(analyze_s_));
    replay(ctx, config_.planning_paths, requests_, config_.plan_options);
  }

 private:
  server::ServerConfig config_;
  std::vector<server::SessionRequest> requests_;
  std::unique_ptr<server::SessionServer> server_;
  double last_export_mb_ = 0.0;
  std::size_t last_trace_events_ = 0;
  std::uint64_t last_dropped_ = 0;
  std::vector<double> export_s_, import_s_, analyze_s_;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "admit-lp") return std::make_unique<AdmitLp>();
  if (name == "shard-flood") return std::make_unique<ShardFlood>();
  if (name == "gamma-sweep") return std::make_unique<GammaSweep>();
  if (name == "forensics") return std::make_unique<Forensics>();
  throw std::invalid_argument("unknown workload '" + name +
                              "' (admit-lp, shard-flood, gamma-sweep, "
                              "forensics)");
}

// ----------------------------------------------------------------- run ---

// Set-up takes microseconds to a millisecond, so it is repeated in bursts:
// one before the first pass and one after every pass, so that setup_s
// sees the same machine states as wall_s. setup_s is the median
// repetition. Set-up spawns no threads, so each burst runs pinned to the
// CPU of its turn.
constexpr std::size_t kSetupBurstReps = 11;
constexpr double kSetupBurstSeconds = 0.2;

void setup_burst(Context& ctx, Workload& workload, std::size_t turn,
                 std::vector<double>& samples) {
  const PinnedCpu pin(ctx.cpus, turn);
  const double start = now_s();
  for (std::size_t rep = 0;
       rep < kSetupBurstReps || now_s() - start < kSetupBurstSeconds; ++rep) {
    const double t0 = now_s();
    workload.setup(ctx);
    samples.push_back(now_s() - t0);
  }
}

// One untraced pass, pinned to the CPU of its turn when it runs on this
// thread alone.
PassOutput pass_in_turn(Context& ctx, Workload& workload, std::size_t turn) {
  if (!workload.single_threaded()) return workload.pass(ctx);
  const PinnedCpu pin(ctx.cpus, turn);
  return workload.pass(ctx);
}

void run_untraced(Context& ctx, Workload& workload) {
  std::vector<double> setup;
  std::size_t turn = 0;
  setup_burst(ctx, workload, turn, setup);
  const double deadline = now_s() + ctx.args.seconds;
  // The first pass after set-up is discarded: it pays first-touch page
  // faults and allocator growth that no later pass repeats. The traced run
  // reports its cost as bench.warmup_s / bench.cold_ratio.
  const PassOutput reference = pass_in_turn(ctx, workload, turn++);
  std::vector<double> walls;
  while (walls.size() < 3 || now_s() < deadline) {
    const PassOutput out = pass_in_turn(ctx, workload, turn);
    walls.push_back(out.wall_s);
    setup_burst(ctx, workload, turn++, setup);
    ctx.report.gate(out.identity == reference.identity
                        ? std::vector<std::string>{}
                        : std::vector<std::string>{"pass results differ from "
                                                   "the first pass"},
                    "determinism");
  }
  const double checks = static_cast<double>(ctx.report.attempted());
  Report& r = ctx.report;
  r.set("setup_s", median(setup));
  r.set("wall_s", median(walls));
  r.set("peak_rss_mb", peak_rss_mb());
  r.set("quality", reference.quality);
  r.set("admission_rate", reference.admission_rate);
  r.set("goodput_mbps", reference.goodput_mbps);
  r.set("ok_frac",
        checks > 0 ? 1.0 - static_cast<double>(r.failed()) / checks : 0.0);
  std::cout << "pass_s:";
  for (const double w : walls) std::cout << ' ' << w;
  std::cout << "\n";
  std::cout << "samples: setup_s median of " << setup.size()
            << ", wall_s median of " << walls.size() << " passes (1 warm-up "
            << "pass discarded), " << r.attempted() << " gated units\n";
}

void run_traced(Context& ctx, Workload& workload) {
  {
    Scope span(ctx.recorder(), "setup");
    workload.setup(ctx);
  }
  const double deadline = now_s() + ctx.args.seconds;
  double warmup = 0.0;
  {
    Scope span(ctx.recorder(), "warmup");
    warmup = workload.pass(ctx).wall_s;
  }
  std::vector<double> plain;
  for (int i = 0; i < 2; ++i) {
    Scope span(ctx.recorder(), "pass");
    plain.push_back(workload.pass(ctx).wall_s);
  }
  ctx.report.set("bench.warmup_s", warmup);
  ctx.report.set("bench.cold_ratio", warmup / median(plain));
  workload.traced(ctx, deadline);

  std::cout << "spans (self time = duration minus time covered by direct "
               "children):\n";
  for (const perfbench::SpanTotals& t :
       perfbench::summarize(ctx.spans->spans())) {
    std::printf("  %-28s n=%-6zu total %10.4f s  self %10.4f s\n",
                t.name.c_str(), t.count, t.total_s, t.self_s);
  }
  if (!ctx.args.spans_path.empty()) {
    std::ofstream out(ctx.args.spans_path);
    perfbench::write_spans(out, ctx.spans->spans());
    if (!out) {
      throw std::runtime_error("cannot write spans to " + ctx.args.spans_path);
    }
    std::cout << "spans written to " << ctx.args.spans_path << "\n";
  }
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      args.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      args.seed = util::parse_number<std::uint64_t>(arg, value());
    } else if (arg == "--seconds") {
      args.seconds = util::parse_positive<double>(arg, value());
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = v == "1";
    } else if (arg == "--spans") {
      args.spans_path = value();
    } else if (arg == "--commit") {
      args.commit = value();
    } else {
      throw std::invalid_argument("unknown option '" + arg + "'");
    }
  }
  if (!have_workload) {
    throw std::invalid_argument("--workload is required");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const std::vector<int> cpus = affinity_cpus();
    Context ctx{args, cpus, static_cast<unsigned>(cpus.size()),
                Report(args.trace), nullptr};
    std::unique_ptr<Workload> workload = make_workload(args.workload);
    if (args.trace) {
      ctx.spans = std::make_unique<perfbench::SpanRecorder>(args.workload);
    }
    std::cout << "fingerprint: {\"nproc\": " << ctx.nproc << ", \"cpu\": "
              << obs::json_string(cpu_model())
              << ", \"compiler\": " << obs::json_string(compiler())
              << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
              << "\", \"commit\": " << obs::json_string(args.commit) << "}\n";
    std::cout << "workload " << args.workload << " seed " << args.seed
              << (args.trace ? " traced" : " untraced") << ", measuring "
              << args.seconds << " s\n";
    if (args.trace) {
      run_traced(ctx, *workload);
    } else {
      run_untraced(ctx, *workload);
    }
    return ctx.report.print(args.trace) ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
