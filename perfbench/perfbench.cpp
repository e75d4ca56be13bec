// The repository benchmark: seeded serving and compile workloads driven
// through the public APIs at the paper's Table II overlay
// (arch::paper_config(), 12x5x20 @ 650 MHz).
//
//   ftdl_perfbench --workload serve-lenet|serve-inception|compile-table2
//                  --seed N --seconds S --trace 0|1 [--trace-out FILE]
//                  [--work-dir DIR]
//
// Run from the repository root (the spec files are read from
// examples/specs/). The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
// are the end-to-end set, with --trace 1 the per-layer set. README.md in
// this directory defines every metric. Spans are recorded here, around
// each call into a module, never inside the library; the untraced run
// records none.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cctype>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "arch/overlay_config.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "compiler/program_io.h"
#include "compiler/program_store.h"
#include "compiler/session.h"
#include "compiler/workload.h"
#include "frontend/spec_parser.h"
#include "nn/model_zoo.h"
#include "runtime/executor.h"
#include "serve/serve.h"
#include "sim/ftdl_sim.h"

namespace {

using namespace ftdl;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated percentile (p in [0, 100]) of an unsorted sample.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * double(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

/// Network name as it appears in metric names ("GoogLeNet" -> "googlenet").
std::string metric_name(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::uint64_t digest(const nn::Tensor16& t) {
  Hash64 h;
  for (int d : t.dims()) h.i32(d);
  h.bytes(t.data(), static_cast<std::size_t>(t.size()) * sizeof(std::int16_t));
  return h.digest();
}

// ---------------------------------------------------------------------------
// Tracer: spans recorded in memory around calls into the library, written
// out as Chrome trace events when the run ends. Disabled unless --trace 1.

struct SpanRecord {
  std::string name;
  std::string detail;
  double start_us = 0.0;
  double dur_us = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  int tid = 0;
};

class Tracer {
 public:
  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }

  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }

  void record(SpanRecord r) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(r));
  }

  double us_since_origin(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  /// Durations (microseconds) of every span named `name`.
  std::vector<double> durations_us(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const SpanRecord& s : spans_)
      if (s.name == name) out.push_back(s.dur_us);
    return out;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  static int thread_index() {
    static std::atomic<int> next{0};
    thread_local const int index = next.fetch_add(1);
    return index;
  }

  void write_chrome_trace(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace " + path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{"
                    "\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                    "\"detail\":\"%s\"}}",
                    i ? "," : "", s.name.c_str(), s.start_us, s.dur_us, s.tid,
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent),
                    static_cast<unsigned long long>(s.request),
                    s.detail.c_str());
      out << buf << '\n';
    }
    out << "]}\n";
  }

 private:
  std::atomic<bool> on_{false};
  Clock::time_point origin_ = Clock::now();
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

Tracer g_tracer;
thread_local std::uint64_t t_current_span = 0;

/// RAII span; a no-op (beyond one flag test) while tracing is off.
class Span {
 public:
  explicit Span(const char* name, std::string detail = {})
      : active_(g_tracer.on()) {
    if (!active_) return;
    rec_.name = name;
    rec_.detail = std::move(detail);
    rec_.id = g_tracer.next_id();
    rec_.parent = t_current_span;
    rec_.tid = Tracer::thread_index();
    t_current_span = rec_.id;
    start_ = Clock::now();
  }
  ~Span() {
    if (!active_) return;
    const Clock::time_point end = Clock::now();
    rec_.start_us = g_tracer.us_since_origin(start_);
    rec_.dur_us = std::chrono::duration<double, std::micro>(end - start_).count();
    t_current_span = rec_.parent;
    g_tracer.record(std::move(rec_));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Tags the span with the serving request it belongs to.
  void set_request(std::uint64_t id) { rec_.request = id; }

 private:
  bool active_;
  SpanRecord rec_;
  Clock::time_point start_;
};

// ---------------------------------------------------------------------------
// Result document.

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> violations;  ///< output-check / determinism failures
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;

  void e2e(const std::string& name, double v, const char* unit) {
    end_to_end[name] = {v, unit};
  }
  void layer(const std::string& name, double v, const char* unit) {
    per_layer[name] = {v, unit};
  }
  void violation(const std::string& what) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
    violations.push_back(what);
  }
};

/// Every per-layer metric name with its unit. A layer the workload leaves
/// idle reports 0 (README.md, "Per-layer metrics"); perfbench/run.py checks
/// this list against BENCHMARK.json.
std::vector<std::pair<std::string, const char*>> per_layer_catalog() {
  std::vector<std::pair<std::string, const char*>> c = {
      {"serve.submit_us_p50", "us"},
      {"serve.queue_ms_p50", "ms"},
      {"serve.queue_ms_p90", "ms"},
      {"serve.execute_ms_p50", "ms"},
      {"serve.mean_batch", "requests"},
      {"serve.rejected", "count"},
      {"serve.failed", "count"},
      {"serve.peak_queue_depth", "count"},
      {"loadgen.late_ms_p99", "ms"},
      {"loadgen.latency_p99_ms", "ms"},
      {"runtime.warmup_s", "s"},
      {"runtime.run_ms_p50", "ms"},
      {"runtime.arena_fallback_allocs", "count"},
      {"runtime.arena_high_water_mb", "MB"},
      {"compiler.compile_ms_sum", "ms"},
      {"compiler.compile_ms_max", "ms"},
      {"compiler.distinct_shapes", "count"},
      {"compiler.hits", "count"},
      {"compiler.misses", "count"},
      {"compiler.disk_hits", "count"},
      {"compiler.disk_bytes", "bytes"},
      {"compiler.disk_evictions", "count"},
      {"compiler.warm_load_us_per_program", "us"},
      {"sim.padded_maccs_per_request", "MACC"},
      {"sim.useful_ratio", "ratio"},
      {"sim.stats_ms_sum", "ms"},
      {"frontend.parse_us", "us"},
      {"trace.overhead_pct", "%"},
      {"trace.spans", "count"},
  };
  for (const char* net : {"lenet", "inception3a", "googlenet", "resnet50"}) {
    const std::string n = net;
    c.emplace_back("compiler.schedule_ms." + n, "ms");
    c.emplace_back("sim.compute_cycles." + n, "cycles");
    c.emplace_back("sim.act_stall_cycles." + n, "cycles");
    c.emplace_back("sim.psum_stall_cycles." + n, "cycles");
  }
  for (const char* l : {"c1", "c2", "f1", "f2", "f3"})
    c.emplace_back(std::string("sim.functional_maccs_per_s.lenet.") + l, "MACC/s");
  for (const char* l : {"b1x1", "b3r", "b3", "b5r", "b5", "bpp"})
    c.emplace_back(std::string("sim.functional_maccs_per_s.inception3a.") + l,
                   "MACC/s");
  for (int i = 1; i <= 5; ++i)
    c.emplace_back("sim.model_gap.worst" + std::to_string(i), "ratio");
  for (const char* net : {"googlenet", "resnet50"}) {
    c.emplace_back(std::string("table2.sim_fps.") + net, "fps");
    c.emplace_back(std::string("table2.model_fps.") + net, "fps");
  }
  return c;
}

// ---------------------------------------------------------------------------
// Compiler + simulator passes shared by every workload.

/// Frame-level stats-only simulation of a schedule: cycles count weight
/// groups, charged reload and layer repeats, exactly as the analytical
/// NetworkSchedule::total_cycles does for its model cycles.
struct SimSummary {
  std::int64_t cycles = 0;
  std::int64_t compute = 0;
  std::int64_t act_stall = 0;
  std::int64_t psum_stall = 0;
  std::int64_t valid_maccs = 0;
  std::int64_t padded_maccs = 0;
  double model_fps = 0.0;
  double sim_fps = 0.0;
  double seconds = 0.0;  ///< host time of the stats-only passes
  std::vector<std::pair<double, std::string>> layer_gaps;  ///< |model-sim|/sim

  double gap() const { return std::abs(model_fps - sim_fps) / sim_fps; }
  bool operator==(const SimSummary& o) const {
    return cycles == o.cycles && compute == o.compute &&
           act_stall == o.act_stall && psum_stall == o.psum_stall &&
           valid_maccs == o.valid_maccs && padded_maccs == o.padded_maccs &&
           model_fps == o.model_fps;
  }
};

SimSummary simulate_schedule(const compiler::NetworkSchedule& sched,
                             const arch::OverlayConfig& config) {
  SimSummary s;
  sim::SimOptions opt;
  opt.collect_trace = false;
  for (const compiler::LayerProgram& p : sched.layers) {
    const Clock::time_point t0 = Clock::now();
    sim::SimResult r;
    {
      Span span("sim.simulate_layer_stats", p.layer.name);
      r = sim::simulate_layer_stats(p, config, opt);
    }
    s.seconds += seconds_between(t0, Clock::now());
    const std::int64_t times = std::int64_t{p.weight_groups} * p.layer.repeat;
    const std::int64_t layer_cycles =
        (r.stats.cycles + p.reload_cycles_per_group) * times;
    s.cycles += layer_cycles;
    s.compute += r.stats.compute_cycles * times;
    s.act_stall += r.stats.act_stall_cycles * times;
    s.psum_stall += r.stats.psum_stall_cycles * times;
    s.valid_maccs += r.stats.valid_maccs * times;
    s.padded_maccs += r.stats.padded_maccs * times;
    const double model = double(p.total_cycles() * p.layer.repeat);
    s.layer_gaps.emplace_back(
        std::abs(model - double(layer_cycles)) / double(layer_cycles),
        sched.network_name + "/" + p.layer.name);
  }
  s.model_fps = sched.fps();
  s.sim_fps = config.clocks.clk_h_hz / double(s.cycles);
  return s;
}

/// Pool size of the compile-table2 sessions and of every warm start.
int compile_jobs() {
  return std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1, 4);
}

bool same_programs(const compiler::NetworkSchedule& a,
                   const compiler::NetworkSchedule& b) {
  if (a.layers.size() != b.layers.size()) return false;
  for (std::size_t l = 0; l < a.layers.size(); ++l) {
    if (compiler::serialize_program(a.layers[l]) !=
        compiler::serialize_program(b.layers[l]))
      return false;
  }
  return true;
}

/// One cold schedule of `nets` into an empty ProgramStore by a session of
/// `cold_jobs` threads, then kWarmStarts warm reschedules of the same nets,
/// each by a fresh session with the default pool, as a restarted process
/// would make. A serving warm start takes about 0.1 ms, so warm starts are
/// timed in groups of kWarmGroup; each group's mean is one sample.
constexpr int kWarmStarts = 20;
constexpr int kWarmGroup = 5;

struct CompileRound {
  double cold_s = 0.0;
  std::vector<double> warm_s;  ///< per group: mean warm start, all networks
  std::vector<double> cold_net_ms;  ///< per network, cold
  compiler::SessionStats cold_stats;
  compiler::SessionStats warm_stats;  ///< the last warm session
  std::vector<compiler::NetworkSchedule> schedules;  ///< cold
};

CompileRound compile_round(const std::vector<const nn::Network*>& nets,
                           std::int64_t budget, int cold_jobs,
                           const std::string& store_dir, Outcome& out) {
  namespace fs = std::filesystem;
  const arch::OverlayConfig config = arch::paper_config();
  fs::remove_all(store_dir);
  CompileRound round;
  {
    compiler::CompilerSession cold(cold_jobs);
    cold.set_store(std::make_shared<compiler::ProgramStore>(store_dir));
    for (const nn::Network* net : nets) {
      const Clock::time_point t0 = Clock::now();
      {
        Span span("compiler.schedule", net->name());
        round.schedules.push_back(cold.schedule(
            *net, config, compiler::Objective::Performance, budget));
      }
      const double s = seconds_between(t0, Clock::now());
      round.cold_s += s;
      round.cold_net_ms.push_back(s * 1e3);
    }
    round.cold_stats = cold.stats();
  }
  double group_s = 0.0;
  for (int w = 0; w < kWarmStarts; ++w) {
    compiler::CompilerSession warm(compile_jobs());
    warm.set_store(std::make_shared<compiler::ProgramStore>(store_dir));
    const Clock::time_point t0 = Clock::now();
    std::vector<compiler::NetworkSchedule> again;
    for (const nn::Network* net : nets) {
      Span span("compiler.warm_schedule", net->name());
      again.push_back(
          warm.schedule(*net, config, compiler::Objective::Performance, budget));
    }
    group_s += seconds_between(t0, Clock::now());
    if ((w + 1) % kWarmGroup == 0) {
      round.warm_s.push_back(group_s / kWarmGroup);
      group_s = 0.0;
    }
    for (std::size_t i = 0; i < nets.size(); ++i) {
      const compiler::NetworkSchedule& first = round.schedules[i];
      if (!same_programs(again[i], first))
        out.violation(nets[i]->name() + ": warm-start programs differ from cold");
    }
    const compiler::SessionStats st = warm.stats();
    if (st.disk_evictions != 0)
      out.violation("program store evicted " + std::to_string(st.disk_evictions) +
                    " entries during warm start");
    round.warm_stats = st;
  }
  fs::remove_all(store_dir);
  return round;
}

/// Traced only: compiles every distinct layer shape of `nets` in a fresh,
/// storeless session, one span per shape, so the search cost is attributed
/// per shape (sum = work, max = critical path of the parallel schedule).
void compile_shapes(const std::vector<const nn::Network*>& nets,
                    std::int64_t budget, int jobs, Outcome& out) {
  const arch::OverlayConfig config = arch::paper_config();
  std::vector<const nn::Layer*> shapes;
  std::set<std::uint64_t> seen;
  for (const nn::Network* net : nets) {
    for (const nn::Layer& layer : net->layers()) {
      if (!layer.on_overlay()) continue;
      const std::uint64_t key = compiler::program_cache_key(
          compiler::Workload::from_layer(layer), config,
          compiler::Objective::Performance, budget);
      if (seen.insert(key).second) shapes.push_back(&layer);
    }
  }
  compiler::CompilerSession session(jobs);
  std::vector<double> ms(shapes.size());
  session.pool().parallel_for(shapes.size(), [&](std::size_t i) {
    const Clock::time_point t0 = Clock::now();
    {
      Span span("compiler.compile_shape", shapes[i]->name);
      session.compile(*shapes[i], config, compiler::Objective::Performance,
                      budget);
    }
    ms[i] = seconds_between(t0, Clock::now()) * 1e3;
  });
  double sum = 0.0;
  for (double v : ms) sum += v;
  out.layer("compiler.compile_ms_sum", sum, "ms");
  out.layer("compiler.compile_ms_max",
            ms.empty() ? 0.0 : *std::max_element(ms.begin(), ms.end()), "ms");
  out.layer("compiler.distinct_shapes", double(shapes.size()), "count");
}

void report_compile_layers(const CompileRound& r,
                           const std::vector<const nn::Network*>& nets,
                           const std::vector<std::vector<double>>& net_ms,
                           Outcome& out) {
  for (std::size_t i = 0; i < nets.size(); ++i)
    out.layer("compiler.schedule_ms." + metric_name(nets[i]->name()), median(net_ms[i]), "ms");
  out.layer("compiler.hits", double(r.cold_stats.hits + r.warm_stats.hits), "count");
  out.layer("compiler.misses", double(r.cold_stats.misses + r.warm_stats.misses),
            "count");
  out.layer("compiler.disk_hits", double(r.warm_stats.disk_hits), "count");
  out.layer("compiler.disk_bytes", double(r.cold_stats.disk_bytes), "bytes");
  out.layer("compiler.disk_evictions",
            double(r.cold_stats.disk_evictions + r.warm_stats.disk_evictions),
            "count");
  out.layer("compiler.warm_load_us_per_program",
            median(r.warm_s) * 1e6 /
                double(std::max<std::int64_t>(1, r.warm_stats.disk_hits)),
            "us");
}

void report_sim_layers(const std::vector<SimSummary>& sims,
                       const std::vector<const nn::Network*>& nets,
                       Outcome& out) {
  std::int64_t valid = 0, padded = 0;
  double stats_s = 0.0;
  std::vector<std::pair<double, std::string>> gaps;
  for (std::size_t i = 0; i < sims.size(); ++i) {
    const SimSummary& s = sims[i];
    const std::string n = metric_name(nets[i]->name());
    out.layer("sim.compute_cycles." + n, double(s.compute), "cycles");
    out.layer("sim.act_stall_cycles." + n, double(s.act_stall), "cycles");
    out.layer("sim.psum_stall_cycles." + n, double(s.psum_stall), "cycles");
    valid += s.valid_maccs;
    padded += s.padded_maccs;
    stats_s += s.seconds;
    gaps.insert(gaps.end(), s.layer_gaps.begin(), s.layer_gaps.end());
  }
  out.layer("sim.padded_maccs_per_request", double(padded), "MACC");
  out.layer("sim.useful_ratio", double(valid) / double(padded), "ratio");
  out.layer("sim.stats_ms_sum", stats_s * 1e3, "ms");
  std::sort(gaps.begin(), gaps.end(), std::greater<>());
  for (std::size_t i = 0; i < 5 && i < gaps.size(); ++i) {
    out.layer("sim.model_gap.worst" + std::to_string(i + 1), gaps[i].first, "ratio");
    std::fprintf(stderr, "perfbench: model gap #%zu %s %.4f\n", i + 1,
                 gaps[i].second.c_str(), gaps[i].first);
  }
}

/// End-to-end Table II figures over the workload's networks.
void report_sim_e2e(const std::vector<SimSummary>& sims, Outcome& out) {
  std::int64_t cycles = 0;
  double log_fps = 0.0, gap = 0.0;
  for (const SimSummary& s : sims) {
    cycles += s.cycles;
    log_fps += std::log(s.sim_fps);
    gap = std::max(gap, s.gap());
  }
  out.e2e("sim_cycles_per_request", double(cycles), "cycles");
  out.e2e("sim_fps", std::exp(log_fps / double(sims.size())), "fps");
  out.e2e("model_gap", gap, "ratio");
}

// ---------------------------------------------------------------------------
// Serving workloads.

/// Set-up + timed phase pairs per serving run, and cold/warm compile rounds
/// per phase; every serving timing pools or takes the median over these.
constexpr int kPhases = 10;
constexpr int kCompileRounds = 2;

struct ServeWorkload {
  const char* spec;
  bool open_loop;
  double rate_rps;  ///< open loop: mean Poisson arrival rate
  int clients;      ///< closed loop: client threads
  int inputs;       ///< distinct seeded inputs, cycled by the load
  double window_s;  ///< latency window length; 0 = the whole run
  serve::ServerOptions server;
};

serve::ServerOptions serving_options(std::size_t queue_depth) {
  serve::ServerOptions o;
  o.workers = 2;
  o.max_batch = 4;
  o.batch_timeout_us = 200;
  o.queue_depth = queue_depth;
  o.exec.path = runtime::OverlayPath::CycleSim;
  o.exec.config = arch::paper_config();
  o.exec.sim_jobs = 1;
  return o;
}

ServeWorkload serve_lenet() {
  return {.spec = "examples/specs/lenet.ftdl",
          .open_loop = true,
          .rate_rps = 500.0,
          .clients = 0,
          .inputs = 64,
          .window_s = 1.25,
          .server = serving_options(1024)};
}

ServeWorkload serve_inception() {
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  return {.spec = "examples/specs/inception_module.ftdl",
          .open_loop = false,
          .rate_rps = 0.0,
          .clients = std::max(3, std::min(4, nproc)),
          .inputs = 8,
          .window_s = 0.0,
          .server = serving_options(64)};
}

nn::Tensor16 make_input(const nn::Network& net, Rng& rng) {
  const nn::Layer& first = net.layers().front();
  nn::Tensor16 t = first.kind == nn::LayerKind::MatMul
                       ? nn::Tensor16({static_cast<int>(first.mm_m),
                                       static_cast<int>(first.mm_p)})
                       : nn::Tensor16({first.in_c, first.in_h, first.in_w});
  t.fill_random(rng);
  return t;
}

struct Expected {
  std::vector<std::uint64_t> digest;  ///< per input, from serial run_network
  std::int64_t cycles = 0;            ///< per inference (input-independent)
};

/// Per-request observations of one load phase.
struct Load {
  std::int64_t sent = 0;
  std::int64_t rejected = 0;
  std::int64_t failed = 0;   ///< future carried an exception
  std::int64_t wrong = 0;    ///< output or cycle count differs from serial
  std::int64_t never = 0;    ///< not completed by the drain deadline
  std::int64_t ok = 0;
  std::vector<double> latency_ms, queue_ms, execute_ms, late_ms;
  std::vector<double> sent_s;  ///< per latency sample: send time in the phase

  void merge(const Load& o) {
    sent += o.sent; rejected += o.rejected; failed += o.failed;
    wrong += o.wrong; never += o.never; ok += o.ok;
    for (auto [dst, src] : {std::pair{&latency_ms, &o.latency_ms},
                            {&sent_s, &o.sent_s},
                            {&queue_ms, &o.queue_ms},
                            {&execute_ms, &o.execute_ms},
                            {&late_ms, &o.late_ms}})
      dst->insert(dst->end(), src->begin(), src->end());
  }
  std::int64_t bad() const { return rejected + failed + wrong + never; }
};

/// Checks one completed request against the serial reference and records
/// its server-side timings. Returns false on a mismatch.
bool check_result(const serve::InferenceResult& r, std::size_t input,
                  const Expected& exp, Load& load) {
  if (digest(r.output) != exp.digest[input] || r.total_sim_cycles != exp.cycles) {
    ++load.wrong;
    return false;
  }
  ++load.ok;
  load.queue_ms.push_back(r.queue_us / 1e3);
  load.execute_ms.push_back(r.execute_us / 1e3);
  return true;
}

/// How long after a phase's end its last requests may take to complete
/// before they count as never completed.
constexpr auto kDrainLimit = std::chrono::seconds(60);

Clock::time_point after(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

/// Open loop: one sender submits seeded Poisson arrivals; a collector waits
/// for the futures. Latency runs from each request's scheduled send time.
Load open_loop(serve::Server& server, const std::vector<nn::Tensor16>& inputs,
               const Expected& exp, double rate, double seconds,
               std::uint64_t seed) {
  struct Pending {
    std::size_t input;
    double due_s;     ///< scheduled send time in the phase
    double start_ms;  ///< submit start minus scheduled time
    std::future<serve::InferenceResult> result;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> pending;
  bool done_sending = false;
  Load load;
  const Clock::time_point start = Clock::now();
  const Clock::time_point drain_deadline = after(start, seconds) + kDrainLimit;

  std::thread collector([&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !pending.empty() || done_sending; });
        if (pending.empty()) return;
        p = std::move(pending.front());
        pending.pop_front();
      }
      if (p.result.wait_until(drain_deadline) != std::future_status::ready) {
        ++load.never;
        continue;
      }
      try {
        const serve::InferenceResult r = p.result.get();
        if (check_result(r, p.input, exp, load)) {
          load.latency_ms.push_back(p.start_ms + r.latency_us / 1e3);
          load.sent_s.push_back(p.due_s);
        }
      } catch (const std::exception&) {
        ++load.failed;
      }
    }
  });

  Rng rng(seed);
  double due_s = 0.0;
  std::int64_t sent = 0, rejected = 0;
  std::vector<double> late_ms;
  for (;;) {
    due_s += -std::log(1.0 - rng.uniform01()) / rate;
    if (due_s >= seconds) break;
    const std::size_t input = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(inputs.size()) - 1));
    const Clock::time_point due = after(start, due_s);
    std::this_thread::sleep_until(due);
    const Clock::time_point now = Clock::now();
    const double start_ms = seconds_between(due, now) * 1e3;
    late_ms.push_back(start_ms);
    ++sent;
    serve::Submission s;
    {
      Span span("serve.submit");
      s = server.submit(inputs[input]);
      span.set_request(s.request_id);
    }
    if (!s.accepted) {
      ++rejected;
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      pending.push_back({input, due_s, start_ms, std::move(s.result)});
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done_sending = true;
  }
  cv.notify_one();
  collector.join();
  load.sent = sent;
  load.rejected = rejected;
  load.late_ms = std::move(late_ms);
  return load;
}

/// Closed loop: `clients` threads each submit, wait for the reply, check it
/// and submit again until `seconds` have passed.
Load closed_loop(serve::Server& server, const std::vector<nn::Tensor16>& inputs,
                 const Expected& exp, int clients, double seconds,
                 std::uint64_t seed) {
  std::vector<Load> per(static_cast<std::size_t>(clients));
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop = after(start, seconds);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Load& load = per[static_cast<std::size_t>(c)];
      Rng rng(seed + 7919 * std::uint64_t(c + 1));
      while (Clock::now() < stop) {
        const std::size_t input = static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(inputs.size()) - 1));
        ++load.sent;
        const Clock::time_point t0 = Clock::now();
        serve::Submission s;
        {
          Span span("serve.submit");
          s = server.submit(inputs[input]);
          span.set_request(s.request_id);
        }
        if (!s.accepted) {
          ++load.rejected;
          continue;
        }
        if (s.result.wait_until(stop + kDrainLimit) != std::future_status::ready) {
          ++load.never;
          return;
        }
        try {
          const serve::InferenceResult r = s.result.get();
          if (check_result(r, input, exp, load)) {
            load.latency_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
            load.sent_s.push_back(seconds_between(start, t0));
          }
        } catch (const std::exception&) {
          ++load.failed;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Load load;
  for (const Load& l : per) load.merge(l);
  return load;
}

/// Submits rounds of one request per worker, spaced past the batch timeout
/// so idle workers each take one, until every worker index has appeared in
/// a completed, correct result.
void warm_up(serve::Server& server, const std::vector<nn::Tensor16>& inputs,
             const Expected& exp, Outcome& out) {
  const serve::ServerOptions& opt = server.options();
  std::vector<bool> seen(static_cast<std::size_t>(opt.workers), false);
  const Clock::time_point limit = Clock::now() + std::chrono::seconds(120);
  std::size_t next = 0;
  Load scratch;
  while (std::count(seen.begin(), seen.end(), true) < opt.workers) {
    if (Clock::now() > limit) throw std::runtime_error("warm-up did not reach every worker");
    std::vector<std::pair<std::size_t, std::future<serve::InferenceResult>>> futs;
    for (int w = 0; w < opt.workers; ++w) {
      const std::size_t input = next++ % inputs.size();
      serve::Submission s = server.submit(inputs[input]);
      if (!s.accepted) throw std::runtime_error("warm-up request rejected");
      futs.emplace_back(input, std::move(s.result));
      std::this_thread::sleep_for(
          std::chrono::microseconds(opt.batch_timeout_us + 1000));
    }
    for (auto& [input, fut] : futs) {
      const serve::InferenceResult r = fut.get();
      if (!check_result(r, input, exp, scratch))
        out.violation("warm-up output differs from the serial reference");
      seen[static_cast<std::size_t>(r.worker)] = true;
    }
  }
}

struct ServingSetup {
  std::unique_ptr<serve::Server> server;
  double seconds = 0.0;
  double parse_s = 0.0;
};

/// Process-start-to-ready, with the compiler cache emptied first so every
/// set-up compiles as a fresh process would: parse, weights, Server, and
/// one completed warm-up request per worker.
ServingSetup set_up(const ServeWorkload& wl, std::uint64_t weight_seed,
                    const std::vector<nn::Tensor16>& inputs,
                    const Expected& exp, Outcome& out) {
  compiler::CompilerSession::global().clear_cache();
  ServingSetup s;
  const Clock::time_point t0 = Clock::now();
  std::optional<nn::Network> net;
  {
    Span span("frontend.parse", wl.spec);
    net.emplace(frontend::parse_network_file(wl.spec));
  }
  s.parse_s = seconds_between(t0, Clock::now());
  runtime::WeightStore weights = runtime::WeightStore::random_for(*net, weight_seed);
  {
    Span span("serve.construct");
    s.server = std::make_unique<serve::Server>(std::move(*net), std::move(weights),
                                               wl.server);
  }
  {
    Span span("serve.warm_up");
    warm_up(*s.server, inputs, exp, out);
  }
  s.seconds = seconds_between(t0, Clock::now());
  return s;
}

/// Traced only: one ExecContext outside the server (cold compile cache),
/// then single-threaded runs, so serve.execute_ms can be compared with the
/// bare runtime.
void runtime_probe(const nn::Network& net, const runtime::WeightStore& weights,
                   const runtime::ExecOptions& exec,
                   const std::vector<nn::Tensor16>& inputs, double budget_s,
                   Outcome& out) {
  compiler::CompilerSession::global().clear_cache();
  runtime::ExecOptions eopt = exec;
  eopt.collect_runs = false;
  const Clock::time_point t0 = Clock::now();
  std::optional<runtime::ExecContext> ctx;
  {
    Span span("runtime.construct");
    ctx.emplace(net, weights, eopt);
  }
  out.layer("runtime.warmup_s", seconds_between(t0, Clock::now()), "s");
  std::vector<double> ms;
  const Clock::time_point until = after(Clock::now(), budget_s);
  for (std::size_t i = 0; ms.size() < 5 || Clock::now() < until; ++i) {
    const Clock::time_point r0 = Clock::now();
    {
      Span span("runtime.run");
      ctx->run(inputs[i % inputs.size()]);
    }
    ms.push_back(seconds_between(r0, Clock::now()) * 1e3);
  }
  out.layer("runtime.run_ms_p50", median(ms), "ms");
  const ArenaStats a = ctx->arena_stats();
  out.layer("runtime.arena_fallback_allocs", double(a.fallback_allocs), "count");
  out.layer("runtime.arena_high_water_mb", double(a.high_water_bytes) / (1 << 20), "MB");
}

/// Traced only: functional simulate_layer (jobs = 1) on every overlay layer
/// of the served network, reported as padded MACCs per host second.
void functional_sim_probe(const compiler::NetworkSchedule& sched,
                          const runtime::WeightStore& weights, Rng& rng,
                          double budget_s, Outcome& out) {
  const arch::OverlayConfig config = arch::paper_config();
  sim::SimOptions opt;
  opt.collect_trace = false;
  opt.jobs = 1;
  const double per_layer_s = budget_s / double(sched.layers.size());
  for (const compiler::LayerProgram& p : sched.layers) {
    if (p.weight_groups != 1)
      throw std::runtime_error(p.layer.name + ": functional probe expects one weight group");
    const nn::Layer& l = p.layer;
    nn::Tensor16 input = l.kind == nn::LayerKind::MatMul
                             ? nn::Tensor16({static_cast<int>(l.mm_m),
                                             static_cast<int>(l.mm_p)})
                             : nn::Tensor16({l.in_c, l.in_h, l.in_w});
    input.fill_random(rng);
    const nn::Tensor16& w = weights.get(l);
    std::vector<double> secs;
    std::int64_t padded = 0;
    const Clock::time_point until = after(Clock::now(), per_layer_s);
    while (secs.size() < 3 || Clock::now() < until) {
      const Clock::time_point t0 = Clock::now();
      {
        Span span("sim.simulate_layer", l.name);
        padded = sim::simulate_layer(p, config, w, input, opt).stats.padded_maccs;
      }
      secs.push_back(seconds_between(t0, Clock::now()));
    }
    out.layer("sim.functional_maccs_per_s." + metric_name(sched.network_name) + "." + l.name,
              double(padded) / median(secs), "MACC/s");
  }
}

void run_serving(const ServeWorkload& wl, std::uint64_t seed, double seconds,
                 bool trace, const std::string& work_dir, Outcome& out) {
  const std::uint64_t weight_seed = seed * 1000003ull + 17;
  const nn::Network net = frontend::parse_network_file(wl.spec);
  const runtime::WeightStore weights = runtime::WeightStore::random_for(net, weight_seed);
  Rng rng(seed);
  std::vector<nn::Tensor16> inputs;
  for (int i = 0; i < wl.inputs; ++i) inputs.push_back(make_input(net, rng));

  // Output check reference: serial one-shot runs, before any server exists.
  Expected exp;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const runtime::ExecResult r =
        runtime::run_network(net, inputs[i], weights, wl.server.exec);
    exp.digest.push_back(digest(r.output));
    if (i == 0) exp.cycles = r.total_sim_cycles;
    if (r.total_sim_cycles != exp.cycles)
      out.violation("simulated cycles depend on the input");
  }

  const std::vector<const nn::Network*> nets = {&net};
  const std::int64_t budget = wl.server.exec.search_budget_per_layer;
  const std::string store = work_dir + "/store-" + std::to_string(getpid());
  std::vector<double> cold_s, warm_s;
  std::vector<std::vector<double>> net_ms(1);
  std::optional<CompileRound> last;
  std::optional<SimSummary> first_sim;

  // Each phase sets the server up from scratch (timed for setup_s), runs
  // its share of the compile rounds (cold schedule of the served network
  // into an empty store, warm reschedule from it), then drives the server
  // for its share of the run. Host speed on a shared box varies on a scale
  // of a second, so every timing below pools or takes the median of samples
  // (phases, latency windows, compile rounds) spread across the whole run. The
  // traced run traces every other phase and compares the two halves for
  // the tracing overhead. Index 1 of each pair holds the traced phases.
  std::vector<double> setup_s, parse_s;
  std::int64_t done_requests[2] = {0, 0};
  double done_s[2] = {0.0, 0.0};
  std::map<std::int64_t, std::vector<double>> latency_windows[2];
  Load all, traced;
  serve::ServerStats st;  // summed over traced phases
  for (int k = 0; k < kPhases; ++k) {
    const bool traced_phase = trace && k % 2 == 1;
    g_tracer.set_on(traced_phase);
    ServingSetup ready = set_up(wl, weight_seed, inputs, exp, out);
    setup_s.push_back(ready.seconds);
    parse_s.push_back(ready.parse_s);
    // One-thread cold sessions: the runtime's warm-up compiles a served
    // network layer by layer on one thread, and one thread is less exposed
    // than a pool to a single slow core of a shared host.
    for (int r = 0; r < kCompileRounds; ++r) {
      last = compile_round(nets, budget, 1, store, out);
      cold_s.push_back(last->cold_s);
      warm_s.insert(warm_s.end(), last->warm_s.begin(), last->warm_s.end());
      net_ms[0].push_back(last->cold_net_ms[0]);
      // Determinism gate: every round schedules and simulates alike.
      const SimSummary sim = simulate_schedule(last->schedules[0], arch::paper_config());
      if (!first_sim) {
        first_sim = sim;
      } else if (!(sim == *first_sim)) {
        out.violation("simulated or model cycles changed between compile rounds");
      }
    }
    const double secs = seconds / kPhases;
    const std::uint64_t phase_seed = seed * 7919 + std::uint64_t(k);
    const Load load =
        wl.open_loop
            ? open_loop(*ready.server, inputs, exp, wl.rate_rps, secs, phase_seed)
            : closed_loop(*ready.server, inputs, exp, wl.clients, secs, phase_seed);
    g_tracer.set_on(false);
    ready.server->stop();
    const int t = traced_phase ? 1 : 0;
    // Throughput: correct requests completed within the phase's `secs` (so
    // the drain of the last ones does not dilute it) over the time to the
    // last of those completions.
    std::int64_t done = 0;
    double last_s = 0.0;
    for (std::size_t i = 0; i < load.latency_ms.size(); ++i) {
      const double completed_s = load.sent_s[i] + load.latency_ms[i] / 1e3;
      if (completed_s > secs) continue;
      ++done;
      last_s = std::max(last_s, completed_s);
    }
    done_requests[t] += done;
    done_s[t] += last_s;
    // Latency samples go to windows by send time, on a clock that runs
    // only during timed phases.
    for (std::size_t i = 0; i < load.latency_ms.size(); ++i) {
      const double at = double(k) * secs + load.sent_s[i];
      const auto w = wl.window_s > 0 ? static_cast<std::int64_t>(at / wl.window_s) : 0;
      latency_windows[t][w].push_back(load.latency_ms[i]);
    }
    std::fprintf(stderr,
                 "perfbench: phase %d%s: %lld sent, %.2f req/s, p50 %.3f ms, "
                 "set-up %.3f s, compile %.3f s, warm start %.4f ms\n",
                 k, traced_phase ? " (traced)" : "", static_cast<long long>(load.sent),
                 double(done) / last_s, percentile(load.latency_ms, 50), ready.seconds,
                 cold_s.back(), median(last->warm_s) * 1e3);
    all.merge(load);
    if (traced_phase) {
      traced.merge(load);
      const serve::ServerStats s = ready.server->stats();
      st.rejected_queue_full += s.rejected_queue_full;
      st.rejected_stopped += s.rejected_stopped;
      st.rejected_bad_request += s.rejected_bad_request;
      st.failed += s.failed;
      st.batches += s.batches;
      st.batched_requests += s.batched_requests;
      st.peak_queue_depth = std::max(st.peak_queue_depth, s.peak_queue_depth);
    }
  }

  // Determinism gate: the stats-only frame cycles must be the served ones.
  const SimSummary& sim = *first_sim;
  if (sim.cycles != exp.cycles)
    out.violation("stats-only cycles " + std::to_string(sim.cycles) +
                  " != served cycles " + std::to_string(exp.cycles));

  // Each latency percentile: per window, then the median over windows.
  std::vector<double> p50[2], p90[2], p99[2];
  for (int t = 0; t < 2; ++t) {
    for (const auto& [w, lat] : latency_windows[t]) {
      p50[t].push_back(percentile(lat, 50));
      p90[t].push_back(percentile(lat, 90));
      p99[t].push_back(percentile(lat, 99));
    }
  }

  out.attempted = all.sent;
  out.failed = all.bad();
  if (out.failed != 0)
    out.violation(std::to_string(out.failed) +
                  " requests rejected, failed, wrong or never completed");

  if (!trace) {
    std::size_t samples = 0;
    for (const auto& [w, lat] : latency_windows[0]) samples += lat.size();
    std::fprintf(stderr,
                 "perfbench: latency p99 %.4f ms (not gated); %zu latency samples "
                 "in %zu windows\n",
                 median(p99[0]), samples, latency_windows[0].size());
    out.e2e("throughput_rps", double(done_requests[0]) / done_s[0], "1/s");
    out.e2e("latency_p50_ms", median(p50[0]), "ms");
    out.e2e("latency_p90_ms", median(p90[0]), "ms");
    out.e2e("success_ratio", double(all.ok) / double(std::max<std::int64_t>(1, all.sent)),
            "ratio");
    out.e2e("setup_s", median(setup_s), "s");
    out.e2e("compile_s", median(cold_s), "s");
    out.e2e("warm_start_ms", median(warm_s) * 1e3, "ms");
    report_sim_e2e({sim}, out);
    return;
  }

  out.layer("serve.submit_us_p50", median(g_tracer.durations_us("serve.submit")), "us");
  out.layer("serve.queue_ms_p50", percentile(traced.queue_ms, 50), "ms");
  out.layer("serve.queue_ms_p90", percentile(traced.queue_ms, 90), "ms");
  out.layer("serve.execute_ms_p50", percentile(traced.execute_ms, 50), "ms");
  out.layer("serve.mean_batch", st.mean_batch_size(), "requests");
  out.layer("serve.rejected", double(st.rejected()), "count");
  out.layer("serve.failed", double(st.failed), "count");
  out.layer("serve.peak_queue_depth", double(st.peak_queue_depth), "count");
  out.layer("loadgen.late_ms_p99", percentile(traced.late_ms, 99), "ms");
  // The latency tail is reported here, ungated: on a shared host its
  // run-to-run spread exceeds any bound BENCHMARK.json may set. Taken from
  // the untraced phases of this run.
  out.layer("loadgen.latency_p99_ms", median(p99[0]), "ms");
  out.layer("frontend.parse_us", median(parse_s) * 1e6, "us");
  // Overhead on the figure each workload is judged by: p50 latency for the
  // open loop (its throughput is the offered rate), time per request for
  // the closed loop.
  const double overhead =
      wl.open_loop ? median(p50[1]) / median(p50[0])
                   : (done_requests[0] / done_s[0]) / (done_requests[1] / done_s[1]);
  out.layer("trace.overhead_pct", 100.0 * (overhead - 1.0), "%");

  g_tracer.set_on(true);
  runtime_probe(net, weights, wl.server.exec, inputs, wl.open_loop ? 0.5 : 2.0, out);
  functional_sim_probe(last->schedules[0], weights, rng, wl.open_loop ? 0.5 : 1.5, out);
  compile_shapes(nets, budget, 1, out);
  g_tracer.set_on(false);
  report_compile_layers(*last, nets, net_ms, out);
  report_sim_layers({sim}, nets, out);
}

// ---------------------------------------------------------------------------
// compile-table2: Table II networks at the paper's search budget.

constexpr std::int64_t kTable2Budget = 60'000;

void run_compile_table2(double seconds, bool trace, const std::string& work_dir,
                        Outcome& out) {
  // Set-up is building the zoo networks: a build takes about 0.1 ms, so
  // each job is preceded by kBuilds timed builds and setup_s is the median
  // over all of them, spread across the run.
  constexpr int kBuilds = 30;
  std::vector<double> setup_s;
  auto build_zoo = [&setup_s] {
    std::optional<std::pair<nn::Network, nn::Network>> zoo;
    for (int b = 0; b < kBuilds; ++b) {
      zoo.reset();
      const Clock::time_point t0 = Clock::now();
      zoo.emplace(nn::googlenet(), nn::resnet50());
      setup_s.push_back(seconds_between(t0, Clock::now()));
    }
    return std::move(*zoo);
  };
  const auto [googlenet, resnet] = build_zoo();
  const std::vector<const nn::Network*> nets = {&googlenet, &resnet};
  const std::string store = work_dir + "/store-" + std::to_string(getpid());

  // One job = what reproducing Table II from scratch costs: cold schedule of
  // both networks into an empty store, warm reschedules from it, and the
  // stats-only simulation of every scheduled layer. Jobs repeat until the
  // run's time is up; the traced run traces every other job.
  std::vector<double> job_s[2], cold_s, warm_s;
  std::vector<std::vector<double>> net_ms(nets.size());
  std::vector<SimSummary> first;
  std::optional<CompileRound> last;
  const Clock::time_point start = Clock::now();
  for (int k = 0; k < 2 || seconds_between(start, Clock::now()) < seconds; ++k) {
    const bool traced_job = trace && k % 2 == 1;
    const std::size_t violations_before = out.violations.size();
    if (k > 0) build_zoo();
    g_tracer.set_on(traced_job);
    const Clock::time_point t0 = Clock::now();
    CompileRound r = compile_round(nets, kTable2Budget, compile_jobs(), store, out);
    std::vector<SimSummary> sims;
    for (const compiler::NetworkSchedule& sched : r.schedules)
      sims.push_back(simulate_schedule(sched, arch::paper_config()));
    job_s[traced_job ? 1 : 0].push_back(seconds_between(t0, Clock::now()));
    g_tracer.set_on(false);
    std::fprintf(stderr, "perfbench: job %d%s: %.3f s (cold %.3f s, warm %.3f ms)\n",
                 k, traced_job ? " (traced)" : "", job_s[traced_job ? 1 : 0].back(),
                 r.cold_s, median(r.warm_s) * 1e3);
    if (first.empty()) {
      first = sims;
    } else if (!(sims[0] == first[0]) || !(sims[1] == first[1])) {
      out.violation("simulated or model cycles changed between jobs");
    }
    ++out.attempted;
    if (out.violations.size() > violations_before) ++out.failed;
    if (traced_job == trace) {
      cold_s.push_back(r.cold_s);
      warm_s.insert(warm_s.end(), r.warm_s.begin(), r.warm_s.end());
      for (std::size_t i = 0; i < nets.size(); ++i) net_ms[i].push_back(r.cold_net_ms[i]);
      last = std::move(r);
    }
  }
  const std::vector<SimSummary>& sims = first;

  if (!trace) {
    out.e2e("throughput_rps", double(job_s[0].size()) /
                                  std::accumulate(job_s[0].begin(), job_s[0].end(), 0.0),
            "1/s");
    out.e2e("latency_p50_ms", percentile(job_s[0], 50) * 1e3, "ms");
    out.e2e("latency_p90_ms", percentile(job_s[0], 90) * 1e3, "ms");
    out.e2e("success_ratio",
            double(out.attempted - out.failed) / double(out.attempted), "ratio");
    out.e2e("setup_s", median(setup_s), "s");
    out.e2e("compile_s", median(cold_s), "s");
    out.e2e("warm_start_ms", median(warm_s) * 1e3, "ms");
    report_sim_e2e(sims, out);
    return;
  }

  g_tracer.set_on(true);
  compile_shapes(nets, kTable2Budget, compile_jobs(), out);
  g_tracer.set_on(false);
  report_compile_layers(*last, nets, net_ms, out);
  report_sim_layers(sims, nets, out);
  for (std::size_t i = 0; i < nets.size(); ++i) {
    const std::string n = metric_name(nets[i]->name());
    out.layer("table2.sim_fps." + n, sims[i].sim_fps, "fps");
    out.layer("table2.model_fps." + n, sims[i].model_fps, "fps");
  }
  out.layer("trace.overhead_pct",
            100.0 * (median(job_s[1]) / median(job_s[0]) - 1.0), "%");
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string work_dir = ".bench_build/perfbench-work";
};

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "ftdl_perfbench: %s\nusage: ftdl_perfbench --workload "
               "serve-lenet|serve-inception|compile-table2 --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE] [--work-dir DIR]\n",
               msg.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") a.workload = v;
      else if (flag == "--seed") a.seed = std::stoull(v);
      else if (flag == "--seconds") a.seconds = std::stod(v);
      else if (flag == "--trace") a.trace = std::stoi(v) != 0;
      else if (flag == "--trace-out") a.trace_out = v;
      else if (flag == "--work-dir") a.work_dir = v;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

void print_result(const Outcome& out, bool trace) {
  std::map<std::string, Metric> metrics = trace ? out.per_layer : out.end_to_end;
  if (trace) {
    metrics["trace.spans"] = {double(g_tracer.size()), "count"};
    for (const auto& [name, unit] : per_layer_catalog()) {
      if (!metrics.contains(name)) metrics[name] = {0.0, unit};
    }
  } else {
    metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  }
  std::string json = "{\"correct\": ";
  json += out.violations.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    std::filesystem::create_directories(args.work_dir);
    Outcome out;
    if (args.workload == "serve-lenet") {
      run_serving(serve_lenet(), args.seed, args.seconds, args.trace,
                  args.work_dir, out);
    } else if (args.workload == "serve-inception") {
      run_serving(serve_inception(), args.seed, args.seconds, args.trace,
                  args.work_dir, out);
    } else if (args.workload == "compile-table2") {
      run_compile_table2(args.seconds, args.trace, args.work_dir, out);
    } else {
      usage("unknown workload " + args.workload);
    }
    if (args.trace && !args.trace_out.empty())
      g_tracer.write_chrome_trace(args.trace_out);
    print_result(out, args.trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ftdl_perfbench: error: %s\n", e.what());
    return 1;
  }
  return 0;
}
