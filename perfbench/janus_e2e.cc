// End-to-end training benchmark for the JANUS engine.
//
// A single-threaded, closed-loop training loop calls
// models::ModelSession::Step() on a JanusEngine in its default
// configuration apart from the fixed settings of JanusOptions(); the next
// step starts only when the previous one returned.
// Every layer is measured from outside: the harness times its own calls
// into public functions (session construction, Step(), a direct
// ExecutionPlan::Build and Executor::Run replay of the resident plan, an
// imperative reference session) and reads the counters the modules
// already publish (engine stats and histograms, BufferPool, the
// specialization and fused-kernel caches).
//
//   janus_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <chrome-trace.json>]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs an untraced
// and a traced half and reports the per-layer split, its reconciliation
// against step wall time and the tracing overhead. The last line of
// standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sched.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/fused_kernel_cache.h"
#include "cache/specialization_cache.h"
#include "core/compiled_graph.h"
#include "core/host_state.h"
#include "models/zoo.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/executor.h"
#include "runtime/plan.h"
#include "tensor/buffer_pool.h"

namespace {

using janus::EngineOptions;
using janus::models::ModelSession;
using janus::models::ModelSpec;

// ---------------------------------------------------------------------------
// Workloads and fixed settings
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  const char* model;  // zoo model
  bool lr_decay;      // learning rate changes every step
  std::int64_t cache_bytes;
  // Sessions set up per run. setup_s is their median and their work counts
  // must agree; cheap set-ups are noisy, so they get more repeats.
  int setups;
  const char* why;
};

constexpr std::int64_t kDefaultCacheBytes = 256LL << 20;

constexpr Workload kWorkloads[] = {
    {"lstm_steady", "LSTM", false, kDefaultCacheBytes, 21,
     "steady LSTM training: ~690-op DAG plan with fused regions, no "
     "regeneration; DAG executor, fusion, kernels and buffer pool do the "
     "work, cache traffic is read-only hits"},
    {"treelstm_steady", "TreeLSTM", false, kDefaultCacheBytes, 21,
     "TreeLSTM over seeded trees: ~1,000 tiny ops per step through the "
     "tagged-token executor and recursive InvokeOp plans; per-call "
     "dispatch and frontend glue dominate"},
    {"lstm_lr_decay", "LSTM", true, 2LL << 20, 7,
     "LSTM with a learning rate that decays every step: every step is a new "
     "cache variant, so every step regenerates, builds plans, inserts into "
     "the cache and evicts (the cache's write path)"},
};

// Steps run inside every set-up (at least; see WarmUp): profiling runs (the
// engine's profile_threshold is 3), the first generation and plan build,
// and a few cached runs.
constexpr int kWarmupSteps = 10;
// Steps after setup whose work counts are compared across sessions.
constexpr int kWorkCheckSteps = 10;
// Timed steps compared bit for bit against the imperative reference; the
// trained variables and peak_rss_mb are read after this many timed steps,
// so they measure a fixed amount of work however fast it ran.
constexpr int kReferenceSteps = 300;
// `correct` requires every compared loss and trained variable to be close
// to the imperative reference's (|a - b| <= kRtol * |b| + kAtol): that
// rejects wrong results while tolerating float32 reassociation. The
// oracle's error_share is stricter and counts every step whose loss is
// not bit-identical.
constexpr double kRtol = 1e-3;
constexpr double kAtol = 1e-6;
// steps_per_s is the median throughput of windows this long.
constexpr double kWindowSeconds = 0.5;
// Initial learning rate and per-step decay of lstm_lr_decay.
constexpr double kDecayLr0 = 0.2;
constexpr double kDecayPerStep = 0.9995;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Nearest-rank percentile of `sorted` (ascending).
double PercentileOf(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

// step_tail_ms: the highest percentile of the ladder {50, 90, 99} with at
// least ten samples beyond it, taken in consecutive chunks of kTailChunk
// steps (a short last chunk joins the one before) and reported as the
// median over chunks, so one burst of host contention moves one chunk and
// not the whole run. The ladder is coarse on purpose: a finer one would
// switch percentiles between runs of the same workload.
constexpr std::size_t kTailChunk = 1000;

struct Tail {
  double percentile = 50.0;
  std::int64_t beyond = 0;  // per chunk
  std::size_t chunks = 0;
  double value = 0.0;
};

Tail ChunkTail(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  Tail tail;
  for (const double p : {50.0, 90.0, 99.0}) {
    const double beyond = std::floor(n * (100.0 - p) / 100.0 + 1e-9);
    if (beyond < 10.0) break;
    tail.percentile = p;
    tail.beyond = static_cast<std::int64_t>(beyond);
  }
  tail.value = PercentileOf(values, tail.percentile);
  return tail;
}

Tail TailOf(const std::vector<double>& values) {
  const std::size_t chunks = std::max<std::size_t>(1, values.size() / kTailChunk);
  std::vector<double> per_chunk;
  Tail tail;  // percentile and samples beyond of the first (smallest) chunk
  for (std::size_t c = 0; c < chunks; ++c) {
    const auto first = values.begin() + static_cast<std::ptrdiff_t>(c * kTailChunk);
    const auto last = c + 1 == chunks
                          ? values.end()
                          : first + static_cast<std::ptrdiff_t>(kTailChunk);
    const Tail chunk = ChunkTail(std::vector<double>(first, last));
    if (c == 0) tail = chunk;
    per_chunk.push_back(chunk.value);
  }
  tail.chunks = chunks;
  tail.value = Median(per_chunk);
  return tail;
}

// Distance in float32 ulps between two losses (ModelSession::Step widens
// the float32 loss tensor to double).
std::int64_t UlpDistance(double a, double b) {
  const auto key = [](float f) {
    const auto bits = static_cast<std::int64_t>(std::bit_cast<std::int32_t>(f));
    return bits < 0 ? std::numeric_limits<std::int32_t>::min() - bits : bits;
  };
  const float fa = static_cast<float>(a);
  const float fb = static_cast<float>(b);
  if (std::isnan(fa) || std::isnan(fb)) return std::numeric_limits<std::int64_t>::max();
  return std::llabs(key(fa) - key(fb));
}

bool Close(double actual, double expected) {
  return std::fabs(actual - expected) <= kRtol * std::fabs(expected) + kAtol;
}

bool BitIdentical(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Delta of an obs::Histogram between two instants.
struct HistSnap {
  std::int64_t count = 0;
  std::int64_t sum = 0;
  std::array<std::int64_t, janus::obs::Histogram::kNumBuckets> buckets{};

  static HistSnap Of(const janus::obs::Histogram* h) {
    HistSnap s;
    if (h == nullptr) return s;
    s.count = h->Count();
    s.sum = h->Sum();
    for (int b = 0; b < janus::obs::Histogram::kNumBuckets; ++b) {
      s.buckets[b] = h->BucketCount(b);
    }
    return s;
  }

  // this + sign * other
  HistSnap Combine(const HistSnap& other, std::int64_t sign) const {
    HistSnap d;
    d.count = count + sign * other.count;
    d.sum = sum + sign * other.sum;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      d.buckets[b] = buckets[b] + sign * other.buckets[b];
    }
    return d;
  }
  HistSnap Minus(const HistSnap& other) const { return Combine(other, -1); }

  // The median: exact (the sum over the count) for one or two samples,
  // where interpolating inside a log2 bucket would read the bucket's
  // bound; otherwise Percentile(50).
  double Median() const {
    if (count <= 2) {
      return Ratio(static_cast<double>(sum), static_cast<double>(count));
    }
    return Percentile(50);
  }

  // Percentile interpolated inside the log2 bucket, as obs::Histogram does.
  double Percentile(double p) const {
    if (count <= 0) return 0.0;
    const auto rank = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(
               std::ceil(p / 100.0 * static_cast<double>(count))));
    std::int64_t cumulative = 0;
    for (int b = 0; b < janus::obs::Histogram::kNumBuckets; ++b) {
      const std::int64_t in_bucket = buckets[b];
      if (in_bucket <= 0) continue;
      if (cumulative + in_bucket < rank) {
        cumulative += in_bucket;
        continue;
      }
      const double lower =
          static_cast<double>(janus::obs::Histogram::BucketLowerBound(b));
      const double upper =
          static_cast<double>(janus::obs::Histogram::BucketUpperBound(b));
      const double fraction =
          in_bucket > 1 ? static_cast<double>(rank - cumulative - 1) /
                              static_cast<double>(in_bucket - 1)
                        : 1.0;
      return lower + fraction * (upper - lower);
    }
    return 0.0;
  }
};

// ---------------------------------------------------------------------------
// Counters the modules publish, read at one instant
// ---------------------------------------------------------------------------

std::int64_t GlobalCounter(const char* name) {
  const janus::obs::Counter* c =
      janus::obs::MetricsRegistry::Global().FindCounter(name);
  return c == nullptr ? 0 : c->Value();
}

// Process-wide counters: the buffer pool, the specialization cache and the
// fused-kernel cache. The traced run's replays also move them, so their
// share is measured around each replay and taken out.
struct ProcessCounters {
  std::int64_t allocations = 0, pool_hits = 0, fresh_bytes = 0,
               in_place_reuses = 0;
  std::int64_t cache_lookups = 0, cache_hits = 0, cache_insertions = 0,
               cache_evictions = 0, cache_validation_skips = 0;
  HistSnap cache_lookup_ns;
  std::int64_t fused_hits = 0, fused_lookups = 0;

  static ProcessCounters Read() {
    ProcessCounters c;
    const janus::BufferPool::Stats pool = janus::BufferPool::Global().Snapshot();
    c.allocations = pool.allocations;
    c.pool_hits = pool.pool_hits;
    c.fresh_bytes = pool.bytes_allocated;
    c.in_place_reuses = pool.in_place_reuses;
    c.cache_lookups = GlobalCounter("cache.lookups");
    c.cache_hits = GlobalCounter("cache.hits");
    c.cache_insertions = GlobalCounter("cache.insertions");
    c.cache_evictions = GlobalCounter("cache.evictions");
    c.cache_validation_skips = GlobalCounter("cache.validation_skips");
    c.cache_lookup_ns = HistSnap::Of(
        janus::obs::MetricsRegistry::Global().FindHistogram("cache.lookup_ns"));
    const janus::cache::FusedKernelCache::Stats fused =
        janus::cache::FusedKernelCache::Global().Snapshot();
    c.fused_hits = fused.hits;
    c.fused_lookups = fused.hits + fused.misses;
    return c;
  }

  // this + sign * other
  ProcessCounters Combine(const ProcessCounters& o, std::int64_t sign) const {
    ProcessCounters d;
    d.allocations = allocations + sign * o.allocations;
    d.pool_hits = pool_hits + sign * o.pool_hits;
    d.fresh_bytes = fresh_bytes + sign * o.fresh_bytes;
    d.in_place_reuses = in_place_reuses + sign * o.in_place_reuses;
    d.cache_lookups = cache_lookups + sign * o.cache_lookups;
    d.cache_hits = cache_hits + sign * o.cache_hits;
    d.cache_insertions = cache_insertions + sign * o.cache_insertions;
    d.cache_evictions = cache_evictions + sign * o.cache_evictions;
    d.cache_validation_skips =
        cache_validation_skips + sign * o.cache_validation_skips;
    d.cache_lookup_ns = cache_lookup_ns.Combine(o.cache_lookup_ns, sign);
    d.fused_hits = fused_hits + sign * o.fused_hits;
    d.fused_lookups = fused_lookups + sign * o.fused_lookups;
    return d;
  }
  ProcessCounters Minus(const ProcessCounters& o) const {
    return Combine(o, -1);
  }
  ProcessCounters Plus(const ProcessCounters& o) const { return Combine(o, 1); }
};

// The engine's own counters and phase histograms plus the process-wide
// ones, read at one instant.
struct Readings {
  janus::EngineStats engine;
  HistSnap validation_ns, graph_execution_ns, generation_ns, imperative_ns;
  ProcessCounters process;

  static Readings Read(ModelSession& session) {
    Readings l;
    janus::JanusEngine& engine = session.engine();
    l.engine = engine.stats();
    const janus::obs::MetricsRegistry& m = engine.metrics();
    l.validation_ns = HistSnap::Of(m.FindHistogram("engine.validation_ns"));
    l.graph_execution_ns =
        HistSnap::Of(m.FindHistogram("engine.graph_execution_ns"));
    l.generation_ns = HistSnap::Of(m.FindHistogram("engine.generation_ns"));
    l.imperative_ns = HistSnap::Of(m.FindHistogram("engine.imperative_ns"));
    l.process = ProcessCounters::Read();
    return l;
  }
};

// Work done by one session since it was constructed; these counts must
// repeat exactly for one seed (the work-equality check). Engine counters
// start at zero with the session; the cache counters are process-wide, so
// they are taken relative to their values at construction.
struct WorkCounts {
  std::int64_t generations = 0;
  std::int64_t graph_ops = 0;
  std::int64_t fused_ops = 0;
  std::int64_t insertions = 0;
  std::int64_t evictions = 0;

  bool operator==(const WorkCounts&) const = default;
  std::string ToString() const {
    return "generations=" + std::to_string(generations) +
           " graph_ops=" + std::to_string(graph_ops) +
           " fused_ops=" + std::to_string(fused_ops) +
           " cache_insertions=" + std::to_string(insertions) +
           " cache_evictions=" + std::to_string(evictions);
  }
};

WorkCounts WorkSince(ModelSession& session, const WorkCounts& cache_base) {
  const janus::EngineStats s = session.engine().stats();
  return {s.graph_generations, s.graph_ops_executed, s.fused_ops,
          GlobalCounter("cache.insertions") - cache_base.insertions,
          GlobalCounter("cache.evictions") - cache_base.evictions};
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// Every model variable's elements, widened to double: the trained
// parameters, compared against the imperative reference's.
using VariableValues = std::map<std::string, std::vector<double>>;

VariableValues ReadVariables(const janus::VariableStore& store) {
  VariableValues values;
  for (const std::string& name : store.Names()) {
    const janus::Tensor& t = store.Read(name);
    std::vector<double>& out = values[name];
    out.reserve(static_cast<std::size_t>(t.num_elements()));
    for (std::int64_t i = 0; i < t.num_elements(); ++i) {
      out.push_back(t.ElementAsDouble(i));
    }
  }
  return values;
}

// Elements that are not bit-identical and elements that are not even
// Close(); all elements count as far when the variable sets differ.
struct VariableDiff {
  std::int64_t elements = 0;
  std::int64_t differing = 0;
  std::int64_t far = 0;
};

VariableDiff CompareVariables(const VariableValues& actual,
                              const VariableValues& expected) {
  VariableDiff diff;
  for (const auto& [name, want] : expected) {
    diff.elements += static_cast<std::int64_t>(want.size());
  }
  const auto mismatch = [&diff] {
    return VariableDiff{diff.elements, diff.elements, diff.elements};
  };
  if (actual.size() != expected.size()) return mismatch();
  for (const auto& [name, want] : expected) {
    const auto it = actual.find(name);
    if (it == actual.end() || it->second.size() != want.size()) {
      return mismatch();
    }
    for (std::size_t i = 0; i < want.size(); ++i) {
      diff.differing += BitIdentical(it->second[i], want[i]) ? 0 : 1;
      diff.far += Close(it->second[i], want[i]) ? 0 : 1;
    }
  }
  return diff;
}

// ---------------------------------------------------------------------------
// Harness spans (recorded through the program's tracer, traced run only)
// ---------------------------------------------------------------------------

void RecordSpan(const char* name, std::int64_t start_ns, std::int64_t index) {
  janus::obs::Trace::RecordComplete(name, "bench", start_ns,
                                    janus::obs::Trace::NowNs() - start_ns,
                                    "index", index);
}

// Feed time, accumulated by the wrapped ModelSpec::feed while set.
bool g_time_feeds = false;
double g_feed_seconds = 0.0;

// ---------------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------------

double DecayedLr(std::int64_t step) {
  return kDecayLr0 * std::pow(kDecayPerStep, static_cast<double>(step));
}

ModelSpec MakeSpec(const Workload& workload) {
  ModelSpec spec = janus::models::FindModel(workload.model);
  const bool lr_decay = workload.lr_decay;
  // A benchmark-set global passed to optimize(), as learning-rate
  // schedules do.
  if (lr_decay) spec.iteration = "loss = optimize(loss_fn, bench_lr)\n";
  spec.feed = [feed = spec.feed, lr_decay](janus::minipy::Interpreter& interp,
                                           janus::Rng& rng,
                                           std::int64_t step) {
    const Clock::time_point start = Clock::now();
    if (feed) feed(interp, rng, step);
    if (lr_decay) interp.SetGlobal("bench_lr", DecayedLr(step));
    if (g_time_feeds) g_feed_seconds += SecondsSince(start);
  };
  return spec;
}

// The executor pool is pinned to zero threads: the calling thread runs
// every op. On a 4-vCPU VM the parallel DAG executor (pool of 3 + caller)
// ran lstm_steady at 217-404 steps/s over five interleaved runs against
// 450-494 steps/s sequentially, so its timings mostly measured host
// scheduling of the pool threads.
EngineOptions JanusOptions() {
  EngineOptions options;
  options.eager_dispatch_penalty_ns = 0;
  options.parallel_execution = false;
  return options;
}

EngineOptions ImperativeOptions() {
  EngineOptions options = EngineOptions::ImperativePreset();
  options.eager_dispatch_penalty_ns = 0;
  return options;
}

// One closed-loop step; NaN when the step raised.
double TimedStep(ModelSession& session, double* seconds, std::int64_t* raised) {
  const Clock::time_point start = Clock::now();
  double loss = std::numeric_limits<double>::quiet_NaN();
  try {
    loss = session.Step();
  } catch (const std::exception& error) {
    ++*raised;
    std::fprintf(stderr, "step %lld raised: %s\n",
                 static_cast<long long>(session.steps_done()), error.what());
  }
  *seconds = SecondsSince(start);
  return loss;
}

// Steps run inside setup: a fixed count, and on lstm_lr_decay as many more
// as it takes for the cache to evict, so eviction is running when timing
// starts. The count is a function of the seed alone.
void WarmUp(const Workload& workload, ModelSession& session,
            std::vector<double>* losses, std::int64_t* raised) {
  const std::int64_t evictions_before = GlobalCounter("cache.evictions");
  double seconds = 0.0;
  for (int step = 0;; ++step) {
    const bool evicting =
        GlobalCounter("cache.evictions") > evictions_before;
    if (step >= kWarmupSteps && (!workload.lr_decay || evicting)) break;
    if (step > 100000) throw std::runtime_error("the cache never evicted");
    losses->push_back(TimedStep(session, &seconds, raised));
  }
}

// ---------------------------------------------------------------------------
// Direct replay of the resident plan (traced run only)
// ---------------------------------------------------------------------------

// Host-state access for replays: reads come from the live interpreter
// heap, writes are dropped so the replay leaves the program untouched.
class ReadOnlyHostState : public janus::StateInterface {
 public:
  explicit ReadOnlyHostState(janus::minipy::Interpreter* interp)
      : inner_(interp) {}
  janus::Tensor GetAttr(std::int64_t id, const std::string& name) override {
    return inner_.GetAttr(id, name);
  }
  void SetAttr(std::int64_t, const std::string&,
               const janus::Tensor&) override {}
  janus::Tensor GetSubscr(std::int64_t id, std::int64_t index) override {
    return inner_.GetSubscr(id, index);
  }
  void SetSubscr(std::int64_t, std::int64_t, const janus::Tensor&) override {}

 private:
  janus::InterpreterHostState inner_;
};

struct ReplaySample {
  double run_us = 0.0;
  std::int64_t ops = 0;
  double build_ms = 0.0;
  std::int64_t plan_nodes = 0;
};

std::int64_t PlanNodes(const janus::ExecutionPlan& plan) {
  return static_cast<std::int64_t>(
      plan.strategy() == janus::ExecutionPlan::Strategy::kDag
          ? plan.dag_nodes().size()
          : plan.dyn_nodes().size());
}

// Replays the resident training unit the last step ran (the one compiled
// for `lr`; any training unit when lr < 0): an Executor::Run of its
// resident plan on the live feeds, sequential like the engine's, against
// copies of the variables and RNG, then a fresh ExecutionPlan::Build of
// its graph and every library function, as CompiledGraph::BuildPlans does
// at generation.
bool Replay(ModelSession& session, double lr, std::int64_t index,
            ReplaySample* sample) {
  std::vector<const janus::CompiledGraph*> units;
  session.engine().ForEachCompiledUnit(
      [&](const std::string&, const janus::CompiledGraph& unit) {
        if (unit.training && unit.plan != nullptr &&
            (lr < 0.0 || unit.learning_rate == lr)) {
          units.push_back(&unit);
        }
      });
  janus::minipy::Interpreter& interp = session.interpreter();
  for (const janus::CompiledGraph* unit : units) {
    std::map<std::string, janus::Tensor> feeds;
    janus::VariableStore variables = *interp.variables();
    janus::Rng rng = *interp.rng();
    ReadOnlyHostState host(&interp);
    janus::Executor executor(unit->library.get(), &variables, &host, &rng);
    janus::RunMetrics metrics;
    std::int64_t start_ns = 0;
    try {
      for (const janus::CaptureSpec& capture : unit->captures) {
        feeds[capture.placeholder_name] =
            janus::EncodeValueAsTensor(capture.ref.Resolve({}));
      }
      start_ns = janus::obs::Trace::NowNs();
      executor.Run(*unit->plan, feeds, &metrics);
    } catch (const std::exception&) {
      continue;  // another specialization of the unit; try the next one
    }
    sample->run_us =
        static_cast<double>(janus::obs::Trace::NowNs() - start_ns) / 1e3;
    sample->ops = metrics.ops_executed;
    RecordSpan("bench.executor_run_replay", start_ns, index);

    start_ns = janus::obs::Trace::NowNs();
    const janus::PlanOptions plan_options{.enable_fusion = true};
    sample->plan_nodes = PlanNodes(*janus::ExecutionPlan::Build(
        unit->graph, unit->fetches, plan_options));
    if (unit->library != nullptr) {
      for (const std::string& name : unit->library->FunctionNames()) {
        const janus::GraphFunction& fn = unit->library->Lookup(name);
        sample->plan_nodes += PlanNodes(
            *janus::ExecutionPlan::Build(fn.graph, fn.results, plan_options));
      }
    }
    sample->build_ms =
        static_cast<double>(janus::obs::Trace::NowNs() - start_ns) / 1e6;
    RecordSpan("bench.plan_build_replay", start_ns, index);
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// CPU rotation
// ---------------------------------------------------------------------------

// Moves the calling thread round-robin over the CPUs it may run on. The
// harness steps to the next CPU before every set-up and every
// kWindowSeconds of the timed phase, so each run samples every CPU alike:
// on a 4-vCPU VM one vCPU ran lstm_steady ~20% slower than the other three
// in three pinned rounds, and where the scheduler left the thread decided
// the run. The original affinity is restored on destruction.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void PrintMetricLines(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-32s %14.6f %-5s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

void PrintResult(bool correct, std::int64_t attempted, std::int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

std::string Fixed(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  return buffer;
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0 &&
         (args->trace == 0 || args->trace == 1);
}

// The timed steps of one phase.
struct Phase {
  std::vector<double> step_seconds;
  std::vector<ReplaySample> replays;
  double feed_seconds = 0.0;

  double WallSeconds() const {
    double total = 0.0;
    for (const double s : step_seconds) total += s;
    return total;
  }
  // Throughput of consecutive windows of kWindowSeconds of step time; their
  // median is robust to a burst of host contention.
  std::vector<double> WindowRates() const {
    std::vector<double> rates;
    double elapsed = 0.0;
    int steps = 0;
    for (const double s : step_seconds) {
      elapsed += s;
      ++steps;
      if (elapsed >= kWindowSeconds) {
        rates.push_back(steps / elapsed);
        elapsed = 0.0;
        steps = 0;
      }
    }
    if (rates.empty()) {
      rates.push_back(Ratio(static_cast<double>(step_seconds.size()),
                            WallSeconds()));
    }
    return rates;
  }
};

// Per-layer split of the traced phase, from counter deltas and replays.
// `replay_counters` is the process-wide counter movement the replays
// caused, excluded here.
std::vector<Metric> PerLayerMetrics(const Phase& untraced, const Phase& traced,
                                    const Readings& before, const Readings& after,
                                    const ProcessCounters& replay_counters,
                                    const std::vector<double>& reference_ms,
                                    double cache_resident_mb) {
  const double steps = static_cast<double>(traced.step_seconds.size());
  const double wall_ms = traced.WallSeconds() * 1e3;
  const HistSnap validation = after.validation_ns.Minus(before.validation_ns);
  const HistSnap graph_exec =
      after.graph_execution_ns.Minus(before.graph_execution_ns);
  const HistSnap generation = after.generation_ns.Minus(before.generation_ns);
  const HistSnap imperative = after.imperative_ns.Minus(before.imperative_ns);
  // Per-call costs over the whole timed session, set-up included: the
  // steady workloads generate only during set-up and validate only on
  // audits, so the traced half alone would see few or none.
  const HistSnap& session_validation = after.validation_ns;
  const HistSnap& session_generation = after.generation_ns;
  const ProcessCounters process =
      after.process.Minus(before.process).Minus(replay_counters);
  const HistSnap& lookup = process.cache_lookup_ns;
  const auto ms = [](const HistSnap& h) { return static_cast<double>(h.sum) / 1e6; };
  const double engine_ms =
      ms(validation) + ms(graph_exec) + ms(generation) + ms(imperative);
  const double glue_ms = wall_ms - engine_ms;
  const double feed_ms = traced.feed_seconds * 1e3;
  const double unattributed_ms = glue_ms - feed_ms;

  const auto delta = [](std::int64_t a, std::int64_t b) {
    return static_cast<double>(a - b);
  };
  const janus::EngineStats& e0 = before.engine;
  const janus::EngineStats& e1 = after.engine;
  const double graph_runs = delta(e1.graph_executions, e0.graph_executions);
  const double imperative_runs =
      delta(e1.imperative_executions, e0.imperative_executions);
  const double graph_ops = delta(e1.graph_ops_executed, e0.graph_ops_executed);
  const auto allocations = static_cast<double>(process.allocations);
  const auto fused_lookups = static_cast<double>(process.fused_lookups);
  const auto count = [](std::int64_t n) { return static_cast<double>(n); };

  std::vector<double> run_us, build_ms, nodes, ns_per_op;
  for (const ReplaySample& r : traced.replays) {
    run_us.push_back(r.run_us);
    build_ms.push_back(r.build_ms);
    nodes.push_back(static_cast<double>(r.plan_nodes));
    ns_per_op.push_back(Ratio(r.run_us * 1e3, static_cast<double>(r.ops)));
  }
  const double replay_us = Median(run_us);
  const double engine_run_us = Ratio(ms(graph_exec) * 1e3, graph_runs);
  const std::string replays =
      "(median of " + std::to_string(traced.replays.size()) + " replays)";
  const std::string per_step = "(" + Fixed(steps, 0) + " traced steps)";
  const double untraced_rate = Median(untraced.WindowRates());
  const double traced_rate = Median(traced.WindowRates());

  return {
      {"frontend.glue_ms_per_step", Ratio(glue_ms, steps), "ms",
       "step wall minus engine validation/execution/generation/imperative"},
      {"frontend.feed_ms_per_step", Ratio(feed_ms, steps), "ms",
       "ModelSpec::feed, timed by the harness"},
      {"frontend.imperative_step_ms", Median(reference_ms), "ms",
       "median step of the imperative reference session"},
      {"core.validate_us_per_call",
       Ratio(ms(session_validation) * 1e3,
             static_cast<double>(session_validation.count)),
       "us",
       "(" + std::to_string(session_validation.count) +
           " validations in the session)"},
      {"core.engine_tax_us_per_call", engine_run_us - replay_us, "us",
       "engine graph execution per call minus direct Executor::Run replay"},
      {"core.generations", delta(e1.graph_generations, e0.graph_generations),
       "count", per_step},
      {"core.generation_ms_p50", session_generation.Median() / 1e6,
       "ms",
       "(generator + autodiff + opt + plan build; " +
           std::to_string(session_generation.count) +
           " generations in the session)"},
      {"core.generation_share", Ratio(ms(generation), wall_ms), "ratio",
       "of step wall time"},
      {"core.graph_call_share", Ratio(graph_runs, graph_runs + imperative_runs),
       "ratio", "graph runs over unit calls"},
      {"core.fallbacks", delta(e1.fallbacks, e0.fallbacks), "count", per_step},
      {"core.assumption_failures",
       delta(e1.assumption_failures, e0.assumption_failures), "count",
       per_step},
      {"runtime.plan_build_ms", Median(build_ms), "ms",
       "direct ExecutionPlan::Build of graph + functions " + replays},
      {"runtime.plan_nodes", Median(nodes), "count", replays},
      {"runtime.plan_run_us", replay_us, "us",
       "direct Executor::Run of the resident plan " + replays},
      {"runtime.ns_per_op", Median(ns_per_op), "ns", replays},
      {"runtime.ops_per_step", Ratio(graph_ops, steps), "count", per_step},
      {"runtime.fused_op_share",
       Ratio(delta(e1.fused_ops, e0.fused_ops), graph_ops), "ratio",
       "fused member ops over graph ops executed"},
      {"tensor.allocs_per_step", Ratio(allocations, steps), "count",
       "BufferPool allocations"},
      {"tensor.pool_hit_rate",
       Ratio(count(process.pool_hits), allocations),
       "ratio", ""},
      {"tensor.fresh_bytes_per_step",
       Ratio(count(process.fresh_bytes), steps),
       "B", "fresh system allocations"},
      {"tensor.in_place_per_step",
       Ratio(count(process.in_place_reuses), steps),
       "count", ""},
      {"cache.hit_rate",
       Ratio(count(process.cache_hits), count(process.cache_lookups)),
       "ratio", "specialization-cache lookups that hit"},
      {"cache.validation_skip_share",
       Ratio(count(process.cache_validation_skips), graph_runs),
       "ratio", "graph runs whose entry guards were skipped (promoted)"},
      {"cache.lookup_ns_p50", lookup.Median(), "ns",
       "(" + std::to_string(lookup.count) + " lookups)"},
      {"cache.insertions", count(process.cache_insertions), "count", per_step},
      {"cache.evictions", count(process.cache_evictions), "count", per_step},
      {"cache.resident_mb", cache_resident_mb, "MB", "the cache's own estimate"},
      {"cache.fused_kernel_hit_rate",
       Ratio(count(process.fused_hits), fused_lookups),
       "ratio", "(" + Fixed(fused_lookups, 0) + " fused-kernel lookups)"},
      {"recon.unattributed_ms_per_step", Ratio(unattributed_ms, steps), "ms",
       "step wall minus feed, validation, execution, generation, imperative"},
      {"recon.unattributed_share", Ratio(unattributed_ms, wall_ms), "ratio",
       "of step wall time"},
      {"trace.steps_per_s_untraced", untraced_rate, "1/s",
       "(median of windows)"},
      {"trace.steps_per_s_traced", traced_rate, "1/s", "(median of windows)"},
      {"trace.overhead_share", Ratio(untraced_rate, traced_rate) - 1.0,
       "ratio", "untraced over traced steps/s, minus 1"},
  };
}

void PrintReconciliation(const Phase& traced, const Readings& before,
                         const Readings& after) {
  const double steps = static_cast<double>(traced.step_seconds.size());
  const double wall = traced.WallSeconds() * 1e3;
  const auto ms = [](const HistSnap& a, const HistSnap& b) {
    return static_cast<double>(a.sum - b.sum) / 1e6;
  };
  const std::pair<const char*, double> parts[] = {
      {"feed (harness)", traced.feed_seconds * 1e3},
      {"validation", ms(after.validation_ns, before.validation_ns)},
      {"graph execution", ms(after.graph_execution_ns, before.graph_execution_ns)},
      {"generation", ms(after.generation_ns, before.generation_ns)},
      {"imperative", ms(after.imperative_ns, before.imperative_ns)},
  };
  double attributed = 0.0;
  std::printf("reconciliation over %.0f traced steps (ms/step, share of "
              "step wall):\n",
              steps);
  for (const auto& [name, total] : parts) {
    attributed += total;
    std::printf("  %-18s %10.4f  %6.2f%%\n", name, Ratio(total, steps),
                100.0 * Ratio(total, wall));
  }
  std::printf("  %-18s %10.4f  %6.2f%%\n", "unattributed",
              Ratio(wall - attributed, steps),
              100.0 * Ratio(wall - attributed, wall));
  std::printf("  %-18s %10.4f  100.00%%\n", "step wall", Ratio(wall, steps));
}

int Run(const Workload& workload, const Args& args) {
  // The budget must be set before the process-wide cache is first used.
  setenv("JANUS_CACHE_BYTES", std::to_string(workload.cache_bytes).c_str(), 1);
  const ModelSpec spec = MakeSpec(workload);
  const EngineOptions options = JanusOptions();
  const bool traced_run = args.trace == 1;

  std::printf("workload %s  model %s  seed %llu  seconds %g  trace %d\n",
              workload.name, workload.model,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace);
  std::printf("why      %s\n", workload.why);
  std::printf("settings executor_pool_threads=0 (parallel_execution=0; "
              "nproc %u) cache_bytes=%lld eager_dispatch_penalty_ns=%lld "
              "build=release items_per_step=%g (%s)\n",
              std::thread::hardware_concurrency(),
              static_cast<long long>(workload.cache_bytes),
              static_cast<long long>(options.eager_dispatch_penalty_ns),
              spec.items_per_iteration, spec.unit.c_str());
  std::fflush(stdout);

  // ---- set-up of the timed session ----
  // The timed session is the process's first, as a user's is; the other
  // set-ups run after the timed phase, because each torn-down session
  // leaves memory behind that peak_rss_mb would otherwise count.
  std::vector<double> setup_seconds;
  std::vector<std::int64_t> setup_start_ns;
  std::vector<WorkCounts> work;
  std::vector<double> losses;  // the timed session's warm-up + timed steps
  std::int64_t raised = 0;
  CpuRotation rotation;
  WorkCounts cache_base;
  const auto set_up = [&](std::vector<double>* warmup_losses) {
    rotation.Next();
    cache_base.insertions = GlobalCounter("cache.insertions");
    cache_base.evictions = GlobalCounter("cache.evictions");
    setup_start_ns.push_back(janus::obs::Trace::NowNs());
    const Clock::time_point start = Clock::now();
    auto fresh = std::make_unique<ModelSession>(spec, options, args.seed);
    WarmUp(workload, *fresh, warmup_losses, &raised);
    setup_seconds.push_back(SecondsSince(start));
    return fresh;
  };
  std::unique_ptr<ModelSession> session = set_up(&losses);
  const auto warmup_steps = static_cast<std::int64_t>(losses.size());

  // ---- timed phases ----
  // trace 0: one untraced phase. trace 1: an untraced half, then a traced
  // half whose counter deltas and replays give the per-layer split.
  const int num_phases = traced_run ? 2 : 1;
  std::array<Phase, 2> phases;
  Readings traced_before, traced_after;
  ProcessCounters replay_moved;
  std::int64_t timed_steps = 0;
  VariableValues trained;  // after the last compared step
  double peak_rss_mb = 0.0;
  for (int p = 0; p < num_phases; ++p) {
    const bool traced = p == 1;
    Phase& phase = phases[p];
    if (traced) {
      janus::obs::Trace::Enable();
      g_time_feeds = true;
      g_feed_seconds = 0.0;
      traced_before = Readings::Read(*session);
    }
    const Clock::time_point start = Clock::now();
    double next_rotation = 0.0;
    while (SecondsSince(start) < args.seconds / num_phases) {
      if (SecondsSince(start) >= next_rotation) {
        rotation.Next();
        next_rotation += kWindowSeconds;
      }
      const std::int64_t span_start = janus::obs::Trace::NowNs();
      double seconds = 0.0;
      losses.push_back(TimedStep(*session, &seconds, &raised));
      phase.step_seconds.push_back(seconds);
      ++timed_steps;
      if (timed_steps == kWorkCheckSteps) {
        work.push_back(WorkSince(*session, cache_base));
      }
      if (timed_steps == kReferenceSteps) {
        trained = ReadVariables(*session->interpreter().variables());
        peak_rss_mb = PeakRssMb();
      }
      if (!traced) continue;
      RecordSpan("bench.step", span_start, timed_steps);
      // Replays run between steps, outside the step spans: after every
      // step of lstm_lr_decay (each has its own unit), after every 4th
      // step of the steady workloads.
      if (workload.lr_decay || timed_steps % 4 == 0) {
        const double lr =
            workload.lr_decay ? DecayedLr(session->steps_done() - 1) : -1.0;
        ReplaySample sample;
        const ProcessCounters replay_start = ProcessCounters::Read();
        if (Replay(*session, lr, timed_steps, &sample)) {
          phase.replays.push_back(sample);
        }
        replay_moved = replay_moved.Plus(
            ProcessCounters::Read().Minus(replay_start));
      }
    }
    if (traced) {
      traced_after = Readings::Read(*session);
      phase.feed_seconds = g_feed_seconds;
      g_time_feeds = false;
    }
  }
  if (timed_steps < kReferenceSteps) {
    trained = ReadVariables(*session->interpreter().variables());
    peak_rss_mb = PeakRssMb();
  }
  const double cache_resident_mb =
      static_cast<double>(janus::cache::SpecializationCache::Global()
                              .TakeSnapshot()
                              .bytes_in_use) /
      (1024.0 * 1024.0);
  session.reset();

  // ---- the other set-ups, for setup_s and the work-equality check ----
  for (int k = 1; k < workload.setups; ++k) {
    std::vector<double> warmup_losses;
    session = set_up(&warmup_losses);
    double seconds = 0.0;
    for (int i = 0; i < kWorkCheckSteps; ++i) {
      TimedStep(*session, &seconds, &raised);
    }
    work.push_back(WorkSince(*session, cache_base));
    session.reset();
  }
  for (std::size_t k = 0; k < setup_seconds.size(); ++k) {
    janus::obs::Trace::RecordComplete(
        "bench.setup", "bench", setup_start_ns[k],
        static_cast<std::int64_t>(setup_seconds[k] * 1e9), "index",
        static_cast<std::int64_t>(k));
  }

  // ---- correctness oracle: an imperative session of the same seed ----
  const std::int64_t compared =
      std::min<std::int64_t>(timed_steps, kReferenceSteps);
  std::vector<bool> differs(static_cast<std::size_t>(timed_steps), false);
  std::int64_t max_ulps = 0;
  std::int64_t far_losses = 0;
  std::int64_t reference_raised = 0;
  std::vector<double> reference_ms;
  VariableDiff variable_diff;
  {
    ModelSession reference(spec, ImperativeOptions(), args.seed);
    for (std::int64_t i = 0; i < warmup_steps + compared; ++i) {
      const std::int64_t span_start = janus::obs::Trace::NowNs();
      double seconds = 0.0;
      const double expected = TimedStep(reference, &seconds, &reference_raised);
      RecordSpan("bench.reference_step", span_start, i);
      reference_ms.push_back(seconds * 1e3);
      if (i < warmup_steps) continue;
      const double actual = losses[static_cast<std::size_t>(i)];
      if (!BitIdentical(actual, expected)) {
        differs[static_cast<std::size_t>(i - warmup_steps)] = true;
        max_ulps = std::max(max_ulps, UlpDistance(actual, expected));
      }
      far_losses += Close(actual, expected) ? 0 : 1;
    }
    variable_diff = CompareVariables(
        trained, ReadVariables(*reference.interpreter().variables()));
  }
  janus::obs::Trace::Disable();
  // error_share is over the compared prefix; steps past it that raised
  // still count in `failed`.
  std::int64_t timed_raised = 0;
  std::int64_t errors = 0;
  for (std::int64_t i = 0; i < timed_steps; ++i) {
    const bool step_raised =
        std::isnan(losses[static_cast<std::size_t>(warmup_steps + i)]);
    timed_raised += step_raised ? 1 : 0;
    if (i < compared) {
      errors += step_raised || differs[static_cast<std::size_t>(i)] ? 1 : 0;
    }
  }
  std::int64_t mismatched = 0;
  for (const bool d : differs) mismatched += d ? 1 : 0;
  const double error_share =
      Ratio(static_cast<double>(errors), static_cast<double>(compared));
  std::printf("oracle   %lld of %lld compared timed steps not bit-identical to "
              "the imperative reference (max %lld float32 ulp); %lld timed "
              "steps raised; error_share %.6f\n",
              static_cast<long long>(mismatched),
              static_cast<long long>(compared),
              static_cast<long long>(max_ulps),
              static_cast<long long>(timed_raised), error_share);
  std::printf("oracle   trained variables after %lld compared steps: %lld of "
              "%lld elements not bit-identical\n",
              static_cast<long long>(compared),
              static_cast<long long>(variable_diff.differing),
              static_cast<long long>(variable_diff.elements));
  std::printf("oracle   outside rtol %g atol %g: %lld losses, %lld variable "
              "elements\n",
              kRtol, kAtol, static_cast<long long>(far_losses),
              static_cast<long long>(variable_diff.far));

  // ---- work-equality self-check ----
  bool work_equal = work.size() >= 2;
  for (const WorkCounts& w : work) work_equal = work_equal && w == work[0];
  std::printf("work     %s over %zu sessions x (%lld warm-up + %d) steps: %s\n",
              work_equal ? "repeats" : "VARIES", work.size(),
              static_cast<long long>(warmup_steps), kWorkCheckSteps,
              work.empty() ? "-" : work[0].ToString().c_str());
  if (!work_equal) {
    for (std::size_t i = 0; i < work.size(); ++i) {
      std::printf("work     session %zu: %s\n", i, work[i].ToString().c_str());
    }
  }

  const bool correct = raised == 0 && reference_raised == 0 && work_equal &&
                       far_losses == 0 && variable_diff.far == 0 &&
                       timed_steps > 0;

  // ---- metrics ----
  std::vector<Metric> metrics;
  if (!traced_run) {
    std::vector<double> step_ms;
    for (const double s : phases[0].step_seconds) step_ms.push_back(s * 1e3);
    const Tail tail = TailOf(step_ms);
    const std::vector<double> rates = phases[0].WindowRates();
    const double steps_per_s = Median(rates);
    metrics = {
        {"steps_per_s", steps_per_s, "1/s",
         "(median of " + std::to_string(rates.size()) + " windows of " +
             Fixed(kWindowSeconds, 1) + " s; " +
             Fixed(steps_per_s * spec.items_per_iteration, 1) + " " +
             spec.unit + ")"},
        {"step_p50_ms", Median(step_ms), "ms",
         "(" + std::to_string(step_ms.size()) + " steps)"},
        {"setup_s", Median(setup_seconds), "s",
         "(median of " + std::to_string(setup_seconds.size()) + " setups, " +
             std::to_string(warmup_steps) + " warm-up steps each)"},
        {"peak_rss_mb", peak_rss_mb, "MB",
         "(VmHWM after " + std::to_string(compared) + " timed steps)"},
    };
    PrintMetricLines(metrics);
    // Printed, not in the JSON: the tail's run-to-run spread on a shared
    // 4-vCPU VM (IQR 0.23-0.33 of the median over ten seeds) is wider than
    // any bound a regression gate can use, and error_share is 0 on the
    // LSTM workloads, where a bound relative to the median means nothing.
    PrintMetricLines({
        {"step_tail_ms", tail.value, "ms",
         "(p" + Fixed(tail.percentile, 0) + ", >=" +
             std::to_string(tail.beyond) + " samples beyond in each of " +
             std::to_string(tail.chunks) + " chunks; median over chunks; n=" +
             std::to_string(step_ms.size()) + ")"},
        {"error_share", error_share, "ratio",
         "(" + std::to_string(errors) + " of " + std::to_string(compared) +
             " compared steps)"},
    });
  } else {
    PrintReconciliation(phases[1], traced_before, traced_after);
    metrics = PerLayerMetrics(phases[0], phases[1], traced_before,
                              traced_after, replay_moved, reference_ms,
                              cache_resident_mb);
    PrintMetricLines(metrics);
    if (workload.lr_decay) {
      const auto generations = static_cast<std::int64_t>(
          traced_after.engine.graph_generations -
          traced_before.engine.graph_generations);
      std::printf("check    generations %lld %s traced steps %zu\n",
                  static_cast<long long>(generations),
                  generations == static_cast<std::int64_t>(
                                     phases[1].step_seconds.size())
                      ? "=="
                      : "!=",
                  phases[1].step_seconds.size());
    }
    std::printf("trace    %lld events recorded, %lld dropped\n",
                static_cast<long long>(janus::obs::Trace::TotalRecorded()),
                static_cast<long long>(janus::obs::Trace::TotalDropped()));
    if (!args.trace_out.empty()) {
      janus::obs::Trace::WriteChromeTrace(args.trace_out);
      std::printf("trace    written to %s\n", args.trace_out.c_str());
    }
  }
  PrintResult(correct, timed_steps, timed_raised, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "janus_e2e: refusing to report from a build without "
                       "NDEBUG; configure with -DCMAKE_BUILD_TYPE=Release\n");
  return 2;
#endif
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: janus_e2e --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>]\n");
    return 2;
  }
  for (const Workload& workload : kWorkloads) {
    if (args.workload != workload.name) continue;
    try {
      return Run(workload, args);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "janus_e2e: %s\n", error.what());
      return 1;
    }
  }
  std::fprintf(stderr, "janus_e2e: unknown workload '%s'\n",
               args.workload.c_str());
  return 2;
}
