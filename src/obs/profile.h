// Source-attributed continuous profiler.
//
// JANUS executes a generated symbolic graph in place of the user's
// imperative program, which severs the link between "this line of my
// program" and "this much execution time". This module restores it: every
// ExecutionPlan registers a PlanProfile at build time — one lock-free
// accumulator slot per plan node, plus a copy of each node's imperative
// SourceSite (function, line, statement) — and the executors record
// sampled per-node wall time into those slots. Aggregations key on
// {conversion unit, variant, despecialization level}, so a unit's cost is
// attributable across recompilations of the same source.
//
// Cost model (mirrors trace/ledger):
//  * disabled (default): the per-node hook is one relaxed atomic load and
//    a branch;
//  * enabled: every Nth node execution (jittered stride, thread-local
//    countdown — see internal::NextSampleGap) pays two clock reads and a
//    handful of relaxed atomic adds on the plan's own slot array.
//
// Exports:
//  * /profilez on the introspection HTTP server — human text and
//    ?format=json (top nodes, per-source-line rollup, per-unit
//    generation/validation/execution split);
//  * /pprof/profile — gzipped pprof profile.proto whose sample stacks are
//    imperative function -> statement -> op (see obs/pprof_encode.h);
//  * JANUS_PROFILE=<path> — folded-stacks dump at process exit, directly
//    consumable by flamegraph.pl;
//  * tools/janus_profdiff — per-source-site regression diff of two folded
//    dumps (ParseFoldedProfile / DiffProfilesBySite below).
#ifndef JANUS_OBS_PROFILE_H_
#define JANUS_OBS_PROFILE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "obs/trace.h"

namespace janus {
namespace obs {

// Mirror of graph::SourceSite, copied at plan build so obs/ never links
// against the graph layer.
struct ProfileSite {
  std::string function;
  int line = 0;
  int stmt = -1;

  bool known() const { return !function.empty() || line > 0; }
  std::string Label() const;
};

// Static metadata for one plan node, captured at plan build. For a fused
// region, `members` carries the constituent nodes (execution time recorded
// against the region is split across them at export).
struct ProfileNodeInfo {
  std::string name;  // graph node name (unique within the graph)
  std::string op;
  ProfileSite site;
  std::vector<ProfileNodeInfo> members;  // non-empty iff fused region
};

// Per-plan cost accumulator: one cache-line-padded-free slot per plan node
// (count / total ns / max ns / log2 histogram), all updated with relaxed
// atomics — concurrent recorders only race benignly on max. Sized once at
// construction; never reallocated, so executors can record without
// synchronization while an HTTP scrape snapshots concurrently.
class PlanProfile {
 public:
  static constexpr int kNumBuckets = 32;

  explicit PlanProfile(std::vector<ProfileNodeInfo> nodes);
  // A registered profile folds its totals and samples into the registry's
  // retired totals here, so exports outlive the plan.
  ~PlanProfile();
  PlanProfile(const PlanProfile&) = delete;
  PlanProfile& operator=(const PlanProfile&) = delete;

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const std::vector<ProfileNodeInfo>& nodes() const { return nodes_; }

  // Hot path: adds one sampled execution of `index` taking `dur_ns`.
  void Record(int index, std::int64_t dur_ns);

  // Aggregation key: {conversion unit, variant, despecialization level}.
  // Set once by the engine right after compilation; plans built outside an
  // engine keep the defaults ("", "", 0).
  void SetKey(std::string unit, std::string variant, int level);
  const std::string& unit() const { return unit_; }
  const std::string& variant() const { return variant_; }
  int despecialization_level() const { return level_; }

  // Inclusive phase accounting for the unit this plan executes.
  void SetGenerationNs(std::int64_t ns) {
    generation_ns_.store(ns, std::memory_order_relaxed);
  }
  void AddValidationNs(std::int64_t ns) {
    validation_ns_.fetch_add(ns, std::memory_order_relaxed);
  }
  void AddRun() { runs_.fetch_add(1, std::memory_order_relaxed); }
  std::int64_t generation_ns() const {
    return generation_ns_.load(std::memory_order_relaxed);
  }
  std::int64_t validation_ns() const {
    return validation_ns_.load(std::memory_order_relaxed);
  }
  std::uint64_t runs() const { return runs_.load(std::memory_order_relaxed); }

  struct NodeSnapshot {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t max_ns = 0;
    std::uint64_t buckets[kNumBuckets] = {};
  };
  NodeSnapshot Snapshot(int index) const;

 private:
  friend class ProfileRegistry;

  struct Slot {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> total_ns{0};
    std::atomic<std::uint64_t> max_ns{0};
    std::atomic<std::uint64_t> buckets[kNumBuckets] = {};
  };

  std::vector<ProfileNodeInfo> nodes_;
  std::unique_ptr<Slot[]> slots_;
  std::string unit_;
  std::string variant_;
  int level_ = 0;
  std::atomic<std::int64_t> generation_ns_{0};
  std::atomic<std::int64_t> validation_ns_{0};
  std::atomic<std::uint64_t> runs_{0};
  bool registered_ = false;  // set once by ProfileRegistry::Register
};

// One exported sample: a plan node (or fused-region member, with the
// region's time split evenly across members) under its aggregation key.
// count and total_ns are scaled by the nominal sampling stride, i.e. they
// estimate true totals; max_ns is the largest single sampled execution,
// which no stride multiplies.
struct ProfileSample {
  std::string unit;
  std::string variant;
  int level = 0;
  std::string function;
  int line = 0;
  int stmt = -1;
  std::string op;
  std::string node;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t max_ns = 0;
};

struct ProfileUnitTotals {
  std::string unit;
  std::string variant;
  int level = 0;
  std::int64_t generation_ns = 0;
  std::int64_t validation_ns = 0;
  std::uint64_t execution_ns = 0;  // sampled-and-scaled node time
  std::uint64_t runs = 0;
};

// Process-global set of PlanProfiles. The registry holds each profile
// weakly: a plan's cache owns it, and an evicted plan frees its profile
// (one slot and one ProfileNodeInfo per node). When a registered profile
// dies it folds its unit totals (generation, validation, runs, execution)
// and its recorded samples into retired totals per {unit, variant, level}
// key, so every export reports the same totals whether or not the plan is
// still cached. Bounded: past kMaxRetiredKeys the oldest retired key is
// dropped (dropped() counts them) — continuous profiling must not grow
// without bound under cache churn.
class ProfileRegistry {
 public:
  static constexpr std::size_t kMaxRetiredKeys = 512;

  static ProfileRegistry& Global();

  void Register(const std::shared_ptr<PlanProfile>& profile);
  // The live (not yet destroyed) registered profiles.
  std::vector<std::shared_ptr<PlanProfile>> Profiles() const;
  // Samples and unit totals folded from destroyed profiles, one entry per
  // sample site and per key.
  std::vector<ProfileSample> RetiredSamples() const;
  std::vector<ProfileUnitTotals> RetiredUnitTotals() const;
  std::uint64_t dropped() const;

  // Drops all registrations and retired totals (tests).
  void Reset();

 private:
  friend class PlanProfile;

  struct Retired {
    ProfileUnitTotals totals;
    // Sample identity (site, op, node name) -> merged sample.
    std::map<std::tuple<std::string, int, int, std::string, std::string>,
             ProfileSample>
        samples;
  };
  using Key = std::tuple<std::string, std::string, int>;

  void Retire(const PlanProfile& profile);

  mutable std::mutex mu_;
  std::vector<std::weak_ptr<PlanProfile>> profiles_;
  std::size_t prune_at_ = 64;  // expired entries are pruned at this size
  std::map<Key, Retired> retired_;
  std::deque<Key> retired_order_;  // oldest retired key first
  std::uint64_t dropped_ = 0;
};

// ---------------------------------------------------------------------------
// Enable flag + sampling
// ---------------------------------------------------------------------------

namespace internal {
extern std::atomic<bool> profiling_active;
extern thread_local std::uint32_t profile_sample_countdown;
}  // namespace internal

// Nominal sampling stride: ~1 in 64 node executions is timed while
// profiling is enabled. Exports scale counts/times back up by this factor.
// 64 keeps the enabled overhead on a chain of ~40ns ops under ~5%
// (BM_ProfileOverhead); long-running workloads still collect thousands of
// samples per second per thread.
inline constexpr std::uint32_t kProfileSampleEvery = 64;

void EnableProfiling();
void DisableProfiling();

inline bool ProfilingEnabled() {
  return internal::profiling_active.load(std::memory_order_relaxed);
}

// Executors call this once per plan-node execution. Disabled cost: the
// relaxed load above and a branch. The countdown is thread-local and the
// reload jittered (internal::NextSampleGap) so a fixed-length plan cannot
// alias with the stride and pin sampling onto one node.
inline bool ShouldSampleProfileNode() {
  if (!ProfilingEnabled()) return false;
  if (internal::profile_sample_countdown == 0) {
    internal::profile_sample_countdown =
        internal::NextSampleGap(kProfileSampleEvery) - 1;
    return true;
  }
  --internal::profile_sample_countdown;
  return false;
}

// ---------------------------------------------------------------------------
// Snapshots + renderers
// ---------------------------------------------------------------------------

std::vector<ProfileSample> CollectProfileSamples();
std::vector<ProfileUnitTotals> CollectProfileUnitTotals();

// Mean per-execution ns per graph node name, aggregated across all
// registered plans (fused members get their split share). Used by the DOT
// exporter's heat coloring; node names may collide across units — callers
// get the blended mean, which is the best available without a unit hint.
std::map<std::string, double> ProfileNodeMeanNs();

// /profilez renderers.
std::string RenderProfileText();
std::string RenderProfileJson();

// Folded-stacks dump: one line per sample,
//   "unit;function;function:line;op <total_ns>"
// — flamegraph.pl consumes this directly.
std::string RenderFoldedStacks();
void WriteFoldedStacks(const std::string& path);

// ---------------------------------------------------------------------------
// Folded-profile parsing + diffing (janus_profdiff)
// ---------------------------------------------------------------------------

struct FoldedProfile {
  // Full stack ("a;b;c") -> summed value.
  std::map<std::string, double> stack_ns;
  double total_ns = 0;
};

// Parses a folded-stacks dump (blank lines ignored). Returns false with a
// line-annotated *error on malformed input (no value, non-numeric value).
bool ParseFoldedProfile(std::string_view text, FoldedProfile* out,
                        std::string* error);

struct ProfileDiffEntry {
  std::string site;       // stack minus the leaf op frame
  double before_ns = 0;
  double after_ns = 0;
  double before_share = 0;  // fraction of its profile's total
  double after_share = 0;
  double delta_pp = 0;      // (after - before) share, percentage points
};

struct ProfileDiffResult {
  std::vector<ProfileDiffEntry> entries;  // sorted by delta_pp descending
  double max_regression_pp = 0;
};

// Diffs two folded profiles per source site (all frames except the leaf
// op), comparing each site's share of its own profile's total — so two
// dumps of different lengths compare meaningfully.
ProfileDiffResult DiffProfilesBySite(const FoldedProfile& before,
                                     const FoldedProfile& after);

}  // namespace obs
}  // namespace janus

#endif  // JANUS_OBS_PROFILE_H_
