#include "opt/passes.h"

#include <bit>
#include <functional>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "common/error.h"
#include "runtime/kernel.h"
#include "runtime/run_context.h"

namespace janus {
namespace {

// Output replacements recorded by one pass, indexed densely by node id.
// Nodes a pass appends (folded constants, ZerosLike) are never replaced, so
// their ids may lie past the table.
class Replacements {
 public:
  explicit Replacements(const Graph& graph)
      : by_id_(static_cast<std::size_t>(graph.id_bound())) {}

  void Set(const Node* node, int index, NodeOutput with) {
    std::vector<NodeOutput>& slots =
        by_id_[static_cast<std::size_t>(node->id())];
    if (slots.empty()) {
      slots.resize(static_cast<std::size_t>(node->num_outputs()));
    }
    slots[static_cast<std::size_t>(index)] = with;
    empty_ = false;
  }

  // The recorded replacement of `v`, or nullptr.
  const NodeOutput* Find(NodeOutput v) const {
    const auto id = static_cast<std::size_t>(v.node->id());
    if (id >= by_id_.size()) return nullptr;
    const std::vector<NodeOutput>& slots = by_id_[id];
    const auto index = static_cast<std::size_t>(v.index);
    if (index >= slots.size() || slots[index].node == nullptr) return nullptr;
    return &slots[index];
  }

  bool empty() const { return empty_; }

 private:
  std::vector<std::vector<NodeOutput>> by_id_;
  bool empty_ = true;
};

// Rewires every use of a replaced output (including transitively chained
// replacements) to its final producer.
void ApplyReplacements(Graph& graph, const Replacements& repl) {
  if (repl.empty()) return;
  const auto resolve = [&](NodeOutput v) {
    // Chase chains (a -> b -> c) with a small bound to catch cycles.
    for (int hops = 0; hops < 64; ++hops) {
      const NodeOutput* with = repl.Find(v);
      if (with == nullptr) return v;
      v = *with;
    }
    throw InternalError("replacement cycle in optimisation pass");
  };
  for (const auto& node : graph.nodes()) {
    for (int i = 0; i < node->num_inputs(); ++i) {
      node->set_input(i, resolve(node->input(i)));
    }
    // Control inputs: redirect to the replacement's producer node.
    for (Node* control : node->control_inputs()) {
      if (repl.Find({control, 0}) != nullptr) {
        node->ReplaceControlInput(control, resolve({control, 0}).node);
      }
    }
  }
}

// The nodes no edge reads, when the fetches are known (inside
// OptimizeGraph). Such a node is dead or fetched, and passes rewire edges,
// never the caller's fetch handles: rewriting it changes nothing a run
// computes. The passes leave these nodes alone, so every rewrite they
// report rewires at least one edge and OptimizeGraph stops at its fixpoint
// instead of "simplifying" the generator's fetched result Identity on every
// round. Without fetches (a standalone pass) every node is a candidate.
class UnreadNodes {
 public:
  UnreadNodes(const Graph& graph, std::span<const NodeOutput> fetches) {
    if (fetches.empty()) return;
    read_.assign(static_cast<std::size_t>(graph.id_bound()), 0);
    for (const auto& node : graph.nodes()) {
      for (const NodeOutput& input : node->inputs()) {
        read_[static_cast<std::size_t>(input.node->id())] = 1;
      }
      for (const Node* control : node->control_inputs()) {
        read_[static_cast<std::size_t>(control->id())] = 1;
      }
    }
  }

  bool Contains(const Node* node) const {
    const auto id = static_cast<std::size_t>(node->id());
    return id < read_.size() && read_[id] == 0;
  }

 private:
  std::vector<char> read_;
};

// Per-node purity, classified once per node id instead of by a string-set
// lookup on every visit. Lives for one OptimizeGraph call (ids are per
// graph); grows as passes append nodes.
class Purity {
 public:
  bool operator()(const Node* node) {
    const auto id = static_cast<std::size_t>(node->id());
    if (id >= pure_.size()) pure_.resize(id + 1, kUnknown);
    if (pure_[id] == kUnknown) pure_[id] = IsPureOp(node->op()) ? 1 : 0;
    return pure_[id] == 1;
  }

 private:
  static constexpr signed char kUnknown = -1;
  std::vector<signed char> pure_;
};

bool IsConst(const Node* node) { return node->op() == "Const"; }

bool IsScalarConst(const Node* node, float value) {
  if (!IsConst(node)) return false;
  const Tensor& t = node->GetTensorAttr("value");
  if (t.num_elements() != 1) return false;
  return t.ElementAsDouble(0) == static_cast<double>(value);
}

// ---- CSE key: a structural hash plus an exact, bitwise equality ----

// Tensor attributes up to this many elements merge by content; larger ones
// are treated as unique so CSE never pays to compare big weight blobs.
constexpr std::int64_t kCseMaxTensorElements = 256;

std::size_t Mix(std::size_t seed, std::size_t value) {
  return seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

std::size_t AttrHash(const AttrValue& attr) {
  std::size_t h = attr.index();
  std::visit(
      [&h](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, double>) {
          h = Mix(h, std::bit_cast<std::uint64_t>(v));
        } else if constexpr (std::is_same_v<T, std::vector<std::int64_t>>) {
          for (const std::int64_t x : v) {
            h = Mix(h, static_cast<std::size_t>(x));
          }
        } else if constexpr (std::is_same_v<T, Tensor>) {
          if (v.num_elements() > kCseMaxTensorElements) return;
          h = Mix(h, static_cast<std::size_t>(v.dtype()));
          for (const std::int64_t d : v.shape().dims()) {
            h = Mix(h, static_cast<std::size_t>(d));
          }
          const std::span<const std::byte> bytes = v.bytes();
          h = Mix(h, std::hash<std::string_view>()(std::string_view(
                         reinterpret_cast<const char*>(bytes.data()),
                         bytes.size())));
        } else if constexpr (std::is_same_v<T, DType>) {
          h = Mix(h, static_cast<std::size_t>(v));
        } else {
          h = Mix(h, std::hash<T>()(v));
        }
      },
      attr);
  return h;
}

bool AttrEqual(const AttrValue& a, const AttrValue& b) {
  if (a.index() != b.index()) return false;
  return std::visit(
      [&b](const auto& x) {
        using T = std::decay_t<decltype(x)>;
        const T& y = std::get<T>(b);
        if constexpr (std::is_same_v<T, double>) {
          // Bitwise: 0.0 and -0.0 differ, a NaN equals itself.
          return std::bit_cast<std::uint64_t>(x) ==
                 std::bit_cast<std::uint64_t>(y);
        } else if constexpr (std::is_same_v<T, Tensor>) {
          if (x.num_elements() > kCseMaxTensorElements) return &x == &y;
          return x.ElementsEqual(y);
        } else {
          return x == y;
        }
      },
      a);
}

// Hashes what CseEqual compares: op, output count, data inputs, control
// inputs (in order) and attributes.
std::size_t CseHash(const Node& node) {
  std::size_t h = std::hash<std::string_view>()(node.op());
  h = Mix(h, static_cast<std::size_t>(node.num_outputs()));
  for (const NodeOutput& input : node.inputs()) {
    h = Mix(h, static_cast<std::size_t>(input.node->id()));
    h = Mix(h, static_cast<std::size_t>(input.index));
  }
  h = Mix(h, node.control_inputs().size());
  for (const Node* control : node.control_inputs()) {
    h = Mix(h, static_cast<std::size_t>(control->id()));
  }
  for (const auto& [key, value] : node.attrs()) {
    h = Mix(h, std::hash<std::string_view>()(key));
    h = Mix(h, AttrHash(value));
  }
  return h;
}

bool CseEqual(const Node& a, const Node& b) {
  if (a.op() != b.op() || a.num_outputs() != b.num_outputs() ||
      a.inputs() != b.inputs() || a.control_inputs() != b.control_inputs() ||
      a.attrs().size() != b.attrs().size()) {
    return false;
  }
  auto it = b.attrs().begin();
  for (const auto& [key, value] : a.attrs()) {
    if (key != it->first || !AttrEqual(value, it->second)) return false;
    ++it;
  }
  return true;
}

// ---- the passes, sharing one purity table inside OptimizeGraph ----

int FoldConstants(Graph& graph, std::span<const NodeOutput> fetches,
                  Purity& pure) {
  const UnreadNodes unread(graph, fetches);
  Replacements repl(graph);
  int folded = 0;
  // Snapshot: graph.Constant() below appends nodes while we iterate.
  std::vector<Node*> snapshot;
  snapshot.reserve(graph.num_nodes());
  for (const auto& n : graph.nodes()) snapshot.push_back(n.get());
  // Inputs may themselves have been folded this round; chase them.
  const auto effective = [&repl](NodeOutput input) {
    const NodeOutput* with = repl.Find(input);
    return with != nullptr ? with->node : input.node;
  };
  for (Node* node : snapshot) {
    if (!pure(node)) continue;
    if (node->num_inputs() == 0) continue;
    if (!node->control_inputs().empty()) continue;
    if (unread.Contains(node)) continue;
    bool all_const = true;
    for (const NodeOutput& input : node->inputs()) {
      if (!IsConst(effective(input))) {
        all_const = false;
        break;
      }
    }
    if (!all_const) continue;

    std::vector<Tensor> inputs;
    inputs.reserve(node->inputs().size());
    for (const NodeOutput& input : node->inputs()) {
      inputs.push_back(effective(input)->GetTensorAttr("value"));
    }
    RunContext run;  // pure kernels need no services
    KernelContext ctx;
    ctx.node = node;
    ctx.inputs = inputs;
    ctx.outputs.resize(static_cast<std::size_t>(node->num_outputs()));
    ctx.run = &run;
    try {
      KernelRegistry::Global().Lookup(node->op())(ctx);
    } catch (const Error&) {
      continue;  // e.g. data-dependent failure; leave for runtime
    }
    // The folded constant inherits the replaced node's source site.
    SourceSiteScope site_scope(node->site());
    for (int i = 0; i < node->num_outputs(); ++i) {
      repl.Set(node, i,
               graph.Constant(ctx.outputs[static_cast<std::size_t>(i)]));
    }
    ++folded;
  }
  ApplyReplacements(graph, repl);
  return folded;
}

int MergeDuplicates(Graph& graph, std::span<const NodeOutput> fetches,
                    Purity& pure) {
  const UnreadNodes unread(graph, fetches);
  Replacements repl(graph);
  // Structural hash -> the first node seen with it (the canonical one).
  std::unordered_multimap<std::size_t, Node*> seen;
  seen.reserve(graph.num_nodes());
  int merged = 0;
  for (const auto& owned : graph.nodes()) {
    Node* node = owned.get();
    if (!pure(node) && !IsConst(node)) continue;
    // Resolve inputs merged earlier in this pass now, so the key compares
    // final producers. Canonical nodes are never replaced: no chains.
    for (int i = 0; i < node->num_inputs(); ++i) {
      if (const NodeOutput* with = repl.Find(node->input(i))) {
        node->set_input(i, *with);
      }
    }
    const std::size_t hash = CseHash(*node);
    Node* canonical = nullptr;
    for (auto [it, end] = seen.equal_range(hash); it != end; ++it) {
      if (CseEqual(*it->second, *node)) {
        canonical = it->second;
        break;
      }
    }
    if (canonical == nullptr) {
      seen.emplace(hash, node);
      continue;
    }
    if (unread.Contains(node)) continue;
    for (int i = 0; i < node->num_outputs(); ++i) {
      repl.Set(node, i, {canonical, i});
    }
    ++merged;
  }
  ApplyReplacements(graph, repl);
  return merged;
}

int Simplify(Graph& graph, std::span<const NodeOutput> fetches) {
  const UnreadNodes unread(graph, fetches);
  Replacements repl(graph);
  int rewrites = 0;
  const auto replace = [&](Node* node, NodeOutput with) {
    repl.Set(node, 0, with);
    ++rewrites;
  };
  // Snapshot: the ZerosLike rewrite appends nodes while we iterate.
  std::vector<Node*> snapshot;
  snapshot.reserve(graph.num_nodes());
  for (const auto& n : graph.nodes()) snapshot.push_back(n.get());
  for (Node* node : snapshot) {
    if (!node->control_inputs().empty()) continue;
    if (unread.Contains(node)) continue;
    const std::string& op = node->op();
    const auto in = [&](int i) { return node->input(i); };
    if (op == "Identity") {
      replace(node, in(0));
    } else if (op == "Add") {
      if (IsScalarConst(in(1).node, 0.0f)) {
        replace(node, in(0));
      } else if (IsScalarConst(in(0).node, 0.0f)) {
        replace(node, in(1));
      }
    } else if (op == "Sub") {
      if (IsScalarConst(in(1).node, 0.0f)) replace(node, in(0));
    } else if (op == "Mul") {
      if (IsScalarConst(in(1).node, 1.0f)) {
        replace(node, in(0));
      } else if (IsScalarConst(in(0).node, 1.0f)) {
        replace(node, in(1));
      } else if (IsScalarConst(in(1).node, 0.0f) ||
                 IsScalarConst(in(0).node, 0.0f)) {
        const NodeOutput operand =
            IsScalarConst(in(1).node, 0.0f) ? in(0) : in(1);
        // The replacement ZerosLike inherits the Mul's source site.
        SourceSiteScope site_scope(node->site());
        replace(node, {graph.AddNode("ZerosLike", {operand}), 0});
      }
    } else if (op == "Div") {
      if (IsScalarConst(in(1).node, 1.0f)) replace(node, in(0));
    } else if (op == "Neg") {
      if (in(0).node->op() == "Neg") {
        replace(node, in(0).node->input(0));
      }
    } else if (op == "Pow") {
      if (IsScalarConst(in(1).node, 1.0f)) replace(node, in(0));
    }
  }
  ApplyReplacements(graph, repl);
  return rewrites;
}

}  // namespace

bool IsPureOp(const std::string& op) {
  static const std::unordered_set<std::string>* const impure = [] {
    return new std::unordered_set<std::string>{
        "Placeholder",   "Param",          "Const",
        "ReadVariable",  "AssignVariable", "ApplySGD",
        "Assert",        "PyGetAttr",      "PySetAttr",
        "PyGetSubscr",   "PySetSubscr",    "PyPrint",
        "RandomNormal",  "RandomUniform",  "NoOp",
        "Invoke",        "While",          "WhileGrad",
        "Switch",        "Merge",          "Enter",
        "Exit",          "NextIteration"};
  }();
  return impure->find(op) == impure->end();
}

int ConstantFolding(Graph& graph) {
  Purity pure;
  return FoldConstants(graph, {}, pure);
}

int CommonSubexpressionElimination(Graph& graph) {
  Purity pure;
  return MergeDuplicates(graph, {}, pure);
}

int ArithmeticSimplification(Graph& graph) { return Simplify(graph, {}); }

int DeadCodeElimination(Graph& graph, std::span<const NodeOutput> fetches) {
  std::vector<char> live(static_cast<std::size_t>(graph.id_bound()), 0);
  std::vector<Node*> stack;
  for (const NodeOutput& fetch : fetches) stack.push_back(fetch.node);
  while (!stack.empty()) {
    Node* node = stack.back();
    stack.pop_back();
    char& seen = live[static_cast<std::size_t>(node->id())];
    if (seen != 0) continue;
    seen = 1;
    for (const NodeOutput& input : node->inputs()) stack.push_back(input.node);
    for (Node* control : node->control_inputs()) stack.push_back(control);
  }
  std::vector<Node*> keep;
  keep.reserve(graph.num_nodes());
  for (const auto& node : graph.nodes()) {
    if (live[static_cast<std::size_t>(node->id())] != 0) {
      keep.push_back(node.get());
    }
  }
  const int removed = static_cast<int>(graph.num_nodes() - keep.size());
  graph.Prune(keep);
  return removed;
}

OptimizationStats OptimizeGraph(Graph& graph,
                                std::span<const NodeOutput> fetches,
                                int max_rounds) {
  OptimizationStats stats;
  Purity pure;
  for (int round = 0; round < max_rounds; ++round) {
    const int folded = FoldConstants(graph, fetches, pure);
    const int simplified = Simplify(graph, fetches);
    const int merged = MergeDuplicates(graph, fetches, pure);
    const int removed = DeadCodeElimination(graph, fetches);
    stats.folded += folded;
    stats.simplified += simplified;
    stats.cse_merged += merged;
    stats.dce_removed += removed;
    ++stats.rounds;
    if (folded + simplified + merged + removed == 0) break;
  }
  return stats;
}

}  // namespace janus
