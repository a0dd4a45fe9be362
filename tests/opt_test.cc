// Tests for the graph optimisation passes: constant folding, CSE,
// arithmetic simplification, DCE, and the fixpoint driver — including the
// invariant that optimisation never changes computed results, and that the
// driver stops at its fixpoint on the generator's graph shape.
#include "opt/passes.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "models/zoo.h"
#include "runtime/executor.h"
#include "tensor/ops.h"

namespace janus {
namespace {

class OptTest : public ::testing::Test {
 protected:
  std::vector<Tensor> Run(const Graph& g, std::vector<NodeOutput> fetches,
                          const std::map<std::string, Tensor>& feeds = {}) {
    Executor executor(&library_, &variables_, nullptr, &rng_);
    return executor.Run(g, feeds, fetches);
  }
  FunctionLibrary library_;
  VariableStore variables_;
  Rng rng_{3};
};

TEST_F(OptTest, ConstantFoldingCollapsesConstantExpressions) {
  Graph g;
  const NodeOutput a = g.Constant(Tensor::Scalar(2));
  const NodeOutput b = g.Constant(Tensor::Scalar(3));
  Node* add = g.AddNode("Add", {a, b});
  Node* mul = g.AddNode("Mul", {{add, 0}, b});
  const int folded = ConstantFolding(g);
  EXPECT_EQ(folded, 2);  // both Add and Mul fold (Mul sees folded Add)
  const auto out = Run(g, {{mul, 0}});
  EXPECT_FLOAT_EQ(out[0].ScalarValue(), 15.0f);
}

TEST_F(OptTest, ConstantFoldingSkipsNonConstInputs) {
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  const NodeOutput c = g.Constant(Tensor::Scalar(3));
  g.AddNode("Add", {x, c});
  EXPECT_EQ(ConstantFolding(g), 0);
}

TEST_F(OptTest, ConstantFoldingSkipsImpureOps) {
  Graph g;
  Node* rand = g.AddNode("RandomNormal", {},
                         {{"shape", std::vector<std::int64_t>{2}},
                          {"mean", 0.0},
                          {"stddev", 1.0}});
  (void)rand;
  EXPECT_EQ(ConstantFolding(g), 0);
}

TEST_F(OptTest, CseMergesIdenticalSubexpressions) {
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  Node* s1 = g.AddNode("Square", {x});
  Node* s2 = g.AddNode("Square", {x});
  Node* sum = g.AddNode("Add", {{s1, 0}, {s2, 0}});
  EXPECT_EQ(CommonSubexpressionElimination(g), 1);
  // Both inputs of the Add now point at the same node.
  EXPECT_EQ(sum->input(0).node, sum->input(1).node);
  const auto out = Run(g, {{sum, 0}}, {{"x", Tensor::Scalar(3)}});
  EXPECT_FLOAT_EQ(out[0].ScalarValue(), 18.0f);
}

TEST_F(OptTest, CseDistinguishesDifferentAttrs) {
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  g.AddNode("ReduceSum", {x},
            {{"axes", std::vector<std::int64_t>{0}}, {"keep_dims", false}});
  g.AddNode("ReduceSum", {x},
            {{"axes", std::vector<std::int64_t>{1}}, {"keep_dims", false}});
  EXPECT_EQ(CommonSubexpressionElimination(g), 0);
}

TEST_F(OptTest, CseDistinguishesControlDependencies) {
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  Node* anchor = g.AddNode("NoOp", {});
  Node* s1 = g.AddNode("Square", {x});
  Node* s2 = g.AddNode("Square", {x});
  s2->AddControlInput(anchor);
  EXPECT_EQ(CommonSubexpressionElimination(g), 0);
  (void)s1;
}

TEST_F(OptTest, CseDeduplicatesEqualConstants) {
  Graph g;
  g.Constant(Tensor::Scalar(1));
  g.Constant(Tensor::Scalar(1));
  g.Constant(Tensor::Scalar(2));
  EXPECT_EQ(CommonSubexpressionElimination(g), 1);
}

TEST_F(OptTest, ArithmeticIdentities) {
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  const NodeOutput zero = g.Constant(Tensor::Scalar(0));
  const NodeOutput one = g.Constant(Tensor::Scalar(1));
  Node* a = g.AddNode("Add", {x, zero});
  Node* m = g.AddNode("Mul", {{a, 0}, one});
  Node* s = g.AddNode("Sub", {{m, 0}, zero});
  Node* d = g.AddNode("Div", {{s, 0}, one});
  Node* out = g.AddNode("Neg", {{d, 0}});
  const int rewrites = ArithmeticSimplification(g);
  EXPECT_EQ(rewrites, 4);
  // After rewiring, Neg's input is x itself.
  EXPECT_EQ(out->input(0).node, x.node);
  const auto r = Run(g, {{out, 0}}, {{"x", Tensor::Scalar(5)}});
  EXPECT_FLOAT_EQ(r[0].ScalarValue(), -5.0f);
}

TEST_F(OptTest, MulByZeroBecomesZerosLike) {
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  const NodeOutput zero = g.Constant(Tensor::Scalar(0));
  Node* m = g.AddNode("Mul", {x, zero});
  Node* consumer = g.AddNode("Identity", {{m, 0}});
  ArithmeticSimplification(g);
  EXPECT_EQ(consumer->input(0).node->op(), "ZerosLike");
  const auto out = Run(g, {{consumer->input(0).node, 0}},
                       {{"x", Tensor::FromVector({1, 2}, Shape{2})}});
  EXPECT_EQ(out[0].shape(), (Shape{2}));
  EXPECT_FLOAT_EQ(out[0].data<float>()[0], 0.0f);
}

TEST_F(OptTest, DoubleNegationEliminated) {
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  Node* n1 = g.AddNode("Neg", {x});
  Node* n2 = g.AddNode("Neg", {{n1, 0}});
  Node* consumer = g.AddNode("Square", {{n2, 0}});
  ArithmeticSimplification(g);
  EXPECT_EQ(consumer->input(0).node, x.node);
}

TEST_F(OptTest, DceRemovesUnreachable) {
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  Node* used = g.AddNode("Square", {x});
  g.AddNode("Neg", {x});  // dead
  g.AddNode("Exp", {x});  // dead
  const std::vector<NodeOutput> fetches{{used, 0}};
  EXPECT_EQ(DeadCodeElimination(g, fetches), 2);
  EXPECT_EQ(g.num_nodes(), 2u);
}

TEST_F(OptTest, DceKeepsControlAnchoredSideEffects) {
  variables_.Assign("w", Tensor::Scalar(0));
  Graph g;
  const NodeOutput v = g.Constant(Tensor::Scalar(9));
  Node* assign = g.AddNode("AssignVariable", {v}, {{"var", std::string("w")}});
  Node* anchor = g.AddNode("NoOp", {});
  anchor->AddControlInput(assign);
  const std::vector<NodeOutput> fetches{{anchor, 0}};
  EXPECT_EQ(DeadCodeElimination(g, fetches), 0);
  Run(g, fetches);
  EXPECT_FLOAT_EQ(variables_.Read("w").ScalarValue(), 9.0f);
}

TEST_F(OptTest, OptimizeGraphFixpointPreservesSemantics) {
  // Build a messy graph mixing foldable constants, duplicates, and
  // identities; optimisation must preserve the computed value.
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  const NodeOutput two_a = g.Constant(Tensor::Scalar(2));
  const NodeOutput two_b = g.Constant(Tensor::Scalar(2));
  const NodeOutput zero = g.Constant(Tensor::Scalar(0));
  Node* four = g.AddNode("Mul", {two_a, two_b});      // foldable
  Node* x1 = g.AddNode("Add", {x, zero});             // simplifiable
  Node* p1 = g.AddNode("Mul", {{x1, 0}, {four, 0}});
  Node* p2 = g.AddNode("Mul", {{x1, 0}, {four, 0}});  // duplicate
  Node* sum = g.AddNode("Add", {{p1, 0}, {p2, 0}});
  g.AddNode("Exp", {x});  // dead

  std::vector<NodeOutput> fetches{{sum, 0}};
  const auto before = Run(g, fetches, {{"x", Tensor::Scalar(3)}});
  const std::size_t nodes_before = g.num_nodes();
  const OptimizationStats stats = OptimizeGraph(g, fetches);
  EXPECT_GT(stats.folded, 0);
  EXPECT_GT(stats.cse_merged, 0);
  EXPECT_GT(stats.simplified, 0);
  EXPECT_GT(stats.dce_removed, 0);
  EXPECT_LT(g.num_nodes(), nodes_before);
  const auto after = Run(g, fetches, {{"x", Tensor::Scalar(3)}});
  EXPECT_FLOAT_EQ(before[0].ScalarValue(), after[0].ScalarValue());
  EXPECT_FLOAT_EQ(after[0].ScalarValue(), 24.0f);
}

TEST_F(OptTest, OptimizeGraphIsIdempotent) {
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  Node* s = g.AddNode("Square", {x});
  std::vector<NodeOutput> fetches{{s, 0}};
  OptimizeGraph(g, fetches);
  const std::size_t n = g.num_nodes();
  const OptimizationStats again = OptimizeGraph(g, fetches);
  EXPECT_EQ(g.num_nodes(), n);
  EXPECT_EQ(again.folded + again.cse_merged + again.simplified +
                again.dce_removed,
            0);
}

TEST_F(OptTest, PurityClassification) {
  EXPECT_TRUE(IsPureOp("Add"));
  EXPECT_TRUE(IsPureOp("MatMul"));
  EXPECT_TRUE(IsPureOp("Conv2D"));
  EXPECT_FALSE(IsPureOp("RandomNormal"));
  EXPECT_FALSE(IsPureOp("ReadVariable"));
  EXPECT_FALSE(IsPureOp("Assert"));
  EXPECT_FALSE(IsPureOp("PySetAttr"));
  EXPECT_FALSE(IsPureOp("Switch"));
  EXPECT_FALSE(IsPureOp("Invoke"));
}

// ---- CSE compares constants and attributes bitwise ----

TEST_F(OptTest, CseKeepsFloatConstantsThatDifferInTheLastBit) {
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  const float next = std::nextafter(1.0f, 2.0f);  // 1.0000001f
  Node* m1 = g.AddNode("Mul", {x, g.Constant(Tensor::Scalar(1.0f))});
  Node* m2 = g.AddNode("Mul", {x, g.Constant(Tensor::Scalar(next))});
  Node* diff = g.AddNode("Sub", {{m2, 0}, {m1, 0}});
  EXPECT_EQ(CommonSubexpressionElimination(g), 0);
  EXPECT_NE(diff->input(0).node, diff->input(1).node);
  const auto out = Run(g, {{diff, 0}}, {{"x", Tensor::Scalar(1.0f)}});
  EXPECT_EQ(out[0].ScalarValue(), next - 1.0f);
}

TEST_F(OptTest, CseKeepsLargeInt64ConstantsApart) {
  Graph g;
  const NodeOutput a = g.Constant(Tensor::ScalarInt(1000000));
  const NodeOutput b = g.Constant(Tensor::ScalarInt(1000001));
  Node* diff = g.AddNode("Sub", {b, a});
  EXPECT_EQ(CommonSubexpressionElimination(g), 0);
  const auto out = Run(g, {{diff, 0}});
  EXPECT_EQ(out[0].ScalarIntValue(), 1);
}

TEST_F(OptTest, CseKeepsDoubleAttrsThatDifferPastTheSixthDigit) {
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  g.AddNode("Square", {x}, {{"scale", 1.0}});
  g.AddNode("Square", {x}, {{"scale", 1.0000001}});
  g.AddNode("Square", {x}, {{"scale", 0.0}});
  g.AddNode("Square", {x}, {{"scale", -0.0}});
  EXPECT_EQ(CommonSubexpressionElimination(g), 0);
  // Bitwise equal attributes still merge.
  g.AddNode("Square", {x}, {{"scale", 1.0000001}});
  EXPECT_EQ(CommonSubexpressionElimination(g), 1);
}

// ---- the fixpoint: a pass reports only real graph mutations ----

// The generator's epilogue: the result fetched through an Identity, and a
// NoOp anchor that orders the side effects (here, one variable update).
struct Epilogue {
  Graph graph;
  std::vector<NodeOutput> fetches;
};

Epilogue MakeEpilogue(bool fold_result_into_zero) {
  Epilogue e;
  Graph& g = e.graph;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  NodeOutput value{g.AddNode("Square", {x}), 0};
  if (fold_result_into_zero) {
    value = {g.AddNode("Mul", {value, g.Constant(Tensor::Scalar(0.0f))}), 0};
  }
  Node* result = g.AddNode("Identity", {value});
  Node* assign =
      g.AddNode("AssignVariable", {value}, {{"var", std::string("w")}});
  Node* anchor = g.AddNode("NoOp", {});
  anchor->AddControlInput(assign);
  e.fetches = {{result, 0}, {anchor, 0}};
  return e;
}

TEST_F(OptTest, FetchedIdentityWithAnchorConvergesInTwoRounds) {
  Epilogue e = MakeEpilogue(false);
  const OptimizationStats stats = OptimizeGraph(e.graph, e.fetches);
  EXPECT_LE(stats.rounds, 2);
  // The fetched Identity feeds nothing; rewriting it would rewire no edge.
  EXPECT_EQ(stats.simplified, 0);
  EXPECT_EQ(e.fetches[0].node->op(), "Identity");
}

TEST_F(OptTest, FetchedMulByZeroAddsNoZerosLikeEachRound) {
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  Node* mul = g.AddNode("Mul", {x, g.Constant(Tensor::Scalar(0.0f))});
  const std::vector<NodeOutput> fetches{{mul, 0}};
  const int ids_before = g.id_bound();
  const OptimizationStats stats = OptimizeGraph(g, fetches);
  EXPECT_EQ(stats.rounds, 1);
  EXPECT_EQ(stats.simplified + stats.dce_removed, 0);
  // No ZerosLike was added (and then removed by DCE) on any round.
  EXPECT_EQ(g.id_bound(), ids_before);
  for (const auto& node : g.nodes()) EXPECT_NE(node->op(), "ZerosLike");

  // A Mul-by-zero that something reads is still rewritten, once.
  Epilogue e = MakeEpilogue(true);
  const OptimizationStats read = OptimizeGraph(e.graph, e.fetches);
  EXPECT_EQ(read.simplified, 1);
  EXPECT_LE(read.rounds, 2);
  EXPECT_EQ(e.fetches[0].node->input(0).node->op(), "ZerosLike");
}

class ZooFixpoint : public ::testing::TestWithParam<std::string> {};

TEST_P(ZooFixpoint, GeneratedGraphsAreAlreadyAtTheFixpoint) {
  const models::ModelSpec& spec = models::FindModel(GetParam());
  EngineOptions options;
  options.private_cache = true;
  models::ModelSession session(spec, options);
  for (int i = 0; i < 4; ++i) session.Step();
  int units = 0;
  session.engine().ForEachCompiledUnit(
      [&](const std::string& name, const CompiledGraph& unit) {
        ++units;
        // Re-running the optimizer on an optimized graph must find nothing
        // to do: its nodes and edges only change if this expectation fails.
        Graph& graph = const_cast<Graph&>(unit.graph);
        const std::size_t nodes = graph.num_nodes();
        const OptimizationStats stats = OptimizeGraph(graph, unit.fetches);
        EXPECT_EQ(stats.rounds, 1) << spec.name << " " << name;
        EXPECT_EQ(stats.folded + stats.simplified + stats.cse_merged +
                      stats.dce_removed,
                  0)
            << spec.name << " " << name << ": folded=" << stats.folded
            << " simplified=" << stats.simplified
            << " merged=" << stats.cse_merged
            << " removed=" << stats.dce_removed;
        EXPECT_EQ(graph.num_nodes(), nodes);
      });
  if (session.engine().stats().graph_executions > 0) {
    EXPECT_GT(units, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ZooFixpoint,
    ::testing::Values("LeNet", "ResNet50", "Inception-v3", "LSTM", "LM",
                      "TreeRNN", "TreeLSTM", "A3C", "PPO", "AN", "pix2pix"));

}  // namespace
}  // namespace janus
