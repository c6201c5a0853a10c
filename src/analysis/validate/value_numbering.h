// Hash-consed symbolic values for the translation validator.
//
// A value number stands for "the value this wire/register holds", built
// bottom-up from primary inputs and constants through pure operations. Two
// expressions get the same number iff they are structurally identical after
// normalizing commutative operand order — so proving "the ALU port receives
// value number ideal[operand]" proves the datapath routes the right data
// without ever evaluating anything. fresh() mints values nothing else can
// equal (the result of a refuted read), and LoopSuper nodes are opaque: one
// unique value per node, since a folded loop body has no algebraic law we
// can exploit.
#pragma once

#include <map>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "dfg/dfg.h"

namespace mframe::analysis {

using Vn = int;
inline constexpr Vn kNoVn = -1;

class ValueNumbering {
 public:
  /// The value of primary input `node` (deterministic per node).
  Vn ofInput(dfg::NodeId node);

  /// The value of literal `value` (deterministic per literal).
  Vn ofConst(long value);

  /// The value of `kind` applied to operand values; pass kNoVn for the
  /// missing operand of unary kinds. Commutative kinds sort their operands,
  /// so a mux-optimizer operand swap still proves equal.
  Vn ofOp(dfg::OpKind kind, Vn a, Vn b);

  /// An uninterpreted value unique to `node` (LoopSuper bodies).
  Vn ofOpaque(dfg::NodeId node);

  /// A value equal to nothing, including later fresh() results.
  Vn fresh();

  /// Ideal value of every node of `g`, indexed by NodeId. Requires the
  /// graph in topological id order (the Dfg builder invariant).
  std::vector<Vn> numberGraph(const dfg::Dfg& g);

  /// Render `v` as an expression, e.g. "(a + (b * 2))"; deep terms elide to
  /// "...". Junk values render as "junk#N".
  std::string toString(Vn v, const dfg::Dfg& g, int depth = 4) const;

 private:
  struct Def {
    enum class Kind { Input, Const, Op, Opaque, Fresh } kind = Kind::Fresh;
    dfg::NodeId node = dfg::kNoNode;       // Input / Opaque
    long value = 0;                        // Const
    dfg::OpKind op = dfg::OpKind::Input;   // Op
    Vn a = kNoVn, b = kNoVn;               // Op
  };

  Vn intern(Def d);

  std::vector<Def> defs_;
  std::map<dfg::NodeId, Vn> inputVn_;
  std::map<long, Vn> constVn_;
  std::map<dfg::NodeId, Vn> opaqueVn_;

  using OpKey = std::tuple<dfg::OpKind, Vn, Vn>;
  struct OpKeyHash {
    std::size_t operator()(const OpKey& k) const;
  };
  std::unordered_map<OpKey, Vn, OpKeyHash> opVn_;
};

}  // namespace mframe::analysis
