// Acyclic joins: hypergraphs of relation schemas, GYO reduction,
// join forests, and the Yannakakis semijoin algorithm (paper, Section 6's
// discussion of acyclic joins and acyclic constraints [45, 32]).

#ifndef CSPDB_DB_ACYCLIC_H_
#define CSPDB_DB_ACYCLIC_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "db/relation.h"

namespace cspdb {

/// A hypergraph: one hyperedge (set of attribute ids) per relation.
struct Hypergraph {
  std::vector<std::vector<int>> edges;
};

/// The hypergraph whose edges are the schemas of `relations`.
Hypergraph HypergraphOfSchemas(const std::vector<DbRelation>& relations);

/// A join forest over the edges of a hypergraph: `parent[i]` is the edge
/// that edge i semijoins into (-1 for roots), and `order` lists edges
/// children-before-parents (GYO removal order).
struct JoinForest {
  std::vector<int> parent;
  std::vector<int> order;
};

/// GYO ear removal. Returns a join forest if the hypergraph is
/// alpha-acyclic, std::nullopt otherwise.
std::optional<JoinForest> BuildJoinForest(const Hypergraph& h);

/// True iff the hypergraph is alpha-acyclic.
bool IsAlphaAcyclic(const Hypergraph& h);

/// Per-run statistics for the full reducer and Yannakakis evaluation —
/// the per-stage peak rows EXPERIMENTS.md E8 previously could only infer
/// from timings. Mirrored into the process-wide "db.*" metrics
/// (obs/metrics.h); rendered by obs/explain.h.
struct YannakakisStats {
  int64_t semijoin_passes = 0;  ///< semijoins applied by the full reducer
  int64_t rows_removed = 0;     ///< rows dropped across all those passes
  int64_t peak_reduced_rows = 0;  ///< largest relation after reduction
  int64_t peak_join_rows = 0;     ///< largest bottom-up join intermediate
  int64_t output_rows = 0;        ///< final result cardinality

  /// Per relation (indexed like the input vector): rows before reduction,
  /// rows after the full reducer, and the cardinality of the bottom-up
  /// join produced when this relation folded into its parent (-1 for
  /// roots, which are never folded). input_rows/reduced_rows are filled
  /// by FullReducer; fold_rows only by YannakakisEvaluate.
  std::vector<int64_t> input_rows;
  std::vector<int64_t> reduced_rows;
  std::vector<int64_t> fold_rows;
};

/// Full reducer: runs the child->parent and parent->child semijoin passes
/// over `relations` in place. After this, for an acyclic schema, the join
/// is nonempty iff every relation is nonempty.
void FullReducer(const JoinForest& forest, std::vector<DbRelation>* relations,
                 YannakakisStats* stats = nullptr);

/// Decides whether the natural join of acyclic `relations` is nonempty in
/// polynomial time (semijoin program only — no join is materialized).
bool AcyclicJoinNonempty(const JoinForest& forest,
                         std::vector<DbRelation> relations);

/// The Yannakakis algorithm: full reducer, then bottom-up joins projecting
/// onto `output_attrs` plus connector attributes, keeping every
/// intermediate result polynomial in input + output. `peak_rows`, if
/// non-null, receives the largest intermediate cardinality.
DbRelation YannakakisEvaluate(const JoinForest& forest,
                              std::vector<DbRelation> relations,
                              const std::vector<int>& output_attrs,
                              int64_t* peak_rows = nullptr,
                              YannakakisStats* stats = nullptr);

}  // namespace cspdb

#endif  // CSPDB_DB_ACYCLIC_H_
