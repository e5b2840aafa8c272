#include "db/algebra.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "db/join_key.h"
#include "obs/obs.h"
#include "util/check.h"

namespace cspdb {

using db_internal::KeyIndex;
using db_internal::kNoRow;
using db_internal::SharedPositions;

DbRelation NaturalJoin(const DbRelation& r, const DbRelation& s) {
  CSPDB_TRACE_SPAN("db.natural_join");
  CSPDB_COUNT("db.joins");
  std::vector<int> r_pos, s_pos;
  SharedPositions(r, s, &r_pos, &s_pos);

  // Result schema: r's schema then s's non-shared attributes.
  std::vector<int> schema = r.schema();
  std::vector<int> s_extra_pos;
  for (std::size_t i = 0; i < s.schema().size(); ++i) {
    if (r.AttributePosition(s.schema()[i]) < 0) {
      schema.push_back(s.schema()[i]);
      s_extra_pos.push_back(static_cast<int>(i));
    }
  }
  const int r_arity = r.arity();
  const int s_arity = s.arity();
  const int out_arity = static_cast<int>(schema.size());
  DbRelation out(std::move(schema));
  if (r.empty() || s.empty()) return out;

  // Build side: hash s on its shared columns. Probe side: stream r.
  KeyIndex index(s, s_pos);
  const int* r_data = r.data().data();
  const int* s_data = s.data().data();
  std::vector<int> out_row(static_cast<std::size_t>(out_arity));
  for (std::size_t i = 0; i < r.size(); ++i) {
    const int* rrow = r_data + i * static_cast<std::size_t>(r_arity);
    for (uint32_t m = index.FirstMatch(rrow, r_pos); m != kNoRow;
         m = index.NextMatch(m, rrow, r_pos)) {
      const int* srow = s_data + m * static_cast<std::size_t>(s_arity);
      std::copy(rrow, rrow + r_arity, out_row.begin());
      for (std::size_t k = 0; k < s_extra_pos.size(); ++k) {
        out_row[static_cast<std::size_t>(r_arity) + k] = srow[s_extra_pos[k]];
      }
      // Join outputs of deduplicated inputs are duplicate-free: two build
      // rows matching the same probe row agree on the shared columns, so
      // they must differ on an emitted extra column.
      out.AppendRowUnchecked(out_row.data());
    }
  }
  CSPDB_COUNT_N("db.join.rows_out", static_cast<int64_t>(out.size()));
  CSPDB_GAUGE_MAX("db.join.peak_rows", static_cast<int64_t>(out.size()));
  return out;
}

DbRelation Project(const DbRelation& r, const std::vector<int>& attrs) {
  std::vector<int> positions;
  positions.reserve(attrs.size());
  for (int a : attrs) {
    int p = r.AttributePosition(a);
    CSPDB_CHECK_MSG(p >= 0, "projection attribute not in schema");
    positions.push_back(p);
  }
  DbRelation out(attrs);
  std::vector<int> key(positions.size());
  for (auto row : r.rows()) {
    for (std::size_t i = 0; i < positions.size(); ++i) {
      key[i] = row[positions[i]];
    }
    out.AddRow(key.data());
  }
  return out;
}

DbRelation SelectEquals(const DbRelation& r, int attr, int value) {
  int p = r.AttributePosition(attr);
  CSPDB_CHECK_MSG(p >= 0, "selection attribute not in schema");
  DbRelation out(r.schema());
  for (auto row : r.rows()) {
    if (row[p] == value) out.AppendRowUnchecked(row.data());
  }
  return out;
}

DbRelation Semijoin(const DbRelation& r, const DbRelation& s) {
  CSPDB_COUNT("db.semijoins");
  std::vector<int> r_pos, s_pos;
  SharedPositions(r, s, &r_pos, &s_pos);
  DbRelation out(r.schema());
  if (r.empty() || s.empty()) {
    CSPDB_COUNT_N("db.semijoin.rows_removed", static_cast<int64_t>(r.size()));
    return out;
  }
  KeyIndex index(s, s_pos);
  const int* r_data = r.data().data();
  const int r_arity = r.arity();
  for (std::size_t i = 0; i < r.size(); ++i) {
    const int* rrow = r_data + i * static_cast<std::size_t>(r_arity);
    if (index.FirstMatch(rrow, r_pos) != kNoRow) {
      out.AppendRowUnchecked(rrow);
    }
  }
  CSPDB_COUNT_N("db.semijoin.rows_removed",
                static_cast<int64_t>(r.size() - out.size()));
  return out;
}

DbRelation JoinAll(const std::vector<DbRelation>& relations,
                   int64_t* peak_rows) {
  CSPDB_TIMER_SCOPE("db.join_all");
  CSPDB_CHECK(!relations.empty());
  DbRelation acc = relations[0];
  int64_t peak = static_cast<int64_t>(acc.size());
  for (std::size_t i = 1; i < relations.size(); ++i) {
    acc = NaturalJoin(acc, relations[i]);
    peak = std::max(peak, static_cast<int64_t>(acc.size()));
  }
  if (peak_rows != nullptr) *peak_rows = peak;
  return acc;
}

DbRelation JoinAllGreedy(const std::vector<DbRelation>& relations,
                         int64_t* peak_rows) {
  CSPDB_TIMER_SCOPE("db.join_all_greedy");
  CSPDB_CHECK(!relations.empty());
  std::vector<char> used(relations.size(), 0);
  // Start with the smallest relation.
  std::size_t first = 0;
  for (std::size_t i = 1; i < relations.size(); ++i) {
    if (relations[i].size() < relations[first].size()) first = i;
  }
  used[first] = 1;
  DbRelation acc = relations[first];
  int64_t peak = static_cast<int64_t>(acc.size());
  for (std::size_t step = 1; step < relations.size(); ++step) {
    int best = -1;
    int best_shared = -1;
    for (std::size_t i = 0; i < relations.size(); ++i) {
      if (used[i]) continue;
      int shared = 0;
      for (int attr : relations[i].schema()) {
        if (acc.AttributePosition(attr) >= 0) ++shared;
      }
      if (best < 0 || shared > best_shared ||
          (shared == best_shared &&
           relations[i].size() < relations[best].size())) {
        best = static_cast<int>(i);
        best_shared = shared;
      }
    }
    used[best] = 1;
    acc = NaturalJoin(acc, relations[best]);
    peak = std::max(peak, static_cast<int64_t>(acc.size()));
  }
  if (peak_rows != nullptr) *peak_rows = peak;
  return acc;
}

std::vector<DbRelation> ConstraintsAsRelations(const CspInstance& csp) {
  std::vector<DbRelation> out;
  out.reserve(csp.constraints().size());
  for (const Constraint& c : csp.constraints()) {
    DbRelation r(c.scope);
    r.Reserve(c.allowed.size());
    for (DbRelation::RowRef t : c.allowed) r.AddRow(t.data());
    out.push_back(std::move(r));
  }
  return out;
}

DbRelation SolutionsAsRelation(const CspInstance& csp) {
  CspInstance normalized = csp.NormalizedDistinctScopes();
  std::vector<DbRelation> relations = ConstraintsAsRelations(normalized);
  // Unconstrained variables contribute their full domain.
  std::vector<char> covered(normalized.num_variables(), 0);
  for (const Constraint& c : normalized.constraints()) {
    for (int v : c.scope) covered[v] = 1;
  }
  for (int v = 0; v < normalized.num_variables(); ++v) {
    if (covered[v]) continue;
    DbRelation domain({v});
    for (int d = 0; d < normalized.num_values(); ++d) domain.AddRow({d});
    relations.push_back(std::move(domain));
  }
  if (relations.empty()) {
    DbRelation truth({});
    truth.AddRow(Tuple{});
    return truth;
  }
  DbRelation joined = JoinAll(relations);
  // Canonical column order 0..n-1.
  std::vector<int> order;
  for (int v = 0; v < normalized.num_variables(); ++v) order.push_back(v);
  return Project(joined, order);
}

bool SolvableByJoin(const CspInstance& csp, int64_t* peak_rows) {
  CspInstance normalized = csp.NormalizedDistinctScopes();
  if (normalized.constraints().empty()) {
    // No constraints: solvable as long as values exist for the variables.
    if (peak_rows != nullptr) *peak_rows = 0;
    return normalized.num_variables() == 0 || normalized.num_values() > 0;
  }
  std::vector<DbRelation> relations = ConstraintsAsRelations(normalized);
  return !JoinAll(relations, peak_rows).empty();
}

}  // namespace cspdb
