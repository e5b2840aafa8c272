#include "csp/support_masks.h"

#include <utility>

#include "util/check.h"
#include "util/simd.h"

namespace cspdb {

void ConstraintSupport::CollectUnsupported(const Bitset& valid,
                                           const Bitset& domain, int g,
                                           int num_values,
                                           std::vector<int>* out) const {
  CSPDB_DCHECK(valid.num_words() == words);
  const uint64_t* valid_words = valid.words();
  const uint64_t* rows =
      support.data() +
      static_cast<std::size_t>(g) * num_values * static_cast<std::size_t>(words);
  const std::size_t row_words = static_cast<std::size_t>(words);
  for (int val = domain.FindFirst(); val >= 0;
       val = domain.NextSetBit(val + 1)) {
    if (!simd::Intersects(valid_words,
                          rows + static_cast<std::size_t>(val) * row_words,
                          row_words)) {
      out->push_back(val);
    }
  }
}

SupportMasks::SupportMasks(const CspInstance& csp) {
  const int m = static_cast<int>(csp.constraints().size());
  const int num_values = csp.num_values();
  constraints.resize(m);
  for (int ci = 0; ci < m; ++ci) {
    const Constraint& c = csp.constraint(ci);
    ConstraintSupport& masks = constraints[ci];
    const int num_tuples = static_cast<int>(c.allowed.size());
    const bool has_dup =
        c.distinct_slots.size() != static_cast<std::size_t>(c.arity());
    std::vector<std::vector<int>> group_slots;
    for (int slot : c.distinct_slots) {
      masks.group_var.push_back(c.scope[slot]);
      std::vector<int> slots;
      for (int q = 0; q < c.arity(); ++q) {
        if (c.scope[q] == c.scope[slot]) slots.push_back(q);
      }
      group_slots.push_back(std::move(slots));
    }
    const std::size_t cells =
        masks.group_var.size() * static_cast<std::size_t>(num_values);
    masks.words = static_cast<int>(Bitset::NumWordsFor(num_tuples));
    const std::size_t words = static_cast<std::size_t>(masks.words);
    masks.support.assign(cells * words, 0);
    if (has_dup) masks.killer.assign(cells * words, 0);
    auto set_bit = [words](std::vector<uint64_t>& arena, std::size_t cell,
                           int ti) {
      arena[cell * words + (static_cast<std::size_t>(ti) >> 6)] |=
          uint64_t{1} << (ti & 63);
    };
    for (int ti = 0; ti < num_tuples; ++ti) {
      const DbRelation::RowRef t = c.allowed.row(ti);
      for (std::size_t g = 0; g < masks.group_var.size(); ++g) {
        const std::vector<int>& slots = group_slots[g];
        const int val = t[slots[0]];
        bool agree = true;
        for (int q : slots) {
          if (t[q] != val) {
            agree = false;
            break;
          }
        }
        if (agree) {
          set_bit(masks.support, g * num_values + val, ti);
        }
        if (has_dup) {
          for (int q : slots) {
            set_bit(masks.killer, g * num_values + t[q], ti);
          }
        }
      }
    }
  }
  var_group.resize(csp.num_variables());
  for (int v = 0; v < csp.num_variables(); ++v) {
    for (int ci : csp.ConstraintsOn(v)) {
      int group = -1;
      const std::vector<int>& vars = constraints[ci].group_var;
      for (std::size_t g = 0; g < vars.size(); ++g) {
        if (vars[g] == v) {
          group = static_cast<int>(g);
          break;
        }
      }
      CSPDB_DCHECK(group >= 0);
      var_group[v].push_back(group);
    }
  }
}

}  // namespace cspdb
