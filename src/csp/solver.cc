#include "csp/solver.h"

#include <algorithm>
#include <utility>

#include "analysis/validate_csp.h"
#include "obs/obs.h"
#include "relational/homomorphism.h"
#include "util/check.h"

namespace cspdb {
namespace {

// Adds one finished run to the process-wide "csp.*" metrics: one update
// per metric per run, so the search loops touch only `stats`.
void RecordRun(const SolverStats& stats) {
  CSPDB_COUNT_N("csp.nodes", stats.nodes);
  CSPDB_COUNT_N("csp.backtracks", stats.backtracks);
  CSPDB_COUNT_N("csp.prunings", stats.prunings);
  CSPDB_COUNT_N("csp.revisions", stats.revisions);
  CSPDB_GAUGE_MAX("csp.gac_queue_peak", stats.gac_queue_peak);
}

}  // namespace

BacktrackingSolver::BacktrackingSolver(const CspInstance& csp,
                                       SolverOptions options)
    : csp_(csp), options_(options) {
  degree_.assign(csp_.num_variables(), 0);
  for (int v = 0; v < csp_.num_variables(); ++v) {
    degree_[v] = static_cast<int>(csp_.ConstraintsOn(v).size());
  }
}

void BacktrackingSolver::Reset() {
  stats_ = SolverStats{};
  revision_counts_.assign(csp_.constraints().size(), 0);
  active_.assign(csp_.num_variables(), Bitset(csp_.num_values(), true));
  domain_size_.assign(csp_.num_variables(), csp_.num_values());
  assignment_.assign(csp_.num_variables(), kUnassigned);
  trail_.clear();
  word_trail_.clear();
  residues_.assign(csp_.constraints().size(), {});
  masks_.emplace(csp_);
  valid_.clear();
  valid_.reserve(csp_.constraints().size());
  for (const Constraint& c : csp_.constraints()) {
    valid_.emplace_back(static_cast<int>(c.allowed.size()), true);
  }
}

bool BacktrackingSolver::Prune(int var, int val) {
  if (!active_[var].Test(val)) return true;
  active_[var].Reset(val);
  --domain_size_[var];
  ++stats_.prunings;
  trail_.push_back({var, val});
  // Kill the tuples that assigned val to var, a word at a time, saving
  // each changed word on the trail for backtracking.
  const std::vector<int>& cons = csp_.ConstraintsOn(var);
  for (std::size_t k = 0; k < cons.size(); ++k) {
    const int ci = cons[k];
    const uint64_t* kw = masks_->constraints[ci].KillerMask(
        masks_->var_group[var][k], csp_.num_values(), val);
    uint64_t* vw = valid_[ci].mutable_words();
    for (int w = 0; w < valid_[ci].num_words(); ++w) {
      const uint64_t old_word = vw[w];
      const uint64_t new_word = old_word & ~kw[w];
      if (new_word != old_word) {
        word_trail_.push_back({ci, w, old_word});
        vw[w] = new_word;
      }
    }
  }
  return domain_size_[var] > 0;
}

void BacktrackingSolver::UndoTo(std::size_t value_mark,
                                std::size_t word_mark) {
  while (trail_.size() > value_mark) {
    auto [var, val] = trail_.back();
    trail_.pop_back();
    active_[var].Set(val);
    ++domain_size_[var];
  }
  // Reverse replay: if a word was saved more than once, the oldest value
  // is restored last.
  while (word_trail_.size() > word_mark) {
    const WordTrailEntry& e = word_trail_.back();
    valid_[e.constraint].mutable_words()[e.word] = e.old_word;
    word_trail_.pop_back();
  }
}

int BacktrackingSolver::GroupOf(int ci, int var) const {
  const std::vector<int>& vars = masks_->constraints[ci].group_var;
  for (std::size_t g = 0; g < vars.size(); ++g) {
    if (vars[g] == var) return static_cast<int>(g);
  }
  CSPDB_DCHECK(false);
  return -1;
}

bool BacktrackingSolver::CheckAssignedConstraints(int var) const {
  for (int ci : csp_.ConstraintsOn(var)) {
    const Constraint& c = csp_.constraint(ci);
    bool all_assigned = true;
    for (int v : c.scope) {
      if (assignment_[v] == kUnassigned) {
        all_assigned = false;
        break;
      }
    }
    // With every scope variable a singleton, the valid tuples are exactly
    // those matching the assignment — membership is a nonemptiness test.
    if (all_assigned && valid_[ci].None()) return false;
  }
  return true;
}

bool BacktrackingSolver::ForwardCheck(int var) {
  for (int ci : csp_.ConstraintsOn(var)) {
    const Constraint& c = csp_.constraint(ci);
    // Collect the single unassigned variable, if any.
    int open_var = kUnassigned;
    bool exactly_one = true;
    for (int v : c.scope) {
      if (assignment_[v] == kUnassigned) {
        if (open_var != kUnassigned && open_var != v) {
          exactly_one = false;
          break;
        }
        open_var = v;
      }
    }
    if (open_var == kUnassigned) {
      if (valid_[ci].None()) return false;  // fully assigned: membership
      continue;
    }
    if (!exactly_one) continue;
    // Prune unsupported values of open_var: supported iff some valid
    // tuple assigns val to every slot of open_var.
    const ConstraintSupport& masks = masks_->constraints[ci];
    const int g = GroupOf(ci, open_var);
    const Bitset& domain = active_[open_var];
    for (int val = domain.FindFirst(); val >= 0;
         val = domain.NextSetBit(val + 1)) {
      if (valid_[ci].IntersectsWords(
              masks.SupportMask(g, csp_.num_values(), val))) {
        continue;
      }
      if (!Prune(open_var, val)) return false;
    }
  }
  return true;
}

bool BacktrackingSolver::Revise(int ci, int group) {
  ++stats_.revisions;
  ++revision_counts_[ci];
  const ConstraintSupport& masks = masks_->constraints[ci];
  const int var = masks.group_var[group];
  const int num_values = csp_.num_values();
  std::vector<int>& residues = residues_[ci];
  if (residues.empty()) {
    residues.assign(
        masks.group_var.size() * static_cast<std::size_t>(num_values), -1);
  }
  bool changed = false;
  const Bitset& domain = active_[var];
  for (int val = domain.FindFirst(); val >= 0;
       val = domain.NextSetBit(val + 1)) {
    int& residue = residues[group * num_values + val];
    // A residue tuple permanently assigns val to var's slots, so it is a
    // support exactly while it stays in the valid mask.
    if (residue >= 0 && valid_[ci].Test(residue)) continue;
    const int found = valid_[ci].FirstCommonBitWords(
        masks.SupportMask(group, num_values, val));
    if (found >= 0) {
      residue = found;
      continue;
    }
    if (!Prune(var, val)) return false;
    changed = true;
  }
  last_revise_changed_ = changed;
  return true;
}

bool BacktrackingSolver::PropagateGac(
    const std::vector<int>& seed_constraints) {
  gac_queue_.assign(seed_constraints.begin(), seed_constraints.end());
  gac_queued_.assign(csp_.constraints().size(), 0);
  for (int c : gac_queue_) gac_queued_[c] = 1;
  while (!gac_queue_.empty()) {
    const int ci = gac_queue_.front();
    gac_queue_.pop_front();
    gac_queued_[ci] = 0;
    const ConstraintSupport& masks = masks_->constraints[ci];
    for (std::size_t g = 0; g < masks.group_var.size(); ++g) {
      last_revise_changed_ = false;
      if (!Revise(ci, static_cast<int>(g))) return false;
      if (last_revise_changed_) {
        for (int other : csp_.ConstraintsOn(masks.group_var[g])) {
          if (other != ci && !gac_queued_[other]) {
            gac_queue_.push_back(other);
            gac_queued_[other] = 1;
            stats_.gac_queue_peak =
                std::max(stats_.gac_queue_peak,
                         static_cast<int64_t>(gac_queue_.size()));
          }
        }
      }
    }
  }
  return true;
}

bool BacktrackingSolver::AssignAndPropagate(int var, int val) {
  assignment_[var] = val;
  for (int other = 0; other < csp_.num_values(); ++other) {
    if (other != val && !Prune(var, other)) return false;
  }
  switch (options_.propagation) {
    case Propagation::kNone:
      return CheckAssignedConstraints(var);
    case Propagation::kForwardChecking:
      return ForwardCheck(var);
    case Propagation::kGac:
      return PropagateGac(csp_.ConstraintsOn(var));
  }
  return false;
}

int BacktrackingSolver::PickVariable() const {
  int best = kUnassigned;
  for (int v = 0; v < csp_.num_variables(); ++v) {
    if (assignment_[v] != kUnassigned) continue;
    if (best == kUnassigned) {
      best = v;
      if (!options_.mrv) return best;  // static order
      continue;
    }
    if (domain_size_[v] < domain_size_[best] ||
        (domain_size_[v] == domain_size_[best] &&
         degree_[v] > degree_[best])) {
      best = v;
    }
  }
  return best;
}

template <typename Callback>
bool BacktrackingSolver::Recurse(Callback&& on_solution, bool* stopped) {
  int var = PickVariable();
  if (var == kUnassigned) {
    if (!on_solution(assignment_)) {
      *stopped = true;
      return true;
    }
    return false;
  }
  for (int val = 0; val < csp_.num_values(); ++val) {
    if (!active_[var].Test(val)) continue;
    if (options_.node_limit >= 0 && stats_.nodes >= options_.node_limit) {
      stats_.aborted = true;
      *stopped = true;
      return true;
    }
    // Poll cancellation every 64 nodes — cheap enough to leave in the hot
    // loop, responsive enough for per-request deadlines.
    if (options_.cancel != nullptr && (stats_.nodes & 63) == 0 &&
        options_.cancel->cancelled()) {
      stats_.aborted = true;
      *stopped = true;
      return true;
    }
    ++stats_.nodes;
    std::size_t value_mark = trail_.size();
    std::size_t word_mark = word_trail_.size();
    if (AssignAndPropagate(var, val)) {
      if (Recurse(on_solution, stopped)) return true;
    }
    assignment_[var] = kUnassigned;
    UndoTo(value_mark, word_mark);
    ++stats_.backtracks;
  }
  return false;
}

template <typename Callback>
bool BacktrackingSolver::Search(Callback&& on_solution) {
  if (csp_.num_variables() > 0 && csp_.num_values() == 0) {
    stats_ = SolverStats{};
    return false;
  }
  // Empty-relation constraints are unsatisfiable outright.
  for (const Constraint& c : csp_.constraints()) {
    if (c.allowed.empty()) {
      stats_ = SolverStats{};
      return false;
    }
  }
  Reset();
  if (options_.propagation == Propagation::kGac) {
    std::vector<int> all(csp_.constraints().size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
    if (!PropagateGac(all)) return false;
  }
  bool stopped = false;
  Recurse(on_solution, &stopped);
  return stopped;
}

std::optional<std::vector<int>> BacktrackingSolver::Solve() {
  CSPDB_TIMER_SCOPE("csp.solve");
  std::optional<std::vector<int>> result;
  Search([&](const std::vector<int>& a) {
    result = a;
    return false;  // stop at first solution
  });
  RecordRun(stats_);
  if (stats_.aborted) return std::nullopt;
  if (result.has_value()) {
    CSPDB_AUDIT(AuditOrDie("BacktrackingSolver solution",
                           ValidateSolution(csp_, *result)));
  }
  return result;
}

int64_t BacktrackingSolver::CountSolutions(int64_t limit) {
  CSPDB_TIMER_SCOPE("csp.count_solutions");
  int64_t count = 0;
  Search([&](const std::vector<int>&) {
    ++count;
    return count < limit;
  });
  RecordRun(stats_);
  return count;
}

}  // namespace cspdb
