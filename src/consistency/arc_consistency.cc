#include "consistency/arc_consistency.h"

#include <algorithm>
#include <cstddef>
#include <deque>
#include <utility>

#include "csp/support_masks.h"
#include "obs/obs.h"
#include "util/check.h"

namespace cspdb {
namespace {

// The shared propagation engine: owns the immutable support masks and
// runs the AC-3 worklist over externally held packed state, so SAC can
// probe by copying state words instead of rebuilding instances.
class GacEngine {
 public:
  // Mutable propagation state. Copy-assignable; copies reuse buffers, so
  // a probe costs a handful of memcpys.
  struct State {
    std::vector<Bitset> domains;   // [var] -> packed surviving values
    std::vector<int> domain_size;  // popcount cache of domains
    std::vector<Bitset> valid;     // [constraint] -> tuples alive under
                                   //   the current domains
  };

  explicit GacEngine(const CspInstance& csp) : csp_(csp), masks_(csp) {}

  void InitFullState(State* s) const {
    s->domains.assign(csp_.num_variables(), Bitset(csp_.num_values(), true));
    s->domain_size.assign(csp_.num_variables(), csp_.num_values());
    s->valid.clear();
    s->valid.reserve(csp_.constraints().size());
    for (const Constraint& c : csp_.constraints()) {
      s->valid.emplace_back(static_cast<int>(c.allowed.size()), true);
    }
  }

  /// Removes (var, val) from the state: domain bit, size cache, and the
  /// valid-tuple masks of every constraint on var (whole words at a
  /// time). Returns false on domain wipeout.
  bool Prune(State* s, int var, int val, int64_t* prunings) const {
    s->domains[var].Reset(val);
    --s->domain_size[var];
    ++*prunings;
    const std::vector<int>& cons = csp_.ConstraintsOn(var);
    for (std::size_t k = 0; k < cons.size(); ++k) {
      const int ci = cons[k];
      s->valid[ci].AndNotWithWords(masks_.constraints[ci].KillerMask(
          masks_.var_group[var][k], csp_.num_values(), val));
    }
    return s->domain_size[var] > 0;
  }

  /// Runs the AC-3 worklist to fixpoint with every constraint seeded.
  /// Returns false (leaving partially pruned state) on wipeout.
  bool RunToFixpoint(State* s, int64_t* revisions, int64_t* prunings) {
    const int m = static_cast<int>(csp_.constraints().size());
    const int num_values = csp_.num_values();
    queue_.clear();
    queued_.assign(m, 1);
    for (int ci = 0; ci < m; ++ci) queue_.push_back(ci);
    while (!queue_.empty()) {
      const int ci = queue_.front();
      queue_.pop_front();
      queued_[ci] = 0;
      const ConstraintSupport& masks = masks_.constraints[ci];
      bool any_changed = false;
      for (std::size_t g = 0; g < masks.group_var.size(); ++g) {
        const int var = masks.group_var[g];
        ++*revisions;
        // SIMD sweep over the group's support rows against a snapshot of
        // the valid-tuple mask. Pruning a collected value can strip the
        // last support of a later value in the same group; that value is
        // caught when the worklist revisits this constraint (any change
        // re-queues it below), so the fixpoint — the compared contract —
        // is unchanged relative to the value-at-a-time revision.
        prune_buf_.clear();
        masks.CollectUnsupported(s->valid[ci], s->domains[var],
                                 static_cast<int>(g), num_values,
                                 &prune_buf_);
        const bool changed = !prune_buf_.empty();
        for (int val : prune_buf_) {
          if (!Prune(s, var, val, prunings)) return false;
        }
        if (changed) {
          any_changed = true;
          for (int other : csp_.ConstraintsOn(var)) {
            if (other != ci && !queued_[other]) {
              queue_.push_back(other);
              queued_[other] = 1;
              queue_peak_ =
                  std::max(queue_peak_, static_cast<int64_t>(queue_.size()));
            }
          }
        }
      }
      // Re-examine this constraint's other variables too.
      if (any_changed && !queued_[ci]) {
        queue_.push_back(ci);
        queued_[ci] = 1;
      }
    }
    return true;
  }

  /// Longest worklist after a push, over every run on this engine.
  int64_t queue_peak() const { return queue_peak_; }

 private:
  const CspInstance& csp_;
  SupportMasks masks_;
  // Worklist scratch, reused across runs.
  std::deque<int> queue_;
  std::vector<char> queued_;
  int64_t queue_peak_ = 0;
  // Values collected by the revision sweep, reused across revisions.
  std::vector<int> prune_buf_;
};

// Adds one finished run to the process-wide "gac.*" metrics: one update
// per metric per run, so the worklist loops touch only their own
// counters. `probe_prunings` are SAC's prunings inside probes, which
// result.prunings leaves out and "gac.prunings" counts.
void RecordRun(const AcResult& result, int64_t probe_prunings,
               int64_t queue_peak) {
  CSPDB_COUNT_N("gac.revisions", result.revisions);
  CSPDB_COUNT_N("gac.prunings", result.prunings + probe_prunings);
  CSPDB_GAUGE_MAX("gac.queue_peak", queue_peak);
  if (!result.consistent) CSPDB_COUNT("gac.wipeouts");
}

}  // namespace

AcResult EnforceGac(const CspInstance& csp) {
  CSPDB_TIMER_SCOPE("consistency.gac");
  AcResult result;
  if (csp.num_variables() > 0 && csp.num_values() == 0) {
    result.domains.assign(csp.num_variables(), Bitset(0));
    result.consistent = false;
    result.wipeouts = 1;
    return result;
  }
  GacEngine engine(csp);
  GacEngine::State state;
  engine.InitFullState(&state);
  result.consistent =
      engine.RunToFixpoint(&state, &result.revisions, &result.prunings);
  if (!result.consistent) {
    result.wipeouts = 1;
    CSPDB_TRACE_INSTANT("gac.wipeout");
  }
  RecordRun(result, /*probe_prunings=*/0, engine.queue_peak());
  result.domains = std::move(state.domains);
  return result;
}

AcResult EnforceSingletonArcConsistency(const CspInstance& csp) {
  CSPDB_TIMER_SCOPE("consistency.sac");
  AcResult result;
  if (csp.num_variables() > 0 && csp.num_values() == 0) {
    result.domains.assign(csp.num_variables(), Bitset(0));
    result.consistent = false;
    result.wipeouts = 1;
    return result;
  }
  GacEngine engine(csp);
  GacEngine::State outer;
  engine.InitFullState(&outer);
  result.consistent =
      engine.RunToFixpoint(&outer, &result.revisions, &result.prunings);
  if (!result.consistent) result.wipeouts = 1;

  // Probe x_v = d on top of the shared masks: copy the packed state,
  // apply the restriction, and rerun the worklist. No instances are
  // rebuilt and no support masks recomputed per probe.
  GacEngine::State probe;
  int64_t probes = 0;
  int64_t probe_prunings = 0;
  bool changed = result.consistent;
  while (changed) {
    changed = false;
    for (int v = 0; v < csp.num_variables() && result.consistent; ++v) {
      for (int d = 0; d < csp.num_values(); ++d) {
        if (!outer.domains[v].Test(d)) continue;
        probe = outer;
        bool probe_consistent = true;
        ++probes;
        for (int other = outer.domains[v].FindFirst(); other >= 0;
             other = outer.domains[v].NextSetBit(other + 1)) {
          if (other == d) continue;
          if (!engine.Prune(&probe, v, other, &probe_prunings)) {
            probe_consistent = false;
            break;
          }
        }
        if (probe_consistent) {
          probe_consistent =
              engine.RunToFixpoint(&probe, &result.revisions, &probe_prunings);
        }
        if (!probe_consistent) {
          changed = true;
          ++result.wipeouts;
          if (!engine.Prune(&outer, v, d, &result.prunings)) {
            result.consistent = false;
            ++result.wipeouts;
            break;
          }
        }
      }
    }
  }
  RecordRun(result, probe_prunings, engine.queue_peak());
  CSPDB_COUNT_N("sac.probes", probes);
  // Every wipeout refuted a probe, except an inconsistent run's last one.
  CSPDB_COUNT_N("sac.probe_wipeouts",
                result.wipeouts - (result.consistent ? 0 : 1));
  result.domains = std::move(outer.domains);
  return result;
}

CspInstance RestrictToDomains(const CspInstance& csp,
                              const std::vector<Bitset>& domains) {
  CSPDB_CHECK(static_cast<int>(domains.size()) == csp.num_variables());
  CspInstance out(csp.num_variables(), csp.num_values());
  for (const Constraint& c : csp.constraints()) {
    out.AddConstraintRows(c.scope, c.allowed.data());
  }
  for (int v = 0; v < csp.num_variables(); ++v) {
    std::vector<Tuple> allowed;
    for (int d = 0; d < csp.num_values(); ++d) {
      if (domains[v].Test(d)) allowed.push_back({d});
    }
    out.AddConstraint({v}, std::move(allowed));
  }
  return out;
}

}  // namespace cspdb
