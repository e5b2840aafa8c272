#include "db/body_join.h"

#include <limits>

#include "util/check.h"

namespace cspdb {

using db_internal::KeyIndex;
using db_internal::kNoRow;

namespace {

// Rows a run visits between two polls of its token: a poll reads the
// clock, about as much as a few dozen visits.
constexpr int64_t kRowsPerPoll = 4096;

}  // namespace

DbRelation FlatRelation(const Structure& s, int rel) {
  const int arity = s.vocabulary().symbol(rel).arity;
  std::vector<int> columns(static_cast<std::size_t>(arity));
  for (int c = 0; c < arity; ++c) columns[c] = c;
  DbRelation out(std::move(columns));
  const std::vector<Tuple>& tuples = s.tuples(rel);
  out.Reserve(tuples.size());
  // A Structure's tuples are already distinct.
  for (const Tuple& t : tuples) out.AppendRowUnchecked(t.data());
  return out;
}

int JoinIndexes::Slot(const DbRelation* rel, const std::vector<int>& columns) {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].rel == rel && entries_[i].columns == columns) {
      return static_cast<int>(i);
    }
  }
  entries_.push_back({rel, columns, 0, nullptr});
  return static_cast<int>(entries_.size() - 1);
}

const KeyIndex& JoinIndexes::Get(int slot, std::size_t rows) {
  Entry& entry = entries_[static_cast<std::size_t>(slot)];
  if (entry.index == nullptr || entry.rows != rows) {
    entry.index = std::make_unique<KeyIndex>(*entry.rel, entry.columns, rows);
    entry.rows = rows;
  }
  return *entry.index;
}

BodyJoin::BodyJoin(const std::vector<BodyAtom>& atoms,
                   const std::vector<int>& head, int num_variables, int lead,
                   JoinIndexes* indexes)
    : head_(head),
      indexes_(indexes),
      binding_(static_cast<std::size_t>(num_variables), 0),
      head_row_(head.size()) {
  std::vector<char> placed(atoms.size(), 0);
  std::vector<char> bound(static_cast<std::size_t>(num_variables), 0);
  auto place = [&](std::size_t i) {
    placed[i] = 1;
    const std::vector<int>& args = *atoms[i].args;
    Step step;
    step.atom = atoms[i];
    std::vector<int> columns;
    for (std::size_t c = 0; c < args.size(); ++c) {
      const int col = static_cast<int>(c);
      const int v = args[c];
      if (bound[v]) {
        columns.push_back(col);
        step.probe.push_back(v);
        continue;
      }
      int first = -1;
      for (const auto& [bind_col, var] : step.bind) {
        if (var == v) first = bind_col;
      }
      if (first < 0) {
        step.bind.push_back({col, v});
      } else {
        step.same.push_back({col, first});
      }
    }
    for (const auto& [col, var] : step.bind) bound[var] = 1;
    if (!columns.empty() && step.atom.rows != nullptr) {
      step.index = indexes->Slot(step.atom.rows, columns);
    }
    steps_.push_back(std::move(step));
  };
  if (lead >= 0) place(static_cast<std::size_t>(lead));
  while (steps_.size() < atoms.size()) {
    std::size_t best = 0;
    int best_bound = -1;
    for (std::size_t i = 0; i < atoms.size(); ++i) {
      if (placed[i]) continue;
      int bound_count = 0;
      for (int v : *atoms[i].args) bound_count += bound[v];
      if (bound_count > best_bound) {
        best = i;
        best_bound = bound_count;
      }
    }
    place(best);
  }
  for (int h : head_) {
    CSPDB_CHECK_MSG(bound[h],
                    "unsafe query: head variable missing from the body");
  }
  probes_.resize(steps_.size());
}

int64_t BodyJoin::Run(DbRelation* out,
                      const exec::CancellationToken* cancel) {
  // Every bound is fixed here, before the first head row is added.
  for (Step& step : steps_) {
    step.first = step.atom.First();
    step.last = step.atom.Last();
    if (step.first >= step.last) return 0;
  }
  for (std::size_t d = 0; d < steps_.size(); ++d) {
    const Step& step = steps_[d];
    probes_[d] =
        step.index < 0 ? nullptr : &indexes_->Get(step.index, step.last);
  }
  out_ = out;
  bindings_ = 0;
  cancel_ = cancel;
  until_poll_ = cancel == nullptr ? std::numeric_limits<int64_t>::max()
                                  : kRowsPerPoll;
  stopped_ = false;
  Descend(0);
  return bindings_;
}

void BodyJoin::Descend(std::size_t depth) {
  if (depth == steps_.size()) {
    ++bindings_;
    for (std::size_t i = 0; i < head_.size(); ++i) {
      head_row_[i] = binding_[head_[i]];
    }
    out_->AddRow(head_row_.data());
    return;
  }
  // Once stopped, every step returns here, so the run unwinds.
  if (stopped_) return;
  const Step& step = steps_[depth];
  const DbRelation& rel = *step.atom.rows;
  const std::size_t arity = static_cast<std::size_t>(rel.arity());
  auto visit = [&](std::size_t r) {
    // Read through the relation each time: when it is also the head's,
    // the rows added below can move its buffer.
    const int* row = rel.data().data() + r * arity;
    for (const auto& [col, first] : step.same) {
      if (row[col] != row[first]) return;
    }
    for (const auto& [col, var] : step.bind) binding_[var] = row[col];
    Descend(depth + 1);
  };
  const KeyIndex* index = probes_[depth];
  int64_t visited = 0;
  if (index == nullptr) {
    for (std::size_t r = step.first; r < step.last; ++r) visit(r);
    visited = static_cast<int64_t>(step.last - step.first);
  } else {
    // The index covers rows [0, last); a match below `first` is skipped.
    for (uint32_t r = index->FirstMatch(binding_.data(), step.probe);
         r != kNoRow; r = index->NextMatch(r, binding_.data(), step.probe)) {
      ++visited;
      if (r >= step.first) visit(r);
    }
  }
  // Counted once per loop, not per row, so the loop carries no store.
  until_poll_ -= visited;
  if (until_poll_ <= 0) {
    until_poll_ = kRowsPerPoll;
    stopped_ = cancel_->cancelled();
  }
}

}  // namespace cspdb
