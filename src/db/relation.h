// Database relations with named (integer) attributes. Proposition 2.1 of
// the paper views every CSP variable as a relational attribute and every
// constraint as a relation over its scope; this module is that view.
//
// Storage is a single row-major contiguous int buffer (arity() values per
// row, no per-row heap allocation) plus an open-addressed hash index over
// row contents for O(1) membership and deduplication. The index is built
// lazily: bulk appends from the join kernels pay nothing until the next
// membership query.

#ifndef CSPDB_DB_RELATION_H_
#define CSPDB_DB_RELATION_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "relational/structure.h"
#include "util/check.h"

namespace cspdb {

/// A relation instance: a schema of distinct attribute ids and a
/// deduplicated set of rows of matching arity. Arity 0 is allowed (the
/// result of a Boolean query): such a relation holds either zero rows
/// (false) or the single empty row (true).
class DbRelation {
 public:
  /// A non-owning view of one row: `arity()` consecutive ints inside the
  /// relation's flat buffer. Invalidated by any mutation of the relation.
  class RowRef {
   public:
    RowRef(const int* data, int arity) : data_(data), arity_(arity) {}

    int operator[](int i) const {
      CSPDB_DCHECK(i >= 0 && i < arity_);
      return data_[i];
    }
    int size() const { return arity_; }
    const int* data() const { return data_; }
    const int* begin() const { return data_; }
    const int* end() const { return data_ + arity_; }

    /// Materializes the row as an owning Tuple (cold paths only).
    Tuple ToTuple() const { return Tuple(data_, data_ + arity_); }

   private:
    const int* data_;
    int arity_;
  };

  /// Forward iterator over rows, yielding RowRef views. Index-based so
  /// arity-0 relations (empty flat buffer) iterate safely.
  class RowIterator {
   public:
    RowIterator(const int* base, int arity, std::size_t idx)
        : base_(base), arity_(arity), idx_(idx) {}
    RowRef operator*() const {
      return RowRef(base_ + idx_ * static_cast<std::size_t>(arity_), arity_);
    }
    RowIterator& operator++() {
      ++idx_;
      return *this;
    }
    bool operator==(const RowIterator& o) const { return idx_ == o.idx_; }
    bool operator!=(const RowIterator& o) const { return idx_ != o.idx_; }

   private:
    const int* base_;
    int arity_;
    std::size_t idx_;
  };

  class RowRange {
   public:
    RowRange(const int* base, int arity, std::size_t num_rows)
        : base_(base), arity_(arity), num_rows_(num_rows) {}
    RowIterator begin() const { return RowIterator(base_, arity_, 0); }
    RowIterator end() const { return RowIterator(base_, arity_, num_rows_); }
    std::size_t size() const { return num_rows_; }

   private:
    const int* base_;
    int arity_;
    std::size_t num_rows_;
  };

  /// Creates an empty relation over `schema` (attributes must be
  /// distinct).
  explicit DbRelation(std::vector<int> schema);

  /// Adds a row; duplicates are ignored.
  void AddRow(const Tuple& row);

  /// Adds a row given as a span of arity() ints; duplicates are ignored.
  void AddRow(const int* row);

  /// Appends a row the caller knows is not yet present (e.g. natural-join
  /// outputs, which are duplicate-free by construction). Skips the
  /// membership probe; the lazy index is rebuilt on the next query.
  void AppendRowUnchecked(const int* row);

  const std::vector<int>& schema() const { return schema_; }

  /// Iterable view of all rows: `for (auto row : rel.rows())`.
  RowRange rows() const {
    return RowRange(data_.data(), arity(), num_rows_);
  }

  /// The i-th row (insertion order).
  RowRef row(std::size_t i) const {
    CSPDB_DCHECK(i < num_rows_);
    return RowRef(data_.data() + i * static_cast<std::size_t>(arity()),
                  arity());
  }

  /// The flat row-major value buffer (size() * arity() ints).
  const std::vector<int>& data() const { return data_; }

  /// Membership. Const, but the first lookup after AppendRowUnchecked
  /// rebuilds the lazy index, so concurrent lookups are not thread-safe.
  bool HasRow(const Tuple& row) const;
  bool HasRow(const int* row) const;

  int arity() const { return static_cast<int>(schema_.size()); }
  std::size_t size() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  /// Pre-allocates buffer space for `rows` rows.
  void Reserve(std::size_t rows);

  /// Position of attribute `attr` in the schema, or -1 if absent.
  int AttributePosition(int attr) const;

  /// Multi-line dump for debugging and examples.
  std::string DebugString() const;

 private:
  // Inserts `row` if absent; the index must be current. Returns true if
  // the row was added.
  bool InsertUnique(const int* row);
  // Appends `row`'s arity() ints to the buffer; leaves the index alone.
  void AppendRow(const int* row);
  // (Re)builds the open-addressed index from scratch if stale.
  void EnsureIndex() const;
  void RehashInto(std::size_t capacity) const;
  std::size_t HashRow(const int* row) const;
  bool RowEquals(std::size_t idx, const int* row) const;

  std::vector<int> schema_;
  std::vector<int> data_;  // row-major, arity() ints per row
  std::size_t num_rows_ = 0;

  // Open-addressed index: slot holds row index + 1, 0 = empty. Mutable +
  // lazily rebuilt so bulk appends stay index-free until the next lookup.
  mutable std::vector<uint32_t> slots_;
  mutable bool index_valid_ = true;  // empty relation: trivially valid
};

}  // namespace cspdb

#endif  // CSPDB_DB_RELATION_H_
