#include "db/relation.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/check.h"

namespace cspdb {
namespace {

constexpr std::size_t kMinIndexCapacity = 16;

// Slots an index over `rows` rows needs: a load factor of at most ~0.7.
std::size_t IndexLoadBound(std::size_t rows) {
  return rows + (rows >> 1) + 1;
}

// Smallest power of two >= the load bound (and >= kMinIndexCapacity).
std::size_t IndexCapacityFor(std::size_t rows) {
  // Row counts are capped below 2^32, so the capacity cannot overflow a
  // 64-bit size; the audit guards the cap against future changes.
  CSPDB_DCHECK(rows < 0xffffffffull);
  return std::max(kMinIndexCapacity, std::bit_ceil(IndexLoadBound(rows)));
}

}  // namespace

DbRelation::DbRelation(std::vector<int> schema)
    : schema_(std::move(schema)) {
  // Schemas are short, so a pairwise scan beats hashing and allocates
  // nothing; a long one is checked through a sorted copy.
  bool distinct = true;
  if (schema_.size() <= 16) {
    for (std::size_t i = 1; i < schema_.size(); ++i) {
      for (std::size_t j = 0; j < i; ++j) distinct &= schema_[i] != schema_[j];
    }
  } else {
    std::vector<int> sorted = schema_;
    std::sort(sorted.begin(), sorted.end());
    distinct =
        std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end();
  }
  CSPDB_CHECK_MSG(distinct, "duplicate attribute in relation schema");
}

std::size_t DbRelation::HashRow(const int* row) const {
  std::size_t h = 1469598103934665603ull;
  for (int i = 0; i < arity(); ++i) {
    h ^= static_cast<std::size_t>(row[i]) + 0x9e3779b97f4a7c15ull + (h << 6) +
         (h >> 2);
  }
  return h;
}

bool DbRelation::RowEquals(std::size_t idx, const int* row) const {
  const int* stored = data_.data() + idx * static_cast<std::size_t>(arity());
  for (int i = 0; i < arity(); ++i) {
    if (stored[i] != row[i]) return false;
  }
  return true;
}

void DbRelation::RehashInto(std::size_t capacity) const {
  // The open-addressed probe sequence masks with capacity-1: a zero
  // capacity would underflow the mask and a non-power-of-two would skip
  // slots, so both are hard errors rather than silent corruption.
  CSPDB_CHECK_MSG(capacity >= kMinIndexCapacity &&
                      (capacity & (capacity - 1)) == 0,
                  "row-hash capacity must be a power of two >= 16");
  CSPDB_CHECK_MSG(num_rows_ + (num_rows_ >> 1) < capacity,
                  "row-hash capacity too small for row count");
  slots_.assign(capacity, 0);
  const std::size_t mask = capacity - 1;
  for (std::size_t r = 0; r < num_rows_; ++r) {
    std::size_t i =
        HashRow(data_.data() + r * static_cast<std::size_t>(arity())) & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = static_cast<uint32_t>(r) + 1;
  }
}

void DbRelation::EnsureIndex() const {
  // A built index is a power of two >= 16, so it is at least
  // IndexCapacityFor(num_rows_) exactly when it meets the load bound.
  if (index_valid_ && slots_.size() >= IndexLoadBound(num_rows_)) return;
  RehashInto(IndexCapacityFor(num_rows_));
  index_valid_ = true;
}

void DbRelation::AppendRow(const int* row) {
  // A range insert copies the row once; resize() and a memcpy zero-fill
  // it first and call out for the copy, 1.6-1.8x slower per short row.
  data_.insert(data_.end(), row, row + arity());
  ++num_rows_;
}

bool DbRelation::InsertUnique(const int* row) {
  CSPDB_CHECK_MSG(num_rows_ < 0xfffffffeu, "relation exceeds 2^32-2 rows");
  EnsureIndex();
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = HashRow(row) & mask;
  while (slots_[i] != 0) {
    if (RowEquals(slots_[i] - 1, row)) return false;
    i = (i + 1) & mask;
  }
  slots_[i] = static_cast<uint32_t>(num_rows_) + 1;
  AppendRow(row);
  // Grow before the load factor degrades lookups.
  if (slots_.size() < IndexLoadBound(num_rows_)) {
    RehashInto(IndexCapacityFor(num_rows_));
  }
  return true;
}

void DbRelation::AddRow(const Tuple& row) {
  CSPDB_CHECK_MSG(static_cast<int>(row.size()) == arity(),
                  "row arity mismatch");
  InsertUnique(row.data());
}

void DbRelation::AddRow(const int* row) { InsertUnique(row); }

void DbRelation::AppendRowUnchecked(const int* row) {
  CSPDB_CHECK_MSG(num_rows_ < 0xfffffffeu, "relation exceeds 2^32-2 rows");
  AppendRow(row);
  index_valid_ = false;
}

bool DbRelation::HasRow(const Tuple& row) const {
  CSPDB_CHECK_MSG(static_cast<int>(row.size()) == arity(),
                  "row arity mismatch");
  return HasRow(row.data());
}

bool DbRelation::HasRow(const int* row) const {
  if (num_rows_ == 0) return false;
  EnsureIndex();
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = HashRow(row) & mask;
  while (slots_[i] != 0) {
    if (RowEquals(slots_[i] - 1, row)) return true;
    i = (i + 1) & mask;
  }
  return false;
}

void DbRelation::Reserve(std::size_t rows) {
  data_.reserve(rows * static_cast<std::size_t>(arity()));
}

int DbRelation::AttributePosition(int attr) const {
  for (std::size_t i = 0; i < schema_.size(); ++i) {
    if (schema_[i] == attr) return static_cast<int>(i);
  }
  return -1;
}

std::string DbRelation::DebugString() const {
  std::string out = "DbRelation[";
  for (std::size_t i = 0; i < schema_.size(); ++i) {
    if (i > 0) out += ",";
    out += "a";
    out += std::to_string(schema_[i]);
  }
  out += "] (" + std::to_string(num_rows_) + " rows)\n";
  for (auto r : rows()) {
    out += "  (";
    for (int i = 0; i < r.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(r[i]);
    }
    out += ")\n";
  }
  return out;
}

}  // namespace cspdb
