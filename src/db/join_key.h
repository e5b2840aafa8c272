// Shared join-key machinery for the relational kernels (db/algebra.cc)
// and the body join (db/body_join.cc): shared-attribute position maps,
// key hashing/equality over flat rows, and the bucket-chained KeyIndex
// used as the build side of hash joins and semijoins and as the body
// join's probe index.

#ifndef CSPDB_DB_JOIN_KEY_H_
#define CSPDB_DB_JOIN_KEY_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "db/relation.h"

namespace cspdb::db_internal {

/// Fills `r_pos`/`s_pos` with the parallel position lists of the
/// attributes shared by r and s (in r-schema order).
inline void SharedPositions(const DbRelation& r, const DbRelation& s,
                            std::vector<int>* r_pos, std::vector<int>* s_pos) {
  r_pos->clear();
  s_pos->clear();
  for (std::size_t i = 0; i < r.schema().size(); ++i) {
    int p = s.AttributePosition(r.schema()[i]);
    if (p >= 0) {
      r_pos->push_back(static_cast<int>(i));
      s_pos->push_back(p);
    }
  }
}

/// FNV-style hash of the projection of `row` onto `positions`; same
/// mixing as DbRelation's row hash so key distributions match.
inline std::size_t HashKeyAt(const int* row,
                             const std::vector<int>& positions) {
  std::size_t h = 1469598103934665603ull;
  for (int p : positions) {
    h ^= static_cast<std::size_t>(row[p]) + 0x9e3779b97f4a7c15ull + (h << 6) +
         (h >> 2);
  }
  return h;
}

inline bool KeysEqual(const int* a, const std::vector<int>& a_pos,
                      const int* b, const std::vector<int>& b_pos) {
  for (std::size_t i = 0; i < a_pos.size(); ++i) {
    if (a[a_pos[i]] != b[b_pos[i]]) return false;
  }
  return true;
}

inline constexpr uint32_t kNoRow = 0xffffffffu;

/// A bucket-chained hash index over the key columns of a relation's
/// first `rows` rows: no per-key allocation, just two flat uint32 arrays
/// (bucket heads + a next chain threaded through row indices). Immutable
/// once built, so many probe threads may share one index. The relation
/// may grow after the build: the index still covers its first `rows`
/// rows, and a probe reads their values wherever they now live.
class KeyIndex {
 public:
  KeyIndex(const DbRelation& rel, const std::vector<int>& key_pos)
      : KeyIndex(rel, key_pos, rel.size()) {}

  KeyIndex(const DbRelation& rel, const std::vector<int>& key_pos,
           std::size_t rows)
      : rel_(rel), key_pos_(key_pos) {
    CSPDB_DCHECK(rows <= rel.size());
    const std::size_t buckets =
        std::max<std::size_t>(16, std::bit_ceil(rows + (rows >> 1) + 1));
    mask_ = buckets - 1;
    heads_.assign(buckets, kNoRow);
    next_.assign(rows, kNoRow);
    const int arity = rel.arity();
    const int* data = rel.data().data();
    for (std::size_t i = 0; i < rows; ++i) {
      std::size_t h =
          HashKeyAt(data + i * static_cast<std::size_t>(arity), key_pos_) &
          mask_;
      next_[i] = heads_[h];
      heads_[h] = static_cast<uint32_t>(i);
    }
  }

  /// First row of `rel_` whose key columns match `probe`'s `probe_pos`
  /// columns, or kNoRow. Continue the scan with NextMatch.
  uint32_t FirstMatch(const int* probe,
                      const std::vector<int>& probe_pos) const {
    std::size_t h = HashKeyAt(probe, probe_pos) & mask_;
    return NextInChain(heads_[h], probe, probe_pos);
  }

  uint32_t NextMatch(uint32_t row, const int* probe,
                     const std::vector<int>& probe_pos) const {
    return NextInChain(next_[row], probe, probe_pos);
  }

 private:
  uint32_t NextInChain(uint32_t candidate, const int* probe,
                       const std::vector<int>& probe_pos) const {
    const int arity = rel_.arity();
    const int* data = rel_.data().data();
    while (candidate != kNoRow) {
      const int* srow = data + candidate * static_cast<std::size_t>(arity);
      if (KeysEqual(probe, probe_pos, srow, key_pos_)) return candidate;
      candidate = next_[candidate];
    }
    return kNoRow;
  }

  const DbRelation& rel_;
  const std::vector<int>& key_pos_;
  std::size_t mask_;
  std::vector<uint32_t> heads_;
  std::vector<uint32_t> next_;
};

}  // namespace cspdb::db_internal

#endif  // CSPDB_DB_JOIN_KEY_H_
