#include "views/csp_to_views.h"

#include <string>
#include <utility>
#include <vector>

#include "util/check.h"

namespace cspdb {

CspToViewsReduction ReduceCspToViewAnswering(const Structure& a,
                                             const Structure& b) {
  CSPDB_CHECK(a.vocabulary() == b.vocabulary());
  int e_rel = a.vocabulary().IndexOf("E");
  CSPDB_CHECK_MSG(e_rel >= 0 && a.vocabulary().symbol(e_rel).arity == 2,
                  "reduction expects digraphs over {E/2}");
  int m = b.domain_size();
  int n = a.domain_size();

  CspToViewsReduction red;
  // Alphabet: a_0..a_{m-1}, then e, s, t.
  for (int i = 0; i < m; ++i) {
    std::string letter = "a";
    letter += std::to_string(i);
    red.setting.alphabet.push_back(std::move(letter));
  }
  int sym_e = m, sym_s = m + 1, sym_t = m + 2;
  red.setting.alphabet.push_back("e");
  red.setting.alphabet.push_back("s");
  red.setting.alphabet.push_back("t");

  // Views: the node-choice view and the three structural single-symbol
  // views.
  std::vector<Regex> choice_parts;
  for (int i = 0; i < m; ++i) choice_parts.push_back(Regex::Symbol(i));
  red.setting.views.push_back(
      {"Vchoice", Regex::Union(std::move(choice_parts))});
  red.setting.views.push_back({"Ve", Regex::Symbol(sym_e)});
  red.setting.views.push_back({"Vs", Regex::Symbol(sym_s)});
  red.setting.views.push_back({"Vt", Regex::Symbol(sym_t)});

  // Query: s . (union over non-edges (i,j) of B of a_i e a_j) . t.
  std::vector<Regex> bad_pairs;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < m; ++j) {
      if (!b.HasTuple(e_rel, {i, j})) {
        std::vector<Regex> seq;
        seq.push_back(Regex::Symbol(i));
        seq.push_back(Regex::Symbol(sym_e));
        seq.push_back(Regex::Symbol(j));
        bad_pairs.push_back(Regex::Concat(std::move(seq)));
      }
    }
  }
  std::vector<Regex> query_seq;
  query_seq.push_back(Regex::Symbol(sym_s));
  query_seq.push_back(Regex::Union(std::move(bad_pairs)));
  query_seq.push_back(Regex::Symbol(sym_t));
  red.setting.query = Regex::Concat(std::move(query_seq));

  // Objects: c = 0, d = 1, then x_in = 2 + 2x and x_out = 3 + 2x.
  red.instance.num_objects = 2 + 2 * n;
  red.instance.ext.resize(4);
  auto x_in = [](int x) { return 2 + 2 * x; };
  auto x_out = [](int x) { return 3 + 2 * x; };
  for (int x = 0; x < n; ++x) {
    red.instance.ext[0].push_back({x_in(x), x_out(x)});  // Vchoice
    red.instance.ext[2].push_back({0, x_in(x)});         // Vs
    red.instance.ext[3].push_back({x_out(x), 1});        // Vt
  }
  for (const Tuple& t : a.tuples(e_rel)) {
    red.instance.ext[1].push_back({x_out(t[0]), x_in(t[1])});  // Ve
  }
  red.c = 0;
  red.d = 1;
  return red;
}

}  // namespace cspdb
