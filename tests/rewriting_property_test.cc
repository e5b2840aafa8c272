// Property tests for the maximal RPQ rewriting: a view word is accepted
// iff every expansion lies inside the query language. The reference
// decision is computed independently through automata algebra
// (concatenate the view automata, test containment in the query).

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "rpq/nfa.h"
#include "rpq/regex.h"
#include "views/rewriting.h"
#include "util/rng.h"

namespace cspdb {
namespace {

// NFA for L(def V_{w1}) ... L(def V_{wl}) over the base alphabet.
Nfa ConcatenationOfViews(const ViewSetting& setting,
                         const std::vector<int>& word) {
  std::vector<Regex> parts;
  for (int i : word) parts.push_back(setting.views[i].definition);
  return Nfa::FromRegex(Regex::Concat(std::move(parts)),
                        static_cast<int>(setting.alphabet.size()));
}

// L(sub) contained in L(super)?
bool Contained(const Nfa& sub, const Dfa& super) {
  return Determinize(sub).Product(super.Complement(), true).IsEmpty();
}

// Enumerates view words up to the length bound and cross-checks the
// rewriting against the independent containment test.
void CheckSetting(const ViewSetting& setting, int max_len) {
  Dfa rewriting = MaximalRpqRewriting(setting);
  Dfa query = Determinize(Nfa::FromRegex(
      setting.query, static_cast<int>(setting.alphabet.size())));
  int k = static_cast<int>(setting.views.size());
  std::vector<int> word;
  // Iterate all words over the view alphabet of length <= max_len.
  for (int len = 0; len <= max_len; ++len) {
    std::vector<int> idx(len, 0);
    while (true) {
      word.assign(idx.begin(), idx.end());
      bool accepted = rewriting.Accepts(word);
      bool expansions_inside =
          Contained(ConcatenationOfViews(setting, word), query);
      EXPECT_EQ(accepted, expansions_inside)
          << "word length " << len;
      // Advance.
      int pos = len - 1;
      while (pos >= 0 && ++idx[pos] == k) idx[pos--] = 0;
      if (pos < 0) break;
      if (len == 0) break;
    }
    if (len == 0 && k == 0) break;
  }
}

TEST(RewritingProperty, ChainViews) {
  ViewSetting setting;
  setting.alphabet = {"a", "b"};
  setting.views.push_back({"V0", ParseRegex("ab", setting.alphabet)});
  setting.views.push_back({"V1", ParseRegex("b", setting.alphabet)});
  setting.query = ParseRegex("(ab)*b?", setting.alphabet);
  CheckSetting(setting, 3);
}

TEST(RewritingProperty, StarViews) {
  ViewSetting setting;
  setting.alphabet = {"a", "b"};
  setting.views.push_back({"V0", ParseRegex("a+", setting.alphabet)});
  setting.views.push_back({"V1", ParseRegex("b", setting.alphabet)});
  setting.query = ParseRegex("a*b", setting.alphabet);
  CheckSetting(setting, 3);
}

TEST(RewritingProperty, DisjunctiveViews) {
  ViewSetting setting;
  setting.alphabet = {"a", "b", "c"};
  setting.views.push_back({"V0", ParseRegex("a|b", setting.alphabet)});
  setting.views.push_back({"V1", ParseRegex("c", setting.alphabet)});
  setting.query = ParseRegex("(a|b)c|a", setting.alphabet);
  CheckSetting(setting, 3);
}

TEST(RewritingProperty, RandomSettings) {
  Rng rng(23);
  const std::vector<std::string> alphabet{"a", "b"};
  const std::vector<std::string> patterns{"a",  "b",   "ab", "a|b",
                                          "a*", "ab*", "ba"};
  for (int trial = 0; trial < 6; ++trial) {
    ViewSetting setting;
    setting.alphabet = alphabet;
    for (int v = 0; v < 2; ++v) {
      std::string pattern =
          patterns[rng.UniformInt(0, static_cast<int>(patterns.size()) -
                                         1)];
      std::string name = "V";
      name += std::to_string(v);
      setting.views.push_back({std::move(name), ParseRegex(pattern, alphabet)});
    }
    setting.query = ParseRegex(
        patterns[rng.UniformInt(0, static_cast<int>(patterns.size()) - 1)],
        alphabet);
    CheckSetting(setting, 3);
  }
}

}  // namespace
}  // namespace cspdb
