#include "rpq/regex.h"

#include <unordered_map>
#include <utility>

#include "util/check.h"

namespace cspdb {

Regex Regex::Empty() { return Regex(); }

Regex Regex::Epsilon() {
  Regex r;
  r.kind_ = Kind::kEpsilon;
  return r;
}

Regex Regex::Symbol(int symbol) {
  CSPDB_CHECK(symbol >= 0);
  Regex r;
  r.kind_ = Kind::kSymbol;
  r.symbol_ = symbol;
  return r;
}

Regex Regex::Concat(std::vector<Regex> children) {
  if (children.empty()) return Epsilon();
  if (children.size() == 1) return std::move(children[0]);
  Regex r;
  r.kind_ = Kind::kConcat;
  r.children_ = std::move(children);
  return r;
}

Regex Regex::Union(std::vector<Regex> children) {
  if (children.empty()) return Empty();
  if (children.size() == 1) return std::move(children[0]);
  Regex r;
  r.kind_ = Kind::kUnion;
  r.children_ = std::move(children);
  return r;
}

Regex Regex::Star(Regex child) {
  Regex r;
  r.kind_ = Kind::kStar;
  r.children_.push_back(std::move(child));
  return r;
}

Regex Regex::Plus(Regex child) {
  Regex copy = child;
  std::vector<Regex> parts;
  parts.push_back(std::move(copy));
  parts.push_back(Star(std::move(child)));
  return Concat(std::move(parts));
}

Regex Regex::Optional(Regex child) {
  std::vector<Regex> parts;
  parts.push_back(std::move(child));
  parts.push_back(Epsilon());
  return Union(std::move(parts));
}

std::string Regex::ToString(
    const std::vector<std::string>& alphabet) const {
  switch (kind_) {
    case Kind::kEmpty:
      return "~";
    case Kind::kEpsilon:
      return "%";
    case Kind::kSymbol:
      CSPDB_CHECK(symbol_ < static_cast<int>(alphabet.size()));
      return alphabet[symbol_];
    case Kind::kConcat: {
      std::string out;
      for (const Regex& c : children_) {
        const bool paren = c.kind() == Kind::kUnion;
        if (paren) out += "(";
        out += c.ToString(alphabet);
        if (paren) out += ")";
      }
      return out;
    }
    case Kind::kUnion: {
      std::string out;
      for (std::size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out += "|";
        out += children_[i].ToString(alphabet);
      }
      return out;
    }
    case Kind::kStar: {
      const Regex& c = children_[0];
      const bool paren =
          c.kind() == Kind::kUnion || c.kind() == Kind::kConcat;
      std::string out = paren ? "(" : "";
      out += c.ToString(alphabet);
      out += paren ? ")*" : "*";
      return out;
    }
  }
  return "~";
}

namespace {

// Recursive-descent parser.
class Parser {
 public:
  Parser(const std::string& pattern,
         const std::vector<std::string>& alphabet)
      : pattern_(pattern) {
    for (std::size_t i = 0; i < alphabet.size(); ++i) {
      if (alphabet[i].size() == 1) {
        symbol_of_[alphabet[i][0]] = static_cast<int>(i);
      }
    }
  }

  Regex Parse() {
    Regex r = ParseUnion();
    CSPDB_CHECK_MSG(pos_ == pattern_.size(),
                    "trailing input in regex: " + pattern_);
    return r;
  }

 private:
  char Peek() const { return pos_ < pattern_.size() ? pattern_[pos_] : 0; }
  void Advance() { ++pos_; }

  Regex ParseUnion() {
    std::vector<Regex> parts;
    parts.push_back(ParseConcat());
    while (Peek() == '|') {
      Advance();
      parts.push_back(ParseConcat());
    }
    return Regex::Union(std::move(parts));
  }

  Regex ParseConcat() {
    std::vector<Regex> parts;
    while (true) {
      char c = Peek();
      if (c == 0 || c == '|' || c == ')') break;
      parts.push_back(ParsePostfix());
    }
    return Regex::Concat(std::move(parts));
  }

  Regex ParsePostfix() {
    Regex r = ParseAtom();
    while (true) {
      char c = Peek();
      if (c == '*') {
        r = Regex::Star(std::move(r));
        Advance();
      } else if (c == '+') {
        r = Regex::Plus(std::move(r));
        Advance();
      } else if (c == '?') {
        r = Regex::Optional(std::move(r));
        Advance();
      } else {
        break;
      }
    }
    return r;
  }

  Regex ParseAtom() {
    char c = Peek();
    CSPDB_CHECK_MSG(c != 0, "unexpected end of regex: " + pattern_);
    if (c == '(') {
      Advance();
      Regex r = ParseUnion();
      CSPDB_CHECK_MSG(Peek() == ')', "missing ')' in regex: " + pattern_);
      Advance();
      return r;
    }
    if (c == '%') {
      Advance();
      return Regex::Epsilon();
    }
    if (c == '~') {
      Advance();
      return Regex::Empty();
    }
    auto it = symbol_of_.find(c);
    CSPDB_CHECK_MSG(it != symbol_of_.end(),
                    std::string("unknown symbol '") + c + "' in regex");
    Advance();
    return Regex::Symbol(it->second);
  }

  const std::string& pattern_;
  std::size_t pos_ = 0;
  std::unordered_map<char, int> symbol_of_;
};

}  // namespace

Regex ParseRegex(const std::string& pattern,
                 const std::vector<std::string>& alphabet) {
  return Parser(pattern, alphabet).Parse();
}

}  // namespace cspdb
