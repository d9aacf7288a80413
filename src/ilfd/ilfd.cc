#include "ilfd/ilfd.h"

#include <algorithm>
#include <cctype>

namespace eid {
namespace {

void SortByAttribute(std::vector<Atom>* atoms) {
  std::sort(atoms->begin(), atoms->end(), [](const Atom& a, const Atom& b) {
    if (a.attribute != b.attribute) return a.attribute < b.attribute;
    return a.value < b.value;
  });
  atoms->erase(std::unique(atoms->begin(), atoms->end()), atoms->end());
}

/// Verifies no attribute is bound to two different values within `atoms`.
bool ConsistentBindings(const std::vector<Atom>& atoms) {
  for (size_t i = 1; i < atoms.size(); ++i) {
    if (atoms[i].attribute == atoms[i - 1].attribute &&
        !(atoms[i].value == atoms[i - 1].value)) {
      return false;
    }
  }
  return true;
}

bool TupleMeets(const TupleView& tuple, const Atom& condition) {
  Value v = tuple.GetOrNull(condition.attribute);
  return NonNullEq(v, condition.value);
}

std::string TrimCopy(const std::string& s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// Splits on `delim` at top level (outside double quotes).
std::vector<std::string> SplitOutsideQuotes(const std::string& s,
                                            char delim) {
  std::vector<std::string> parts;
  std::string cur;
  bool in_quotes = false;
  for (char c : s) {
    if (c == '"') in_quotes = !in_quotes;
    if (c == delim && !in_quotes) {
      parts.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  parts.push_back(cur);
  return parts;
}

Result<Value> ParseValueToken(const std::string& raw) {
  std::string token = TrimCopy(raw);
  if (token.empty()) {
    return Status::InvalidArgument("empty value in condition");
  }
  if (token.front() == '"') {
    if (token.size() < 2 || token.back() != '"') {
      return Status::InvalidArgument("unterminated quoted value: " + token);
    }
    return Value::String(token.substr(1, token.size() - 2));
  }
  if (token == "null") return Value::Null();
  if (token == "true") return Value::Bool(true);
  if (token == "false") return Value::Bool(false);
  // Numeric?
  bool numeric = true, has_dot = false;
  for (size_t i = 0; i < token.size(); ++i) {
    char c = token[i];
    if (c == '-' && i == 0) continue;
    if (c == '.') {
      if (has_dot) numeric = false;
      has_dot = true;
      continue;
    }
    if (!std::isdigit(static_cast<unsigned char>(c))) numeric = false;
  }
  if (numeric && token != "-" && token != ".") {
    if (has_dot) {
      Result<Value> v = Value::Parse(token, ValueType::kDouble);
      if (v.ok()) return v;
    } else {
      Result<Value> v = Value::Parse(token, ValueType::kInt);
      if (v.ok()) return v;
    }
  }
  return Value::String(token);
}

Result<std::vector<Atom>> ParseConjunction(const std::string& side) {
  std::vector<Atom> atoms;
  for (const std::string& piece : SplitOutsideQuotes(side, '&')) {
    std::string p = TrimCopy(piece);
    if (p.empty()) {
      return Status::InvalidArgument("empty conjunct in ILFD: '" + side + "'");
    }
    EID_ASSIGN_OR_RETURN(Atom atom, ParseCondition(p));
    atoms.push_back(std::move(atom));
  }
  return atoms;
}

}  // namespace

Status ValidateIlfdAtoms(const std::vector<Atom>& antecedent,
                         const std::vector<Atom>& consequent) {
  if (consequent.empty()) {
    return Status::InvalidArgument("ILFD without consequent");
  }
  auto consistent = [](const std::vector<Atom>& atoms) {
    for (size_t i = 0; i < atoms.size(); ++i) {
      for (size_t j = i + 1; j < atoms.size(); ++j) {
        if (atoms[i].attribute == atoms[j].attribute &&
            !(atoms[i].value == atoms[j].value)) {
          return false;
        }
      }
    }
    return true;
  };
  if (!consistent(antecedent) || !consistent(consequent)) {
    return Status::InvalidArgument("ILFD binds an attribute to two values");
  }
  for (const Atom& c : consequent) {
    for (const Atom& a : antecedent) {
      if (a.attribute == c.attribute && !(a.value == c.value)) {
        return Status::InvalidArgument(
            "ILFD consequent contradicts its antecedent");
      }
    }
  }
  return Status::Ok();
}

Ilfd::Ilfd(std::vector<Atom> antecedent, std::vector<Atom> consequent)
    : antecedent_(std::move(antecedent)), consequent_(std::move(consequent)) {
  EID_CHECK(!consequent_.empty() && "ILFD requires a consequent");
  SortByAttribute(&antecedent_);
  SortByAttribute(&consequent_);
  EID_CHECK(ConsistentBindings(antecedent_) &&
            "ILFD antecedent binds an attribute twice");
  EID_CHECK(ConsistentBindings(consequent_) &&
            "ILFD consequent binds an attribute twice");
  // The consequent may not contradict the antecedent.
  for (const Atom& c : consequent_) {
    for (const Atom& a : antecedent_) {
      EID_CHECK(!(a.attribute == c.attribute && !(a.value == c.value)) &&
                "ILFD consequent contradicts its antecedent");
    }
  }
}

std::vector<std::string> Ilfd::AntecedentAttributes() const {
  std::vector<std::string> out;
  for (const Atom& a : antecedent_) out.push_back(a.attribute);
  return out;
}

std::vector<std::string> Ilfd::ConsequentAttributes() const {
  std::vector<std::string> out;
  for (const Atom& a : consequent_) out.push_back(a.attribute);
  return out;
}

bool Ilfd::IsTrivial() const {
  for (const Atom& c : consequent_) {
    if (std::find(antecedent_.begin(), antecedent_.end(), c) ==
        antecedent_.end()) {
      return false;
    }
  }
  return true;
}

bool Ilfd::AntecedentHolds(const TupleView& tuple) const {
  for (const Atom& a : antecedent_) {
    if (!TupleMeets(tuple, a)) return false;
  }
  return true;
}

bool Ilfd::SatisfiedBy(const TupleView& tuple, bool null_violates) const {
  if (!AntecedentHolds(tuple)) return true;
  for (const Atom& c : consequent_) {
    Value v = tuple.GetOrNull(c.attribute);
    if (v.is_null()) {
      if (null_violates) return false;
      continue;
    }
    if (!(v == c.value)) return false;
  }
  return true;
}

std::string Ilfd::ToString() const {
  auto side = [](const std::vector<Atom>& atoms) {
    std::string out;
    for (size_t i = 0; i < atoms.size(); ++i) {
      if (i > 0) out += " & ";
      out += atoms[i].ToString();
    }
    return out;
  };
  return side(antecedent_) + " -> " + side(consequent_);
}

Result<Atom> ParseCondition(const std::string& text) {
  std::vector<std::string> sides = SplitOutsideQuotes(text, '=');
  if (sides.size() != 2) {
    return Status::InvalidArgument("condition must be 'attribute = value': '" +
                                   text + "'");
  }
  std::string attribute = TrimCopy(sides[0]);
  if (attribute.empty()) {
    return Status::InvalidArgument("empty attribute in condition: '" + text +
                                   "'");
  }
  EID_ASSIGN_OR_RETURN(Value value, ParseValueToken(sides[1]));
  return Atom{attribute, std::move(value)};
}

Result<Ilfd> ParseIlfd(const std::string& text) {
  size_t arrow = std::string::npos;
  bool in_quotes = false;
  for (size_t i = 0; i + 1 < text.size(); ++i) {
    if (text[i] == '"') in_quotes = !in_quotes;
    if (!in_quotes && text[i] == '-' && text[i + 1] == '>') {
      arrow = i;
      break;
    }
  }
  if (arrow == std::string::npos) {
    return Status::InvalidArgument("ILFD missing '->': '" + text + "'");
  }
  EID_ASSIGN_OR_RETURN(std::vector<Atom> antecedent,
                       ParseConjunction(text.substr(0, arrow)));
  EID_ASSIGN_OR_RETURN(std::vector<Atom> consequent,
                       ParseConjunction(text.substr(arrow + 2)));
  if (consequent.empty()) {
    return Status::InvalidArgument("ILFD has empty consequent: '" + text + "'");
  }
  const Status valid = ValidateIlfdAtoms(antecedent, consequent);
  if (!valid.ok()) {
    return Status::InvalidArgument(valid.message() + ": '" + text + "'");
  }
  return Ilfd(std::move(antecedent), std::move(consequent));
}

Result<std::vector<Ilfd>> ParseIlfdList(const std::string& text) {
  std::vector<Ilfd> out;
  std::string line;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    line = TrimCopy(text.substr(start, end - start));
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    EID_ASSIGN_OR_RETURN(Ilfd ilfd, ParseIlfd(line));
    out.push_back(std::move(ilfd));
    if (end == text.size()) break;
  }
  return out;
}

}  // namespace eid
