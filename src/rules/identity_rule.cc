#include "rules/identity_rule.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>

namespace eid {
namespace {

/// Union–find over operand nodes for congruence closure.
class UnionFind {
 public:
  int NodeOf(const std::string& key) {
    auto [it, inserted] = index_.emplace(key, static_cast<int>(parent_.size()));
    if (inserted) parent_.push_back(it->second);
    return it->second;
  }
  int Find(int x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Merge(int a, int b) { parent_[Find(a)] = Find(b); }
  bool Same(int a, int b) { return Find(a) == Find(b); }

 private:
  std::map<std::string, int> index_;
  std::vector<int> parent_;
};

std::string AttrNode(int entity, const std::string& attribute) {
  return "e" + std::to_string(entity) + "." + attribute;
}

// Keyed by the equality fingerprint, so two constants share a node exactly
// when they are storage-equal, which is how kEq compares them. The display
// form would merge doubles that print alike (0.1 and 0.1000001).
std::string ConstNode(const Value& v) {
  std::string key = "c:";
  v.AppendFingerprint(&key);
  return key;
}

}  // namespace

IdentityRule IdentityRule::KeyEquivalence(
    const std::string& name, const std::vector<std::string>& attrs) {
  std::vector<Predicate> predicates;
  predicates.reserve(attrs.size());
  for (const std::string& a : attrs) {
    predicates.push_back(
        Predicate{Operand::Attr(1, a), CompareOp::kEq, Operand::Attr(2, a)});
  }
  return IdentityRule(name, std::move(predicates));
}

std::vector<std::string> IdentityRule::ReferencedAttributes() const {
  std::set<std::string> attrs;
  for (const Predicate& p : predicates_) {
    if (p.lhs.kind == Operand::Kind::kEntityAttribute) {
      attrs.insert(p.lhs.attribute);
    }
    if (p.rhs.kind == Operand::Kind::kEntityAttribute) {
      attrs.insert(p.rhs.attribute);
    }
  }
  return std::vector<std::string>(attrs.begin(), attrs.end());
}

namespace {

/// Builds the congruence closure of the rule's equality predicates.
/// Returns (union-find, unsatisfiable?) — unsatisfiable when a class holds
/// two distinct constants or an equality contradicts a != on constants.
std::pair<UnionFind, bool> CloseEqualities(
    const std::vector<Predicate>& predicates) {
  UnionFind uf;
  std::map<int, Value> constants;  // representative -> constant value
  bool unsat = false;

  auto node = [&](const Operand& o) {
    if (o.kind == Operand::Kind::kEntityAttribute) {
      return uf.NodeOf(AttrNode(o.entity, o.attribute));
    }
    return uf.NodeOf(ConstNode(o.constant));
  };

  // Register constants before merging so values can be tracked.
  for (const Predicate& p : predicates) {
    for (const Operand* o : {&p.lhs, &p.rhs}) {
      if (o->kind == Operand::Kind::kConstant) {
        constants.emplace(node(*o), o->constant);
      }
    }
  }
  for (const Predicate& p : predicates) {
    if (p.op != CompareOp::kEq) continue;
    int a = node(p.lhs), b = node(p.rhs);
    int ra = uf.Find(a), rb = uf.Find(b);
    if (ra == rb) continue;
    auto ca = constants.find(ra), cb = constants.find(rb);
    if (ca != constants.end() && cb != constants.end() &&
        !(ca->second == cb->second)) {
      unsat = true;  // two distinct constants forced equal
    }
    uf.Merge(ra, rb);
    int root = uf.Find(ra);
    if (ca != constants.end()) constants.emplace(root, ca->second);
    else if (cb != constants.end()) constants.emplace(root, cb->second);
  }
  return {std::move(uf), unsat};
}

}  // namespace

bool IdentityRule::IsVacuous() const {
  return CloseEqualities(predicates_).second;
}

Status IdentityRule::Validate() const {
  if (predicates_.empty()) {
    return Status::InvalidArgument("identity rule '" + name_ +
                                   "' has no predicates");
  }
  auto [uf, unsat] = CloseEqualities(predicates_);
  if (unsat) return Status::Ok();  // vacuously well-formed
  for (const std::string& attr : ReferencedAttributes()) {
    int n1 = uf.NodeOf(AttrNode(1, attr));
    int n2 = uf.NodeOf(AttrNode(2, attr));
    if (!uf.Same(n1, n2)) {
      return Status::InvalidArgument(
          "identity rule '" + name_ + "': predicates do not imply e1." + attr +
          " = e2." + attr +
          " (paper §3.2 requires P to imply equality on every referenced "
          "attribute)");
    }
  }
  return Status::Ok();
}

Truth IdentityRule::Matches(const TupleView& e1, const TupleView& e2) const {
  return EvaluateConjunction(predicates_, e1, e2);
}

std::string IdentityRule::ToString() const {
  std::string out;
  for (size_t i = 0; i < predicates_.size(); ++i) {
    if (i > 0) out += " & ";
    out += "(" + predicates_[i].ToString() + ")";
  }
  out += " -> e1 == e2";
  return out;
}

namespace {

std::string Trim(const std::string& s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> SplitTop(const std::string& s, char delim) {
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

Result<Operand> ParseOperand(const std::string& raw) {
  std::string token = Trim(raw);
  if (token.empty()) {
    return Status::InvalidArgument("empty operand in rule predicate");
  }
  if ((token.rfind("e1.", 0) == 0 || token.rfind("e2.", 0) == 0) &&
      token.size() > 3) {
    int entity = token[1] - '0';
    return Operand::Attr(entity, token.substr(3));
  }
  if (token.front() == '"') {
    if (token.size() < 2 || token.back() != '"') {
      return Status::InvalidArgument("unterminated quoted constant: " + token);
    }
    return Operand::Const(Value::String(token.substr(1, token.size() - 2)));
  }
  // Numeric constant?
  bool numeric = !token.empty(), has_dot = false;
  for (size_t i = 0; i < token.size(); ++i) {
    char c = token[i];
    if (c == '-' && i == 0) continue;
    if (c == '.' && !has_dot) {
      has_dot = true;
      continue;
    }
    if (!std::isdigit(static_cast<unsigned char>(c))) numeric = false;
  }
  if (numeric && token != "-" && token != ".") {
    Result<Value> v = Value::Parse(
        token, has_dot ? ValueType::kDouble : ValueType::kInt);
    if (v.ok()) return Operand::Const(std::move(v).value());
  }
  return Operand::Const(Value::String(token));
}

Result<Predicate> ParsePredicateText(const std::string& text) {
  // Find the operator, longest-first, outside quotes.
  static const std::pair<const char*, CompareOp> kOps[] = {
      {"<=", CompareOp::kLe}, {">=", CompareOp::kGe}, {"!=", CompareOp::kNe},
      {"=", CompareOp::kEq},  {"<", CompareOp::kLt},  {">", CompareOp::kGt},
  };
  bool in_quotes = false;
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '"') {
      in_quotes = !in_quotes;
      continue;
    }
    if (in_quotes) continue;
    for (const auto& [symbol, op] : kOps) {
      size_t len = std::char_traits<char>::length(symbol);
      if (text.compare(i, len, symbol) == 0) {
        EID_ASSIGN_OR_RETURN(Operand lhs, ParseOperand(text.substr(0, i)));
        EID_ASSIGN_OR_RETURN(Operand rhs, ParseOperand(text.substr(i + len)));
        return Predicate{std::move(lhs), op, std::move(rhs)};
      }
    }
  }
  return Status::InvalidArgument("no comparison operator in predicate: '" +
                                 text + "'");
}

}  // namespace

Result<std::vector<Predicate>> ParsePredicateConjunction(
    const std::string& text) {
  std::vector<Predicate> predicates;
  for (const std::string& piece : SplitTop(text, '&')) {
    std::string p = Trim(piece);
    if (p.empty()) {
      return Status::InvalidArgument("empty conjunct in rule: '" + text + "'");
    }
    EID_ASSIGN_OR_RETURN(Predicate pred, ParsePredicateText(p));
    predicates.push_back(std::move(pred));
  }
  return predicates;
}

Result<IdentityRule> ParseIdentityRule(const std::string& name,
                                       const std::string& text) {
  EID_ASSIGN_OR_RETURN(std::vector<Predicate> predicates,
                       ParsePredicateConjunction(text));
  return IdentityRule(name, std::move(predicates));
}

}  // namespace eid
