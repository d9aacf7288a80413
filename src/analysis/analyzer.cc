#include "analysis/analyzer.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "exec/blocking_index.h"

namespace eid {
namespace analysis {
namespace {

/// Are values of these two declared types ever storage-equal? Int and
/// double cross-compare numerically in the predicate language, so they
/// count as compatible.
bool TypesComparable(ValueType a, ValueType b) {
  if (a == b) return true;
  auto numeric = [](ValueType t) {
    return t == ValueType::kInt || t == ValueType::kDouble;
  };
  return numeric(a) && numeric(b);
}

/// Atom-set subset test over the sorted-by-(attribute, value) vectors an
/// Ilfd maintains.
bool AntecedentSubsumes(const std::vector<Atom>& small,
                        const std::vector<Atom>& large) {
  auto less = [](const Atom& a, const Atom& b) {
    if (a.attribute != b.attribute) return a.attribute < b.attribute;
    return a.value < b.value;
  };
  return std::includes(large.begin(), large.end(), small.begin(), small.end(),
                       less);
}

std::string Truncate(const std::string& text, size_t limit = 64) {
  if (text.size() <= limit) return text;
  return text.substr(0, limit - 3) + "...";
}

/// Everything the four check families share: world-named schemas, the
/// attribute universe, per-attribute types, effective extended schemas.
class Analysis {
 public:
  Analysis(const Schema& r_schema, const Schema& s_schema,
           const IdentifierConfig& config, const AnalyzerOptions& options)
      : r_schema_(r_schema), s_schema_(s_schema), config_(config),
        options_(options) {
    BuildContext();
  }

  AnalysisReport Run() {
    if (options_.schema_checks) SchemaChecks();
    if (options_.closure_checks) ClosureChecks();
    if (options_.order_checks) OrderChecks();
    if (options_.blocking_checks) BlockingChecks();
    return std::move(report_);
  }

 private:
  // --- context ---------------------------------------------------------

  void BuildContext() {
    CollectSide(r_schema_, Side::kR, &r_world_);
    CollectSide(s_schema_, Side::kS, &s_world_);
    for (const Ilfd& f : config_.ilfds.ilfds()) {
      for (const Atom& a : f.consequent()) {
        derived_.insert(a.attribute);
        // Derived-only attributes take their type from the first
        // consequent value that names them.
        if (!a.value.is_null()) {
          types_.emplace(a.attribute, a.value.type());
        }
      }
    }
    universe_ = derived_;
    for (const auto& [name, type] : r_world_) universe_.insert(name);
    for (const auto& [name, type] : s_world_) universe_.insert(name);

    // Effective extended schemas under the configured options: world
    // naming plus the appended K_Ext−side columns, plus every derivable
    // attribute when extension runs in derive-all mode (which Identify
    // forces when no extended key is configured).
    const bool has_key = config_.extended_key.has_value();
    const bool derive_all =
        !has_key || config_.matcher_options.extension.derive_all;
    for (const auto& [name, type] : r_world_) r_ext_.insert(name);
    for (const auto& [name, type] : s_world_) s_ext_.insert(name);
    if (has_key) {
      for (const std::string& k : config_.extended_key->attributes()) {
        if (universe_.count(k) == 0) continue;  // E001 reports it
        r_ext_.insert(k);
        s_ext_.insert(k);
      }
    }
    if (derive_all) {
      for (const std::string& d : derived_) {
        r_ext_.insert(d);
        s_ext_.insert(d);
      }
    }
  }

  void CollectSide(const Schema& schema, Side side,
                   std::map<std::string, ValueType>* out) {
    for (const Attribute& attr : schema.attributes()) {
      std::string world = attr.name;
      for (const AttributeMapping& m : config_.correspondence.mappings()) {
        const std::optional<std::string>& local =
            side == Side::kR ? m.in_r : m.in_s;
        if (local.has_value() && *local == attr.name) {
          world = m.world;
          break;
        }
      }
      out->emplace(world, attr.type);
      types_.emplace(world, attr.type);
    }
  }

  void Emit(std::string code, Severity severity, RuleRef rule,
            std::string message, std::string hint = "") {
    report_.diagnostics.push_back(Diagnostic{
        std::move(code), severity, std::move(rule), std::move(message),
        std::move(hint)});
  }

  RuleRef IlfdRef(size_t i) const {
    return RuleRef{RuleKind::kIlfd, i,
                   Truncate(config_.ilfds.ilfd(i).ToString())};
  }

  /// Declared or inferred type of a world attribute; nullopt if unknown.
  std::optional<ValueType> TypeOf(const std::string& attribute) const {
    auto it = types_.find(attribute);
    if (it == types_.end()) return std::nullopt;
    return it->second;
  }

  // --- (a) schema checks ----------------------------------------------

  void SchemaChecks() {
    CorrespondenceChecks();
    ExtendedKeyChecks();
    for (size_t i = 0; i < config_.ilfds.size(); ++i) IlfdSchemaChecks(i);
    for (size_t i = 0; i < config_.identity_rules.size(); ++i) {
      const IdentityRule& rule = config_.identity_rules[i];
      RuleRef ref{RuleKind::kIdentityRule, i, rule.name()};
      Status valid = rule.Validate();
      if (!valid.ok()) {
        Emit("EID-E004", Severity::kError, ref,
             "identity rule is not well-formed: " + valid.message(),
             "an identity rule must force e1.A = e2.A for every attribute "
             "A it references (paper §3.2)");
      }
      PredicateChecks(rule.predicates(), ref);
    }
    for (size_t i = 0; i < config_.distinctness_rules.size(); ++i) {
      const DistinctnessRule& rule = config_.distinctness_rules[i];
      RuleRef ref{RuleKind::kDistinctnessRule, i, rule.name()};
      Status valid = rule.Validate();
      if (!valid.ok()) {
        Emit("EID-E005", Severity::kError, ref,
             "distinctness rule is not well-formed: " + valid.message(),
             "a distinctness rule must reference at least one attribute of "
             "each entity (paper §3.2)");
      }
      PredicateChecks(rule.predicates(), ref);
    }
  }

  void CorrespondenceChecks() {
    const auto& mappings = config_.correspondence.mappings();
    for (size_t i = 0; i < mappings.size(); ++i) {
      const AttributeMapping& m = mappings[i];
      RuleRef ref{RuleKind::kCorrespondence, i, m.world};
      if (m.in_r.has_value() && !r_schema_.Contains(*m.in_r)) {
        Emit("EID-E001", Severity::kError, ref,
             "mapped attribute '" + *m.in_r + "' does not exist in R (" +
                 Truncate(r_schema_.ToString()) + ")",
             "fix the correspondence or the R schema");
      }
      if (m.in_s.has_value() && !s_schema_.Contains(*m.in_s)) {
        Emit("EID-E001", Severity::kError, ref,
             "mapped attribute '" + *m.in_s + "' does not exist in S (" +
                 Truncate(s_schema_.ToString()) + ")",
             "fix the correspondence or the S schema");
      }
      if (m.in_r.has_value() && m.in_s.has_value()) {
        std::optional<size_t> ri = r_schema_.IndexOf(*m.in_r);
        std::optional<size_t> si = s_schema_.IndexOf(*m.in_s);
        if (ri.has_value() && si.has_value()) {
          ValueType rt = r_schema_.attribute(*ri).type;
          ValueType st = s_schema_.attribute(*si).type;
          if (!TypesComparable(rt, st)) {
            Emit("EID-E002", Severity::kError, ref,
                 std::string("world attribute '") + m.world +
                     "' is declared " + ValueTypeName(rt) + " in R but " +
                     ValueTypeName(st) +
                     " in S; cross-side equality can never hold",
                 "align the column types before integration");
          }
        }
      }
    }
  }

  void ExtendedKeyChecks() {
    if (!config_.extended_key.has_value()) return;
    const ExtendedKey& key = *config_.extended_key;
    RuleRef ref{RuleKind::kExtendedKey, 0, key.ToString()};
    for (const std::string& attr : key.attributes()) {
      if (universe_.count(attr) == 0) {
        Emit("EID-E001", Severity::kError, ref,
             "extended-key attribute '" + attr +
                 "' is not a world attribute of R or S and no ILFD "
                 "derives it; the key column is NULL for every tuple",
             "add a correspondence mapping or an ILFD with '" + attr +
                 "' in its consequent");
        continue;
      }
      // Per-side derivability (paper §4.2: K_Ext−R values must come from
      // ILFDs; a side with no column and no deriving rule joins nothing).
      if (r_world_.count(attr) == 0 && derived_.count(attr) == 0) {
        Emit("EID-W008", Severity::kWarning, ref,
             "extended-key attribute '" + attr +
                 "' is not modeled in R and no ILFD derives it; every R' "
                 "tuple carries NULL there, so no pair can match",
             "add an ILFD deriving '" + attr + "' or drop it from the key");
      }
      if (s_world_.count(attr) == 0 && derived_.count(attr) == 0) {
        Emit("EID-W008", Severity::kWarning, ref,
             "extended-key attribute '" + attr +
                 "' is not modeled in S and no ILFD derives it; every S' "
                 "tuple carries NULL there, so no pair can match",
             "add an ILFD deriving '" + attr + "' or drop it from the key");
      }
    }
  }

  void IlfdSchemaChecks(size_t i) {
    const Ilfd& f = config_.ilfds.ilfd(i);
    bool dangling = false;
    for (const Atom& a : f.antecedent()) {
      if (universe_.count(a.attribute) == 0) {
        dangling = true;
        Emit("EID-E001", Severity::kError, IlfdRef(i),
             "antecedent condition references unknown attribute '" +
                 a.attribute + "'; the rule can never fire",
             "use a world attribute of R/S or a derivable attribute");
        continue;
      }
      AtomTypeChecks(a, IlfdRef(i), "antecedent");
    }
    for (const Atom& a : f.consequent()) {
      // Consequent attributes are in the universe by construction; only
      // their types can disagree with a declared column.
      AtomTypeChecks(a, IlfdRef(i), "consequent");
    }
    if (dangling) return;
    // Reachability: the antecedent must be satisfiable on at least one
    // side — each condition needs its attribute stored there or
    // derivable (backward chaining may consult other ILFDs' consequents).
    auto dead_on = [&](const std::map<std::string, ValueType>& side_world) {
      for (const Atom& a : f.antecedent()) {
        if (side_world.count(a.attribute) == 0 &&
            derived_.count(a.attribute) == 0) {
          return true;
        }
      }
      return false;
    };
    if (!f.antecedent().empty() && dead_on(r_world_) && dead_on(s_world_)) {
      Emit("EID-W007", Severity::kWarning, IlfdRef(i),
           "antecedent mixes attributes that never coexist on one side; "
           "the rule can fire on neither R nor S",
           "split the rule per side or add the missing attributes");
    }
  }

  void AtomTypeChecks(const Atom& a, RuleRef ref, const char* where) {
    if (a.value.is_null()) {
      Emit("EID-E002", Severity::kError, std::move(ref),
           std::string(where) + " condition '" + a.ToString() +
               "' compares against NULL; non_null_eq never holds",
           "conditions must name a concrete value");
      return;
    }
    std::optional<ValueType> declared = TypeOf(a.attribute);
    if (declared.has_value() &&
        !TypesComparable(*declared, a.value.type())) {
      Emit("EID-E002", Severity::kError, std::move(ref),
           std::string(where) + " condition '" + a.ToString() + "' is " +
               ValueTypeName(a.value.type()) + " but attribute '" +
               a.attribute + "' is " + ValueTypeName(*declared) +
               "; the condition can never hold",
           "match the condition value's type to the column type");
    }
  }

  void PredicateChecks(const std::vector<Predicate>& predicates,
                       const RuleRef& ref) {
    for (const Predicate& p : predicates) {
      for (const Operand* op : {&p.lhs, &p.rhs}) {
        if (op->kind != Operand::Kind::kEntityAttribute) continue;
        if (universe_.count(op->attribute) == 0) {
          Emit("EID-E001", Severity::kError, ref,
               "predicate '" + p.ToString() +
                   "' references unknown attribute '" + op->attribute + "'",
               "use a world attribute of R/S or a derivable attribute");
        } else if (r_ext_.count(op->attribute) == 0 &&
                   s_ext_.count(op->attribute) == 0) {
          Emit("EID-W007", Severity::kWarning, ref,
               "attribute '" + op->attribute +
                   "' is derivable but not materialized in R'/S' under "
                   "the current options; the predicate is always unknown",
               "add it to the extended key or set "
               "ExtensionOptions::derive_all");
        }
      }
      PredicateTypeChecks(p, ref);
    }
  }

  void PredicateTypeChecks(const Predicate& p, const RuleRef& ref) {
    // Comparing against NULL is kUnknown under every operator (Kleene),
    // so this check precedes the operator-specific ones.
    auto is_null_const = [](const Operand& op) {
      return op.kind == Operand::Kind::kConstant && op.constant.is_null();
    };
    if (is_null_const(p.lhs) || is_null_const(p.rhs)) {
      Emit("EID-E002", Severity::kError, ref,
           "predicate '" + p.ToString() +
               "' compares against NULL and is always unknown",
           "compare against a concrete value");
      return;
    }
    // != is trivially true across incompatible types, so only the
    // operators that require comparable operands are flagged.
    if (p.op == CompareOp::kNe) return;
    auto operand_type = [&](const Operand& op) -> std::optional<ValueType> {
      if (op.kind == Operand::Kind::kConstant) {
        return op.constant.type();
      }
      return TypeOf(op.attribute);
    };
    std::optional<ValueType> lt = operand_type(p.lhs);
    std::optional<ValueType> rt = operand_type(p.rhs);
    if (lt.has_value() && rt.has_value() && !TypesComparable(*lt, *rt)) {
      Emit("EID-E002", Severity::kError, ref,
           "predicate '" + p.ToString() + "' compares " + ValueTypeName(*lt) +
               " with " + ValueTypeName(*rt) + " and can never be true",
           "align the operand types");
    }
  }

  // --- (b) closure checks ---------------------------------------------

  /// Both the closure family and order-check shadowing are quadratic in
  /// the rule-set size; above the limit they are skipped with one shared
  /// EID-N001 note so huge generated rule sets still lint in linear time.
  bool OverRuleLimit() {
    if (config_.ilfds.size() <= options_.closure_rule_limit) return false;
    if (!limit_note_emitted_) {
      limit_note_emitted_ = true;
      Emit("EID-N001", Severity::kNote, RuleRef{RuleKind::kProgram, 0, ""},
           "closure and shadowing checks skipped: " +
               std::to_string(config_.ilfds.size()) +
               " ILFDs exceed the limit of " +
               std::to_string(options_.closure_rule_limit),
           "raise AnalyzerOptions::closure_rule_limit to force them");
    }
    return true;
  }

  void ClosureChecks() {
    const IlfdSet& ilfds = config_.ilfds;
    if (OverRuleLimit()) return;
    std::vector<bool> skip_redundancy(ilfds.size(), false);
    for (size_t i = 0; i < ilfds.size(); ++i) {
      const Ilfd& f = ilfds.ilfd(i);
      if (f.IsTrivial()) {
        skip_redundancy[i] = true;
        Emit("EID-W003", Severity::kWarning, IlfdRef(i),
             "trivial ILFD: every consequent condition already appears in "
             "the antecedent",
             "delete the rule");
        continue;
      }
      // Contradiction (Theorem 1 machinery): the closure X⁺_F of the
      // rule's antecedent must bind each attribute to one value.
      std::vector<Atom> closure = ilfds.ConditionClosure(f.antecedent());
      std::map<std::string, std::vector<const Atom*>> by_attribute;
      for (const Atom& a : closure) by_attribute[a.attribute].push_back(&a);
      for (const auto& [attribute, atoms] : by_attribute) {
        if (atoms.size() < 2) continue;
        skip_redundancy[i] = true;
        std::string origin = ContradictionWitness(i, atoms);
        Emit("EID-E003", Severity::kError, IlfdRef(i),
             "contradictory derivations: the antecedent's closure contains "
             "both '" + atoms[0]->ToString() + "' and '" +
                 atoms[1]->ToString() + "'" + origin,
             "remove or reconcile one of the conflicting rules");
      }
    }
    for (size_t i = 0; i < ilfds.size(); ++i) {
      if (skip_redundancy[i]) continue;
      if (ilfds.IsRedundant(i)) {
        Emit("EID-W002", Severity::kWarning, IlfdRef(i),
             "redundant ILFD: derivable from the remaining rules by "
             "Armstrong's axioms",
             "delete the rule; IlfdSet::MinimalCover computes a "
             "minimal equivalent set");
      }
    }
  }

  /// Names another rule whose consequent introduces one of the
  /// conflicting atoms, for the E003 message.
  std::string ContradictionWitness(
      size_t self, const std::vector<const Atom*>& atoms) const {
    auto derived_by = [&](const Atom& atom) -> std::optional<size_t> {
      for (size_t j = 0; j < config_.ilfds.size(); ++j) {
        if (j == self) continue;
        for (const Atom& c : config_.ilfds.ilfd(j).consequent()) {
          if (c == atom) return j;
        }
      }
      return std::nullopt;
    };
    if (std::optional<size_t> j = derived_by(*atoms[1])) {
      return " (the latter via ilfd#" + std::to_string(*j) + ")";
    }
    if (std::optional<size_t> j = derived_by(*atoms[0])) {
      return " (the former via ilfd#" + std::to_string(*j) + ")";
    }
    return "";
  }

  // --- (c) order checks -----------------------------------------------

  void OrderChecks() {
    const IlfdSet& ilfds = config_.ilfds;
    // Unconditional rules: the prototype's NULL default (§6.2) applies
    // only when every rule for an attribute fails — an empty antecedent
    // never fails.
    for (size_t i = 0; i < ilfds.size(); ++i) {
      if (!ilfds.ilfd(i).IsUnconditional()) continue;
      Emit("EID-W004", Severity::kWarning, IlfdRef(i),
           "unconditional ILFD: under first-applicable-wins the NULL "
           "default can never apply to its consequent attributes and any "
           "later rule deriving them is dead",
           "give the rule an antecedent or make it the documented default");
    }
    // Shadowing: rules deriving the same attribute race in declaration
    // order; an earlier rule whose antecedent is subsumed by a later
    // rule's always fires first, so the later rule never commits a value.
    // Quadratic within a consequent-attribute group, hence rule-limited.
    if (OverRuleLimit()) return;
    std::map<std::string, std::vector<size_t>> by_attribute;
    for (size_t i = 0; i < ilfds.size(); ++i) {
      for (const Atom& c : ilfds.ilfd(i).consequent()) {
        std::vector<size_t>& group = by_attribute[c.attribute];
        if (group.empty() || group.back() != i) group.push_back(i);
      }
    }
    // One report per (rule, attribute), first shadower wins the message.
    for (const auto& [attribute, group] : by_attribute) {
      for (size_t jj = 1; jj < group.size(); ++jj) {
        const size_t j = group[jj];
        for (size_t ii = 0; ii < jj; ++ii) {
          const size_t i = group[ii];
          if (!AntecedentSubsumes(ilfds.ilfd(i).antecedent(),
                                  ilfds.ilfd(j).antecedent())) {
            continue;
          }
          Emit("EID-W001", Severity::kWarning, IlfdRef(j),
               "shadowed under first-applicable-wins: whenever this rule's "
               "antecedent holds, ilfd#" + std::to_string(i) +
                   " fires first and commits '" + attribute + "'",
               "reorder the rules or tighten ilfd#" + std::to_string(i) +
                   "'s antecedent");
          break;
        }
      }
    }
  }

  // --- (d) blocking checks --------------------------------------------

  void BlockingChecks() {
    Schema r_ext = ExtSchema(r_world_, r_ext_);
    Schema s_ext = ExtSchema(s_world_, s_ext_);
    for (size_t i = 0; i < config_.identity_rules.size(); ++i) {
      const IdentityRule& rule = config_.identity_rules[i];
      RuleRef ref{RuleKind::kIdentityRule, i, rule.name()};
      if (rule.IsVacuous()) {
        Emit("EID-W006", Severity::kWarning, ref,
             "vacuous rule: the antecedent forces two distinct constants "
             "equal and can never be satisfied",
             "delete the rule or fix the conflicting constants");
        continue;
      }
      RulePlanChecks(rule.predicates(), ref, r_ext, s_ext);
    }
    for (size_t i = 0; i < config_.distinctness_rules.size(); ++i) {
      const DistinctnessRule& rule = config_.distinctness_rules[i];
      RuleRef ref{RuleKind::kDistinctnessRule, i, rule.name()};
      RulePlanChecks(rule.predicates(), ref, r_ext, s_ext);
    }
    if (!unindexable_rules_.empty()) {
      std::string names;
      for (const std::string& name : unindexable_rules_) {
        if (!names.empty()) names += ", ";
        names += name;
      }
      Emit("EID-W009", Severity::kWarning, RuleRef{RuleKind::kProgram, 0, ""},
           "empty blocking plan: " + names +
               (unindexable_rules_.size() == 1 ? " has" : " have") +
               " no join or constant-equality conjunct in any satisfiable "
               "orientation, forcing the staged candidate generator into a "
               "quadratic scan over |R'|x|S'| pairs",
           "add an equality conjunct (e1.A = e2.B, or e.A = constant) to "
           "each listed rule so its candidates can be index-bounded");
    }
  }

  Schema ExtSchema(const std::map<std::string, ValueType>& side_world,
                   const std::set<std::string>& ext_attrs) const {
    std::vector<Attribute> attrs;
    for (const auto& [name, type] : side_world) {
      attrs.push_back(Attribute{name, type});
    }
    for (const std::string& name : ext_attrs) {
      if (side_world.count(name) != 0) continue;
      ValueType type = TypeOf(name).value_or(ValueType::kString);
      attrs.push_back(Attribute{name, type});
    }
    return Schema(std::move(attrs));
  }

  void RulePlanChecks(const std::vector<Predicate>& predicates,
                      const RuleRef& ref, const Schema& r_ext,
                      const Schema& s_ext) {
    // Rules already diagnosed as referencing an attribute missing from
    // both extended schemas are covered by the schema family.
    for (const Predicate& p : predicates) {
      for (const Operand* op : {&p.lhs, &p.rhs}) {
        if (op->kind == Operand::Kind::kEntityAttribute &&
            !r_ext.Contains(op->attribute) && !s_ext.Contains(op->attribute)) {
          return;
        }
      }
    }
    exec::BlockingPlan direct =
        exec::PlanBlocking(predicates, r_ext, s_ext, /*flipped=*/false);
    exec::BlockingPlan flipped =
        exec::PlanBlocking(predicates, r_ext, s_ext, /*flipped=*/true);
    if (direct.impossible && flipped.impossible) {
      Emit("EID-W006", Severity::kWarning, ref,
           "the antecedent can never evaluate to true against these "
           "schemas in either orientation; the rule is dead",
           "check the rule's attributes and constants against R'/S'");
      return;
    }
    if (direct.joins.empty() && flipped.joins.empty()) {
      Emit("EID-W005", Severity::kWarning, ref,
           "no cross-entity equality conjunct: the engine cannot use an "
           "index probe and falls back to a tiled scan over |R'|x|S'| "
           "pairs",
           "add an equality conjunct (e1.A = e2.B) if the rule's "
           "semantics allow one");
    }
    // An orientation with no join *and* no const filter has an empty
    // blocking plan — the staged generator can prune nothing for it.
    auto plan_empty = [](const exec::BlockingPlan& plan) {
      return !plan.impossible && plan.joins.empty() &&
             plan.r_const_eq.empty() && plan.s_const_eq.empty();
    };
    const bool any_live = !direct.impossible || !flipped.impossible;
    const bool all_live_empty =
        (direct.impossible || plan_empty(direct)) &&
        (flipped.impossible || plan_empty(flipped));
    if (any_live && all_live_empty) {
      std::string name = std::string(RuleKindName(ref.kind)) + "#" +
                         std::to_string(ref.index);
      if (!ref.display.empty()) name += " ('" + ref.display + "')";
      unindexable_rules_.push_back(std::move(name));
    }
  }

  const Schema& r_schema_;
  const Schema& s_schema_;
  const IdentifierConfig& config_;
  const AnalyzerOptions& options_;

  // World attribute name -> declared type, per side.
  std::map<std::string, ValueType> r_world_;
  std::map<std::string, ValueType> s_world_;
  // World attribute -> declared-or-inferred type (first writer wins:
  // R column, then S column, then first ILFD consequent value).
  std::map<std::string, ValueType> types_;
  // Attributes some ILFD can derive.
  std::set<std::string> derived_;
  // Every attribute that can exist on an extended tuple of either side.
  std::set<std::string> universe_;
  // Attributes materialized in R'/S' under the configured options.
  std::set<std::string> r_ext_;
  std::set<std::string> s_ext_;

  // Rules whose every satisfiable orientation has an empty blocking plan
  // (collected by RulePlanChecks, reported once as EID-W009).
  std::vector<std::string> unindexable_rules_;

  bool limit_note_emitted_ = false;
  AnalysisReport report_;
};

}  // namespace

RuleProgramAnalyzer::RuleProgramAnalyzer(Schema r_schema, Schema s_schema,
                                         const IdentifierConfig* config,
                                         AnalyzerOptions options)
    : r_schema_(std::move(r_schema)), s_schema_(std::move(s_schema)),
      config_(config), options_(options) {
  EID_CHECK(config_ != nullptr);
}

AnalysisReport RuleProgramAnalyzer::Analyze() const {
  Analysis analysis(r_schema_, s_schema_, *config_, options_);
  return analysis.Run();
}

AnalysisReport AnalyzeRuleProgram(const Schema& r_schema,
                                  const Schema& s_schema,
                                  const IdentifierConfig& config,
                                  const AnalyzerOptions& options) {
  return RuleProgramAnalyzer(r_schema, s_schema, &config, options).Analyze();
}

AnalysisReport AnalyzeRuleProgram(const Relation& r, const Relation& s,
                                  const IdentifierConfig& config,
                                  const AnalyzerOptions& options) {
  return AnalyzeRuleProgram(r.schema(), s.schema(), config, options);
}

Status PreflightCheck(const Schema& r_schema, const Schema& s_schema,
                      const IdentifierConfig& config) {
  AnalysisReport report = AnalyzeRuleProgram(r_schema, s_schema, config);
  if (!report.HasErrors()) return Status::Ok();
  return Status::FailedPrecondition("rule-program analysis failed:\n" +
                                    report.ToString());
}

}  // namespace analysis
}  // namespace eid
