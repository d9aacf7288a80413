#include "logic/kb.h"

#include <gtest/gtest.h>

#include <random>
#include <thread>
#include <vector>

#include "../test_util.h"

namespace eid {
namespace {

/// The §5.2 example: F = {(A=a1)->(B=b1), (B=b1)->(C=c1)} as atoms P,Q,R.
class KbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    p_ = table_.Intern("A", Value::Str("a1"));
    q_ = table_.Intern("B", Value::Str("b1"));
    r_ = table_.Intern("C", Value::Str("c1"));
    kb_.Add(Implication{AtomSet::Of({p_}), AtomSet::Of({q_})});
    kb_.Add(Implication{AtomSet::Of({q_}), AtomSet::Of({r_})});
  }

  AtomTable table_;
  KnowledgeBase kb_;
  AtomId p_ = 0, q_ = 0, r_ = 0;
};

TEST_F(KbTest, ClosureContainsSeed) {
  ClosureResult c = kb_.ForwardClosure(AtomSet::Of({r_}));
  EXPECT_EQ(c.atoms, AtomSet::Of({r_}));
  EXPECT_TRUE(c.provenance.empty());
}

TEST_F(KbTest, TransitiveChainSaturates) {
  ClosureResult c = kb_.ForwardClosure(AtomSet::Of({p_}));
  EXPECT_EQ(c.atoms, AtomSet::Of({p_, q_, r_}));
  EXPECT_EQ(c.provenance.at(q_), 0u);
  EXPECT_EQ(c.provenance.at(r_), 1u);
  EXPECT_EQ(c.firing_order, (std::vector<size_t>{0, 1}));
}

TEST_F(KbTest, EntailsAndImplies) {
  EXPECT_TRUE(kb_.Entails(AtomSet::Of({p_}), AtomSet::Of({r_})));
  EXPECT_FALSE(kb_.Entails(AtomSet::Of({q_}), AtomSet::Of({p_})));
  EXPECT_TRUE(kb_.Implies(Implication{AtomSet::Of({p_}), AtomSet::Of({q_, r_})}));
  EXPECT_TRUE(kb_.Implies(Implication{AtomSet::Of({p_}), AtomSet::Of({p_})}));
}

TEST(KnowledgeBaseTest, MultiAtomBodyNeedsEveryAtom) {
  AtomTable t;
  AtomId a = t.Intern("a", Value::Int(1));
  AtomId b = t.Intern("b", Value::Int(1));
  AtomId c = t.Intern("c", Value::Int(1));
  KnowledgeBase kb;
  kb.Add(Implication{AtomSet::Of({a, b}), AtomSet::Of({c})});
  EXPECT_FALSE(kb.Entails(AtomSet::Of({a}), AtomSet::Of({c})));
  EXPECT_FALSE(kb.Entails(AtomSet::Of({b}), AtomSet::Of({c})));
  EXPECT_TRUE(kb.Entails(AtomSet::Of({a, b}), AtomSet::Of({c})));
}

TEST(KnowledgeBaseTest, UnconditionalFactsAlwaysFire) {
  KnowledgeBase kb;
  kb.Add(Implication{AtomSet(), AtomSet::Of({7})});
  ClosureResult c = kb.ForwardClosure(AtomSet());
  EXPECT_TRUE(c.atoms.Contains(7));
}

TEST(KnowledgeBaseTest, MultiHeadDerivesAllAtoms) {
  KnowledgeBase kb;
  kb.Add(Implication{AtomSet::Of({0}), AtomSet::Of({1, 2})});
  ClosureResult c = kb.ForwardClosure(AtomSet::Of({0}));
  EXPECT_TRUE(c.atoms.Contains(1));
  EXPECT_TRUE(c.atoms.Contains(2));
}

TEST(KnowledgeBaseTest, CyclicClausesTerminate) {
  KnowledgeBase kb;
  kb.Add(Implication{AtomSet::Of({0}), AtomSet::Of({1})});
  kb.Add(Implication{AtomSet::Of({1}), AtomSet::Of({0})});
  ClosureResult c = kb.ForwardClosure(AtomSet::Of({0}));
  EXPECT_EQ(c.atoms, AtomSet::Of({0, 1}));
}

TEST(KnowledgeBaseTest, DiamondDerivationsUseFirstClause) {
  // Two clauses derive atom 2; provenance records the first to fire.
  KnowledgeBase kb;
  kb.Add(Implication{AtomSet::Of({0}), AtomSet::Of({2})});
  kb.Add(Implication{AtomSet::Of({1}), AtomSet::Of({2})});
  ClosureResult c = kb.ForwardClosure(AtomSet::Of({0, 1}));
  EXPECT_EQ(c.provenance.at(2), 0u);
}

TEST(KnowledgeBaseTest, LongChainLinearTime) {
  // 100k-clause chain closes without issue (counting algorithm).
  KnowledgeBase kb;
  const AtomId n = 100000;
  for (AtomId i = 0; i < n; ++i) {
    kb.Add(Implication{AtomSet::Of({i}), AtomSet::Of({i + 1})});
  }
  ClosureResult c = kb.ForwardClosure(AtomSet::Of({0}));
  EXPECT_EQ(c.atoms.size(), n + 1);
}

TEST(KnowledgeBaseTest, SeedAtomsDoNotGetProvenance) {
  KnowledgeBase kb;
  kb.Add(Implication{AtomSet::Of({0}), AtomSet::Of({1})});
  ClosureResult c = kb.ForwardClosure(AtomSet::Of({0, 1}));
  EXPECT_TRUE(c.provenance.empty());  // 1 was already in the seed
}

// --- ClosureEvaluator ---------------------------------------------------

/// The (clause, derived atom) events ForwardClosure implies: clauses in
/// firing order, each clause's head atoms it was first to derive, in id
/// order — what RunDerived must report.
std::vector<std::pair<size_t, AtomId>> ReferenceEvents(
    const KnowledgeBase& kb, const std::vector<AtomId>& seed) {
  ClosureResult closure = kb.ForwardClosure(AtomSet(seed));
  std::vector<std::pair<size_t, AtomId>> out;
  for (size_t c : closure.firing_order) {
    for (AtomId h : kb.clause(c).head.ids()) {
      auto it = closure.provenance.find(h);
      if (it != closure.provenance.end() && it->second == c) {
        out.emplace_back(c, h);
      }
    }
  }
  return out;
}

std::vector<std::pair<size_t, AtomId>> Events(
    const std::vector<DerivedAtom>& derived) {
  std::vector<std::pair<size_t, AtomId>> out;
  for (const DerivedAtom& d : derived) out.emplace_back(d.clause, d.atom);
  return out;
}

/// A random knowledge base over atoms [0, atoms): bodies of 0-3 atoms
/// (some empty: facts), heads of 1-2 atoms.
KnowledgeBase RandomKb(std::mt19937_64* rng, size_t clauses, AtomId atoms) {
  KnowledgeBase kb;
  for (size_t c = 0; c < clauses; ++c) {
    std::vector<AtomId> body, head;
    const size_t body_size = (*rng)() % 8 == 0 ? 0 : 1 + (*rng)() % 3;
    for (size_t i = 0; i < body_size; ++i) body.push_back((*rng)() % atoms);
    for (size_t i = 0; i < 1 + (*rng)() % 2; ++i) {
      head.push_back((*rng)() % atoms);
    }
    kb.Add(Implication{AtomSet(body), AtomSet(head)});
  }
  return kb;
}

std::vector<AtomId> RandomSeed(std::mt19937_64* rng, AtomId atoms) {
  std::vector<AtomId> seed;
  for (size_t i = 0; i < 1 + (*rng)() % 4; ++i) seed.push_back((*rng)() % atoms);
  return AtomSet(seed).ids();  // sorted, duplicate-free
}

TEST(ClosureEvaluatorTest, RunDerivedMatchesForwardClosure) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    const AtomId atoms = 4 + static_cast<AtomId>(rng() % 40);
    KnowledgeBase kb = RandomKb(&rng, 1 + rng() % 60, atoms);
    ClosureEvaluator evaluator(&kb);
    for (int run = 0; run < 20; ++run) {
      const std::vector<AtomId> seed = RandomSeed(&rng, atoms);
      ASSERT_EQ(Events(evaluator.RunDerived(seed)), ReferenceEvents(kb, seed))
          << "trial " << trial << " run " << run;
      ClosureResult run_result = evaluator.Run(AtomSet(seed));
      ClosureResult reference = kb.ForwardClosure(AtomSet(seed));
      EXPECT_EQ(run_result.atoms, reference.atoms);
      EXPECT_EQ(run_result.firing_order, reference.firing_order);
    }
  }
}

TEST(ClosureEvaluatorTest, EvaluatorSeesClausesAddedAfterConstruction) {
  KnowledgeBase kb;
  kb.Add(Implication{AtomSet::Of({0}), AtomSet::Of({1})});
  ClosureEvaluator evaluator(&kb);
  const std::vector<AtomId> seed = {0};
  EXPECT_EQ(Events(evaluator.RunDerived(seed)),
            (std::vector<std::pair<size_t, AtomId>>{{0, 1}}));
  const std::shared_ptr<const ClosureIndex> before = kb.closure_index();
  kb.Add(Implication{AtomSet::Of({1}), AtomSet::Of({2})});
  EXPECT_NE(kb.closure_index(), before);  // Add dropped the old version
  EXPECT_EQ(kb.closure_index()->num_clauses, 2u);
  EXPECT_EQ(Events(evaluator.RunDerived(seed)),
            (std::vector<std::pair<size_t, AtomId>>{{0, 1}, {1, 2}}));
  EXPECT_EQ(Events(evaluator.RunDerived(seed)), ReferenceEvents(kb, seed));
}

TEST(ClosureEvaluatorTest, CopiedKnowledgeBaseGivesSameEvents) {
  std::mt19937_64 rng(11);
  KnowledgeBase kb = RandomKb(&rng, 80, 30);
  const KnowledgeBase unbuilt_copy = kb;  // copied before any index exists
  const std::shared_ptr<const ClosureIndex> index = kb.closure_index();
  KnowledgeBase built_copy = kb;  // shares the built snapshot
  EXPECT_EQ(built_copy.closure_index(), index);
  ClosureEvaluator original(&kb), unbuilt(&unbuilt_copy), built(&built_copy);
  for (int run = 0; run < 50; ++run) {
    const std::vector<AtomId> seed = RandomSeed(&rng, 30);
    const auto want = Events(original.RunDerived(seed));
    EXPECT_EQ(Events(unbuilt.RunDerived(seed)), want) << "run " << run;
    EXPECT_EQ(Events(built.RunDerived(seed)), want) << "run " << run;
  }
  // Growing the copy leaves the original's snapshot alone.
  built_copy.Add(Implication{AtomSet::Of({0}), AtomSet::Of({29})});
  EXPECT_EQ(kb.closure_index(), index);
  EXPECT_NE(built_copy.closure_index(), index);
}

TEST(ClosureEvaluatorTest, ConcurrentFirstUseBuildsOneIndex) {
  std::mt19937_64 rng(13);
  KnowledgeBase kb = RandomKb(&rng, 500, 120);
  std::vector<std::vector<AtomId>> seeds;
  for (int i = 0; i < 200; ++i) seeds.push_back(RandomSeed(&rng, 120));
  // Serial reference on a copy taken before any index was built.
  const KnowledgeBase serial_kb = kb;
  ClosureEvaluator serial(&serial_kb);
  std::vector<std::vector<std::pair<size_t, AtomId>>> want;
  for (const std::vector<AtomId>& seed : seeds) {
    want.push_back(Events(serial.RunDerived(seed)));
  }

  std::vector<const ClosureIndex*> seen(4, nullptr);
  std::vector<size_t> mismatches(4, 0);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      ClosureEvaluator evaluator(&kb);  // first use races the others
      for (size_t i = 0; i < seeds.size(); ++i) {
        if (Events(evaluator.RunDerived(seeds[i])) != want[i]) {
          ++mismatches[t];
        }
      }
      seen[t] = kb.closure_index().get();
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (size_t t = 0; t < 4; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
    EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
  }
  EXPECT_EQ(kb.closure_index().get(), seen[0]);
}

}  // namespace
}  // namespace eid
