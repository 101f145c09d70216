#include "core/cpa_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "core/sweep/sweep_kernels.h"
#include "core/sweep/sweep_scheduler.h"
#include "core/vi.h"
#include "util/special_functions.h"
#include "util/thread_pool.h"

namespace cpa {
namespace {

CpaOptions SmallOptions() {
  CpaOptions options;
  options.max_communities = 5;
  options.max_clusters = 4;
  return options;
}

TEST(CpaOptionsTest, DefaultsValidate) { EXPECT_TRUE(CpaOptions().Validate().ok()); }

TEST(CpaOptionsTest, RejectsBadValues) {
  CpaOptions options;
  options.max_communities = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = CpaOptions();
  options.alpha = 0.0;
  EXPECT_FALSE(options.Validate().ok());
  options = CpaOptions();
  options.lambda0 = -1.0;
  EXPECT_FALSE(options.Validate().ok());
  options = CpaOptions();
  options.tolerance = 0.0;
  EXPECT_FALSE(options.Validate().ok());
  options = CpaOptions();
  options.reliability_floor = 2.0;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(CpaModelTest, CreateShapes) {
  const auto model = CpaModel::Create(10, 7, 6, SmallOptions());
  ASSERT_TRUE(model.ok());
  const CpaModel& m = model.value();
  EXPECT_EQ(m.num_items(), 10u);
  EXPECT_EQ(m.num_workers(), 7u);
  EXPECT_EQ(m.num_labels(), 6u);
  EXPECT_EQ(m.num_communities(), 5u);
  EXPECT_EQ(m.num_clusters(), 4u);
  EXPECT_EQ(m.kappa.rows(), 7u);
  EXPECT_EQ(m.kappa.cols(), 5u);
  EXPECT_EQ(m.phi.rows(), 10u);
  EXPECT_EQ(m.phi.cols(), 4u);
  EXPECT_EQ(m.rho.rows(), 4u);     // M - 1
  EXPECT_EQ(m.upsilon.rows(), 3u); // T - 1
  EXPECT_EQ(m.lambda.size(), 4u);
  EXPECT_EQ(m.lambda[0].rows(), 5u);
  EXPECT_EQ(m.lambda[0].cols(), 6u);
  EXPECT_EQ(m.zeta.rows(), 4u);
  EXPECT_EQ(m.zeta.cols(), 6u);
}

TEST(CpaModelTest, ResponsibilitiesAreRowStochastic) {
  const auto model = CpaModel::Create(10, 7, 6, SmallOptions());
  ASSERT_TRUE(model.ok());
  for (std::size_t u = 0; u < 7; ++u) {
    EXPECT_NEAR(model.value().kappa.RowSum(u), 1.0, 1e-9);
  }
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(model.value().phi.RowSum(i), 1.0, 1e-9);
  }
}

TEST(CpaModelTest, SingletonVariantsUseIdentityResponsibilities) {
  CpaOptions no_z = SmallOptions();
  no_z.singleton_communities = true;
  const auto model = CpaModel::Create(6, 4, 3, no_z);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model.value().num_communities(), 4u);
  for (std::size_t u = 0; u < 4; ++u) {
    EXPECT_DOUBLE_EQ(model.value().kappa(u, u), 1.0);
  }

  CpaOptions no_l = SmallOptions();
  no_l.singleton_clusters = true;
  const auto model_l = CpaModel::Create(6, 4, 3, no_l);
  ASSERT_TRUE(model_l.ok());
  EXPECT_EQ(model_l.value().num_clusters(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(model_l.value().phi(i, i), 1.0);
  }
}

TEST(CpaModelTest, NoLParameterGuardRefusesHugeConfigurations) {
  CpaOptions no_l = SmallOptions();
  no_l.singleton_clusters = true;
  no_l.no_l_parameter_limit = 100;  // 6 items * 5 communities * 10 labels > 100
  const auto model = CpaModel::Create(6, 4, 10, no_l);
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kUnimplemented);
}

TEST(StickBreakingTest, UniformSticksFavourEarlierComponents) {
  Matrix sticks(3, 2, 1.0);  // Beta(1,1) on each stick
  std::vector<double> elog;
  StickBreakingExpectedLog(sticks, elog);
  ASSERT_EQ(elog.size(), 4u);
  // E[ln pi_1] = Psi(1) - Psi(2); later components accumulate E[ln(1-v)].
  EXPECT_NEAR(elog[0], Digamma(1.0) - Digamma(2.0), 1e-12);
  EXPECT_GT(elog[0], elog[1]);
  EXPECT_GT(elog[1], elog[2]);
  // The last component only carries the accumulated remainder.
  EXPECT_NEAR(elog[3], 3.0 * (Digamma(1.0) - Digamma(2.0)), 1e-12);
}

TEST(StickBreakingTest, ExpectedMassesFormSubProbability) {
  // exp(E[ln pi]) underestimates E[pi] (Jensen) so the sum must be < 1.
  Matrix sticks(4, 2);
  for (std::size_t k = 0; k < 4; ++k) {
    sticks(k, 0) = 2.0 + k;
    sticks(k, 1) = 1.5;
  }
  std::vector<double> elog;
  StickBreakingExpectedLog(sticks, elog);
  double total = 0.0;
  for (double v : elog) total += std::exp(v);
  EXPECT_LT(total, 1.0);
  EXPECT_GT(total, 0.5);
}

TEST(CpaModelTest, RefreshExpectationsMatchesDirichletDefinition) {
  auto model = CpaModel::Create(4, 3, 3, SmallOptions());
  ASSERT_TRUE(model.ok());
  CpaModel& m = model.value();
  m.zeta(0, 0) = 4.0;
  m.zeta(0, 1) = 2.0;
  m.zeta(0, 2) = 2.0;
  m.RefreshExpectations();
  const double digamma_sum = Digamma(8.0);
  EXPECT_NEAR(m.elog_phi(0, 0), Digamma(4.0) - digamma_sum, 1e-12);
  EXPECT_NEAR(m.elog_phi(0, 1), Digamma(2.0) - digamma_sum, 1e-12);
}

TEST(CpaModelTest, AnswerExpectedLogLikSumsSelectedComponents) {
  auto model = CpaModel::Create(4, 3, 4, SmallOptions());
  ASSERT_TRUE(model.ok());
  CpaModel& m = model.value();
  m.RefreshExpectations();
  const LabelSet labels = {0, 2};
  const double expected = m.elog_psi[1](2, 0) + m.elog_psi[1](2, 2);
  EXPECT_NEAR(m.AnswerExpectedLogLik(1, 2, labels), expected, 1e-12);
}

TEST(CpaModelTest, UpdateSizePriorTracksAnswerSizes) {
  auto model = CpaModel::Create(3, 2, 5, SmallOptions());
  ASSERT_TRUE(model.ok());
  CpaModel& m = model.value();
  AnswerMatrix answers(3, 2);
  ASSERT_TRUE(answers.Add(0, 0, LabelSet{0, 1}).ok());
  ASSERT_TRUE(answers.Add(1, 0, LabelSet{0, 1}).ok());
  ASSERT_TRUE(answers.Add(2, 1, LabelSet{2}).ok());
  const SweepScheduler scheduler;
  m.UpdateSizePrior(answers, scheduler);
  // Rows normalised, with most mass on sizes 1 and 2.
  for (std::size_t t = 0; t < m.num_clusters(); ++t) {
    EXPECT_NEAR(Sum(m.size_prior.Row(t)), 1.0, 1e-9);
  }
  // Aggregate over clusters: size 2 mass should exceed size 4 mass.
  double size2 = 0.0;
  double size4 = 0.0;
  for (std::size_t t = 0; t < m.num_clusters(); ++t) {
    size2 += m.size_prior(t, 2);
    size4 += m.size_prior(t, 4);
  }
  EXPECT_GT(size2, size4);
}

/// The dense size prior the sparse one must reproduce: every answer adds
/// its item's whole ϕ row, zeros included, in answer order.
Matrix DenseSizePrior(const CpaModel& m, const AnswerMatrix& answers) {
  std::size_t max_size = 1;
  for (const Answer& a : answers.answers()) {
    max_size = std::max(max_size, a.labels.size());
  }
  Matrix prior(m.num_clusters(), max_size + 3, 0.5);
  for (const Answer& a : answers.answers()) {
    const auto phi_row = m.phi.Row(a.item);
    for (std::size_t t = 0; t < m.num_clusters(); ++t) {
      prior(t, a.labels.size()) += phi_row[t];
    }
  }
  prior.NormalizeRows();
  return prior;
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.Data().data(), b.Data().data(),
                     a.Data().size() * sizeof(double)) == 0;
}

TEST(CpaModelTest, SparseSizePriorMatchesDenseOracleBitForBit) {
  constexpr std::size_t kItems = 90;
  constexpr std::size_t kWorkers = 25;
  constexpr std::size_t kLabels = 8;
  // Answers in worker-major order, so they are not grouped by item.
  Rng rng(42);
  AnswerMatrix answers(kItems, kWorkers);
  for (WorkerId u = 0; u < kWorkers; ++u) {
    for (ItemId i = 0; i < kItems; ++i) {
      if (!rng.NextBernoulli(0.3)) continue;
      LabelSet labels;
      const std::size_t size = 1 + rng.NextBounded(4);
      while (labels.size() < size) {
        labels.Add(static_cast<LabelId>(rng.NextBounded(kLabels)));
      }
      ASSERT_TRUE(answers.Add(i, u, std::move(labels)).ok());
    }
  }
  ASSERT_NE(answers.answers()[0].item, answers.answers()[1].item);

  CpaOptions options;
  options.max_communities = 4;
  options.max_clusters = 24;
  options.max_iterations = 8;
  auto fitted = FitCpa(answers, kLabels, options);
  ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
  CpaModel& m = fitted.value();
  // Plant the entries the sparse pass must treat exactly: tiny nonzeros
  // (below the kernels' skip mass, down to a denormal) and exact zeros
  // next to them, on rows of answered items.
  m.phi(0, 1) = 3e-9;
  m.phi(0, 2) = std::numeric_limits<double>::denorm_min();
  m.phi(1, 3) = 0.0;
  m.phi(2, 5) = 1e-300;
  std::size_t zeros = 0;
  std::size_t tiny = 0;
  for (double v : m.phi.Data()) {
    zeros += v == 0.0;
    tiny += v > 0.0 && v < sweep::kSkipMass;
  }
  EXPECT_GT(zeros, 0u);
  EXPECT_GE(tiny, 3u);

  const Matrix oracle = DenseSizePrior(m, answers);
  ThreadPool pool(4);
  for (Executor* executor :
       {static_cast<Executor*>(nullptr), static_cast<Executor*>(&pool)}) {
    const SweepScheduler scheduler(executor);
    m.UpdateSizePrior(answers, scheduler);
    EXPECT_TRUE(SameBits(m.size_prior, oracle))
        << "threads " << scheduler.num_threads();
  }
  // The planted tiny masses do reach the counts: dropping them (as the
  // kSkipMass activity would) changes the result.
  m.phi(0, 1) = 0.0;
  EXPECT_FALSE(SameBits(DenseSizePrior(m, answers), oracle));
}

TEST(CpaModelTest, PosteriorMeansNormalised) {
  auto model = CpaModel::Create(4, 3, 3, SmallOptions());
  ASSERT_TRUE(model.ok());
  const auto psi = model.value().PsiMean(0, 0);
  EXPECT_NEAR(Sum(psi), 1.0, 1e-9);
  const auto phi = model.value().PhiMean(1);
  EXPECT_NEAR(Sum(phi), 1.0, 1e-9);
}

TEST(CpaModelTest, CommunityReliabilityWithinBounds) {
  auto model = CpaModel::Create(6, 5, 4, SmallOptions());
  ASSERT_TRUE(model.ok());
  const auto reliability = model.value().CommunityReliability();
  ASSERT_EQ(reliability.size(), 5u);
  for (double r : reliability) {
    EXPECT_GE(r, model.value().options().reliability_floor);
    EXPECT_LE(r, 1.0);
  }
}

TEST(CpaModelTest, EffectiveCountsRespectThreshold) {
  auto model = CpaModel::Create(8, 6, 3, SmallOptions());
  ASSERT_TRUE(model.ok());
  // Near-uniform init: every component holds ~6/5 and ~8/4 mass.
  EXPECT_EQ(model.value().EffectiveCommunities(0.5), 5u);
  EXPECT_EQ(model.value().EffectiveClusters(0.5), 4u);
  EXPECT_EQ(model.value().EffectiveCommunities(100.0), 0u);
}

TEST(CpaModelTest, RejectsZeroLabels) {
  EXPECT_FALSE(CpaModel::Create(3, 3, 0, SmallOptions()).ok());
}

}  // namespace
}  // namespace cpa
