#include "baselines/bayes.hpp"

#include <gtest/gtest.h>

#include "workload/corpus.hpp"

namespace zmail::baselines {
namespace {

class TrainedBayesTest : public ::testing::Test {
 protected:
  TrainedBayesTest() : corpus_(workload::CorpusParams{}, zmail::Rng(303)) {
    for (int i = 0; i < 400; ++i) {
      filter_.train(corpus_.ham_body(), false);
      filter_.train(corpus_.spam_body(), true);
    }
  }

  workload::CorpusGenerator corpus_;
  NaiveBayesFilter filter_;
};

TEST(NaiveBayes, UntrainedScoresNeutral) {
  NaiveBayesFilter f;
  EXPECT_EQ(f.score("anything at all"), 0.0);
  EXPECT_FALSE(f.is_spam("anything"));
}

TEST(NaiveBayes, TrainingCountsDocsAndVocabulary) {
  NaiveBayesFilter f;
  f.train("buy pills now", true);
  f.train("meeting at noon", false);
  EXPECT_EQ(f.spam_docs(), 1u);
  EXPECT_EQ(f.ham_docs(), 1u);
  EXPECT_EQ(f.vocabulary_size(), 6u);
}

TEST(NaiveBayes, ObviousSeparation) {
  NaiveBayesFilter f;
  for (int i = 0; i < 50; ++i) {
    f.train("viagra casino lottery winner free", true);
    f.train("project meeting report budget agenda", false);
  }
  EXPECT_GT(f.score("viagra lottery free"), 0.0);
  EXPECT_LT(f.score("project budget agenda"), 0.0);
  EXPECT_TRUE(f.is_spam("casino casino winner"));
  EXPECT_FALSE(f.is_spam("meeting report"));
}

TEST_F(TrainedBayesTest, HighAccuracyOnCleanCorpus) {
  workload::CorpusGenerator fresh(workload::CorpusParams{}, zmail::Rng(404));
  FilterEvaluation eval;
  for (int i = 0; i < 300; ++i) {
    eval.add(true, filter_.is_spam(fresh.spam_body()));
    eval.add(false, filter_.is_spam(fresh.ham_body()));
  }
  EXPECT_GT(eval.recall(), 0.9);
  EXPECT_LT(eval.false_positive_rate(), 0.05);
}

TEST_F(TrainedBayesTest, MisspellingEvasionRaisesFalseNegatives) {
  workload::CorpusGenerator fresh(workload::CorpusParams{}, zmail::Rng(405));
  FilterEvaluation plain, evaded;
  for (int i = 0; i < 300; ++i) {
    const std::string body = fresh.spam_body();
    plain.add(true, filter_.is_spam(body));
    evaded.add(true, filter_.is_spam(fresh.evade(body, 0.9)));
  }
  EXPECT_GT(evaded.false_negative_rate(),
            plain.false_negative_rate() + 0.2);
}

TEST_F(TrainedBayesTest, NewslettersSufferFalsePositives) {
  // The paper's false-positive story: solicited bulk mail looks spammy.
  workload::CorpusGenerator fresh(workload::CorpusParams{}, zmail::Rng(406));
  FilterEvaluation eval;
  for (int i = 0; i < 300; ++i)
    eval.add(false, filter_.is_spam(fresh.newsletter_body()));
  EXPECT_GT(eval.false_positive_rate(), 0.02);
}

TEST_F(TrainedBayesTest, RaisingThresholdTradesFpForFn) {
  workload::CorpusGenerator fresh(workload::CorpusParams{}, zmail::Rng(407));
  std::vector<std::string> spams, newsletters;
  for (int i = 0; i < 200; ++i) {
    spams.push_back(fresh.spam_body());
    newsletters.push_back(fresh.newsletter_body());
  }
  auto measure = [&](double threshold) {
    NaiveBayesFilter f = filter_;
    f.set_threshold(threshold);
    FilterEvaluation e;
    for (const auto& s : spams) e.add(true, f.is_spam(s));
    for (const auto& n : newsletters) e.add(false, f.is_spam(n));
    return e;
  };
  const FilterEvaluation strict = measure(0.0);
  const FilterEvaluation lenient = measure(40.0);
  EXPECT_LE(lenient.false_positive_rate(), strict.false_positive_rate());
  EXPECT_GE(lenient.false_negative_rate(), strict.false_negative_rate());
}

TEST_F(TrainedBayesTest, MessageInterfaceUsesSubjectAndBody) {
  const net::EmailMessage spam = corpus_.make_message(
      {"s", "x.example"}, {"r", "y.example"}, net::MailClass::kSpam);
  EXPECT_TRUE(filter_.is_spam(spam));
  const net::EmailMessage ham = corpus_.make_message(
      {"s", "x.example"}, {"r", "y.example"}, net::MailClass::kLegitimate);
  EXPECT_FALSE(filter_.is_spam(ham));
}

TEST(FilterEvaluation, CountersAndRates) {
  FilterEvaluation e;
  e.add(true, true);    // TP
  e.add(true, false);   // FN
  e.add(false, true);   // FP
  e.add(false, false);  // TN
  EXPECT_EQ(e.true_positive, 1u);
  EXPECT_EQ(e.false_negative, 1u);
  EXPECT_EQ(e.false_positive, 1u);
  EXPECT_EQ(e.true_negative, 1u);
  EXPECT_DOUBLE_EQ(e.false_positive_rate(), 0.5);
  EXPECT_DOUBLE_EQ(e.false_negative_rate(), 0.5);
  EXPECT_DOUBLE_EQ(e.recall(), 0.5);
}

TEST(FilterEvaluation, EmptyRatesAreZero) {
  FilterEvaluation e;
  EXPECT_EQ(e.false_positive_rate(), 0.0);
  EXPECT_EQ(e.false_negative_rate(), 0.0);
  EXPECT_EQ(e.recall(), 0.0);
}

}  // namespace
}  // namespace zmail::baselines
