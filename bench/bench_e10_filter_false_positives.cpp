// E10 — Filter failure modes vs Zmail (paper Section 2.2).
//
// Claims: "spam filters are vulnerable to false positive errors.
// Newsletters and paid subscriptions have a high probability of being
// classified as spam ... spammers can foil spam filters [by] deliberate
// misspelling ... Using Zmail, spammers' efforts to evade definitions of
// spam become irrelevant."
//
// Regenerates:
//   E10.a  trained naive-Bayes confusion rates on ham / newsletters / spam
//   E10.b  evasion sweep: false negatives vs misspelling strength — and the
//          flat Zmail line (cost per message is evasion-independent)
//   E10.c  the dollar cost of false positives (the paper's Jupiter Research
//          framing) vs Zmail's zero-FP-by-construction
#include "baselines/bayes.hpp"
#include "bench_common.hpp"
#include "util/table.hpp"
#include "workload/corpus.hpp"

using namespace zmail;

namespace {

baselines::NaiveBayesFilter train_filter(std::uint64_t seed) {
  workload::CorpusGenerator corpus(workload::CorpusParams{}, Rng(seed));
  baselines::NaiveBayesFilter filter;
  for (int i = 0; i < 600; ++i) {
    filter.train(corpus.ham_body(), false);
    filter.train(corpus.spam_body(), true);
  }
  return filter;
}

void e10a_confusion() {
  const baselines::NaiveBayesFilter filter = train_filter(101);
  workload::CorpusGenerator fresh(workload::CorpusParams{}, Rng(102));

  baselines::FilterEvaluation ham_eval, news_eval, spam_eval;
  for (int i = 0; i < 500; ++i) {
    ham_eval.add(false, filter.is_spam(fresh.ham_body()));
    news_eval.add(false, filter.is_spam(fresh.newsletter_body()));
    spam_eval.add(true, filter.is_spam(fresh.spam_body()));
  }

  Table t({"mail class", "flagged as spam", "error type"});
  t.add_row({"plain ham", Table::pct(ham_eval.false_positive_rate()),
             "false positive"});
  t.add_row({"newsletters (solicited bulk)",
             Table::pct(news_eval.false_positive_rate()), "false positive"});
  t.add_row({"spam", Table::pct(1.0 - spam_eval.recall()),
             "false negative"});
  t.print("E10.a  naive-Bayes confusion by mail class (500 each)");

  bench::check(news_eval.false_positive_rate() >
                   ham_eval.false_positive_rate() + 0.01,
               "newsletters suffer far more false positives than plain ham");
  bench::check(spam_eval.recall() > 0.9,
               "the filter is genuinely competent on unobfuscated spam");
}

void e10b_evasion_sweep() {
  const baselines::NaiveBayesFilter filter = train_filter(103);
  workload::CorpusGenerator fresh(workload::CorpusParams{}, Rng(104));

  Table t({"misspelling strength", "filter false negatives",
           "Zmail cost per spam"});
  double fn_at_0 = 0, fn_at_max = 0;
  for (double strength : {0.0, 0.3, 0.6, 0.9}) {
    baselines::FilterEvaluation eval;
    for (int i = 0; i < 400; ++i)
      eval.add(true, filter.is_spam(fresh.evade(fresh.spam_body(), strength)));
    t.add_row({Table::num(strength, 1),
               Table::pct(eval.false_negative_rate()), "$0.01 (unchanged)"});
    if (strength == 0.0) fn_at_0 = eval.false_negative_rate();
    if (strength == 0.9) fn_at_max = eval.false_negative_rate();
  }
  t.print("E10.b  evasion beats filters; Zmail's price is unevadable");

  bench::check(fn_at_max > fn_at_0 + 0.3,
               "misspelling evasion defeats the trained filter");
}

void e10c_dollar_cost() {
  // The paper cites Jupiter Research: wrongly blocked legitimate email cost
  // $230M in 2003 (17% FP) heading to $419M in 2008 (~10% FP).  Price our
  // measured FP rates with the same $/message implied by those figures.
  const baselines::NaiveBayesFilter filter = train_filter(105);
  workload::CorpusGenerator fresh(workload::CorpusParams{}, Rng(106));
  baselines::FilterEvaluation eval;
  for (int i = 0; i < 300; ++i) {
    eval.add(false, filter.is_spam(fresh.ham_body()));
    eval.add(false, filter.is_spam(fresh.newsletter_body()));
  }

  // Jupiter's 2003 point: 17% of legitimate *bulk* mail blocked = $230M.
  const double dollars_per_blocked = 230e6 / (0.17 * 1e10);  // $/message
  const double legit_bulk_per_year = 1e10;
  const double our_fp = eval.false_positive_rate();
  const double filter_cost = our_fp * legit_bulk_per_year *
                             dollars_per_blocked;

  Table t({"approach", "legitimate mail lost", "annual cost"});
  t.add_row({"content filtering", Table::pct(our_fp),
             std::string("$").append(Table::num(filter_cost / 1e6, 1)) + "M"});
  t.add_row({"Zmail", "0.00% (no filtering needed)", "$0.0M"});
  t.print("E10.c  the false-positive bill (Jupiter-style accounting)");

  bench::check(our_fp > 0.0, "filtering loses some legitimate mail");
  bench::check(true, "Zmail loses none by construction");
}

void e10d_corpus_difficulty() {
  // The default synthetic corpus separates cleanly (a best-case filter);
  // this sweep hardens the corpus by blending more everyday vocabulary
  // into spam, approaching real-world confusability.
  Table t({"spam/ham vocabulary mix", "spam recall", "newsletter FP"});
  double recall_easy = 0, recall_hard = 0;
  for (double mix : {0.35, 0.55, 0.7}) {
    workload::CorpusParams cp;
    cp.spam_ham_mix = mix;
    cp.newsletter_spam_mix = 0.25;
    workload::CorpusGenerator corpus(cp, Rng(108));
    baselines::NaiveBayesFilter filter;
    for (int i = 0; i < 600; ++i) {
      filter.train(corpus.spam_body(), true);
      filter.train(corpus.ham_body(), false);
    }
    workload::CorpusGenerator fresh(cp, Rng(109));
    baselines::FilterEvaluation spam_eval, news_eval;
    for (int i = 0; i < 400; ++i) {
      spam_eval.add(true, filter.is_spam(fresh.spam_body()));
      news_eval.add(false, filter.is_spam(fresh.newsletter_body()));
    }
    t.add_row({Table::num(mix, 2), Table::pct(spam_eval.recall()),
               Table::pct(news_eval.false_positive_rate())});
    if (mix == 0.35) recall_easy = spam_eval.recall();
    if (mix == 0.7) recall_hard = spam_eval.recall();
  }
  t.print("E10.d  filter quality vs corpus difficulty");
  bench::check(recall_hard <= recall_easy,
               "harder (more realistic) corpora only weaken the filter — "
               "Zmail's economics are corpus-independent");
}

}  // namespace

int main(int argc, char** argv) {
  bench::Bench harness("e10_filter_false_positives", argc, argv);
  std::printf("=== E10: filter false positives and evasion ===\n");
  e10a_confusion();
  e10b_evasion_sweep();
  e10c_dollar_cost();
  e10d_corpus_difficulty();
  return harness.finish();
}
