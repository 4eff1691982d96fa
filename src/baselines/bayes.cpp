#include "baselines/bayes.hpp"

#include <cmath>

#include "workload/corpus.hpp"

namespace zmail::baselines {

void NaiveBayesFilter::train(const std::string& text, bool is_spam) {
  const auto tokens = workload::tokenize(text);
  for (const auto& t : tokens) {
    Counts& c = vocab_[t];
    if (is_spam) {
      ++c.spam;
      ++spam_tokens_;
    } else {
      ++c.ham;
      ++ham_tokens_;
    }
  }
  if (is_spam)
    ++spam_docs_;
  else
    ++ham_docs_;
}

double NaiveBayesFilter::score(const std::string& text) const {
  if (spam_docs_ == 0 || ham_docs_ == 0) return 0.0;  // untrained: neutral
  const double v = static_cast<double>(vocab_.size()) + 1.0;
  double log_odds =
      std::log(static_cast<double>(spam_docs_)) -
      std::log(static_cast<double>(ham_docs_));
  for (const auto& t : workload::tokenize(text)) {
    const auto it = vocab_.find(t);
    const double spam_count = it != vocab_.end() ? it->second.spam : 0.0;
    const double ham_count = it != vocab_.end() ? it->second.ham : 0.0;
    // Laplace-smoothed per-class token likelihoods.
    log_odds +=
        std::log((spam_count + 1.0) /
                 (static_cast<double>(spam_tokens_) + v)) -
        std::log((ham_count + 1.0) / (static_cast<double>(ham_tokens_) + v));
  }
  return log_odds;
}

bool NaiveBayesFilter::is_spam(const net::EmailMessage& msg) const {
  return is_spam(msg.subject() + " " + msg.body);
}

void FilterEvaluation::add(bool truth_spam, bool flagged_spam) noexcept {
  if (truth_spam && flagged_spam) ++true_positive;
  else if (!truth_spam && flagged_spam) ++false_positive;
  else if (!truth_spam && !flagged_spam) ++true_negative;
  else ++false_negative;
}

double FilterEvaluation::false_positive_rate() const noexcept {
  const std::uint64_t ham = false_positive + true_negative;
  return ham ? static_cast<double>(false_positive) /
                   static_cast<double>(ham)
             : 0.0;
}

double FilterEvaluation::false_negative_rate() const noexcept {
  const std::uint64_t spam = true_positive + false_negative;
  return spam ? static_cast<double>(false_negative) /
                    static_cast<double>(spam)
              : 0.0;
}

double FilterEvaluation::recall() const noexcept {
  const std::uint64_t spam = true_positive + false_negative;
  return spam ? static_cast<double>(true_positive) /
                    static_cast<double>(spam)
              : 0.0;
}

}  // namespace zmail::baselines
