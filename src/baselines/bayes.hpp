// Naive-Bayes content filter (Sahami et al. 1998 style), from scratch.
//
// The canonical representative of the paper's "content based filtering
// approaches" (Section 2.2).  Multinomial naive Bayes over word tokens with
// Laplace smoothing and a log-odds decision threshold.  The two failure
// modes the paper dwells on — false positives on legitimate bulk mail, and
// evasion through deliberate misspelling — both emerge measurably from this
// implementation (bench_e10).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "net/email.hpp"

namespace zmail::baselines {

class NaiveBayesFilter {
 public:
  // `threshold` is the log-odds above which a message is classified spam;
  // raising it trades false positives for false negatives.
  explicit NaiveBayesFilter(double threshold = 0.0) : threshold_(threshold) {}

  void train(const std::string& text, bool is_spam);

  // Log-odds log(P(spam|text) / P(ham|text)) under naive Bayes.
  double score(const std::string& text) const;
  bool is_spam(const std::string& text) const {
    return score(text) > threshold_;
  }
  bool is_spam(const net::EmailMessage& msg) const;

  void set_threshold(double t) noexcept { threshold_ = t; }
  double threshold() const noexcept { return threshold_; }

  std::uint64_t spam_docs() const noexcept { return spam_docs_; }
  std::uint64_t ham_docs() const noexcept { return ham_docs_; }
  std::size_t vocabulary_size() const noexcept { return vocab_.size(); }

 private:
  struct Counts {
    std::uint64_t spam = 0;
    std::uint64_t ham = 0;
  };

  std::unordered_map<std::string, Counts> vocab_;
  std::uint64_t spam_tokens_ = 0;
  std::uint64_t ham_tokens_ = 0;
  std::uint64_t spam_docs_ = 0;
  std::uint64_t ham_docs_ = 0;
  double threshold_;
};

// Confusion-matrix accumulator for filter evaluations.
struct FilterEvaluation {
  std::uint64_t true_positive = 0;   // spam flagged spam
  std::uint64_t false_positive = 0;  // ham flagged spam (the costly error)
  std::uint64_t true_negative = 0;
  std::uint64_t false_negative = 0;  // spam delivered

  void add(bool truth_spam, bool flagged_spam) noexcept;
  double false_positive_rate() const noexcept;
  double false_negative_rate() const noexcept;
  double recall() const noexcept;
};

}  // namespace zmail::baselines
