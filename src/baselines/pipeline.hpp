// Composed filtering pipeline (paper Section 2.2):
// "an email that passes a whitelist check could be delivered to its
//  intended receiver directly and an email that does not pass a whitelist
//  checking could be sent to a content based spam filter for further
//  examination."
//
// Order: whitelist (admit) -> blacklist (reject) -> content filter.
#pragma once

#include "baselines/bayes.hpp"
#include "baselines/blacklist.hpp"

namespace zmail::baselines {

enum class FilterVerdict : std::uint8_t {
  kDeliverWhitelisted,
  kRejectBlacklisted,
  kRejectContent,
  kDeliver,
};

class FilterPipeline {
 public:
  FilterPipeline() = default;

  Whitelist& whitelist() noexcept { return whitelist_; }
  Blacklist& blacklist() noexcept { return blacklist_; }
  NaiveBayesFilter& content() noexcept { return content_; }

  FilterVerdict classify(const net::EmailMessage& msg) const;
  bool rejects(const net::EmailMessage& msg) const {
    const FilterVerdict v = classify(msg);
    return v == FilterVerdict::kRejectBlacklisted ||
           v == FilterVerdict::kRejectContent;
  }

 private:
  Whitelist whitelist_;
  Blacklist blacklist_;
  NaiveBayesFilter content_;
};

}  // namespace zmail::baselines
