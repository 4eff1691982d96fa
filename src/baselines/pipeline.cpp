#include "baselines/pipeline.hpp"

namespace zmail::baselines {

FilterVerdict FilterPipeline::classify(const net::EmailMessage& msg) const {
  if (whitelist_.allowed(msg.from))
    return FilterVerdict::kDeliverWhitelisted;
  if (blacklist_.blocked(msg.from))
    return FilterVerdict::kRejectBlacklisted;
  if (content_.is_spam(msg)) return FilterVerdict::kRejectContent;
  return FilterVerdict::kDeliver;
}

}  // namespace zmail::baselines
