#include "core/mailing_list.hpp"

#include "util/assert.hpp"

namespace zmail::core {

MailingList::MailingList(ZmailSystem& system, net::EmailAddress distributor,
                         std::string name, std::uint64_t prune_after)
    : system_(system),
      distributor_(std::move(distributor)),
      name_(std::move(name)),
      prune_after_(prune_after) {
  ZMAIL_ASSERT(prune_after_ >= 1);
  ZMAIL_ASSERT_MSG(
      net::decode_user_address(distributor_, dist_isp_, dist_user_),
      "distributor must be a simulated user address");
  ZMAIL_ASSERT_MSG(system_.is_compliant(dist_isp_),
                   "distributor must live on a compliant ISP");

  // Watch the distributor's incoming acknowledgments.
  system_.isp(dist_isp_).set_ack_sink(
      [this](UserId user, const net::EmailMessage& ack) {
        if (user != UserId(dist_user_)) return;
        for (auto& sub : subscribers_) {
          if (sub.address == ack.from) {
            ++sub.acks_received;
            sub.consecutive_missed = 0;
            ++acks_credited_;
            return;
          }
        }
      });
}

void MailingList::subscribe(const net::EmailAddress& member) {
  for (auto& s : subscribers_) {
    if (s.address == member) {
      s.active = true;
      s.consecutive_missed = 0;
      return;
    }
  }
  subscribers_.push_back(SubscriberRecord{member, 0, 0, 0, true});
}

std::size_t MailingList::post(const std::string& subject,
                              const std::string& body) {
  ++posts_;
  std::size_t sent = 0;
  for (auto& sub : subscribers_) {
    if (!sub.active) continue;
    net::EmailMessage msg =
        net::make_email(distributor_, sub.address, "[" + name_ + "] " + subject,
                        body, net::MailClass::kMailingList);
    msg.set_header("X-Zmail-Ack-To", distributor_.str());
    msg.set_header("List-Id", name_);
    if (system_.send_email(std::move(msg)).sent == 0) continue;
    ++sub.posts_sent;
    ++sent;
    ++copies_sent_;
  }
  return sent;
}

std::size_t MailingList::reconcile_and_prune() {
  std::size_t pruned = 0;
  for (auto& sub : subscribers_) {
    if (!sub.active) continue;
    // A subscriber "missed" a post when posts_sent outpaces acks_received.
    const std::uint64_t missed =
        sub.posts_sent > sub.acks_received
            ? sub.posts_sent - sub.acks_received
            : 0;
    sub.consecutive_missed = missed;
    if (missed >= prune_after_) {
      sub.active = false;
      ++pruned;
    }
  }
  return pruned;
}

}  // namespace zmail::core
