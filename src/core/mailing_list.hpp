// Mailing-list distributor with Zmail acknowledgment economics (Section 5).
//
// A Listserv/Majordomo-style server: a subscriber database plus an email
// distributor.  Under plain Zmail the distributor would pay one e-penny per
// subscriber per post; the paper's fix is an automatic acknowledgment email
// generated by each receiver's ISP that returns the e-penny.  A side benefit
// the paper highlights: addresses that stop acknowledging can be pruned, so
// the subscriber database stays clean.
//
// The distributor is an ordinary Zmail user; this class drives a ZmailSystem
// on its behalf.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/system.hpp"

namespace zmail::core {

struct SubscriberRecord {
  net::EmailAddress address;
  std::uint64_t posts_sent = 0;       // list messages sent to this address
  std::uint64_t acks_received = 0;    // acknowledgments that came back
  std::uint64_t consecutive_missed = 0;
  bool active = true;                 // pruned when misses exceed the policy
};

class MailingList {
 public:
  // `distributor` must be a user of a compliant ISP in `system`.
  // `prune_after` = consecutive unacknowledged posts before removal.
  MailingList(ZmailSystem& system, net::EmailAddress distributor,
              std::string name, std::uint64_t prune_after = 3);

  // Adds `member`, or reactivates it after a prune.
  void subscribe(const net::EmailAddress& member);

  // Distributes one post to every active subscriber (each send is a normal
  // paid Zmail email carrying the X-Zmail-Ack-To header).  Returns the
  // number of copies sent.
  std::size_t post(const std::string& subject, const std::string& body);

  // Prunes the subscribers whose unacknowledged posts reach the policy
  // (acknowledgments are credited as the distributor's ISP processes
  // them).  Call after the simulation has let the acks flow back (e.g.
  // run_for(an hour)).  Returns the number of subscribers pruned.
  std::size_t reconcile_and_prune();

  const std::vector<SubscriberRecord>& subscribers() const noexcept {
    return subscribers_;
  }
  std::uint64_t posts() const noexcept { return posts_; }

  // Net e-penny cost of running the list so far: copies sent minus acks
  // returned (0 when every subscriber acknowledges).
  std::int64_t net_epenny_cost() const noexcept {
    return static_cast<std::int64_t>(copies_sent_) -
           static_cast<std::int64_t>(acks_credited_);
  }

 private:
  ZmailSystem& system_;
  net::EmailAddress distributor_;
  std::string name_;
  std::uint64_t prune_after_;
  std::vector<SubscriberRecord> subscribers_;
  std::uint64_t posts_ = 0;
  std::uint64_t copies_sent_ = 0;
  std::uint64_t acks_credited_ = 0;
  std::size_t dist_isp_ = 0;
  std::size_t dist_user_ = 0;
};

}  // namespace zmail::core
