// Counters shared by the ISP and bank state machines.
//
// Everything the experiments measure is a counter here — the protocol code
// has no printf-style instrumentation, only counting.
#pragma once

#include <cstdint>

#include "util/money.hpp"

namespace zmail::core {

struct IspMetrics {
  // Mail flow.
  std::uint64_t emails_sent_local = 0;
  std::uint64_t emails_sent_compliant = 0;     // paid, to other compliant ISPs
  std::uint64_t emails_sent_noncompliant = 0;  // free, to non-compliant ISPs
  std::uint64_t emails_received_compliant = 0;
  std::uint64_t emails_received_noncompliant = 0;
  std::uint64_t emails_delivered = 0;
  std::uint64_t emails_segregated = 0;
  std::uint64_t emails_discarded = 0;

  // Refusals at send time.
  std::uint64_t refused_no_balance = 0;
  std::uint64_t refused_daily_limit = 0;

  // Quiesce behaviour (Section 4.4).
  std::uint64_t emails_buffered_during_quiesce = 0;
  std::uint64_t snapshots_answered = 0;

  // Zombie guard (Section 5).
  std::uint64_t zombie_warnings_sent = 0;

  // Mailing-list acknowledgments (Section 5).
  std::uint64_t acks_generated = 0;
  std::uint64_t acks_received = 0;

  // Bank trade.
  std::uint64_t bank_buys_attempted = 0;
  std::uint64_t bank_buys_accepted = 0;
  std::uint64_t bank_sells = 0;

  // Replay / tamper rejections.
  std::uint64_t bad_nonce_replies = 0;
  std::uint64_t bad_envelopes = 0;
  std::uint64_t stale_requests = 0;

  // Fault recovery (the acknowledged link).
  std::uint64_t bank_retries = 0;       // buy/sell frames the link re-sent
  std::uint64_t report_retries = 0;     // credit reports the link re-sent
  std::uint64_t emails_retransmitted = 0;
  // Always 0: the link retries every paid email until it is delivered.
  // Kept because the repository benchmark's settlement check and digest
  // read it.
  std::uint64_t emails_refunded = 0;
  std::uint64_t duplicate_emails_dropped = 0;  // receiver-side ARQ dedupe

  // Every counter, in declaration order.  merge(), the obs export and the
  // persisted layout (isp_persist.cpp) all walk this list, so a new
  // counter is added here and nowhere else — with a kScalarsVersion bump,
  // because it changes the persisted bytes.
  template <class F>
  static void fields(F&& f) {
    f("emails_sent_local", &IspMetrics::emails_sent_local);
    f("emails_sent_compliant", &IspMetrics::emails_sent_compliant);
    f("emails_sent_noncompliant", &IspMetrics::emails_sent_noncompliant);
    f("emails_received_compliant", &IspMetrics::emails_received_compliant);
    f("emails_received_noncompliant",
      &IspMetrics::emails_received_noncompliant);
    f("emails_delivered", &IspMetrics::emails_delivered);
    f("emails_segregated", &IspMetrics::emails_segregated);
    f("emails_discarded", &IspMetrics::emails_discarded);
    f("refused_no_balance", &IspMetrics::refused_no_balance);
    f("refused_daily_limit", &IspMetrics::refused_daily_limit);
    f("emails_buffered_during_quiesce",
      &IspMetrics::emails_buffered_during_quiesce);
    f("snapshots_answered", &IspMetrics::snapshots_answered);
    f("zombie_warnings_sent", &IspMetrics::zombie_warnings_sent);
    f("acks_generated", &IspMetrics::acks_generated);
    f("acks_received", &IspMetrics::acks_received);
    f("bank_buys_attempted", &IspMetrics::bank_buys_attempted);
    f("bank_buys_accepted", &IspMetrics::bank_buys_accepted);
    f("bank_sells", &IspMetrics::bank_sells);
    f("bad_nonce_replies", &IspMetrics::bad_nonce_replies);
    f("bad_envelopes", &IspMetrics::bad_envelopes);
    f("stale_requests", &IspMetrics::stale_requests);
    f("bank_retries", &IspMetrics::bank_retries);
    f("report_retries", &IspMetrics::report_retries);
    f("emails_retransmitted", &IspMetrics::emails_retransmitted);
    f("emails_refunded", &IspMetrics::emails_refunded);
    f("duplicate_emails_dropped", &IspMetrics::duplicate_emails_dropped);
  }

  // Field-wise sum, for fleet-wide aggregation (obs snapshots, sweeps).
  void merge(const IspMetrics& o) noexcept {
    fields([&](const char*, auto p) { this->*p += o.*p; });
  }
};

// Counters of one member bank; BankFederation::metrics() sums them over
// the federation.
struct BankMetrics {
  std::uint64_t buys_received = 0;   // every buy wire that reached the bank
  std::uint64_t buys_accepted = 0;
  std::uint64_t buys_rejected = 0;
  std::uint64_t sells_received = 0;  // every sell wire, duplicates included
  std::uint64_t snapshot_rounds = 0;
  std::uint64_t credit_reports_received = 0;
  std::uint64_t inconsistent_pairs_found = 0;
  std::uint64_t bad_envelopes = 0;   // unseal/decode failures
  std::uint64_t stale_reports = 0;   // duplicated or out-of-round reports

  // Idempotency shield: duplicated/retried trade requests absorbed without
  // re-applying (cached reply re-sent) and out-of-date ones dropped.
  std::uint64_t duplicate_buys = 0;
  std::uint64_t duplicate_sells = 0;
  std::uint64_t stale_trades = 0;
  // Frames the link re-sent from this bank.
  std::uint64_t snapshot_rerequests = 0;  // snapshot requests
  std::uint64_t trade_reply_retries = 0;  // buy/sell replies

  // E-penny supply accounting (for the conservation invariant).
  EPenny epennies_minted = 0;
  EPenny epennies_burned = 0;

  // Bulk-settlement ledger activity (for E5 vs per-message schemes).
  std::uint64_t settlement_transfers = 0;  // settled pairs, any bank pair
  std::uint64_t settlement_bytes = 0;

  // Inter-bank plane (all zero with a single bank).
  std::uint64_t requests_sent = 0;           // snapshot requests sealed
  std::uint64_t settlements_cross_bank = 0;  // settled pairs across banks
  std::uint64_t clearing_transfers = 0;   // netted bank-to-bank movements
  std::uint64_t interbank_messages = 0;   // column wires sent
  std::uint64_t interbank_bytes = 0;      // sealed column wire bytes
  std::uint64_t clearing_messages = 0;    // clearing wires sent
  std::uint64_t interbank_retries = 0;    // column/clearing frames re-sent
  std::uint64_t duplicate_interbank = 0;  // column/clearing replays absorbed
  std::uint64_t stale_interbank = 0;      // inter-bank wires for closed rounds

  // Every counter, in declaration order.  merge(), the obs export and the
  // persisted layout (bank_federation_persist.cpp) all walk this list, so
  // a new counter is added here and nowhere else — with a kStateVersion
  // bump, because it changes the persisted bytes.
  template <class F>
  static void fields(F&& f) {
    f("buys_received", &BankMetrics::buys_received);
    f("buys_accepted", &BankMetrics::buys_accepted);
    f("buys_rejected", &BankMetrics::buys_rejected);
    f("sells_received", &BankMetrics::sells_received);
    f("snapshot_rounds", &BankMetrics::snapshot_rounds);
    f("credit_reports_received", &BankMetrics::credit_reports_received);
    f("inconsistent_pairs_found", &BankMetrics::inconsistent_pairs_found);
    f("bad_envelopes", &BankMetrics::bad_envelopes);
    f("stale_reports", &BankMetrics::stale_reports);
    f("duplicate_buys", &BankMetrics::duplicate_buys);
    f("duplicate_sells", &BankMetrics::duplicate_sells);
    f("stale_trades", &BankMetrics::stale_trades);
    f("snapshot_rerequests", &BankMetrics::snapshot_rerequests);
    f("trade_reply_retries", &BankMetrics::trade_reply_retries);
    f("epennies_minted", &BankMetrics::epennies_minted);
    f("epennies_burned", &BankMetrics::epennies_burned);
    f("settlement_transfers", &BankMetrics::settlement_transfers);
    f("settlement_bytes", &BankMetrics::settlement_bytes);
    f("requests_sent", &BankMetrics::requests_sent);
    f("settlements_cross_bank", &BankMetrics::settlements_cross_bank);
    f("clearing_transfers", &BankMetrics::clearing_transfers);
    f("interbank_messages", &BankMetrics::interbank_messages);
    f("interbank_bytes", &BankMetrics::interbank_bytes);
    f("clearing_messages", &BankMetrics::clearing_messages);
    f("interbank_retries", &BankMetrics::interbank_retries);
    f("duplicate_interbank", &BankMetrics::duplicate_interbank);
    f("stale_interbank", &BankMetrics::stale_interbank);
  }

  // Field-wise sum, for federation-wide aggregation.
  void merge(const BankMetrics& o) noexcept {
    fields([&](const char*, auto p) { this->*p += o.*p; });
  }
};

}  // namespace zmail::core
