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
  std::uint64_t emails_filtered_out = 0;

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

  // Fault recovery (retry/backoff, reliable transport, shedding).
  std::uint64_t bank_retries = 0;       // buy/sell wires re-sent on timeout
  std::uint64_t report_retries = 0;     // credit reports re-sent on timeout
  std::uint64_t emails_retransmitted = 0;
  std::uint64_t emails_refunded = 0;    // abandoned transfers, payment undone
  std::uint64_t emails_shed = 0;        // quiesce buffer overflow, refunded
  std::uint64_t duplicate_emails_dropped = 0;  // receiver-side ARQ dedupe

  // Field-wise sum, for fleet-wide aggregation (obs snapshots, sweeps).
  void merge(const IspMetrics& o) noexcept {
    emails_sent_local += o.emails_sent_local;
    emails_sent_compliant += o.emails_sent_compliant;
    emails_sent_noncompliant += o.emails_sent_noncompliant;
    emails_received_compliant += o.emails_received_compliant;
    emails_received_noncompliant += o.emails_received_noncompliant;
    emails_delivered += o.emails_delivered;
    emails_segregated += o.emails_segregated;
    emails_discarded += o.emails_discarded;
    emails_filtered_out += o.emails_filtered_out;
    refused_no_balance += o.refused_no_balance;
    refused_daily_limit += o.refused_daily_limit;
    emails_buffered_during_quiesce += o.emails_buffered_during_quiesce;
    snapshots_answered += o.snapshots_answered;
    zombie_warnings_sent += o.zombie_warnings_sent;
    acks_generated += o.acks_generated;
    acks_received += o.acks_received;
    bank_buys_attempted += o.bank_buys_attempted;
    bank_buys_accepted += o.bank_buys_accepted;
    bank_sells += o.bank_sells;
    bad_nonce_replies += o.bad_nonce_replies;
    bad_envelopes += o.bad_envelopes;
    stale_requests += o.stale_requests;
    bank_retries += o.bank_retries;
    report_retries += o.report_retries;
    emails_retransmitted += o.emails_retransmitted;
    emails_refunded += o.emails_refunded;
    emails_shed += o.emails_shed;
    duplicate_emails_dropped += o.duplicate_emails_dropped;
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
  std::uint64_t snapshot_rerequests = 0;  // re-sent requests to silent ISPs

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
  std::uint64_t interbank_acks = 0;       // ack wires sent
  std::uint64_t interbank_retries = 0;    // unacked wires retransmitted
  std::uint64_t duplicate_interbank = 0;  // column/clearing replays absorbed
  std::uint64_t stale_interbank = 0;      // inter-bank wires for closed rounds

  // Field-wise sum, for federation-wide aggregation.
  void merge(const BankMetrics& o) noexcept {
    buys_received += o.buys_received;
    buys_accepted += o.buys_accepted;
    buys_rejected += o.buys_rejected;
    sells_received += o.sells_received;
    snapshot_rounds += o.snapshot_rounds;
    credit_reports_received += o.credit_reports_received;
    inconsistent_pairs_found += o.inconsistent_pairs_found;
    bad_envelopes += o.bad_envelopes;
    stale_reports += o.stale_reports;
    duplicate_buys += o.duplicate_buys;
    duplicate_sells += o.duplicate_sells;
    stale_trades += o.stale_trades;
    snapshot_rerequests += o.snapshot_rerequests;
    epennies_minted += o.epennies_minted;
    epennies_burned += o.epennies_burned;
    settlement_transfers += o.settlement_transfers;
    settlement_bytes += o.settlement_bytes;
    requests_sent += o.requests_sent;
    settlements_cross_bank += o.settlements_cross_bank;
    clearing_transfers += o.clearing_transfers;
    interbank_messages += o.interbank_messages;
    interbank_bytes += o.interbank_bytes;
    clearing_messages += o.clearing_messages;
    interbank_acks += o.interbank_acks;
    interbank_retries += o.interbank_retries;
    duplicate_interbank += o.duplicate_interbank;
    stale_interbank += o.stale_interbank;
  }
};

}  // namespace zmail::core
