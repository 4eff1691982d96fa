// Audit journal for the bank's monetary and verification events.
//
// A real clearing house keeps an immutable record of everything it mints,
// burns, settles, and disputes; this journal provides that for the
// simulated bank so experiments can be audited after the fact (and so the
// conservation invariants can be re-derived from the event stream alone,
// which core_audit_test does).
#pragma once

#include <cstdint>
#include <vector>

#include "util/money.hpp"

namespace zmail::core {

enum class AuditKind : std::uint8_t {
  kMint = 0,           // buy accepted: e-pennies created (a = isp)
  kMintRejected,       // buy refused: insufficient account (a = isp)
  kBurn,               // sell: e-pennies destroyed (a = isp)
  kRoundStarted,       // snapshot round opened (amount = # requests)
  kReportReceived,     // credit report accepted (a = isp)
  kViolationFlagged,   // antisymmetry failure (a, b = pair; amount = diff)
  kSettlement,         // bulk transfer (a = payer, b = payee)
  kRoundCompleted,     // verification finished
  kEnvelopeRejected,   // malformed/tampered message dropped (a = isp)
  kStaleReport,        // replayed/out-of-round report ignored (a = isp)
};

const char* audit_kind_name(AuditKind k) noexcept;

struct AuditEvent {
  AuditKind kind;
  std::uint64_t seq = 0;     // billing period the event belongs to
  std::size_t a = 0;         // primary party (ISP index)
  std::size_t b = 0;         // secondary party, when applicable
  std::int64_t amount = 0;   // e-pennies (mint/burn/settle) or count
};

class AuditJournal {
 public:
  void record(AuditEvent e) { events_.push_back(e); }

  const std::vector<AuditEvent>& events() const noexcept { return events_; }
  std::size_t size() const noexcept { return events_.size(); }

  std::uint64_t count(AuditKind kind) const noexcept;
  // The journal side of the conservation check: only tests call these
  // two, comparing them with the bank's own ledger
  // (tests/core_federation_test.cpp, tests/core_audit_test.cpp).
  // Net e-pennies minted minus burned, re-derived from the journal.
  std::int64_t net_minted() const noexcept;
  // Sum of settlement amounts (absolute), for volume accounting.
  std::int64_t settlement_volume() const noexcept;

 private:
  std::vector<AuditEvent> events_;
};

}  // namespace zmail::core
