#include "core/audit.hpp"

namespace zmail::core {

const char* audit_kind_name(AuditKind k) noexcept {
  switch (k) {
    case AuditKind::kMint: return "mint";
    case AuditKind::kMintRejected: return "mint-rejected";
    case AuditKind::kBurn: return "burn";
    case AuditKind::kRoundStarted: return "round-started";
    case AuditKind::kReportReceived: return "report-received";
    case AuditKind::kViolationFlagged: return "violation";
    case AuditKind::kSettlement: return "settlement";
    case AuditKind::kRoundCompleted: return "round-completed";
    case AuditKind::kEnvelopeRejected: return "envelope-rejected";
    case AuditKind::kStaleReport: return "stale-report";
  }
  return "?";
}

std::uint64_t AuditJournal::count(AuditKind kind) const noexcept {
  std::uint64_t n = 0;
  for (const auto& e : events_)
    if (e.kind == kind) ++n;
  return n;
}

std::int64_t AuditJournal::net_minted() const noexcept {
  std::int64_t net = 0;
  for (const auto& e : events_) {
    if (e.kind == AuditKind::kMint) net += e.amount;
    if (e.kind == AuditKind::kBurn) net -= e.amount;
  }
  return net;
}

std::int64_t AuditJournal::settlement_volume() const noexcept {
  std::int64_t total = 0;
  for (const auto& e : events_)
    if (e.kind == AuditKind::kSettlement)
      total += e.amount < 0 ? -e.amount : e.amount;
  return total;
}

}  // namespace zmail::core
