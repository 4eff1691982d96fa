// Email message model: SMTP envelope plus RFC-822-ish headers and body.
//
// Zmail rides on ordinary mail (Section 1.3: "Zmail can be implemented on
// top of the existing SMTP email protocol.  Zmail requires no change to
// SMTP."), so the message model carries optional Zmail annotations as plain
// `X-Zmail-*` headers — non-compliant software simply ignores them.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/bytes.hpp"
#include "net/address.hpp"
#include "util/assert.hpp"

namespace zmail::net {

// Email categories used by workload generators and filter baselines.  The
// category is ground truth for measuring filter errors; it never influences
// protocol behaviour (the paper: "Zmail requires no definition of what is
// and is not spam").
enum class MailClass : std::uint8_t {
  kLegitimate = 0,
  kSpam,
  kNewsletter,   // solicited bulk (the classic false-positive victim)
  kMailingList,
  kAcknowledgment,  // Zmail mailing-list e-penny return (Section 5)
  kVirus,
};

struct EmailMessage {
  EmailAddress from;               // envelope sender (MAIL FROM)
  std::vector<EmailAddress> to;    // envelope recipients (RCPT TO)
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  // Simulation ground truth; carried out-of-band, not on the wire.
  MailClass truth = MailClass::kLegitimate;

  // Causal trace id (zmail::trace), minted at send_email when tracing is
  // on; 0 otherwise.  Serialized as an optional tail that exists only when
  // nonzero, so untraced runs produce byte-identical wires.
  std::uint64_t trace_id = 0;

  // Header access (first match; header names compare case-insensitively,
  // ASCII only).  find_header returns the stored value or nullptr.
  const std::string* find_header(std::string_view name) const noexcept;
  std::optional<std::string> header(std::string_view name) const;
  void set_header(std::string_view name, std::string_view value);

  std::string subject() const { return header("Subject").value_or(""); }

  // RFC-822-style text: headers, blank line, dot-stuffed body NOT applied
  // (dot-stuffing happens in the SMTP layer).
  std::string to_rfc822() const;

  // Binary serialization for channel payloads.
  crypto::Bytes serialize() const;
  // Appends the same bytes to `out`, growing it at most once, so a caller
  // can frame a message inside a larger record (a WAL payload) without a
  // temporary.
  void serialize_append(crypto::Bytes& out) const;
  static std::optional<EmailMessage> deserialize(const crypto::Bytes& wire);
  // The decoder behind deserialize(): overwrites every field of `out`,
  // reusing the capacity of its strings and of the recipient and header
  // entries it already holds, so decoding into a warm message of the same
  // shape allocates nothing.  `wire` may be a view into a larger buffer
  // (the ARQ receive path decodes straight out of its frame).  On malformed
  // input it returns false and `out` holds an unspecified (valid) message.
  static bool deserialize_into(std::span<const std::uint8_t> wire,
                               EmailMessage& out);
  // The same for a whole buffer, so braced byte lists still convert.
  static bool deserialize_into(const crypto::Bytes& wire, EmailMessage& out) {
    return deserialize_into(std::span<const std::uint8_t>(wire), out);
  }
};

// A message decoded from its wire form with every string left as a view
// into the wire bytes: the SMTP client renders straight from the datagram
// payload, which must outlive the view.  It decodes exactly the payloads
// EmailMessage::deserialize_into decodes, to the same fields.
struct EmailView {
  AddressView from;
  std::vector<AddressView> to;
  std::vector<std::pair<std::string_view, std::string_view>> headers;
  std::string_view body;
  MailClass truth = MailClass::kLegitimate;
  std::uint64_t trace_id = 0;

  // Overwrites every field of `out`; the vectors keep their capacity, so a
  // warm view decodes without allocating.  On malformed input it returns
  // false and `out` holds an unspecified (valid) view.
  static bool decode_into(std::span<const std::uint8_t> wire, EmailView& out);
};

// Streams the RFC-822 text of `msg` (an EmailMessage or an EmailView) to
// `sink(std::string_view)` piece by piece: From and To from the envelope,
// the stored headers, a blank line and the body.
template <class Msg, class Sink>
void render_rfc822(const Msg& msg, Sink&& sink) {
  sink("From: ");
  sink(msg.from.local);
  sink("@");
  sink(msg.from.domain);
  sink("\r\nTo: ");
  for (std::size_t i = 0; i < msg.to.size(); ++i) {
    if (i) sink(", ");
    sink(msg.to[i].local);
    sink("@");
    sink(msg.to[i].domain);
  }
  sink("\r\n");
  for (const auto& [k, v] : msg.headers) {
    sink(k);
    sink(": ");
    sink(v);
    sink("\r\n");
  }
  sink("\r\n");
  sink(msg.body);
}

// Entry `n` of `v`, appending a default one when `n == v.size()`, so that
// filling a vector front to back overwrites the entries (and their string
// capacity) a previous fill left; the caller trims to the final count.
template <class T>
T& reuse_slot(std::vector<T>& v, std::size_t n) {
  ZMAIL_ASSERT(n <= v.size());
  if (n == v.size()) v.emplace_back();
  return v[n];
}

// Builds a plain message with standard headers filled in.
EmailMessage make_email(const EmailAddress& from, const EmailAddress& to,
                        std::string subject, std::string body,
                        MailClass truth = MailClass::kLegitimate);

}  // namespace zmail::net
