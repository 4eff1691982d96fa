#include "net/email.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <functional>

namespace zmail::net {

std::string_view mail_class_name(MailClass c) noexcept {
  switch (c) {
    case MailClass::kLegitimate: return "legitimate";
    case MailClass::kSpam: return "spam";
    case MailClass::kNewsletter: return "newsletter";
    case MailClass::kMailingList: return "mailing-list";
    case MailClass::kAcknowledgment: return "acknowledgment";
    case MailClass::kVirus: return "virus";
  }
  return "?";
}

namespace {
char ascii_lower(char c) noexcept {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (ascii_lower(a[i]) != ascii_lower(b[i])) return false;
  return true;
}
}  // namespace

const std::string* EmailMessage::find_header(
    std::string_view name) const noexcept {
  for (const auto& [k, v] : headers)
    if (iequals(k, name)) return &v;
  return nullptr;
}

std::optional<std::string> EmailMessage::header(std::string_view name) const {
  if (const std::string* v = find_header(name)) return *v;
  return std::nullopt;
}

void EmailMessage::set_header(std::string_view name, std::string_view value) {
  for (auto& [k, v] : headers) {
    if (iequals(k, name)) {
      v = std::string(value);
      return;
    }
  }
  headers.emplace_back(std::string(name), std::string(value));
}

std::size_t EmailMessage::wire_size() const noexcept {
  std::size_t n = from.str().size() + 16;
  for (const auto& r : to) n += r.str().size() + 12;
  for (const auto& [k, v] : headers) n += k.size() + v.size() + 4;
  n += body.size() + 8;
  return n;
}

std::string EmailMessage::to_rfc822() const {
  std::string out;
  render_rfc822(*this, [&out](std::string_view piece) { out += piece; });
  return out;
}

namespace {
// Wire form of an address: the length-prefixed string "local@domain".
std::size_t address_wire_size(const EmailAddress& a) noexcept {
  return 4 + a.local.size() + 1 + a.domain.size();
}

// Raw big-endian stores into a buffer sized beforehand.
struct Writer {
  std::uint8_t* p;

  void u8(std::uint8_t v) noexcept { *p++ = v; }
  void u32(std::uint32_t v) noexcept {
    crypto::store_be(p, v, 4);
    p += 4;
  }
  void u64(std::uint64_t v) noexcept {
    crypto::store_be(p, v, 8);
    p += 8;
  }
  void raw(std::string_view s) noexcept {
    if (!s.empty()) std::memcpy(p, s.data(), s.size());
    p += s.size();
  }
  void string(std::string_view s) noexcept {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s);
  }
  void address(const EmailAddress& a) noexcept {
    u32(static_cast<std::uint32_t>(address_wire_size(a) - 4));
    raw(a.local);
    u8('@');
    raw(a.domain);
  }
};

// The one decoder behind EmailMessage::deserialize_into (owning strings)
// and EmailView::decode_into (views into `wire`), so both accept exactly
// the same payloads.
void assign_text(std::string& out, std::string_view s) { out.assign(s); }
void assign_text(std::string_view& out, std::string_view s) { out = s; }

template <class Msg>
bool decode_wire(std::span<const std::uint8_t> wire, Msg& out) {
  crypto::ByteReader r(wire);
  if (!assign_address(r.get_string_view(), out.from)) return false;
  // Counts are untrusted: entries are appended one decoded item at a time,
  // never reserved up front.
  const std::uint32_t nto = r.get_u32();
  std::size_t n = 0;
  for (; n < nto && r.ok(); ++n)
    if (!assign_address(r.get_string_view(), reuse_slot(out.to, n)))
      return false;
  out.to.resize(n);
  const std::uint32_t nh = r.get_u32();
  // Reserve for the usual few headers only.
  if (out.headers.capacity() == 0)
    out.headers.reserve(std::min<std::uint32_t>(nh, 4));
  n = 0;
  for (; n < nh && r.ok(); ++n) {
    auto& [k, v] = reuse_slot(out.headers, n);
    assign_text(k, r.get_string_view());
    assign_text(v, r.get_string_view());
  }
  out.headers.resize(n);
  assign_text(out.body, r.get_string_view());
  const std::uint8_t truth = r.get_u8();
  // A flipped bit must not smuggle an out-of-range enum into the system.
  if (truth > static_cast<std::uint8_t>(MailClass::kVirus)) return false;
  out.truth = static_cast<MailClass>(truth);
  if (!r.ok()) return false;
  out.trace_id = r.at_end() ? 0 : r.get_u64();
  return r.ok();
}
}  // namespace

crypto::Bytes EmailMessage::serialize() const {
  crypto::Bytes b;
  serialize_append(b);
  return b;
}

void EmailMessage::serialize_append(crypto::Bytes& b) const {
  std::size_t size = address_wire_size(from) + 4;
  for (const auto& r : to) size += address_wire_size(r);
  size += 4;
  for (const auto& [k, v] : headers) size += 8 + k.size() + v.size();
  size += 4 + body.size() + 1 + (trace_id != 0 ? 8 : 0);

  const std::size_t at = b.size();
  b.resize(at + size);
  Writer w{b.data() + at};
  w.address(from);
  w.u32(static_cast<std::uint32_t>(to.size()));
  for (const auto& r : to) w.address(r);
  w.u32(static_cast<std::uint32_t>(headers.size()));
  for (const auto& [k, v] : headers) {
    w.string(k);
    w.string(v);
  }
  w.string(body);
  w.u8(static_cast<std::uint8_t>(truth));
  // Optional tail: present only for traced messages, so that runs with
  // tracing off serialize exactly as they did before tracing existed.
  if (trace_id != 0) w.u64(trace_id);
  ZMAIL_ASSERT(w.p == b.data() + b.size());
}

std::optional<EmailMessage> EmailMessage::deserialize(
    const crypto::Bytes& wire) {
  EmailMessage m;
  if (!deserialize_into(wire, m)) return std::nullopt;
  return m;
}

bool EmailMessage::deserialize_into(std::span<const std::uint8_t> wire,
                                    EmailMessage& out) {
  return decode_wire(wire, out);
}

bool EmailView::decode_into(std::span<const std::uint8_t> wire,
                            EmailView& out) {
  return decode_wire(wire, out);
}

EmailMessage make_email(const EmailAddress& from, const EmailAddress& to,
                        std::string subject, std::string body,
                        MailClass truth) {
  // The Message-ID hashes from+to+subject+body.  std::hash of a
  // string_view equals std::hash of a string with the same characters, so
  // hashing a reused buffer gives the same id as hashing a fresh string.
  thread_local std::string key;
  key.clear();
  key.append(from.local).append(1, '@').append(from.domain);
  key.append(to.local).append(1, '@').append(to.domain);
  key.append(subject).append(body);
  char hash[24];
  const auto [hash_end, ec] = std::to_chars(
      hash, hash + sizeof hash, std::hash<std::string_view>{}(key));
  const std::string_view digits(hash,
                                static_cast<std::size_t>(hash_end - hash));

  EmailMessage m;
  m.from = from;
  m.to.push_back(to);
  // Room for the headers callers usually add (X-Zmail-Sent-At, ack tags).
  m.headers.reserve(4);
  m.headers.emplace_back("Subject", std::move(subject));
  std::string id;
  id.reserve(digits.size() + from.domain.size() + 3);
  id.append(1, '<').append(digits).append(1, '@');
  id.append(from.domain).append(1, '>');
  m.headers.emplace_back("Message-ID", std::move(id));
  m.body = std::move(body);
  m.truth = truth;
  return m;
}

}  // namespace zmail::net
