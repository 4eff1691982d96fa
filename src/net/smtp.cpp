#include "net/smtp.hpp"

#include <cstdlib>
#include <cstring>
#include <optional>

#include "net/ascii.hpp"
#include "util/assert.hpp"

namespace zmail::net {

namespace {

using ascii::trim;

char ascii_upper(char c) noexcept {
  return c >= 'a' && c <= 'z' ? static_cast<char>(c - 'a' + 'A') : c;
}

// Case-insensitive prefix match; returns the remainder after the prefix.
std::optional<std::string_view> strip_prefix_ci(std::string_view line,
                                                std::string_view prefix) {
  if (line.size() < prefix.size()) return std::nullopt;
  for (std::size_t i = 0; i < prefix.size(); ++i)
    if (ascii_upper(line[i]) != ascii_upper(prefix[i])) return std::nullopt;
  return line.substr(prefix.size());
}

// Four characters packed into one word, the first in the low byte.
constexpr std::uint32_t pack4(std::string_view s) noexcept {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(s[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[3])) << 24;
}

// The verb a command line opens with, case-folded: its first four bytes
// packed with bit 5 of each cleared, or 0 for a shorter line.  Every verb
// is four upper-case letters, and c & ~0x20 equals an upper-case letter
// only for that letter and its lower-case twin, so a folded word equals a
// verb's code exactly when the line opens with that verb in any case.
std::uint32_t folded_verb(std::string_view line) noexcept {
  return line.size() < 4 ? 0 : pack4(line) & 0xDFDFDFDFu;
}

// The arguments after a four-byte verb: the verb must be followed by SP or
// the end of the line (RFC 821 4.1.1), so "HELOfoo" or "NOOPS" is no
// command at all.
std::optional<std::string_view> verb_args(std::string_view line) noexcept {
  const std::string_view rest = line.substr(4);
  if (!rest.empty() && rest.front() != ' ') return std::nullopt;
  return rest;
}

// Size of reply.line() without building it.  Reply codes are non-negative.
std::size_t reply_wire_size(const SmtpReply& reply) {
  std::size_t digits = 1;
  for (int c = reply.code; c >= 10; c /= 10) ++digits;
  return digits + 1 + reply.text.size() + 2;  // code, ' ', text, CRLF
}

// Renders the client half of a dialogue (HELO..QUIT) from the fields of
// `msg` (an EmailMessage or an EmailView), handing each line (without
// CRLF) to `emit(std::string_view)`, which returns false to abort.  The
// command lines are built in `line`.  The DATA text is rendered once into
// `text` and cut there with one memchr per line: a line ends at "\r\n" or
// at a bare "\n" (a lone '\r' is content), a final unterminated line is
// still sent, and a line starting with '.' is dot-stuffed into `line`.
template <class Msg, class Emit>
void render_client(const Msg& msg, std::string_view client_domain,
                   std::string& line, std::string& text, Emit& emit) {
  line.assign("HELO ").append(client_domain);
  if (!emit(std::string_view(line))) return;
  line.assign("MAIL FROM:<")
      .append(msg.from.local)
      .append(1, '@')
      .append(msg.from.domain)
      .append(1, '>');
  if (!emit(std::string_view(line))) return;
  for (const auto& r : msg.to) {
    line.assign("RCPT TO:<")
        .append(r.local)
        .append(1, '@')
        .append(r.domain)
        .append(1, '>');
    if (!emit(std::string_view(line))) return;
  }
  if (!emit(std::string_view("DATA"))) return;
  text.clear();
  render_rfc822(msg, [&text](std::string_view piece) { text.append(piece); });
  std::string_view rest = text;
  while (!rest.empty()) {
    const auto* lf =
        static_cast<const char*>(std::memchr(rest.data(), '\n', rest.size()));
    std::string_view l = rest;
    if (lf) {
      l = rest.substr(0, static_cast<std::size_t>(lf - rest.data()));
      rest.remove_prefix(l.size() + 1);
      if (!l.empty() && l.back() == '\r') l.remove_suffix(1);
    } else {
      rest = {};
    }
    if (!l.empty() && l.front() == '.') l = line.assign(1, '.').append(l);
    if (!emit(l)) return;
  }
  if (!emit(std::string_view("."))) return;
  emit(std::string_view("QUIT"));
}

template <class Msg>
SmtpTransferResult transfer(const Msg& msg, std::string_view client_domain,
                            SmtpServerSession& server, std::string& line,
                            std::string& text) {
  SmtpTransferResult result;
  const SmtpReply greet = server.greeting();
  result.bytes_server_to_client += reply_wire_size(greet);
  if (!greet.positive()) {
    result.first_error_code = greet.code;
    return result;
  }

  bool data_accepted = false;
  auto emit = [&](std::string_view l) {
    result.bytes_client_to_server += l.size() + 2;  // + CRLF
    const SmtpReply reply = server.consume_line(l);
    if (reply.code == 0) return true;  // swallowed data line
    result.bytes_server_to_client += reply_wire_size(reply);
    if (!reply.positive()) {
      if (result.first_error_code == 0) result.first_error_code = reply.code;
      return false;
    }
    // Dot-stuffing keeps "." unique to the DATA terminator.
    if (l == "." && reply.code == 250) data_accepted = true;
    return true;
  };
  render_client(msg, client_domain, line, text, emit);
  result.accepted = data_accepted && result.first_error_code == 0;
  return result;
}

}  // namespace

SmtpServerSession::SmtpServerSession(std::string server_domain,
                                     DeliverFn deliver)
    : domain_(std::move(server_domain)), deliver_(std::move(deliver)) {
  ZMAIL_ASSERT(deliver_ != nullptr);
}

SmtpReply SmtpServerSession::greeting() {
  reset_transaction();
  state_ = State::kConnected;
  quit_ = false;
  reply_.assign(domain_).append(" Simple Mail Transfer Service Ready");
  return {220, reply_};
}

void SmtpServerSession::reset_transaction() {
  // Clears without freeing: the strings keep their capacity and the
  // recipient and header entries stay allocated for the next message.
  pending_.from.local.clear();
  pending_.from.domain.clear();
  n_to_ = 0;
  n_headers_ = 0;
  pending_.body.clear();
  pending_.truth = MailClass::kLegitimate;
  pending_.trace_id = 0;
  in_headers_ = true;
  body_open_ = false;
  if (state_ != State::kConnected) state_ = State::kGreeted;
}

SmtpReply SmtpServerSession::consume_line(std::string_view line) {
  if (state_ != State::kData) return handle_command(line);
  if (line == ".") {
    pending_.to.resize(n_to_);
    pending_.headers.resize(n_headers_);
    deliver_(std::move(pending_));
    ++accepted_;
    reset_transaction();
    return {250, "OK"};
  }
  // Reverse dot-stuffing: a leading ".." becomes ".".
  if (line.size() >= 2 && line[0] == '.' && line[1] == '.')
    line.remove_prefix(1);
  add_data_line(line);
  return {0, ""};
}

void SmtpServerSession::add_data_line(std::string_view line) {
  if (!in_headers_) {
    if (body_open_) pending_.body += '\n';
    pending_.body += line;
    body_open_ = true;
    return;
  }
  if (line.empty()) {
    in_headers_ = false;  // the blank line separating headers and body
    return;
  }
  const std::size_t colon = line.find(':');
  if (colon == std::string_view::npos) return;  // tolerate malformed headers
  const std::string_view key = trim(line.substr(0, colon));
  // From:/To: duplicate the envelope in this simulation; keep the rest.
  if (key == "From" || key == "To") return;
  // Subject, Message-ID and X-Zmail-Sent-At, as submitted mail carries.
  if (pending_.headers.capacity() == 0) pending_.headers.reserve(4);
  auto& [k, v] = reuse_slot(pending_.headers, n_headers_++);
  k.assign(key);
  v.assign(trim(line.substr(colon + 1)));
}

SmtpReply SmtpServerSession::handle_command(std::string_view line) {
  static constexpr std::uint32_t kHelo = pack4("HELO"), kEhlo = pack4("EHLO"),
                                 kMail = pack4("MAIL"), kRcpt = pack4("RCPT"),
                                 kVrfy = pack4("VRFY"), kHelp = pack4("HELP"),
                                 kData = pack4("DATA"), kRset = pack4("RSET"),
                                 kNoop = pack4("NOOP"), kQuit = pack4("QUIT");
  constexpr SmtpReply kUnrecognized{500, "Syntax error, command unrecognized"};
  // MAIL and RCPT carry their keyword after the verb; every other verb
  // takes its arguments after SP.
  const std::uint32_t verb = folded_verb(line);
  if (verb == kMail || verb == kRcpt) {
    const auto rest =
        strip_prefix_ci(line.substr(4), verb == kMail ? " FROM:" : " TO:");
    if (!rest) return kUnrecognized;
    return verb == kMail ? mail_from(*rest) : rcpt_to(*rest);
  }
  if (verb == 0) return kUnrecognized;  // shorter than any verb
  const auto args = verb_args(line);
  if (!args) return kUnrecognized;
  switch (verb) {
    case kHelo:
    case kEhlo: {
      const std::string_view client = trim(*args);
      if (client.empty()) return {501, "Syntax: HELO hostname"};
      reset_transaction();
      state_ = State::kGreeted;
      reply_.assign(domain_).append(" Hello ").append(client);
      return {250, reply_};
    }
    case kVrfy: {
      const std::string_view who = trim(*args);
      if (who.empty()) return {501, "VRFY needs an address"};
      if (!parse_address(who)) return {501, "Syntax error in address"};
      return {252, "Cannot VRFY user, but will accept message"};
    }
    case kHelp:
      return {214, "Commands: HELO MAIL RCPT DATA RSET NOOP VRFY HELP QUIT"};
    case kData:
      if (!trim(*args).empty()) return kUnrecognized;
      if (state_ != State::kRcptTo) return {503, "Need RCPT before DATA"};
      state_ = State::kData;
      return {354, "Start mail input; end with <CRLF>.<CRLF>"};
    case kRset:
      if (!trim(*args).empty()) return kUnrecognized;
      reset_transaction();
      return {250, "OK"};
    case kNoop:
      return {250, "OK"};
    case kQuit:
      quit_ = true;
      reply_.assign(domain_).append(" Service closing transmission channel");
      return {221, reply_};
    default:
      return kUnrecognized;
  }
}

SmtpReply SmtpServerSession::mail_from(std::string_view rest) {
  if (state_ == State::kConnected) return {503, "Polite people say HELO first"};
  if (state_ != State::kGreeted) return {503, "Nested MAIL command"};
  // Optional RFC-1870 SIZE parameter: "MAIL FROM:<a@b> SIZE=12345".  It
  // must be a number; with no size limit the value is otherwise ignored.
  std::string_view spec = trim(rest);
  const std::size_t space = spec.find(' ');
  if (space != std::string_view::npos) {
    const std::string_view param = trim(spec.substr(space + 1));
    spec = spec.substr(0, space);
    if (auto size = strip_prefix_ci(param, "SIZE=")) {
      // strtoull needs a terminated string; this path is rare.
      const std::string digits(*size);
      char* end = nullptr;
      std::strtoull(digits.c_str(), &end, 10);
      if (end == digits.c_str() || *end != '\0')
        return {501, "Bad SIZE parameter"};
    } else {
      return {501, "Unrecognized MAIL parameter"};
    }
  }
  if (!assign_path(spec, pending_.from))
    return {501, "Syntax error in MAIL FROM path"};
  state_ = State::kMailFrom;
  return {250, "OK"};
}

SmtpReply SmtpServerSession::rcpt_to(std::string_view rest) {
  if (state_ != State::kMailFrom && state_ != State::kRcptTo)
    return {503, "Need MAIL command first"};
  EmailAddress& rcpt = reuse_slot(pending_.to, n_to_);
  if (!assign_path(trim(rest), rcpt))
    return {501, "Syntax error in RCPT TO path"};
  ++n_to_;
  state_ = State::kRcptTo;
  return {250, "OK"};
}

std::vector<std::string> smtp_client_script(const EmailMessage& msg,
                                            std::string_view client_domain) {
  std::vector<std::string> lines;
  std::string line, text;
  auto emit = [&lines](std::string_view l) {
    lines.emplace_back(l);
    return true;
  };
  render_client(msg, client_domain, line, text, emit);
  return lines;
}

SmtpTransferResult smtp_transfer(const EmailMessage& msg,
                                 std::string_view client_domain,
                                 SmtpServerSession& server) {
  return transfer(msg, client_domain, server, server.client_line_,
                  server.client_text_);
}

SmtpTransferResult smtp_transfer(const EmailView& msg,
                                 std::string_view client_domain,
                                 SmtpServerSession& server) {
  return transfer(msg, client_domain, server, server.client_line_,
                  server.client_text_);
}

}  // namespace zmail::net
