#include "net/smtp.hpp"

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "util/assert.hpp"

namespace zmail::net {

namespace {

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

// A command verb: the case-insensitive `verb` followed by SP or the end of
// the line (RFC 821 4.1.1), so "HELOfoo" or "NOOPS" is no command at all.
// Returns the arguments after the verb.
std::optional<std::string_view> match_verb(std::string_view line,
                                           std::string_view verb) {
  auto rest = strip_prefix_ci(line, verb);
  if (rest && !rest->empty() && rest->front() != ' ') return std::nullopt;
  return rest;
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

// Size of reply.line() without building it.  Reply codes are non-negative.
std::size_t reply_wire_size(const SmtpReply& reply) {
  std::size_t digits = 1;
  for (int c = reply.code; c >= 10; c /= 10) ++digits;
  return digits + 1 + reply.text.size() + 2;  // code, ' ', text, CRLF
}

// Position of the first '\r' or '\n' in `s`, or npos.  Two memchr scans
// (bodies are long runs between line breaks) instead of find_first_of,
// which tests every character against the set one by one.
std::size_t find_line_break(std::string_view s) {
  const char* p = s.data();
  const auto* lf = static_cast<const char*>(std::memchr(p, '\n', s.size()));
  const std::size_t limit = lf ? static_cast<std::size_t>(lf - p) : s.size();
  if (const auto* cr = static_cast<const char*>(std::memchr(p, '\r', limit)))
    return static_cast<std::size_t>(cr - p);
  return lf ? limit : std::string_view::npos;
}

// Cuts DATA text into the lines a client sends: a line ends at "\r\n" or
// at a bare "\n" (a lone '\r' is content), a line starting with '.' is
// dot-stuffed, and a final unterminated line is still sent.  The text
// arrives in pieces; a line lying inside one piece is passed on as a view
// into it, and only a line spanning pieces (or a stuffed one) is assembled
// in `buf`.  Once `emit` returns false, the rest is ignored.
template <class Emit>
class DataLineSplitter {
 public:
  DataLineSplitter(std::string& buf, Emit& emit) : buf_(buf), emit_(emit) {
    buf_.clear();
  }

  void feed(std::string_view s) {
    if (stopped_ || s.empty()) return;
    if (cr_) {
      cr_ = false;
      if (s.front() == '\n') {
        end_line({});
        s.remove_prefix(1);
      } else {
        buf_ += '\r';
      }
    }
    while (!stopped_) {
      const std::size_t k = find_line_break(s);
      if (k == std::string_view::npos) {
        buf_.append(s);
        return;
      }
      if (s[k] == '\n') {
        end_line(s.substr(0, k));
        s.remove_prefix(k + 1);
      } else if (k + 1 == s.size()) {
        buf_.append(s.substr(0, k));  // a '\n' may open the next piece
        cr_ = true;
        return;
      } else if (s[k + 1] == '\n') {
        end_line(s.substr(0, k));
        s.remove_prefix(k + 2);
      } else {
        buf_.append(s.substr(0, k + 1));
        s.remove_prefix(k + 1);
      }
    }
  }

  // Flushes the final line, if the text did not end in a line break.
  void finish() {
    if (stopped_) return;
    if (cr_) buf_ += '\r';
    cr_ = false;
    if (!buf_.empty()) end_line({});
  }

  bool stopped() const noexcept { return stopped_; }

 private:
  // Emits buf_ + tail as one line.
  void end_line(std::string_view tail) {
    std::string_view line = tail;
    if (!buf_.empty()) line = buf_.append(tail);
    if (!line.empty() && line.front() == '.') {
      if (buf_.empty()) buf_.append(tail);
      buf_.insert(buf_.begin(), '.');
      line = buf_;
    }
    stopped_ = !emit_(line);
    buf_.clear();
  }

  std::string& buf_;
  Emit& emit_;
  bool cr_ = false;  // the previous piece ended in '\r'
  bool stopped_ = false;
};

// Renders the client half of a dialogue (HELO..QUIT) from the message
// fields, handing each line (without CRLF) to `emit(std::string_view)`,
// which returns false to abort.  `buf` is scratch space for the lines.
template <class Emit>
void render_client(const EmailMessage& msg, std::string_view client_domain,
                   std::string& buf, Emit& emit) {
  buf.assign("HELO ").append(client_domain);
  if (!emit(std::string_view(buf))) return;
  buf.assign("MAIL FROM:<")
      .append(msg.from.local)
      .append(1, '@')
      .append(msg.from.domain)
      .append(1, '>');
  if (!emit(std::string_view(buf))) return;
  for (const EmailAddress& r : msg.to) {
    buf.assign("RCPT TO:<")
        .append(r.local)
        .append(1, '@')
        .append(r.domain)
        .append(1, '>');
    if (!emit(std::string_view(buf))) return;
  }
  if (!emit(std::string_view("DATA"))) return;
  DataLineSplitter data(buf, emit);
  msg.render_rfc822([&data](std::string_view piece) { data.feed(piece); });
  data.finish();
  if (data.stopped() || !emit(std::string_view("."))) return;
  emit(std::string_view("QUIT"));
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
  data_bytes_ = 0;
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
  data_bytes_ += line.size() + 2;
  if (max_size_ > 0 && data_bytes_ > max_size_) {
    reset_transaction();
    return {552, "Message exceeds maximum size"};
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
  if (auto rest = match_verb(line, "HELO");
      rest || (rest = match_verb(line, "EHLO"))) {
    const std::string_view client = trim(*rest);
    if (client.empty()) return {501, "Syntax: HELO hostname"};
    reset_transaction();
    state_ = State::kGreeted;
    reply_.assign(domain_).append(" Hello ").append(client);
    return {250, reply_};
  }
  if (auto rest = strip_prefix_ci(line, "MAIL FROM:")) {
    if (state_ == State::kConnected) return {503, "Polite people say HELO first"};
    if (state_ != State::kGreeted) return {503, "Nested MAIL command"};
    // Optional RFC-1870 SIZE parameter: "MAIL FROM:<a@b> SIZE=12345".
    std::string_view spec = trim(*rest);
    const std::size_t space = spec.find(' ');
    if (space != std::string_view::npos) {
      const std::string_view param = trim(spec.substr(space + 1));
      spec = spec.substr(0, space);
      if (auto size = strip_prefix_ci(param, "SIZE=")) {
        // strtoull needs a terminated string; this path is rare.
        const std::string digits(*size);
        char* end = nullptr;
        const unsigned long long declared =
            std::strtoull(digits.c_str(), &end, 10);
        if (end == digits.c_str() || *end != '\0')
          return {501, "Bad SIZE parameter"};
        if (max_size_ > 0 && declared > max_size_)
          return {552, "Message size exceeds fixed maximum"};
      } else {
        return {501, "Unrecognized MAIL parameter"};
      }
    }
    if (!assign_path(spec, pending_.from))
      return {501, "Syntax error in MAIL FROM path"};
    state_ = State::kMailFrom;
    return {250, "OK"};
  }
  if (auto rest = strip_prefix_ci(line, "RCPT TO:")) {
    if (state_ != State::kMailFrom && state_ != State::kRcptTo)
      return {503, "Need MAIL command first"};
    EmailAddress& rcpt = reuse_slot(pending_.to, n_to_);
    if (!assign_path(trim(*rest), rcpt))
      return {501, "Syntax error in RCPT TO path"};
    if (verify_ && rcpt.domain == domain_ && !verify_(rcpt))
      return {550, "No such user here"};
    ++n_to_;
    state_ = State::kRcptTo;
    return {250, "OK"};
  }
  if (auto rest = match_verb(line, "VRFY")) {
    const std::string_view who = trim(*rest);
    if (who.empty()) return {501, "VRFY needs an address"};
    const auto addr = parse_address(who);
    if (!addr) return {501, "Syntax error in address"};
    if (!verify_) return {252, "Cannot VRFY user, but will accept message"};
    if (!verify_(*addr)) return {550, "No such user here"};
    reply_.assign(addr->local).append(1, '@').append(addr->domain);
    return {250, reply_};
  }
  if (match_verb(line, "HELP")) {
    return {214, "Commands: HELO MAIL RCPT DATA RSET NOOP VRFY HELP QUIT"};
  }
  if (auto rest = match_verb(line, "DATA"); rest && trim(*rest).empty()) {
    if (state_ != State::kRcptTo)
      return {503, "Need RCPT before DATA"};
    state_ = State::kData;
    return {354, "Start mail input; end with <CRLF>.<CRLF>"};
  }
  if (auto rest = match_verb(line, "RSET"); rest && trim(*rest).empty()) {
    reset_transaction();
    return {250, "OK"};
  }
  if (match_verb(line, "NOOP")) return {250, "OK"};
  if (match_verb(line, "QUIT")) {
    quit_ = true;
    reply_.assign(domain_).append(" Service closing transmission channel");
    return {221, reply_};
  }
  return {500, "Syntax error, command unrecognized"};
}

std::vector<std::string> smtp_client_script(const EmailMessage& msg,
                                            std::string_view client_domain) {
  std::vector<std::string> lines;
  std::string buf;
  auto emit = [&lines](std::string_view line) {
    lines.emplace_back(line);
    return true;
  };
  render_client(msg, client_domain, buf, emit);
  return lines;
}

SmtpTransferResult smtp_transfer(const EmailMessage& msg,
                                 std::string_view client_domain,
                                 SmtpServerSession& server) {
  SmtpTransferResult result;
  const SmtpReply greet = server.greeting();
  result.bytes_server_to_client += reply_wire_size(greet);
  if (!greet.positive()) {
    result.first_error_code = greet.code;
    return result;
  }

  bool data_accepted = false;
  auto emit = [&](std::string_view line) {
    result.bytes_client_to_server += line.size() + 2;  // + CRLF
    const SmtpReply reply = server.consume_line(line);
    if (reply.code == 0) return true;  // swallowed data line
    result.bytes_server_to_client += reply_wire_size(reply);
    if (!reply.positive()) {
      if (result.first_error_code == 0) result.first_error_code = reply.code;
      return false;
    }
    // Dot-stuffing keeps "." unique to the DATA terminator.
    if (line == "." && reply.code == 250) data_accepted = true;
    return true;
  };
  std::string& buf = server.client_line_;
  buf.reserve(128);  // every command and header line of a typical email
  render_client(msg, client_domain, buf, emit);
  result.accepted = data_accepted && result.first_error_code == 0;
  return result;
}

}  // namespace zmail::net
