// SMTP (RFC 821) command/reply state machine.
//
// The paper layers Zmail on unmodified SMTP, so the reproduction includes a
// real (if minimal) SMTP implementation: a server session that parses HELO /
// MAIL FROM / RCPT TO / DATA / RSET / NOOP / QUIT with correct reply codes
// and dot-stuffing, and a client that drives a complete transfer.  ISP hosts
// in the simulation exchange mail through these sessions, byte-for-byte.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "net/email.hpp"

namespace zmail::net {

// Three-digit SMTP reply plus text.
struct SmtpReply {
  int code = 0;
  std::string text;

  std::string line() const {
    return std::to_string(code) + " " + text + "\r\n";
  }
  bool positive() const noexcept { return code >= 200 && code < 400; }
};

// Server-side session.  Feed it command lines; it returns replies and emits
// completed messages through the callback.  DATA is parsed as it streams
// in: header lines are split once on arrival and body lines are appended
// straight into the pending message, which is handed over by move.
class SmtpServerSession {
 public:
  // A callback taking `const EmailMessage&` binds here as well.
  using DeliverFn = std::function<void(EmailMessage&&)>;
  // Optional address validator for VRFY and RCPT (nullptr accepts all).
  using VerifyFn = std::function<bool(const EmailAddress&)>;

  explicit SmtpServerSession(std::string server_domain, DeliverFn deliver);

  // Installs a local-mailbox validator; RCPT TO for this server's own
  // domain is then checked (550 on unknown users) and VRFY answers from
  // it.
  void set_verifier(VerifyFn verify) { verify_ = std::move(verify); }

  // Maximum accepted message size in bytes (0 = unlimited); enforced
  // against the MAIL FROM SIZE= parameter and the accumulated DATA.
  void set_max_message_size(std::size_t bytes) { max_size_ = bytes; }

  // The 220 greeting the server sends on connect.
  SmtpReply greeting() const;

  // Processes one CRLF-terminated line (without the CRLF).  During DATA,
  // lines are message content until the lone "." terminator; the returned
  // reply is empty (code 0) for swallowed data lines.  The session keeps
  // no reference to `line`.
  SmtpReply consume_line(std::string_view line);

  bool quit_received() const noexcept { return quit_; }
  std::uint64_t messages_accepted() const noexcept { return accepted_; }

 private:
  enum class State { kConnected, kGreeted, kMailFrom, kRcptTo, kData };

  SmtpReply handle_command(std::string_view line);
  void add_data_line(std::string_view line);
  void reset_transaction();

  std::string domain_;
  DeliverFn deliver_;
  VerifyFn verify_;
  std::size_t max_size_ = 0;
  std::size_t data_bytes_ = 0;
  State state_ = State::kConnected;
  bool quit_ = false;
  std::uint64_t accepted_ = 0;

  // The transaction in progress: the envelope from MAIL FROM / RCPT TO,
  // then the headers and body as DATA lines arrive.
  EmailMessage pending_;
  bool in_headers_ = true;  // DATA has not reached the blank line yet
  bool body_open_ = false;  // at least one body line has been appended
};

// Client-side: renders a message as the exact line sequence a client would
// send (HELO..QUIT), with dot-stuffing applied to the body.  A thin wrapper
// over the renderer smtp_transfer() streams from.
std::vector<std::string> smtp_client_script(const EmailMessage& msg,
                                            std::string_view client_domain);

// Runs a full in-memory SMTP dialogue: renders the client side line by
// line from the message fields and feeds each line to the server session,
// checking reply codes.  Returns the transcript size in bytes (both
// directions) and whether the transfer was accepted.
struct SmtpTransferResult {
  bool accepted = false;
  std::size_t bytes_client_to_server = 0;
  std::size_t bytes_server_to_client = 0;
  int first_error_code = 0;
};

SmtpTransferResult smtp_transfer(const EmailMessage& msg,
                                 std::string_view client_domain,
                                 SmtpServerSession& server);

}  // namespace zmail::net
