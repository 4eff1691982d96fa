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

// Three-digit SMTP reply plus text.  The text is a literal or, for the
// replies that name a host (greeting, HELO, QUIT), a view into the
// session's reply buffer: valid until the next call on that session.  Copy
// it to keep it longer.
struct SmtpReply {
  int code = 0;
  std::string_view text;

  std::string line() const {
    return std::to_string(code) + " " + std::string(text) + "\r\n";
  }
  bool positive() const noexcept { return code >= 200 && code < 400; }
};

// Outcome of smtp_transfer(): transcript bytes in each direction, whether
// the message was accepted, and the first negative reply code (0 if none).
struct SmtpTransferResult {
  bool accepted = false;
  std::size_t bytes_client_to_server = 0;
  std::size_t bytes_server_to_client = 0;
  int first_error_code = 0;
};

// Server-side session.  Feed it command lines; it returns replies and emits
// completed messages through the callback.  DATA is parsed as it streams
// in: header lines are split once on arrival and body lines are appended
// straight into the pending message, which is handed over by rvalue
// reference.  One session serves any number of connections (greeting()
// opens each), and a transaction is cleared without freeing, so a session
// whose callback swaps the delivered message for a spent one of the same
// shape takes mail without touching the heap.
class SmtpServerSession {
 public:
  // Receives the completed message; it may move from it or swap it with
  // another message, whose storage the session then reuses.  A callback
  // taking `const EmailMessage&` binds here as well.
  using DeliverFn = std::function<void(EmailMessage&&)>;

  explicit SmtpServerSession(std::string server_domain, DeliverFn deliver);

  // Opens a connection: drops any transaction and the QUIT flag, returns
  // the session to its just-connected state and yields the 220 greeting.
  SmtpReply greeting();

  // Processes one CRLF-terminated line (without the CRLF).  During DATA,
  // lines are message content until the lone "." terminator; the returned
  // reply is empty (code 0) for swallowed data lines.  A command verb must
  // be followed by a space or the end of the line (RFC 821 4.1.1).  The
  // session keeps no user directory and no size limit: VRFY answers 252 to
  // any well-formed address, RCPT accepts any well-formed path, and a
  // MAIL FROM SIZE= parameter is checked for syntax only.  The session
  // keeps no reference to `line`.
  SmtpReply consume_line(std::string_view line);

  bool quit_received() const noexcept { return quit_; }
  std::uint64_t messages_accepted() const noexcept { return accepted_; }

 private:
  enum class State { kConnected, kGreeted, kMailFrom, kRcptTo, kData };

  SmtpReply handle_command(std::string_view line);
  SmtpReply mail_from(std::string_view rest);  // after "MAIL FROM:"
  SmtpReply rcpt_to(std::string_view rest);    // after "RCPT TO:"
  void add_data_line(std::string_view line);
  void reset_transaction();

  std::string domain_;
  DeliverFn deliver_;
  State state_ = State::kConnected;
  bool quit_ = false;
  std::uint64_t accepted_ = 0;

  // The transaction in progress: the envelope from MAIL FROM / RCPT TO,
  // then the headers and body as DATA lines arrive.  Only the first n_to_
  // recipients and n_headers_ headers are live; the entries past them are
  // left over from an earlier message and are overwritten in place (see
  // reuse_slot) or trimmed off before delivery.
  EmailMessage pending_;
  std::size_t n_to_ = 0;
  std::size_t n_headers_ = 0;
  bool in_headers_ = true;  // DATA has not reached the blank line yet
  bool body_open_ = false;  // at least one body line has been appended
  std::string reply_;       // text of the last greeting/HELO/QUIT reply

  // The client half of smtp_transfer() renders here: the command and
  // dot-stuffed lines in client_line_, the whole DATA text in client_text_.
  // Both keep their capacity across connections.
  friend SmtpTransferResult smtp_transfer(const EmailMessage&,
                                          std::string_view,
                                          SmtpServerSession&);
  friend SmtpTransferResult smtp_transfer(const EmailView&, std::string_view,
                                          SmtpServerSession&);
  std::string client_line_;
  std::string client_text_;
};

// Client-side: renders a message as the exact line sequence a client would
// send (HELO..QUIT), with dot-stuffing applied to the body.  A thin wrapper
// over the renderer smtp_transfer() streams from.  Only tests call it: it
// is the reference side of the SmtpDifferentialTest and
// SmtpGeneratedDifferentialTest cases (tests/net_smtp_test.cpp).
std::vector<std::string> smtp_client_script(const EmailMessage& msg,
                                            std::string_view client_domain);

// Runs a full in-memory SMTP dialogue: opens a connection on the server
// session, renders the client side from the message fields and feeds it to
// the session line by line, checking reply codes.  Returns the transcript
// size in bytes (both directions) and whether the transfer was accepted.
// The DATA text is rendered once into a buffer the session keeps for its
// connections and cut into lines there, so a warm session runs a transfer
// without allocating.
SmtpTransferResult smtp_transfer(const EmailMessage& msg,
                                 std::string_view client_domain,
                                 SmtpServerSession& server);
// The same dialogue rendered from a view decoded out of a wire payload
// (EmailView::decode_into): the payload must outlive the call.  It sends
// the bytes the EmailMessage overload sends for the decoded message.
SmtpTransferResult smtp_transfer(const EmailView& msg,
                                 std::string_view client_domain,
                                 SmtpServerSession& server);

}  // namespace zmail::net
