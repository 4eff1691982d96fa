#include "net/smtp.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <functional>
#include <optional>
#include <span>

#include "util/rng.hpp"

namespace zmail::net {
namespace {

EmailAddress addr(const char* s) { return *parse_address(s); }

class SmtpTest : public ::testing::Test {
 protected:
  std::vector<EmailMessage> delivered_;
  SmtpServerSession session_{"isp1.example", [this](const EmailMessage& m) {
                               delivered_.push_back(m);
                             }};
};

TEST_F(SmtpTest, GreetingIs220) {
  EXPECT_EQ(session_.greeting().code, 220);
  EXPECT_TRUE(session_.greeting().positive());
}

TEST_F(SmtpTest, FullDialogueDeliversMessage) {
  EXPECT_EQ(session_.consume_line("HELO isp0.example").code, 250);
  EXPECT_EQ(session_.consume_line("MAIL FROM:<u1@isp0.example>").code, 250);
  EXPECT_EQ(session_.consume_line("RCPT TO:<u2@isp1.example>").code, 250);
  EXPECT_EQ(session_.consume_line("DATA").code, 354);
  EXPECT_EQ(session_.consume_line("Subject: hi").code, 0);
  EXPECT_EQ(session_.consume_line("").code, 0);
  EXPECT_EQ(session_.consume_line("body line").code, 0);
  EXPECT_EQ(session_.consume_line(".").code, 250);
  EXPECT_EQ(session_.consume_line("QUIT").code, 221);
  EXPECT_TRUE(session_.quit_received());

  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(delivered_[0].from.str(), "u1@isp0.example");
  EXPECT_EQ(delivered_[0].subject(), "hi");
  EXPECT_EQ(delivered_[0].body, "body line");
  EXPECT_EQ(session_.messages_accepted(), 1u);
}

TEST_F(SmtpTest, MailBeforeHeloRejected503) {
  EXPECT_EQ(session_.consume_line("MAIL FROM:<a@b.c>").code, 503);
}

TEST_F(SmtpTest, RcptBeforeMailRejected503) {
  session_.consume_line("HELO x");
  EXPECT_EQ(session_.consume_line("RCPT TO:<a@b.c>").code, 503);
}

TEST_F(SmtpTest, DataBeforeRcptRejected503) {
  session_.consume_line("HELO x");
  session_.consume_line("MAIL FROM:<a@b.c>");
  EXPECT_EQ(session_.consume_line("DATA").code, 503);
}

TEST_F(SmtpTest, NestedMailRejected) {
  session_.consume_line("HELO x");
  EXPECT_EQ(session_.consume_line("MAIL FROM:<a@b.c>").code, 250);
  EXPECT_EQ(session_.consume_line("MAIL FROM:<d@e.f>").code, 503);
}

TEST_F(SmtpTest, BadPathSyntaxRejected501) {
  session_.consume_line("HELO x");
  EXPECT_EQ(session_.consume_line("MAIL FROM:a@b.c").code, 501);
  EXPECT_EQ(session_.consume_line("MAIL FROM:<not an address>").code, 501);
}

TEST_F(SmtpTest, HeloWithoutHostnameRejected501) {
  EXPECT_EQ(session_.consume_line("HELO").code, 501);
  EXPECT_EQ(session_.consume_line("HELO   ").code, 501);
}

TEST_F(SmtpTest, UnknownCommandRejected500) {
  EXPECT_EQ(session_.consume_line("FROB x").code, 500);
}

TEST_F(SmtpTest, CommandsAreCaseInsensitive) {
  EXPECT_EQ(session_.consume_line("helo isp0.example").code, 250);
  EXPECT_EQ(session_.consume_line("mail from:<a@b.c>").code, 250);
}

TEST_F(SmtpTest, RsetClearsTransaction) {
  session_.consume_line("HELO x");
  session_.consume_line("MAIL FROM:<a@b.c>");
  session_.consume_line("RCPT TO:<d@e.f>");
  EXPECT_EQ(session_.consume_line("RSET").code, 250);
  // After RSET a new MAIL FROM is accepted.
  EXPECT_EQ(session_.consume_line("MAIL FROM:<g@h.i>").code, 250);
}

TEST_F(SmtpTest, NoopAlwaysOk) {
  EXPECT_EQ(session_.consume_line("NOOP").code, 250);
}

TEST_F(SmtpTest, MultipleRecipientsAccepted) {
  session_.consume_line("HELO x");
  session_.consume_line("MAIL FROM:<a@b.c>");
  EXPECT_EQ(session_.consume_line("RCPT TO:<d@e.f>").code, 250);
  EXPECT_EQ(session_.consume_line("RCPT TO:<g@h.i>").code, 250);
  session_.consume_line("DATA");
  session_.consume_line("");
  session_.consume_line(".");
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(delivered_[0].to.size(), 2u);
}

TEST_F(SmtpTest, DotStuffingRoundTrip) {
  EmailMessage msg = make_email(addr("a@b.c"), addr("u1@isp1.example"), "dots",
                                ".leading dot\n..double dot\nnormal");
  const SmtpTransferResult r = smtp_transfer(msg, "b.c", session_);
  EXPECT_TRUE(r.accepted);
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(delivered_[0].body, ".leading dot\n..double dot\nnormal");
}

TEST_F(SmtpTest, TransferCountsBytesBothDirections) {
  EmailMessage msg =
      make_email(addr("a@b.c"), addr("u1@isp1.example"), "s", "hello");
  const SmtpTransferResult r = smtp_transfer(msg, "b.c", session_);
  EXPECT_TRUE(r.accepted);
  EXPECT_GT(r.bytes_client_to_server, 50u);
  EXPECT_GT(r.bytes_server_to_client, 30u);
  EXPECT_EQ(r.first_error_code, 0);
}

TEST_F(SmtpTest, ClientScriptShape) {
  EmailMessage msg =
      make_email(addr("a@b.c"), addr("d@e.f"), "s", "b1\nb2");
  const auto lines = smtp_client_script(msg, "b.c");
  ASSERT_GE(lines.size(), 7u);
  EXPECT_EQ(lines[0], "HELO b.c");
  EXPECT_EQ(lines[1], "MAIL FROM:<a@b.c>");
  EXPECT_EQ(lines[2], "RCPT TO:<d@e.f>");
  EXPECT_EQ(lines[3], "DATA");
  EXPECT_EQ(lines[lines.size() - 2], ".");
  EXPECT_EQ(lines.back(), "QUIT");
}

TEST_F(SmtpTest, SecondMessageOnSameSession) {
  EmailMessage m1 = make_email(addr("a@b.c"), addr("u1@isp1.example"), "1", "x");
  EmailMessage m2 = make_email(addr("a@b.c"), addr("u2@isp1.example"), "2", "y");
  EXPECT_TRUE(smtp_transfer(m1, "b.c", session_).accepted);
  EXPECT_TRUE(smtp_transfer(m2, "b.c", session_).accepted);
  EXPECT_EQ(delivered_.size(), 2u);
}

// --- Extensions: VRFY, HELP, SIZE ------------------------------------------

TEST_F(SmtpTest, VrfyWithoutVerifierIs252) {
  EXPECT_EQ(session_.consume_line("VRFY u1@isp1.example").code, 252);
}

TEST_F(SmtpTest, VrfyWithVerifier) {
  session_.set_verifier([](const EmailAddress& a) { return a.local == "u1"; });
  EXPECT_EQ(session_.consume_line("VRFY u1@isp1.example").code, 250);
  EXPECT_EQ(session_.consume_line("VRFY nobody@isp1.example").code, 550);
  EXPECT_EQ(session_.consume_line("VRFY").code, 501);
  EXPECT_EQ(session_.consume_line("VRFY not-an-address").code, 501);
}

TEST_F(SmtpTest, VerifierRejectsUnknownLocalRecipients) {
  session_.set_verifier([](const EmailAddress& a) { return a.local == "u1"; });
  session_.consume_line("HELO x");
  session_.consume_line("MAIL FROM:<a@b.c>");
  EXPECT_EQ(session_.consume_line("RCPT TO:<u1@isp1.example>").code, 250);
  EXPECT_EQ(session_.consume_line("RCPT TO:<u9@isp1.example>").code, 550);
  // Foreign domains are relayed without local verification.
  EXPECT_EQ(session_.consume_line("RCPT TO:<x@elsewhere.example>").code, 250);
}

TEST_F(SmtpTest, HelpListsCommands) {
  const SmtpReply r = session_.consume_line("HELP");
  EXPECT_EQ(r.code, 214);
  EXPECT_NE(r.text.find("DATA"), std::string::npos);
}

TEST_F(SmtpTest, SizeParameterAccepted) {
  session_.consume_line("HELO x");
  EXPECT_EQ(session_.consume_line("MAIL FROM:<a@b.c> SIZE=1000").code, 250);
}

TEST_F(SmtpTest, SizeParameterOverLimitRejected552) {
  session_.set_max_message_size(500);
  session_.consume_line("HELO x");
  EXPECT_EQ(session_.consume_line("MAIL FROM:<a@b.c> SIZE=1000").code, 552);
  EXPECT_EQ(session_.consume_line("MAIL FROM:<a@b.c> SIZE=400").code, 250);
}

TEST_F(SmtpTest, BadSizeParameterRejected501) {
  session_.consume_line("HELO x");
  EXPECT_EQ(session_.consume_line("MAIL FROM:<a@b.c> SIZE=abc").code, 501);
  EXPECT_EQ(session_.consume_line("MAIL FROM:<a@b.c> FROB=1").code, 501);
}

TEST_F(SmtpTest, OversizedDataAborted552) {
  session_.set_max_message_size(64);
  session_.consume_line("HELO x");
  session_.consume_line("MAIL FROM:<a@b.c>");
  session_.consume_line("RCPT TO:<u1@isp1.example>");
  session_.consume_line("DATA");
  session_.consume_line("");
  SmtpReply last{0, ""};
  for (int i = 0; i < 10 && last.code == 0; ++i)
    last = session_.consume_line(std::string(32, 'x'));
  EXPECT_EQ(last.code, 552);
  EXPECT_EQ(delivered_.size(), 0u);
  // The session recovers for the next transaction.
  EXPECT_EQ(session_.consume_line("MAIL FROM:<a@b.c>").code, 250);
}

// RFC 821 4.1.1: a verb ends at SP or the end of the line.  A longer word
// that merely starts with a verb is no command.
TEST_F(SmtpTest, VerbMustEndAtSpaceOrLineEnd) {
  for (const char* line : {"HELOfoo", "EHLOx", "NOOPS", "HELPME", "QUITE",
                           "VRFYbob", "DATAx", "RSETx"})
    EXPECT_EQ(session_.consume_line(line).code, 500) << line;
  EXPECT_FALSE(session_.quit_received());
  EXPECT_EQ(session_.consume_line("NOOP").code, 250);
  EXPECT_EQ(session_.consume_line("noop x").code, 250);
  EXPECT_EQ(session_.consume_line("HELP DATA").code, 214);
  EXPECT_EQ(session_.consume_line("VRFY bob").code, 501);
  const SmtpReply helo = session_.consume_line("ehlo isp0.example");
  EXPECT_EQ(helo.code, 250);
  EXPECT_EQ(helo.text, "isp1.example Hello isp0.example");
  const SmtpReply quit = session_.consume_line("QUIT");
  EXPECT_EQ(quit.code, 221);
  EXPECT_EQ(quit.text, "isp1.example Service closing transmission channel");
  EXPECT_TRUE(session_.quit_received());
}

// --- One session, many connections ------------------------------------------
//
// A session reused through consecutive connections (greeting() opens each)
// must answer exactly as a fresh session per connection: reply codes and
// texts, transfer byte counts, and the parsed messages.  The connections
// put an RSET, a 550 recipient, a 552 SIZE refusal and a 552 mid-DATA abort
// between transfers, and shrink the message shape after a larger one.  The
// reused session's callback swaps each message out for a spent one, as
// ZmailSystem's does, so later transactions parse into storage that held a
// bigger message.

using Connection =
    std::function<void(SmtpServerSession&, std::vector<std::string>&)>;

std::string describe(const SmtpReply& r) {
  return std::to_string(r.code) + " " + std::string(r.text);
}

Connection script(std::vector<std::string> lines) {
  return [lines](SmtpServerSession& s, std::vector<std::string>& log) {
    log.push_back(describe(s.greeting()));
    for (const std::string& line : lines)
      log.push_back(describe(s.consume_line(line)));
  };
}

Connection transfer(EmailMessage msg) {
  return [msg](SmtpServerSession& s, std::vector<std::string>& log) {
    const SmtpTransferResult x = smtp_transfer(msg, "isp0.example", s);
    log.push_back("transfer accepted=" + std::to_string(x.accepted) +
                  " c2s=" + std::to_string(x.bytes_client_to_server) +
                  " s2c=" + std::to_string(x.bytes_server_to_client) +
                  " error=" + std::to_string(x.first_error_code));
  };
}

SmtpServerSession configured(SmtpServerSession::DeliverFn deliver) {
  SmtpServerSession s("isp1.example", std::move(deliver));
  s.set_verifier(
      [](const EmailAddress& a) { return a.local == "u1" || a.local == "u2"; });
  s.set_max_message_size(400);
  return s;
}

TEST(SmtpSessionReuse, MatchesAFreshSessionPerConnection) {
  EmailMessage wide = make_email(addr("u7@isp0.example"),
                                 addr("u1@isp1.example"), "wide", "w1\nw2");
  wide.to.push_back(addr("u2@isp1.example"));
  wide.set_header("X-Zmail-Sent-At", "123456789012345678");
  wide.set_header("X-Extra", "e");
  EmailMessage narrow;
  narrow.from = addr("u8@isp0.example");
  narrow.to = {addr("u2@isp1.example")};
  narrow.headers = {{"Subject", "n"}};
  narrow.body = "x";
  EmailMessage unknown_rcpt = narrow;
  unknown_rcpt.to = {addr("u9@isp1.example")};

  const std::vector<Connection> connections = {
      transfer(make_email(addr("u7@isp0.example"), addr("u1@isp1.example"),
                          "one", "hello\n.dot")),
      script({"HELO isp0.example", "MAIL FROM:<u7@isp0.example>",
              "RCPT TO:<u1@isp1.example>", "RSET",
              "MAIL FROM:<u8@isp0.example>", "RCPT TO:<u9@isp1.example>",
              "RCPT TO:<u2@isp1.example>", "DATA", "Subject: two", "X-A: 1",
              "", "body two", ".", "QUIT"}),
      script({"HELO isp0.example", "MAIL FROM:<u7@isp0.example> SIZE=100000",
              "MAIL FROM:<u7@isp0.example> SIZE=100",
              "RCPT TO:<u1@isp1.example>", "DATA", "Subject: three", "",
              std::string(500, 'z'), "MAIL FROM:<u7@isp0.example>",
              "RCPT TO:<u1@isp1.example>", "DATA", "", "short", ".",
              "VRFY u2@isp1.example", "QUIT"}),
      transfer(wide),
      transfer(narrow),
      transfer(unknown_rcpt),
      transfer(narrow),
  };

  // The reused session: its callback swaps the parsed message into `slot`,
  // which starts out holding a bigger message than any of the above.
  EmailMessage slot = wide;
  slot.to.push_back(addr("u3@isp1.example"));
  slot.set_header("X-Stale", "s");
  slot.body = std::string(300, 's');
  slot.truth = MailClass::kSpam;
  slot.trace_id = 99;
  std::vector<EmailMessage> reused_got;
  SmtpServerSession reused = configured([&](EmailMessage&& m) {
    std::swap(slot, m);
    reused_got.push_back(slot);
  });

  for (std::size_t i = 0; i < connections.size(); ++i) {
    SCOPED_TRACE("connection " + std::to_string(i));
    std::vector<EmailMessage> fresh_got;
    SmtpServerSession fresh = configured(
        [&fresh_got](EmailMessage&& m) { fresh_got.push_back(std::move(m)); });
    std::vector<std::string> want, got;
    connections[i](fresh, want);
    reused_got.clear();
    connections[i](reused, got);
    EXPECT_EQ(got, want);
    ASSERT_EQ(reused_got.size(), fresh_got.size());
    for (std::size_t k = 0; k < fresh_got.size(); ++k) {
      EXPECT_EQ(reused_got[k].from, fresh_got[k].from);
      EXPECT_EQ(reused_got[k].to, fresh_got[k].to);
      EXPECT_EQ(reused_got[k].headers, fresh_got[k].headers);
      EXPECT_EQ(reused_got[k].body, fresh_got[k].body);
      EXPECT_EQ(reused_got[k].truth, fresh_got[k].truth);
      EXPECT_EQ(reused_got[k].trace_id, fresh_got[k].trace_id);
    }
  }
  EXPECT_EQ(reused.messages_accepted(), 6u);
}

// --- Round-trip property fuzz ------------------------------------------------

class SmtpRoundTripTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SmtpRoundTripTest, ArbitraryBodiesSurviveTransfer) {
  zmail::Rng rng(GetParam());
  std::vector<EmailMessage> delivered;
  SmtpServerSession session("isp1.example", [&](const EmailMessage& m) {
    delivered.push_back(m);
  });
  for (int msg_i = 0; msg_i < 20; ++msg_i) {
    // Random body with newlines, leading dots, empty lines, punctuation.
    std::string body;
    const std::size_t lines = rng.next_below(6);
    for (std::size_t l = 0; l < lines; ++l) {
      const std::size_t len = rng.next_below(12);
      for (std::size_t c = 0; c < len; ++c) {
        static const char alphabet[] =
            "abcXYZ012 .,:;!?-_()[]<>@'\"$%&*+=/";
        body += alphabet[rng.next_below(sizeof(alphabet) - 1)];
      }
      if (l + 1 < lines) body += '\n';
    }
    EmailMessage msg = make_email(addr("a@b.c"), addr("u1@isp1.example"),
                                  "fuzz", body);
    const SmtpTransferResult r = smtp_transfer(msg, "b.c", session);
    ASSERT_TRUE(r.accepted) << "body: [" << body << "]";
    // Trailing empty lines are legitimately ambiguous in 821 framing; the
    // body must round-trip up to trailing-newline normalization.
    std::string want = body;
    while (!want.empty() && want.back() == '\n') want.pop_back();
    std::string got = delivered.back().body;
    while (!got.empty() && got.back() == '\n') got.pop_back();
    EXPECT_EQ(got, want);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmtpRoundTripTest,
                         ::testing::Range<std::uint64_t>(40, 46));

// State-machine fuzz: arbitrary command sequences never crash, always
// produce a known reply code, and leave the session recoverable.
class SmtpCommandFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SmtpCommandFuzzTest, RandomCommandSequencesAreSafe) {
  zmail::Rng rng(GetParam());
  int delivered = 0;
  SmtpServerSession session("isp1.example",
                            [&delivered](const EmailMessage&) { ++delivered; });
  static const char* kLines[] = {
      "HELO x",       "EHLO y.example",
      "MAIL FROM:<a@b.c>", "MAIL FROM:<bad",
      "RCPT TO:<d@e.f>",   "RCPT TO:<>",
      "DATA",         ".",
      "body line",    "..stuffed",
      "RSET",         "NOOP",
      "VRFY a@b.c",   "HELP",
      "QUIT",         "",
      "FROBNICATE",   "MAIL FROM:<a@b.c> SIZE=10",
  };
  for (int i = 0; i < 400; ++i) {
    const char* line = kLines[rng.next_below(std::size(kLines))];
    const SmtpReply r = session.consume_line(line);
    switch (r.code) {
      case 0: case 214: case 220: case 221: case 250: case 252: case 354:
      case 500: case 501: case 503: case 550: case 552:
        break;
      default:
        FAIL() << "unexpected reply code " << r.code << " for '" << line
               << "'";
    }
  }
  // The session always recovers into a working transaction.
  session.consume_line("RSET");
  // If a previous DATA is still open, terminate it first.
  session.consume_line(".");
  session.consume_line("RSET");
  EXPECT_EQ(session.consume_line("HELO x").code, 250);
  EXPECT_EQ(session.consume_line("MAIL FROM:<a@b.c>").code, 250);
  EXPECT_EQ(session.consume_line("RCPT TO:<u@isp1.example>").code, 250);
  EXPECT_EQ(session.consume_line("DATA").code, 354);
  session.consume_line("");
  EXPECT_EQ(session.consume_line(".").code, 250);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmtpCommandFuzzTest,
                         ::testing::Range<std::uint64_t>(70, 76));

// Streams raw DATA lines into a fresh session and returns what it
// delivered (the session parses headers and body as the lines arrive).
EmailMessage deliver_data(const std::vector<std::string>& data) {
  std::vector<EmailMessage> out;
  SmtpServerSession session("e.f",
                            [&out](EmailMessage&& m) { out.push_back(m); });
  session.consume_line("HELO x");
  session.consume_line("MAIL FROM:<a@b.c>");
  session.consume_line("RCPT TO:<d@e.f>");
  EXPECT_EQ(session.consume_line("DATA").code, 354);
  for (const std::string& line : data)
    EXPECT_EQ(session.consume_line(line).code, 0);
  EXPECT_EQ(session.consume_line(".").code, 250);
  EXPECT_EQ(out.size(), 1u);
  return out.empty() ? EmailMessage{} : out.front();
}

TEST(SmtpDataParse, SkipsMalformedHeaderLines) {
  const EmailMessage m =
      deliver_data({"Subject: ok", "this line has no colon", "", "body"});
  EXPECT_EQ(m.subject(), "ok");
  EXPECT_EQ(m.headers.size(), 1u);
  EXPECT_EQ(m.body, "body");
}

TEST(SmtpDataParse, EmptyBody) {
  const EmailMessage m = deliver_data({"Subject: only headers", ""});
  EXPECT_EQ(m.body, "");
}

TEST(SmtpDataParse, EnvelopeComesFromMailAndRcpt) {
  const EmailMessage m = deliver_data({"From: x@y.z", "To: q@r.s", "", "b"});
  EXPECT_EQ(m.from.str(), "a@b.c");
  ASSERT_EQ(m.to.size(), 1u);
  EXPECT_EQ(m.to[0].str(), "d@e.f");
  EXPECT_TRUE(m.headers.empty());
}

// --- Differential check against the line-vector reference ------------------
//
// The reference below is the former SMTP path kept verbatim: render the
// whole RFC-822 text, cut it into a vector of dot-stuffed lines, play each
// line through consume_line() summing SmtpReply::line() sizes, and parse
// the collected DATA lines after the fact.  The streaming smtp_transfer()
// must agree with it field for field.

std::string reference_rfc822(const EmailMessage& msg) {
  std::string out;
  out += "From: " + msg.from.str() + "\r\n";
  std::string tos;
  for (std::size_t i = 0; i < msg.to.size(); ++i) {
    if (i) tos += ", ";
    tos += msg.to[i].str();
  }
  out += "To: " + tos + "\r\n";
  for (const auto& [k, v] : msg.headers) out += k + ": " + v + "\r\n";
  out += "\r\n";
  out += msg.body;
  return out;
}

std::vector<std::string> reference_client_script(
    const EmailMessage& msg, const std::string& client_domain) {
  std::vector<std::string> lines;
  lines.push_back("HELO " + client_domain);
  lines.push_back("MAIL FROM:<" + msg.from.str() + ">");
  for (const auto& r : msg.to) lines.push_back("RCPT TO:<" + r.str() + ">");
  lines.push_back("DATA");
  const std::string text = reference_rfc822(msg);
  std::string current;
  auto flush = [&]() {
    if (!current.empty() && current[0] == '.')
      lines.push_back("." + current);  // dot-stuffing
    else
      lines.push_back(current);
    current.clear();
  };
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\r' && i + 1 < text.size() && text[i + 1] == '\n') {
      flush();
      ++i;
    } else if (text[i] == '\n') {
      flush();
    } else {
      current += text[i];
    }
  }
  if (!current.empty()) flush();
  lines.push_back(".");
  lines.push_back("QUIT");
  return lines;
}

std::string reference_trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

EmailMessage reference_parse_rfc822(
    const EmailAddress& envelope_from,
    const std::vector<EmailAddress>& envelope_to,
    const std::vector<std::string>& lines) {
  EmailMessage msg;
  msg.from = envelope_from;
  msg.to = envelope_to;
  std::size_t i = 0;
  for (; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (line.empty()) {
      ++i;
      break;
    }
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string key = reference_trim(line.substr(0, colon));
    std::string value = reference_trim(line.substr(colon + 1));
    if (key == "From" || key == "To") continue;
    msg.headers.emplace_back(std::move(key), std::move(value));
  }
  std::string body;
  for (; i < lines.size(); ++i) {
    body += lines[i];
    body += '\n';
  }
  if (!body.empty() && body.back() == '\n') body.pop_back();
  msg.body = std::move(body);
  return msg;
}

struct ReferenceOutcome {
  SmtpTransferResult xfer;
  std::optional<EmailMessage> delivered;
};

ReferenceOutcome reference_transfer(const EmailMessage& msg,
                                    const std::string& client_domain,
                                    SmtpServerSession& server) {
  ReferenceOutcome out;
  const SmtpReply greet = server.greeting();
  out.xfer.bytes_server_to_client += greet.line().size();
  if (!greet.positive()) {
    out.xfer.first_error_code = greet.code;
    return out;
  }
  bool in_data = false;
  std::vector<std::string> data;
  for (const auto& line : reference_client_script(msg, client_domain)) {
    out.xfer.bytes_client_to_server += line.size() + 2;
    if (in_data && line != ".")
      data.push_back(line.size() >= 2 && line[0] == '.' && line[1] == '.'
                         ? line.substr(1)
                         : line);
    const SmtpReply reply = server.consume_line(line);
    if (reply.code == 0) continue;
    out.xfer.bytes_server_to_client += reply.line().size();
    if (!reply.positive()) {
      if (out.xfer.first_error_code == 0)
        out.xfer.first_error_code = reply.code;
      return out;
    }
    if (!in_data && line == "DATA") in_data = true;
    if (line == "." && reply.code == 250) {
      out.xfer.accepted = true;
      out.delivered = reference_parse_rfc822(msg.from, msg.to, data);
      in_data = false;
    }
  }
  return out;
}

struct DiffCase {
  const char* name;
  EmailMessage msg;
  std::size_t max_size = 0;  // 0 = unlimited
  bool verify = false;       // install a verifier that only knows u1
  int want_error = 0;        // expected first_error_code (0 = accepted)
};

std::vector<DiffCase> diff_cases() {
  const EmailAddress from = addr("u7@isp0.example");
  const EmailAddress to = addr("u1@isp1.example");
  std::vector<DiffCase> cases;
  auto add = [&](const char* name, std::string body) {
    cases.push_back({name, make_email(from, to, "subj", std::move(body))});
    return &cases.back();
  };
  add("leading_dots", ".a\n..b\n.\n...\nplain\n.");
  add("crlf_and_bare_lf", "l1\r\nl2\nl3\r\n\nl5");
  add("ends_in_newline", "last line\n");
  add("ends_in_crlf", "last line\r\n");
  add("empty_body", "");
  add("only_newlines", "\n\n\r\n");
  add("lone_cr", "a\rb\r\rc\r");
  add("trailing_cr", "x\r");
  {
    DiffCase* c = add("odd_headers", "body: with colon\n To: not a header");
    c->msg.headers.emplace_back("X-Time", "  12:30:45  ");
    c->msg.headers.emplace_back("From", "spoof@elsewhere.example");
    c->msg.headers.emplace_back("To", "other@elsewhere.example");
    c->msg.headers.emplace_back("  X-Padded  ", " a : b ");
    c->msg.headers.emplace_back("X-Empty", "");
    c->msg.headers.emplace_back("X-Multi", "one\ntwo: 2\r\n.dot: 3");
    c->msg.headers.emplace_back("X-Lone-Cr", "a\rb");
    c->msg.headers.emplace_back("X-Cr-End", "v\r");  // '\r' ends a piece
  }
  {
    DiffCase* c = add("two_recipients", "hello both");
    c->msg.to.push_back(addr("u2@isp2.example"));
  }
  {
    DiffCase* c = add("size_limit_mid_data",
                      std::string(40, 'x') + "\n" + std::string(40, 'y') +
                          "\n" + std::string(40, 'z'));
    c->max_size = 150;
    c->want_error = 552;
  }
  {
    DiffCase* c = add("verifier_rejects_rcpt", "never delivered");
    c->msg.to = {addr("u9@isp1.example")};
    c->verify = true;
    c->want_error = 550;
  }
  {
    DiffCase* c = add("verifier_accepts_rcpt", "delivered");
    c->verify = true;
  }
  return cases;
}

// Plays `c` through the reference and through smtp_transfer(), from the
// message and from a view decoded out of its wire form, and checks that all
// three agree field for field.
void check_against_reference(const DiffCase& c) {
  auto make_session = [&c](std::vector<EmailMessage>& sink) {
    SmtpServerSession s("isp1.example",
                        [&sink](EmailMessage&& m) { sink.push_back(m); });
    if (c.max_size) s.set_max_message_size(c.max_size);
    if (c.verify)
      s.set_verifier([](const EmailAddress& a) { return a.local == "u1"; });
    return s;
  };
  std::vector<EmailMessage> ref_sink, got_sink, view_sink;
  SmtpServerSession ref_session = make_session(ref_sink);
  SmtpServerSession got_session = make_session(got_sink);
  SmtpServerSession view_session = make_session(view_sink);

  const ReferenceOutcome want =
      reference_transfer(c.msg, "isp0.example", ref_session);
  const SmtpTransferResult got =
      smtp_transfer(c.msg, "isp0.example", got_session);
  const crypto::Bytes wire = c.msg.serialize();
  EmailView view;
  ASSERT_TRUE(EmailView::decode_into(wire, view));
  const SmtpTransferResult from_view =
      smtp_transfer(view, "isp0.example", view_session);

  for (const SmtpTransferResult* r : {&got, &from_view}) {
    EXPECT_EQ(r->bytes_client_to_server, want.xfer.bytes_client_to_server);
    EXPECT_EQ(r->bytes_server_to_client, want.xfer.bytes_server_to_client);
    EXPECT_EQ(r->accepted, want.xfer.accepted);
    EXPECT_EQ(r->first_error_code, want.xfer.first_error_code);
  }
  EXPECT_EQ(got.first_error_code, c.want_error);  // the case is what it says
  for (const auto* sink : {&got_sink, &view_sink}) {
    ASSERT_EQ(sink->size(), want.delivered ? 1u : 0u);
    if (!want.delivered) continue;
    const EmailMessage& g = sink->front();
    EXPECT_EQ(g.from, want.delivered->from);
    EXPECT_EQ(g.to, want.delivered->to);
    EXPECT_EQ(g.headers, want.delivered->headers);
    EXPECT_EQ(g.body, want.delivered->body);
  }
  // The wrappers render through the same code as the stream.
  EXPECT_EQ(smtp_client_script(c.msg, "isp0.example"),
            reference_client_script(c.msg, "isp0.example"));
  EXPECT_EQ(c.msg.to_rfc822(), reference_rfc822(c.msg));
}

class SmtpDifferentialTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SmtpDifferentialTest, StreamingMatchesLineVectorReference) {
  const DiffCase c = diff_cases()[GetParam()];
  SCOPED_TRACE(c.name);
  check_against_reference(c);
}

INSTANTIATE_TEST_SUITE_P(Cases, SmtpDifferentialTest,
                         ::testing::Range<std::size_t>(0, diff_cases().size()),
                         [](const ::testing::TestParamInfo<std::size_t>& i) {
                           return std::string(diff_cases()[i.param].name);
                         });

// Text drawn from the pieces that stress line cutting and header parsing:
// lone CRs, bare LFs, CRLFs, leading dots, colons and padding.
std::string random_text(zmail::Rng& rng, std::size_t max_pieces) {
  static const char* kPieces[] = {"\r",  "\n", "\r\n", ".",   "..", ":",
                                  " ",   "\t", "a",    "bc",  "x:y", ". ",
                                  "\r\r", "\n.", "\r\n.", "To", "From"};
  std::string s;
  const std::size_t n = rng.next_below(max_pieces + 1);
  for (std::size_t i = 0; i < n; ++i)
    s += kPieces[rng.next_below(std::size(kPieces))];
  return s;
}

// A seeded message: one to four recipients, up to five headers whose names
// and values may hold colons, CRs and LFs, and a body that is empty in one
// message of four.
DiffCase random_case(zmail::Rng& rng) {
  DiffCase c{"generated", {}};
  c.msg = make_email(
      make_user_address(0, rng.next_below(20)),
      make_user_address(1, rng.next_below(20)), random_text(rng, 4),
      rng.next_below(4) == 0 ? std::string() : random_text(rng, 40));
  for (std::size_t r = rng.next_below(4); r > 0; --r)
    c.msg.to.push_back(make_user_address(2 + rng.next_below(3),
                                         rng.next_below(20)));
  for (std::size_t h = rng.next_below(6); h > 0; --h) {
    std::string key = rng.next_below(3) == 0 ? random_text(rng, 3)
                                             : "X-H" + std::to_string(h);
    c.msg.headers.emplace_back(std::move(key), random_text(rng, 8));
  }
  return c;
}

class SmtpGeneratedDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SmtpGeneratedDifferentialTest, StreamingMatchesLineVectorReference) {
  zmail::Rng rng(GetParam());
  for (int m = 0; m < 200; ++m) {
    const DiffCase c = random_case(rng);
    SCOPED_TRACE(testing::Message() << "message " << m << ": "
                                    << ::testing::PrintToString(c.msg.body));
    check_against_reference(c);
    if (::testing::Test::HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmtpGeneratedDifferentialTest,
                         ::testing::Range<std::uint64_t>(1, 9));

// --- Decode fuzz: the view decoder against deserialize_into ---------------
//
// Every prefix of a wire payload, and copies with one or two bytes flipped,
// must be accepted by EmailView::decode_into exactly when
// EmailMessage::deserialize_into accepts it, decode to the same fields, and
// play the same SMTP transcript.
void expect_same_decode(std::span<const std::uint8_t> wire, EmailView& view,
                        EmailMessage& msg) {
  const bool owned = EmailMessage::deserialize_into(wire, msg);
  const bool viewed = EmailView::decode_into(wire, view);
  ASSERT_EQ(viewed, owned);
  if (!owned) return;
  EXPECT_EQ(view.from.local, msg.from.local);
  EXPECT_EQ(view.from.domain, msg.from.domain);
  ASSERT_EQ(view.to.size(), msg.to.size());
  for (std::size_t i = 0; i < msg.to.size(); ++i) {
    EXPECT_EQ(view.to[i].local, msg.to[i].local);
    EXPECT_EQ(view.to[i].domain, msg.to[i].domain);
  }
  ASSERT_EQ(view.headers.size(), msg.headers.size());
  for (std::size_t i = 0; i < msg.headers.size(); ++i) {
    EXPECT_EQ(view.headers[i].first, msg.headers[i].first);
    EXPECT_EQ(view.headers[i].second, msg.headers[i].second);
  }
  EXPECT_EQ(view.body, msg.body);
  EXPECT_EQ(view.truth, msg.truth);
  EXPECT_EQ(view.trace_id, msg.trace_id);

  std::vector<EmailMessage> from_msg, from_view;
  SmtpServerSession a("isp1.example",
                      [&from_msg](EmailMessage&& m) { from_msg.push_back(m); });
  SmtpServerSession b("isp1.example", [&from_view](EmailMessage&& m) {
    from_view.push_back(m);
  });
  const SmtpTransferResult ra = smtp_transfer(msg, "isp0.example", a);
  const SmtpTransferResult rb = smtp_transfer(view, "isp0.example", b);
  EXPECT_EQ(rb.bytes_client_to_server, ra.bytes_client_to_server);
  EXPECT_EQ(rb.bytes_server_to_client, ra.bytes_server_to_client);
  EXPECT_EQ(rb.accepted, ra.accepted);
  EXPECT_EQ(rb.first_error_code, ra.first_error_code);
  ASSERT_EQ(from_view.size(), from_msg.size());
  if (!from_msg.empty()) {
    EXPECT_EQ(from_view.front().headers, from_msg.front().headers);
    EXPECT_EQ(from_view.front().body, from_msg.front().body);
  }
}

class EmailViewDecodeFuzzTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EmailViewDecodeFuzzTest, AcceptsExactlyWhatDeserializeIntoAccepts) {
  zmail::Rng rng(GetParam());
  // One view and one message reused throughout, as the facade reuses its
  // own: nothing from an earlier decode may show through.
  EmailView view;
  EmailMessage msg;
  for (int m = 0; m < 12; ++m) {
    EmailMessage src = random_case(rng).msg;
    src.truth = static_cast<MailClass>(rng.next_below(6));
    if (rng.next_below(2) == 0) src.trace_id = 1 + rng.next_below(1000);
    const crypto::Bytes wire = src.serialize();
    for (std::size_t cut = 0; cut <= wire.size(); ++cut) {
      SCOPED_TRACE(testing::Message() << "message " << m << " cut " << cut);
      expect_same_decode(std::span(wire).first(cut), view, msg);
      if (::testing::Test::HasFatalFailure()) return;
    }
    crypto::Bytes flipped = wire;
    for (int f = 0; f < 200; ++f) {
      flipped = wire;
      for (std::size_t k = 1 + rng.next_below(2); k > 0; --k)
        flipped[rng.next_below(flipped.size())] ^=
            static_cast<std::uint8_t>(1 + rng.next_below(255));
      if (rng.next_below(4) == 0) flipped.push_back(0x2A);  // trailing byte
      SCOPED_TRACE(testing::Message() << "message " << m << " flip " << f);
      expect_same_decode(flipped, view, msg);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EmailViewDecodeFuzzTest,
                         ::testing::Range<std::uint64_t>(300, 306));

// --- Session fuzz: one reused session, hostile lines -----------------------
//
// Random, truncated and NUL-bearing command/DATA lines (lone ".", "..",
// RSET/HELO in mid-transaction) are fed through one buffer that is
// overwritten for every line, so a session that kept a view into its input
// would read freed or rewritten memory (ASan/UBSan builds run this binary
// by name).  Afterwards a clean transfer on the same session must still be
// accepted and delivered intact.
class SmtpSessionFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SmtpSessionFuzzTest, HostileLinesLeaveSessionUsable) {
  zmail::Rng rng(GetParam());
  std::vector<EmailMessage> delivered;
  SmtpServerSession session("isp1.example", [&delivered](EmailMessage&& m) {
    delivered.push_back(std::move(m));
  });
  if (rng.next_below(2) == 0) session.set_max_message_size(200);
  const EmailMessage template_msg =
      make_email(addr("u1@isp0.example"), addr("u2@isp1.example"), "s",
                 ".dot\nline two\n..two dots\n");
  const std::vector<std::string> script =
      smtp_client_script(template_msg, "isp0.example");
  static const char* kSpecial[] = {".", "..", "...", "", "RSET", "HELO x",
                                   "EHLO", "DATA", "QUIT", "NOOP",
                                   "Subject: x", "MAIL FROM:<a@b.c> SIZE=",
                                   "RCPT TO:<u2@isp1.example>"};
  std::string line;
  for (int i = 0; i < 600; ++i) {
    line.clear();
    switch (rng.next_below(4)) {
      case 0: {  // a script line, possibly truncated
        const std::string& s = script[rng.next_below(script.size())];
        line.assign(s, 0, rng.next_below(s.size() + 1));
        break;
      }
      case 1:  // a special line
        line = kSpecial[rng.next_below(std::size(kSpecial))];
        break;
      default: {  // random bytes, NULs and line breaks included
        const std::size_t len = rng.next_below(40);
        for (std::size_t k = 0; k < len; ++k) {
          static const char kAlphabet[] = "aZ0.:<>@ \t\r\n\0.-";
          line += kAlphabet[rng.next_below(sizeof(kAlphabet) - 1)];
        }
        break;
      }
    }
    if (rng.next_below(8) == 0 && !line.empty())
      line[rng.next_below(line.size())] = '\0';
    const SmtpReply r = session.consume_line(line);
    EXPECT_TRUE(r.code == 0 || (r.code >= 200 && r.code < 600)) << r.code;
    line.assign(64, '#');  // clobber the buffer the session just read
  }
  // Delivered messages own their bytes, and DATA is only reachable after
  // MAIL FROM and at least one RCPT TO.
  for (const EmailMessage& m : delivered) {
    EXPECT_TRUE(parse_address(m.from.str()).has_value());
    ASSERT_FALSE(m.to.empty());
    for (const EmailAddress& a : m.to)
      EXPECT_TRUE(parse_address(a.str()).has_value());
    for (const auto& [k, v] : m.headers)
      EXPECT_EQ(k.find(':'), std::string::npos);
  }

  // Close any open DATA, then a clean transfer must go through.
  session.consume_line(".");
  const std::size_t before = delivered.size();
  session.set_max_message_size(0);
  const SmtpTransferResult r =
      smtp_transfer(template_msg, "isp0.example", session);
  EXPECT_TRUE(r.accepted);
  ASSERT_EQ(delivered.size(), before + 1);
  EXPECT_EQ(delivered.back().body, template_msg.body.substr(
                                       0, template_msg.body.size() - 1));
  EXPECT_EQ(delivered.back().headers, template_msg.headers);
  EXPECT_EQ(delivered.back().to, template_msg.to);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmtpSessionFuzzTest,
                         ::testing::Range<std::uint64_t>(90, 106));

}  // namespace
}  // namespace zmail::net
