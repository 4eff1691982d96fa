#include "net/email.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace zmail::net {
namespace {

EmailAddress addr(const char* s) { return *parse_address(s); }

TEST(Email, MakeEmailFillsStandardFields) {
  const EmailMessage m =
      make_email(addr("a@x.y"), addr("b@z.w"), "Hello", "body text");
  EXPECT_EQ(m.from.str(), "a@x.y");
  ASSERT_EQ(m.to.size(), 1u);
  EXPECT_EQ(m.to[0].str(), "b@z.w");
  EXPECT_EQ(m.subject(), "Hello");
  EXPECT_EQ(m.body, "body text");
  EXPECT_TRUE(m.header("Message-ID").has_value());
  EXPECT_EQ(m.truth, MailClass::kLegitimate);
}

TEST(Email, MessageIdHashesFromToSubjectBody) {
  // The id is part of the simulated wire and of every modelled byte count,
  // so it must stay the hash of the concatenated string, whatever buffer
  // make_email hashes it through.
  for (const auto& [subject, body] :
       std::vector<std::pair<std::string, std::string>>{
           {"Hello", "body text"}, {"", ""}, {"s", std::string(300, 'b')}}) {
    const EmailAddress from = addr("u12@isp3.example");
    const EmailAddress to = addr("u4@isp0.example");
    const EmailMessage m = make_email(from, to, subject, body);
    const std::string want =
        "<" +
        std::to_string(std::hash<std::string>{}(from.str() + to.str() +
                                                 subject + body)) +
        "@isp3.example>";
    EXPECT_EQ(m.header("Message-ID"), want);
    ASSERT_EQ(m.headers.size(), 2u);
    EXPECT_EQ(m.headers[0].first, "Subject");
    EXPECT_EQ(m.headers[1].first, "Message-ID");
  }
}

TEST(Email, HeaderLookupIsCaseInsensitive) {
  EmailMessage m = make_email(addr("a@x.y"), addr("b@z.w"), "S", "B");
  EXPECT_EQ(m.header("subject").value(), "S");
  EXPECT_EQ(m.header("SUBJECT").value(), "S");
  EXPECT_FALSE(m.header("X-Missing").has_value());
}

TEST(Email, SetHeaderOverwritesExisting) {
  EmailMessage m = make_email(addr("a@x.y"), addr("b@z.w"), "S", "B");
  m.set_header("Subject", "S2");
  EXPECT_EQ(m.subject(), "S2");
  // No duplicate subject headers.
  int count = 0;
  for (const auto& [k, v] : m.headers)
    if (k == "Subject") ++count;
  EXPECT_EQ(count, 1);
}

TEST(Email, SerializeWireFormatIsPinned) {
  // Payloads are simulated datagrams (byte counters, WAL records), so the
  // layout is fixed: length-prefixed "local@domain" strings, counted lists,
  // body, class byte, and the trace tail only when nonzero.
  EmailMessage m = make_email(addr("u1@isp0.example"), addr("u2@isp1.example"),
                              "Subj", "b", MailClass::kSpam);
  m.to.push_back(addr("x@y.z"));
  for (const std::uint64_t trace : {std::uint64_t{0}, std::uint64_t{42}}) {
    m.trace_id = trace;
    crypto::Bytes want;
    crypto::put_string(want, "u1@isp0.example");
    crypto::put_u32(want, 2);
    crypto::put_string(want, "u2@isp1.example");
    crypto::put_string(want, "x@y.z");
    crypto::put_u32(want, static_cast<std::uint32_t>(m.headers.size()));
    for (const auto& [k, v] : m.headers) {
      crypto::put_string(want, k);
      crypto::put_string(want, v);
    }
    crypto::put_string(want, "b");
    crypto::put_u8(want, static_cast<std::uint8_t>(MailClass::kSpam));
    if (trace != 0) crypto::put_u64(want, trace);
    EXPECT_EQ(m.serialize(), want) << "trace " << trace;
  }
}

TEST(Email, SerializeAppendWritesTheSameBytesAfterWhatIsThere) {
  EmailMessage m = make_email(addr("u1@isp0.example"), addr("u2@isp1.example"),
                              "Subj", "body", MailClass::kLegitimate);
  for (const std::uint64_t trace : {std::uint64_t{0}, std::uint64_t{7}}) {
    m.trace_id = trace;
    crypto::Bytes out = {0xAA, 0xBB};
    m.serialize_append(out);
    const crypto::Bytes whole = m.serialize();
    ASSERT_EQ(out.size(), 2 + whole.size());
    EXPECT_EQ(out[0], 0xAA);
    EXPECT_EQ(out[1], 0xBB);
    EXPECT_EQ(crypto::Bytes(out.begin() + 2, out.end()), whole)
        << "trace " << trace;
  }
}

TEST(Email, SerializeRoundTripsEverything) {
  EmailMessage m = make_email(addr("u1@isp0.example"), addr("u2@isp1.example"),
                              "Subj", "line1\nline2", MailClass::kNewsletter);
  m.set_header("X-Custom", "value with spaces");
  m.to.push_back(addr("u3@isp1.example"));
  const auto back = EmailMessage::deserialize(m.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->from, m.from);
  EXPECT_EQ(back->to, m.to);
  EXPECT_EQ(back->headers, m.headers);
  EXPECT_EQ(back->body, m.body);
  EXPECT_EQ(back->truth, MailClass::kNewsletter);
}

TEST(Email, DeserializeRejectsGarbage) {
  EXPECT_FALSE(EmailMessage::deserialize({}).has_value());
  EXPECT_FALSE(
      EmailMessage::deserialize({0x01, 0x02, 0x03}).has_value());
}

TEST(Email, DeserializeRejectsBadAddress) {
  EmailMessage m = make_email(addr("a@x.y"), addr("b@z.w"), "S", "B");
  crypto::Bytes wire = m.serialize();
  // Corrupt the first address's first character to '@'.
  // Layout: u32 length, then the string.
  wire[4] = '@';
  EXPECT_FALSE(EmailMessage::deserialize(wire).has_value());
}

// Two messages decoded the same way compare equal field for field.
void expect_same_message(const EmailMessage& got, const EmailMessage& want) {
  EXPECT_EQ(got.from, want.from);
  EXPECT_EQ(got.to, want.to);
  EXPECT_EQ(got.headers, want.headers);
  EXPECT_EQ(got.body, want.body);
  EXPECT_EQ(got.truth, want.truth);
  EXPECT_EQ(got.trace_id, want.trace_id);
}

// deserialize_into overwrites a message in place, reusing its storage: a
// 1-recipient/1-header message decoded into a slot that held 2 recipients,
// 4 headers and a trace tail must leave nothing of them behind, and match
// a fresh decode; so must the growth back.
TEST(Email, DeserializeIntoReusedMessageLeavesNothingStale) {
  EmailMessage big = make_email(addr("u1@isp0.example"),
                                addr("u2@isp1.example"), "a longer subject",
                                std::string(300, 'b'), MailClass::kSpam);
  big.to.push_back(addr("u3@isp2.example"));
  big.set_header("X-One", "1");
  big.set_header("X-Two", "2");
  big.trace_id = 77;
  EmailMessage small;
  small.from = addr("a@b.c");
  small.to = {addr("d@e.f")};
  small.headers = {{"Subject", "s"}};
  small.body = "x";

  EmailMessage slot;
  ASSERT_TRUE(EmailMessage::deserialize_into(big.serialize(), slot));
  ASSERT_EQ(slot.to.size(), 2u);
  ASSERT_EQ(slot.headers.size(), 4u);
  ASSERT_EQ(slot.trace_id, 77u);
  expect_same_message(slot, *EmailMessage::deserialize(big.serialize()));

  ASSERT_TRUE(EmailMessage::deserialize_into(small.serialize(), slot));
  ASSERT_EQ(slot.to.size(), 1u);
  ASSERT_EQ(slot.headers.size(), 1u);
  EXPECT_EQ(slot.trace_id, 0u);
  EXPECT_EQ(slot.truth, MailClass::kLegitimate);
  expect_same_message(slot, small);
  expect_same_message(slot, *EmailMessage::deserialize(small.serialize()));

  ASSERT_TRUE(EmailMessage::deserialize_into(big.serialize(), slot));
  expect_same_message(slot, big);

  // Malformed wires are refused in place as well.
  EXPECT_FALSE(EmailMessage::deserialize_into({0x01, 0x02, 0x03}, slot));
  crypto::Bytes bad = small.serialize();
  bad[4] = '@';
  EXPECT_FALSE(EmailMessage::deserialize_into(bad, slot));
}

TEST(Email, Rfc822RenderingHasHeadersBlankLineBody) {
  EmailMessage m = make_email(addr("a@x.y"), addr("b@z.w"), "S", "the body");
  const std::string text = m.to_rfc822();
  EXPECT_NE(text.find("From: a@x.y\r\n"), std::string::npos);
  EXPECT_NE(text.find("To: b@z.w\r\n"), std::string::npos);
  EXPECT_NE(text.find("Subject: S\r\n"), std::string::npos);
  EXPECT_NE(text.find("\r\n\r\nthe body"), std::string::npos);
}

TEST(Email, WireSizeGrowsWithContent) {
  EmailMessage small = make_email(addr("a@x.y"), addr("b@z.w"), "s", "b");
  EmailMessage big = make_email(addr("a@x.y"), addr("b@z.w"), "s",
                                std::string(10'000, 'x'));
  EXPECT_GT(big.wire_size(), small.wire_size() + 9'000);
}

// Property: arbitrary header/body content survives binary serialization.
class EmailWireFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EmailWireFuzzTest, RandomMessagesRoundTrip) {
  zmail::Rng rng(GetParam());
  for (int m = 0; m < 30; ++m) {
    EmailMessage msg;
    msg.from = EmailAddress{
        std::string("u").append(std::to_string(rng.next_below(100))),
        "isp" + std::to_string(rng.next_below(10)) + ".example"};
    const std::size_t nto = 1 + rng.next_below(3);
    for (std::size_t r = 0; r < nto; ++r)
      msg.to.push_back(EmailAddress{
          std::string("u").append(std::to_string(rng.next_below(100))),
          "isp" + std::to_string(rng.next_below(10)) + ".example"});
    const std::size_t nh = rng.next_below(6);
    for (std::size_t h = 0; h < nh; ++h) {
      std::string value;
      for (std::size_t c = 0; c < rng.next_below(30); ++c)
        value += static_cast<char>(32 + rng.next_below(95));  // printable
      msg.headers.emplace_back(std::string("X-H").append(std::to_string(h)),
                               value);
    }
    std::string body;
    for (std::size_t c = 0; c < rng.next_below(500); ++c)
      body += static_cast<char>(rng.next_below(256));  // any byte
    msg.body = body;
    msg.truth = static_cast<MailClass>(rng.next_below(6));

    const auto back = EmailMessage::deserialize(msg.serialize());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->from, msg.from);
    EXPECT_EQ(back->to, msg.to);
    EXPECT_EQ(back->headers, msg.headers);
    EXPECT_EQ(back->body, msg.body);
    EXPECT_EQ(back->truth, msg.truth);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EmailWireFuzzTest,
                         ::testing::Range<std::uint64_t>(60, 66));

TEST(Email, MailClassNames) {
  EXPECT_EQ(mail_class_name(MailClass::kSpam), "spam");
  EXPECT_EQ(mail_class_name(MailClass::kLegitimate), "legitimate");
  EXPECT_EQ(mail_class_name(MailClass::kAcknowledgment), "acknowledgment");
  EXPECT_EQ(mail_class_name(MailClass::kVirus), "virus");
}

}  // namespace
}  // namespace zmail::net
