#include "net/address.hpp"

#include <gtest/gtest.h>

#include <initializer_list>

namespace zmail::net {
namespace {

TEST(Address, ParsesSimpleAddress) {
  const auto a = parse_address("alice@example.com");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->local, "alice");
  EXPECT_EQ(a->domain, "example.com");
  EXPECT_EQ(a->str(), "alice@example.com");
}

TEST(Address, AcceptsCommonLocalPartCharacters) {
  for (const char* s : {"a.b@x.y", "a-b@x.y", "a_b@x.y", "a+tag@x.y",
                        "u17@isp3.example", "A1@B2.c3"}) {
    EXPECT_TRUE(parse_address(s).has_value()) << s;
  }
}

class BadAddressTest : public ::testing::TestWithParam<const char*> {};

TEST_P(BadAddressTest, Rejected) {
  EXPECT_FALSE(parse_address(GetParam()).has_value()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, BadAddressTest,
    ::testing::Values("", "@", "a@", "@b", "ab", "a@b@c", "a b@c.d",
                      "a@b c", "<a@b>", "a@.b", "a@b.", ".a@b", "a..b@c",
                      "a@b..c", "a!b@c"));

TEST(Address, ParsePathRequiresAngleBrackets) {
  EXPECT_TRUE(parse_path("<bob@host.dom>").has_value());
  EXPECT_FALSE(parse_path("bob@host.dom").has_value());
  EXPECT_FALSE(parse_path("<bob@host.dom").has_value());
  EXPECT_FALSE(parse_path("bob@host.dom>").has_value());
  EXPECT_FALSE(parse_path("<>").has_value());
}

TEST(Address, Ordering) {
  const EmailAddress a{"a", "x.y"}, b{"b", "x.y"};
  EXPECT_LT(a, b);
  EXPECT_EQ(a, (EmailAddress{"a", "x.y"}));
}

TEST(Address, SimulatedAddressRoundTrip) {
  for (std::size_t isp : {0u, 3u, 17u}) {
    for (std::size_t user : {0u, 5u, 999u}) {
      const EmailAddress a = make_user_address(isp, user);
      std::size_t i = 0, u = 0;
      ASSERT_TRUE(decode_user_address(a, i, u)) << a.str();
      EXPECT_EQ(i, isp);
      EXPECT_EQ(u, user);
    }
  }
}

TEST(Address, DecodeRejectsForeignShapes) {
  std::size_t i = 0, u = 0;
  EXPECT_FALSE(decode_user_address({"alice", "example.com"}, i, u));
  EXPECT_FALSE(decode_user_address({"u1", "example.com"}, i, u));
  EXPECT_FALSE(decode_user_address({"alice", "isp1.example"}, i, u));
  EXPECT_FALSE(decode_user_address({"u", "isp1.example"}, i, u));
  // Only the exact inverse of make_user_address decodes: junk, signs,
  // spaces and leading zeros must not alias a malformed address onto a
  // real user.
  for (const EmailAddress& a : std::initializer_list<EmailAddress>{
           {"u12abc", "isp3.example"},
           {"u12", "isp3x.example"},
           {"u12abc", "isp3x.example"},
           {"u007", "isp1.example"},
           {"u7", "isp01.example"},
           {"u00", "isp1.example"},
           {"u 7", "isp1.example"},
           {"u7 ", "isp1.example"},
           {"u+7", "isp1.example"},
           {"u-1", "isp1.example"},
           {"u7", "isp 1.example"},
           {"u7", "isp+1.example"},
           {"u7", "isp-1.example"},
           {"u7", "isp.example"},
           {"u7", "isp1.sub.example"},
           {"u7", "isp1.example.com"},
           {"u7", "ISP1.example"},
           {"U7", "isp1.example"},
           {"u99999999999999999999999", "isp1.example"},
           {"u7", "isp99999999999999999999999.example"},
       }) {
    i = 123;
    u = 456;
    EXPECT_FALSE(decode_user_address(a, i, u)) << a.str();
    EXPECT_EQ(i, 123u) << a.str();  // outputs untouched on failure
    EXPECT_EQ(u, 456u) << a.str();
  }
  // Zero itself is canonical.
  ASSERT_TRUE(decode_user_address({"u0", "isp0.example"}, i, u));
  EXPECT_EQ(i, 0u);
  EXPECT_EQ(u, 0u);
}

TEST(Address, IspDomainShape) {
  EXPECT_EQ(isp_domain(0), "isp0.example");
  EXPECT_EQ(isp_domain(42), "isp42.example");
}

}  // namespace
}  // namespace zmail::net
