#include "net/address.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <initializer_list>

#include "net/ascii.hpp"

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

TEST(Address, AssignPathRequiresAngleBrackets) {
  EmailAddress a;
  EXPECT_TRUE(assign_path("<bob@host.dom>", a));
  EXPECT_EQ(a, (EmailAddress{"bob", "host.dom"}));
  for (std::string_view bad :
       {"bob@host.dom", "<bob@host.dom", "bob@host.dom>", "<>"}) {
    EXPECT_FALSE(assign_path(bad, a)) << bad;
    EXPECT_EQ(a, (EmailAddress{"bob", "host.dom"})) << bad;  // untouched
  }
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
  EXPECT_EQ(isp_domain(9), "isp9.example");
  EXPECT_EQ(isp_domain(10), "isp10.example");
  EXPECT_EQ(isp_domain(1'000'000), "isp1000000.example");
  EXPECT_EQ(isp_domain(SIZE_MAX), "isp18446744073709551615.example");
}

TEST(Address, SimulatedAddressStringsArePinned) {
  struct Want {
    std::size_t isp, user;
    const char* local;
    const char* domain;
  };
  for (const Want& w : std::initializer_list<Want>{
           {0, 0, "u0", "isp0.example"},
           {3, 17, "u17", "isp3.example"},
           {63, 999'999, "u999999", "isp63.example"},
           {10, 10, "u10", "isp10.example"},
           {SIZE_MAX, SIZE_MAX, "u18446744073709551615",
            "isp18446744073709551615.example"},
       }) {
    const EmailAddress a = make_user_address(w.isp, w.user);
    EXPECT_EQ(a.local, w.local);
    EXPECT_EQ(a.domain, w.domain);
    EXPECT_EQ(a.local.size(), std::string(w.local).size());  // no stray NUL
  }
}

// The byte-class tables must equal the "C" locale's classes (nothing in
// the program calls setlocale), for every byte value.
TEST(Address, ByteClassTablesMatchTheCLocale) {
  for (int c = 0; c < 256; ++c) {
    const char ch = static_cast<char>(c);
    SCOPED_TRACE(c);
    EXPECT_EQ(ascii::is_space(ch), std::isspace(c) != 0);
    const bool address_char =
        std::isalnum(c) != 0 || ch == '.' || ch == '-' || ch == '_' || ch == '+';
    EXPECT_EQ(ascii::is_address_char(ch), address_char);

    // trim() strips exactly the isspace bytes, from either end.
    const std::string padded = std::string(1, ch) + "x" + std::string(1, ch);
    const std::string_view trimmed = ascii::trim(padded);
    EXPECT_EQ(trimmed, std::isspace(c) ? std::string_view("x")
                                       : std::string_view(padded));
    EXPECT_EQ(ascii::trim(std::string_view(&ch, 1)).empty(),
              std::isspace(c) != 0);

    // An address part accepts exactly the isalnum bytes and ".-_+" (a dot
    // not at either end of a part), checked in the local part and in the
    // domain; '@' splits instead.
    const std::string in_local = std::string("a") + ch + "b@host.example";
    const std::string in_domain = std::string("ab@h") + ch + "t.example";
    EXPECT_EQ(parse_address(in_local).has_value(), address_char);
    EXPECT_EQ(parse_address(in_domain).has_value(), address_char);
    EmailAddress owned;
    AddressView view;
    EXPECT_EQ(assign_address(in_local, view), address_char);
    EXPECT_EQ(assign_address(in_local, owned), address_char);
    if (address_char) {
      EXPECT_EQ(view.local, owned.local);
      EXPECT_EQ(view.domain, owned.domain);
    }
  }
}

TEST(Address, ViewSplitMatchesTheOwnedParse) {
  for (const char* s :
       {"a@b", "a.b@c.d", "a..b@c", ".a@b", "a.@b", "a@.b", "a@b.", "@b",
        "a@", "a@b@c", "", "@", "a", "a b@c", "a@b c", "u1@isp0.example",
        "x+y_z-w@q.r"}) {
    EmailAddress owned{"keep", "keep"};
    AddressView view{"keep", "keep"};
    const bool ok = assign_address(s, owned);
    EXPECT_EQ(assign_address(s, view), ok) << s;
    if (ok) {
      EXPECT_EQ(view.local, owned.local) << s;
      EXPECT_EQ(view.domain, owned.domain) << s;
    } else {
      EXPECT_EQ(view.local, "keep") << s;  // untouched on failure
      EXPECT_EQ(owned.local, "keep") << s;
    }
  }
}

}  // namespace
}  // namespace zmail::net
