// Email addresses: `local@domain` with RFC-821-ish validation.
//
// In the simulation a domain names an ISP ("isp3.example") and a local part
// names a user within it ("u17"); decode_user_address maps an address back
// to its ISP and user indices, which are the simulated host and user.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace zmail::net {

struct EmailAddress {
  std::string local;
  std::string domain;

  std::string str() const { return local + "@" + domain; }

  bool operator==(const EmailAddress&) const = default;
  auto operator<=>(const EmailAddress&) const = default;
};

// An address whose parts are views into a buffer someone else owns (a
// datagram payload): valid while that buffer is.
struct AddressView {
  std::string_view local;
  std::string_view domain;
};

// Parses "local@domain"; rejects empty parts, whitespace, angle brackets and
// a second '@'.  Returns nullopt on malformed input.
std::optional<EmailAddress> parse_address(std::string_view s);

// The same parse into an existing address, reusing its strings' capacity.
// On malformed input it returns false and leaves `out` untouched.
bool assign_address(std::string_view s, EmailAddress& out);
// The same check, splitting `s` into views instead of copying it.
bool assign_address(std::string_view s, AddressView& out);
// The bracketed form used in SMTP paths, "<local@domain>", parsed the same
// way into `out`.
bool assign_path(std::string_view s, EmailAddress& out);

// Convenience constructor for simulated populations: user `u` at ISP `i`.
EmailAddress make_user_address(std::size_t isp_index, std::size_t user_index);

// The reverse mapping; returns false (outputs untouched) unless the address
// is exactly what make_user_address prints: "u<k>@isp<i>.example" with <k>
// and <i> plain decimal, without sign, spaces or leading zeros.
bool decode_user_address(const EmailAddress& a, std::size_t& isp_index,
                         std::size_t& user_index);

// Domain of the simulated ISP `i`.
std::string isp_domain(std::size_t isp_index);

}  // namespace zmail::net
