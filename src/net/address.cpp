#include "net/address.hpp"

#include <algorithm>
#include <charconv>

#include "net/ascii.hpp"

namespace zmail::net {

namespace {
// Splits "local@domain" in one pass: exactly one '@', and each part
// nonempty, made of address characters only, with no dot leading,
// trailing or doubled.
bool split_address(std::string_view s, std::string_view& local,
                   std::string_view& domain) noexcept {
  std::size_t at = std::string_view::npos;
  char prev = '@';  // the previous character, '@' at a part's start
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '@') {
      if (at != std::string_view::npos || prev == '@' || prev == '.')
        return false;
      at = i;
    } else if (c == '.' ? prev == '@' || prev == '.'
                        : !ascii::is_address_char(c)) {
      return false;
    }
    prev = c;
  }
  if (at == std::string_view::npos || prev == '@' || prev == '.') return false;
  local = s.substr(0, at);
  domain = s.substr(at + 1);
  return true;
}

// Parses exactly what std::to_string prints for a size_t: digits only, no
// sign, no leading zero (except "0" itself), no overflow.
bool parse_canonical_index(std::string_view s, std::size_t& out) noexcept {
  if (s.empty() || (s.size() > 1 && s.front() == '0')) return false;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, out);
  return ec == std::errc() && ptr == end;
}

std::size_t decimal_digits(std::size_t v) noexcept {
  std::size_t n = 1;
  for (; v >= 10; v /= 10) ++n;
  return n;
}

// prefix + decimal(v) + suffix, printed straight into the result.
std::string print_index(std::string_view prefix, std::size_t v,
                        std::string_view suffix) {
  std::string out(prefix.size() + decimal_digits(v) + suffix.size(), '\0');
  char* p = std::copy(prefix.begin(), prefix.end(), out.data());
  p = std::to_chars(p, out.data() + out.size(), v).ptr;
  std::copy(suffix.begin(), suffix.end(), p);
  return out;
}
}  // namespace

bool assign_address(std::string_view s, EmailAddress& out) {
  std::string_view local, domain;
  if (!split_address(s, local, domain)) return false;
  out.local.assign(local);
  out.domain.assign(domain);
  return true;
}

bool assign_address(std::string_view s, AddressView& out) {
  return split_address(s, out.local, out.domain);
}

bool assign_path(std::string_view s, EmailAddress& out) {
  if (s.size() < 2 || s.front() != '<' || s.back() != '>') return false;
  return assign_address(s.substr(1, s.size() - 2), out);
}

std::optional<EmailAddress> parse_address(std::string_view s) {
  EmailAddress a;
  if (!assign_address(s, a)) return std::nullopt;
  return a;
}

std::optional<EmailAddress> parse_path(std::string_view s) {
  EmailAddress a;
  if (!assign_path(s, a)) return std::nullopt;
  return a;
}

EmailAddress make_user_address(std::size_t isp_index, std::size_t user_index) {
  return EmailAddress{print_index("u", user_index, {}), isp_domain(isp_index)};
}

std::string isp_domain(std::size_t isp_index) {
  return print_index("isp", isp_index, ".example");
}

bool decode_user_address(const EmailAddress& a, std::size_t& isp_index,
                         std::size_t& user_index) {
  // The exact inverse of make_user_address: "u<k>@isp<i>.example".
  constexpr std::string_view kPrefix = "isp", kSuffix = ".example";
  const std::string_view local = a.local, domain = a.domain;
  if (local.empty() || local.front() != 'u') return false;
  if (domain.size() <= kPrefix.size() + kSuffix.size() ||
      domain.substr(0, kPrefix.size()) != kPrefix ||
      domain.substr(domain.size() - kSuffix.size()) != kSuffix)
    return false;
  std::size_t isp = 0, user = 0;
  if (!parse_canonical_index(local.substr(1), user) ||
      !parse_canonical_index(
          domain.substr(kPrefix.size(),
                        domain.size() - kPrefix.size() - kSuffix.size()),
          isp))
    return false;
  isp_index = isp;
  user_index = user;
  return true;
}

}  // namespace zmail::net
