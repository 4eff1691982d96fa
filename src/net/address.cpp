#include "net/address.hpp"

#include <cctype>
#include <charconv>

namespace zmail::net {

namespace {
bool valid_part(std::string_view part) noexcept {
  if (part.empty()) return false;
  for (char c : part) {
    const auto u = static_cast<unsigned char>(c);
    if (std::isalnum(u) || c == '.' || c == '-' || c == '_' || c == '+')
      continue;
    return false;
  }
  // Dots must not lead, trail, or double.
  if (part.front() == '.' || part.back() == '.') return false;
  for (std::size_t i = 1; i < part.size(); ++i)
    if (part[i] == '.' && part[i - 1] == '.') return false;
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
}  // namespace

bool assign_address(std::string_view s, EmailAddress& out) {
  const std::size_t at = s.find('@');
  if (at == std::string_view::npos) return false;
  if (s.find('@', at + 1) != std::string_view::npos) return false;
  const std::string_view local = s.substr(0, at), domain = s.substr(at + 1);
  if (!valid_part(local) || !valid_part(domain)) return false;
  out.local.assign(local);
  out.domain.assign(domain);
  return true;
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
  return EmailAddress{std::string("u").append(std::to_string(user_index)),
                      isp_domain(isp_index)};
}

std::string isp_domain(std::size_t isp_index) {
  return "isp" + std::to_string(isp_index) + ".example";
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
