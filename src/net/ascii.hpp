// Byte classes of the SMTP and address parsers, as constexpr tables.
//
// The parsers once asked libc (std::isalnum, std::isspace), which costs a
// call and a locale lookup per byte.  Nothing in the program calls
// setlocale, so those answer for the "C" locale; the tables below are that
// locale's classes exactly (net_address_test checks all 256 byte values).
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace zmail::net::ascii {

enum : std::uint8_t {
  kSpace = 1,        // " \t\n\v\f\r", std::isspace in the "C" locale
  kAddressChar = 2,  // std::isalnum in the "C" locale, and ".-_+"
};

inline constexpr std::array<std::uint8_t, 256> kClass = [] {
  std::array<std::uint8_t, 256> t{};
  for (int c = '0'; c <= '9'; ++c) t[c] = kAddressChar;
  for (int c = 'A'; c <= 'Z'; ++c) t[c] = kAddressChar;
  for (int c = 'a'; c <= 'z'; ++c) t[c] = kAddressChar;
  for (const char c : {'.', '-', '_', '+'})
    t[static_cast<unsigned char>(c)] = kAddressChar;
  for (const char c : {' ', '\t', '\n', '\v', '\f', '\r'})
    t[static_cast<unsigned char>(c)] = kSpace;
  return t;
}();

constexpr bool is_space(char c) noexcept {
  return kClass[static_cast<unsigned char>(c)] == kSpace;
}
constexpr bool is_address_char(char c) noexcept {
  return kClass[static_cast<unsigned char>(c)] == kAddressChar;
}

// `s` without leading and trailing white space.
constexpr std::string_view trim(std::string_view s) noexcept {
  std::size_t b = 0, e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

}  // namespace zmail::net::ascii
