#include "crypto/bytes.hpp"

#include "util/assert.hpp"

namespace zmail::crypto {

void put_u8(Bytes& b, std::uint8_t v) { b.push_back(v); }

void put_u32(Bytes& b, std::uint32_t v) {
  b.push_back(static_cast<std::uint8_t>(v >> 24));
  b.push_back(static_cast<std::uint8_t>(v >> 16));
  b.push_back(static_cast<std::uint8_t>(v >> 8));
  b.push_back(static_cast<std::uint8_t>(v));
}

void put_u64(Bytes& b, std::uint64_t v) {
  put_u32(b, static_cast<std::uint32_t>(v >> 32));
  put_u32(b, static_cast<std::uint32_t>(v));
}

void put_i64(Bytes& b, std::int64_t v) {
  put_u64(b, static_cast<std::uint64_t>(v));
}

void put_bytes(Bytes& b, std::span<const std::uint8_t> v) {
  put_u32(b, static_cast<std::uint32_t>(v.size()));
  b.insert(b.end(), v.begin(), v.end());
}

void put_string(Bytes& b, std::string_view v) {
  put_u32(b, static_cast<std::uint32_t>(v.size()));
  b.insert(b.end(), v.begin(), v.end());
}

bool ByteReader::have(std::size_t n) noexcept {
  if (failed_ || data_.size() - pos_ < n) {
    failed_ = true;
    return false;
  }
  return true;
}

std::uint8_t ByteReader::get_u8() noexcept {
  if (!have(1)) return 0;
  return data_[pos_++];
}

std::uint32_t ByteReader::get_u32() noexcept {
  if (!have(4)) return 0;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = (v << 8) | data_[pos_++];
  return v;
}

std::uint64_t ByteReader::get_u64() noexcept {
  const std::uint64_t hi = get_u32();
  const std::uint64_t lo = get_u32();
  return (hi << 32) | lo;
}

std::int64_t ByteReader::get_i64() noexcept {
  return static_cast<std::int64_t>(get_u64());
}

Bytes ByteReader::get_bytes() noexcept {
  const std::span<const std::uint8_t> v = get_bytes_view();
  return Bytes(v.begin(), v.end());
}

std::span<const std::uint8_t> ByteReader::get_bytes_view() noexcept {
  const std::uint32_t n = get_u32();
  if (!have(n)) return {};
  const std::span<const std::uint8_t> out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

std::string ByteReader::get_string() noexcept {
  return std::string(get_string_view());
}

std::string_view ByteReader::get_string_view() noexcept {
  const std::uint32_t n = get_u32();
  if (!have(n)) return {};
  const std::string_view out(
      reinterpret_cast<const char*>(data_.data()) + pos_, n);
  pos_ += n;
  return out;
}

std::string to_hex(const Bytes& b) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(b.size() * 2);
  for (std::uint8_t v : b) {
    out += digits[v >> 4];
    out += digits[v & 0xF];
  }
  return out;
}

Bytes from_hex(std::string_view hex) {
  ZMAIL_ASSERT(hex.size() % 2 == 0);
  auto val = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    ZMAIL_ASSERT_MSG(false, "invalid hex digit");
  };
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2)
    out.push_back(
        static_cast<std::uint8_t>((val(hex[i]) << 4) | val(hex[i + 1])));
  return out;
}

Bytes from_string(std::string_view s) { return Bytes(s.begin(), s.end()); }

}  // namespace zmail::crypto
