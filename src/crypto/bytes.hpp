// Byte-buffer helpers shared across the crypto and protocol layers.
//
// Protocol messages are serialized into Bytes before encryption (the paper's
// NCR/DCR operate on opaque data items), so a tiny big-endian reader/writer
// pair is all the wire format needs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace zmail::crypto {

using Bytes = std::vector<std::uint8_t>;

// Big-endian primitive writers.
void put_u8(Bytes& b, std::uint8_t v);
void put_u32(Bytes& b, std::uint32_t v);
void put_u64(Bytes& b, std::uint64_t v);
void put_i64(Bytes& b, std::int64_t v);
// Length-prefixed (u32) byte string.
void put_bytes(Bytes& b, std::span<const std::uint8_t> v);
void put_string(Bytes& b, std::string_view v);
// The low `n` bytes of `v`, big-endian, into a fixed buffer (the byte
// order of the put_* writers, for callers that must not allocate).
inline void store_be(std::uint8_t* p, std::uint64_t v, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i)
    p[i] = static_cast<std::uint8_t>(v >> (8 * (n - 1 - i)));
}
// The inverse: `n` big-endian bytes at `p` as an integer.
inline std::uint64_t load_be(const std::uint8_t* p, std::size_t n) noexcept {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < n; ++i) v = (v << 8) | p[i];
  return v;
}

// Sequential reader over a byte buffer (a Bytes, or a span into one).
// Reads past the end abort (protocol messages in the simulation are never
// truncated unless a test does it on purpose, and those tests use `ok()`).
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> b) noexcept : data_(b) {}

  bool ok() const noexcept { return !failed_; }
  bool at_end() const noexcept { return pos_ == data_.size(); }

  std::uint8_t get_u8() noexcept;
  std::uint32_t get_u32() noexcept;
  std::uint64_t get_u64() noexcept;
  std::int64_t get_i64() noexcept;
  Bytes get_bytes() noexcept;
  // The same byte string as a view into the buffer being read (valid while
  // that buffer is); no copy.
  std::span<const std::uint8_t> get_bytes_view() noexcept;
  std::string get_string() noexcept;
  // The same string as a view into the buffer being read (valid while that
  // buffer is); no copy.
  std::string_view get_string_view() noexcept;

 private:
  bool have(std::size_t n) noexcept;
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

std::string to_hex(const Bytes& b);
Bytes from_hex(std::string_view hex);
Bytes from_string(std::string_view s);

}  // namespace zmail::crypto
