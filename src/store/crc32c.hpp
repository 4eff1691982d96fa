// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78).
//
// The durable store frames every WAL record and snapshot section with a
// CRC32C so that recovery can distinguish "end of valid log" from "valid
// record" at every byte.  Castagnoli is the storage-industry choice (iSCSI,
// ext4, RocksDB) because its error-detection properties at 32 bits are
// strictly better than the zlib polynomial for the short records a WAL
// carries.  The CRC is a property of the bytes, not of the build: on x86-64
// CPUs with SSE4.2 it runs on the crc32 instruction (selected once per
// process), elsewhere on a software slice-by-8 table walk, and both give
// the same value (store/crc32c_impl.hpp; pinned by the store WAL tests).
#pragma once

#include <cstddef>
#include <cstdint>

namespace zmail::store {

// CRC of `data[0..len)`, starting from `seed` (pass the previous return
// value to extend a running CRC over discontiguous buffers; 0 for a fresh
// one).  The seed is the *finalized* CRC, not the internal inverted state,
// so crc32c(b, crc32c(a)) == crc32c(a || b).
std::uint32_t crc32c(const void* data, std::size_t len,
                     std::uint32_t seed = 0) noexcept;

}  // namespace zmail::store
