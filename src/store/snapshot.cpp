#include "store/snapshot.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstring>

#include "store/crc32c.hpp"

namespace zmail::store {

namespace {

constexpr std::uint8_t kMagic[4] = {'Z', 'S', 'N', 'P'};
constexpr std::size_t kHeaderSize = 36;
constexpr std::size_t kSectionPrefix = 12;    // id + len
constexpr std::size_t kSectionTrailer = 4;    // crc
constexpr std::size_t kSectionOverhead = kSectionPrefix + kSectionTrailer;
constexpr std::uint64_t kMaxSection = 1ull << 32;

std::uint32_t read_u32(const std::uint8_t* p) noexcept {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | p[3];
}

std::uint64_t read_u64(const std::uint8_t* p) noexcept {
  return (static_cast<std::uint64_t>(read_u32(p)) << 32) | read_u32(p + 4);
}

// The one framing routine.  Writes the header and every section's prefix
// and CRC trailer into `frame` (36 + 16 bytes per section) and lists the
// encoded image in file order as `pieces`: framing bytes out of `frame`,
// payloads borrowed from the sections.  encode_snapshot concatenates the
// pieces and write_snapshot_file hands them to writev, so the in-memory
// and on-disk images cannot diverge.
void frame_snapshot(const SnapshotData& snap, crypto::Bytes& frame,
                    std::vector<iovec>& pieces) {
  frame.resize(kHeaderSize + kSectionOverhead * snap.sections.size());
  pieces.clear();
  pieces.reserve(1 + 3 * snap.sections.size());
  std::uint8_t* h = frame.data();
  std::memcpy(h, kMagic, 4);
  crypto::store_be(h + 4, snap.meta.version, 4);
  crypto::store_be(h + 8, snap.meta.features, 4);
  crypto::store_be(h + 12, snap.meta.next_lsn, 8);
  crypto::store_be(h + 20, snap.meta.sim_time_us, 8);
  crypto::store_be(h + 28, snap.sections.size(), 4);
  crypto::store_be(h + 32, crc32c(h, 32), 4);
  pieces.push_back(iovec{h, kHeaderSize});
  std::uint8_t* f = h + kHeaderSize;
  for (const SnapshotSection& s : snap.sections) {
    crypto::store_be(f, s.id, 4);
    crypto::store_be(f + 4, s.payload.size(), 8);
    pieces.push_back(iovec{f, kSectionPrefix});
    // writev never writes through iov_base; the cast only meets its type.
    pieces.push_back(iovec{const_cast<std::uint8_t*>(s.payload.data()),
                           s.payload.size()});
    f += kSectionPrefix;
    crypto::store_be(f, crc32c(s.payload.data(), s.payload.size()), 4);
    pieces.push_back(iovec{f, kSectionTrailer});
    f += kSectionTrailer;
  }
}

// Writes every piece to `fd`, resuming after short writes and EINTR.
bool write_all(int fd, std::vector<iovec>& pieces) {
  iovec* iov = pieces.data();
  std::size_t left = pieces.size();
  while (left > 0) {
    if (iov->iov_len == 0) {
      ++iov;
      --left;
      continue;
    }
    const ssize_t n = ::writev(
        fd, iov, static_cast<int>(std::min<std::size_t>(left, IOV_MAX)));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    auto done = static_cast<std::size_t>(n);
    for (; left > 0 && done >= iov->iov_len; ++iov, --left)
      done -= iov->iov_len;
    if (done > 0) {
      iov->iov_base = static_cast<std::uint8_t*>(iov->iov_base) + done;
      iov->iov_len -= done;
    }
  }
  return true;
}

// fsyncs the directory holding `path`, which POSIX requires before a
// rename into it survives power loss.
bool sync_parent_dir(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"
                                                     : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

}  // namespace

std::uint64_t encoded_snapshot_size(const SnapshotData& snap) noexcept {
  std::uint64_t n = kHeaderSize;
  for (const SnapshotSection& s : snap.sections)
    n += kSectionOverhead + s.payload.size();
  return n;
}

crypto::Bytes encode_snapshot(const SnapshotData& snap) {
  crypto::Bytes frame;
  std::vector<iovec> pieces;
  frame_snapshot(snap, frame, pieces);
  crypto::Bytes out;
  out.reserve(encoded_snapshot_size(snap));
  for (const iovec& v : pieces) {
    const auto* p = static_cast<const std::uint8_t*>(v.iov_base);
    out.insert(out.end(), p, p + v.iov_len);
  }
  return out;
}

StoreStatus decode_snapshot(std::span<const std::uint8_t> image,
                            SnapshotData& out) {
  out = SnapshotData{};
  const std::uint8_t* data = image.data();
  const std::size_t size = image.size();
  if (size < kHeaderSize)
    return size == 0 ? StoreStatus::kNotFound : StoreStatus::kTruncated;
  if (std::memcmp(data, kMagic, 4) != 0) return StoreStatus::kBadMagic;
  if (read_u32(data + 32) != crc32c(data, 32)) return StoreStatus::kCorrupt;
  SnapshotMeta& meta = out.meta;
  meta.version = read_u32(data + 4);
  if (meta.version != kSnapshotVersion) return StoreStatus::kUnknownVersion;
  meta.features = read_u32(data + 8);
  if ((meta.features & ~kSupportedFeatures) != 0)
    return StoreStatus::kUnknownFeature;
  meta.next_lsn = read_u64(data + 12);
  meta.sim_time_us = read_u64(data + 20);
  const std::uint32_t count = read_u32(data + 28);

  std::size_t pos = kHeaderSize;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (size - pos < kSectionOverhead) return StoreStatus::kTruncated;
    const std::uint32_t id = read_u32(data + pos);
    const std::uint64_t len = read_u64(data + pos + 4);
    if (len > kMaxSection) return StoreStatus::kCorrupt;
    if (size - pos - kSectionOverhead < len) return StoreStatus::kTruncated;
    const std::uint8_t* payload = data + pos + kSectionPrefix;
    if (read_u32(payload + len) != crc32c(payload, len))
      return StoreStatus::kCorrupt;
    out.sections.push_back(SnapshotSection{id, {payload, len}});
    pos += kSectionOverhead + len;
  }
  // The grammar ends at the last section; anything after it is corruption
  // (or a rewrite that was never trimmed).
  if (pos != size) return StoreStatus::kCorrupt;
  return StoreStatus::kOk;
}

StoreStatus write_snapshot_file(const std::string& path,
                                const SnapshotData& snap, bool fsync_data,
                                std::string* error) {
  crypto::Bytes frame;
  std::vector<iovec> pieces;
  frame_snapshot(snap, frame, pieces);
  const std::string tmp = path + ".tmp";
  const auto fail = [&](const char* what, int fd) {
    const int err = errno;
    if (error) *error = std::string("snapshot: ") + what + " " + tmp + ": " +
                        std::strerror(err);
    if (fd >= 0) ::close(fd);
    ::unlink(tmp.c_str());
    return StoreStatus::kIoError;
  };
  // No O_TRUNC: the spare left by the previous exchange is overwritten in
  // place and then trimmed, so its blocks are reused rather than freed.
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return fail("open", -1);
  if (!write_all(fd, pieces)) return fail("write", fd);
  if (::ftruncate(fd, static_cast<off_t>(encoded_snapshot_size(snap))) != 0)
    return fail("ftruncate", fd);
  if (fsync_data && ::fsync(fd) != 0) return fail("fsync", fd);
  ::close(fd);
  // Swap the new image in; the previous snapshot becomes the next spare.
  // A plain rename is the first write's path (no `path` yet) and the
  // fallback on filesystems without RENAME_EXCHANGE.
  if (::renameat2(AT_FDCWD, tmp.c_str(), AT_FDCWD, path.c_str(),
                  RENAME_EXCHANGE) != 0) {
    if (errno != ENOENT && errno != EINVAL && errno != ENOSYS)
      return fail("exchange", -1);
    if (::rename(tmp.c_str(), path.c_str()) != 0) return fail("rename", -1);
  }
  if (fsync_data && !sync_parent_dir(path)) {
    if (error)
      *error = "snapshot: fsync directory of " + path + ": " +
               std::strerror(errno);
    return StoreStatus::kIoError;
  }
  return StoreStatus::kOk;
}

StoreStatus SnapshotFileView::open(const std::string& path) {
  close();
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0)
    return errno == ENOENT ? StoreStatus::kNotFound : StoreStatus::kIoError;
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return StoreStatus::kIoError;
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return StoreStatus::kNotFound;
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (map == MAP_FAILED) return StoreStatus::kIoError;
  map_ = static_cast<const std::uint8_t*>(map);
  map_size_ = size;

  // CRC-verify everything once up front; afterwards the sections are
  // trusted pointers into the mapping.
  const StoreStatus rs = decode_snapshot({map_, map_size_}, snap_);
  if (rs != StoreStatus::kOk) close();
  return rs;
}

void SnapshotFileView::close() {
  if (map_ != nullptr)
    ::munmap(const_cast<std::uint8_t*>(map_), map_size_);
  map_ = nullptr;
  map_size_ = 0;
  snap_ = SnapshotData{};
}

const SnapshotSection* SnapshotFileView::find(
    std::uint32_t id) const noexcept {
  for (const SnapshotSection& s : snap_.sections)
    if (s.id == id) return &s;
  return nullptr;
}

}  // namespace zmail::store
