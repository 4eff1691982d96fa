#include "store/wal.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "store/crc32c.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"

namespace zmail::store {

namespace {

constexpr std::uint8_t kMagic[4] = {'Z', 'W', 'A', 'L'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderSize = 20;  // magic + version + base_lsn + crc
constexpr std::size_t kRecordOverhead = 8;   // body_len + body_crc
constexpr std::size_t kBodyFixed = 9;        // lsn + type
constexpr std::size_t kTerminator = 4;       // a zero body_len
constexpr std::size_t kWindow = WalWriter::kWindowBytes;
// A record body larger than this cannot come from this simulation; treating
// it as corruption keeps a flipped length byte from triggering a huge read.
constexpr std::uint32_t kMaxBody = 1u << 30;

std::uint32_t read_u32(const std::uint8_t* p) noexcept {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | p[3];
}

std::uint64_t read_u64(const std::uint8_t* p) noexcept {
  return (static_cast<std::uint64_t>(read_u32(p)) << 32) | read_u32(p + 4);
}

bool set_error(std::string* error, const std::string& msg) {
  if (error) *error = msg;
  return false;
}

bool sys_error(std::string* error, const char* what) {
  return set_error(error, std::string("wal: ") + what + ": " +
                              std::strerror(errno));
}

// The page holding file offset `at`.  A window starting there always holds
// the terminator after `at` whole.
std::size_t page_floor(std::size_t at) {
  static const std::size_t page = [] {
    const auto p = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    ZMAIL_ASSERT_MSG(kWindow % p == 0 && p + kTerminator <= kWindow,
                     "the WAL window must span several pages");
    return p;
  }();
  return at / page * page;
}

}  // namespace

StoreStatus read_file(const std::string& path, crypto::Bytes& out) {
  out.clear();
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return errno == ENOENT ? StoreStatus::kNotFound : StoreStatus::kIoError;
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return StoreStatus::kIoError;
  }
  // Read into a buffer of the file's size; a file that grew since the
  // fstat has the rest appended, and one that shrank is cut to what read.
  out.resize(static_cast<std::size_t>(st.st_size));
  std::size_t size = 0;
  std::uint8_t more[4096];
  for (;;) {
    const bool past_end = size == out.size();  // beyond the fstat size
    std::uint8_t* dst = past_end ? more : out.data() + size;
    const std::size_t room = past_end ? sizeof more : out.size() - size;
    const ssize_t n = ::read(fd, dst, room);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      out.clear();
      return StoreStatus::kIoError;
    }
    if (n == 0) break;
    if (past_end) out.insert(out.end(), more, more + n);
    size += static_cast<std::size_t>(n);
  }
  out.resize(size);
  ::close(fd);
  return StoreStatus::kOk;
}

WalScanResult wal_scan(std::span<const std::uint8_t> file,
                       const std::function<void(const WalRecord&)>& fn) {
  WalScanResult r;
  if (file.size() < kHeaderSize) {
    r.status = file.empty() ? StoreStatus::kNotFound : StoreStatus::kTruncated;
    return r;
  }
  if (std::memcmp(file.data(), kMagic, 4) != 0) {
    r.status = StoreStatus::kBadMagic;
    return r;
  }
  if (read_u32(file.data() + 16) != crc32c(file.data(), 16)) {
    r.status = StoreStatus::kCorrupt;
    return r;
  }
  if (read_u32(file.data() + 4) != kVersion) {
    r.status = StoreStatus::kUnknownVersion;
    return r;
  }
  r.base_lsn = read_u64(file.data() + 8);
  r.last_lsn = r.base_lsn - 1;
  r.valid_bytes = kHeaderSize;

  std::size_t pos = kHeaderSize;
  Lsn expect = r.base_lsn;
  for (;;) {
    const std::size_t left = file.size() - pos;
    if (left == 0) return r;  // clean EOF
    // A zero length word is the terminator the writer stores after its
    // last record: the clean end of a log with an extent behind it.
    if (left >= kTerminator && read_u32(file.data() + pos) == 0) return r;
    if (left < kRecordOverhead) {
      r.status = StoreStatus::kTruncated;
      return r;
    }
    const std::uint32_t body_len = read_u32(file.data() + pos);
    const std::uint32_t want_crc = read_u32(file.data() + pos + 4);
    if (body_len < kBodyFixed || body_len > kMaxBody) {
      r.status = StoreStatus::kCorrupt;
      return r;
    }
    if (left - kRecordOverhead < body_len) {
      r.status = StoreStatus::kTruncated;
      return r;
    }
    const std::uint8_t* body = file.data() + pos + kRecordOverhead;
    if (crc32c(body, body_len) != want_crc) {
      r.status = StoreStatus::kCorrupt;
      return r;
    }
    const Lsn lsn = read_u64(body);
    if (lsn != expect) {
      r.status = StoreStatus::kCorrupt;
      return r;
    }
    if (fn) {
      WalRecord rec;
      rec.lsn = lsn;
      rec.type = body[8];
      rec.payload = body + kBodyFixed;
      rec.payload_len = body_len - kBodyFixed;
      fn(rec);
    }
    ++expect;
    ++r.records;
    r.last_lsn = lsn;
    pos += kRecordOverhead + body_len;
    r.valid_bytes = pos;
  }
}

WalWriter::~WalWriter() { close(); }

void WalWriter::close() {
  if (fd_ < 0) return;
  sync();
  if (window_) ::munmap(window_, kWindow);
  window_ = nullptr;
  // Trim the extent, so a cleanly closed log ends at its last record.  The
  // size is read back, not assumed: a file cut behind the writer's back is
  // never grown.
  struct stat st {};
  if (::fstat(fd_, &st) == 0 && static_cast<std::size_t>(st.st_size) > end_)
    (void)::ftruncate(fd_, static_cast<off_t>(end_));
  ::close(fd_);
  fd_ = -1;
}

bool WalWriter::map_window(std::size_t off, std::string* error) {
  if (window_) ::munmap(window_, kWindow);
  window_ = nullptr;
  if (off + kWindow > file_size_) {
    if (::ftruncate(fd_, static_cast<off_t>(off + kWindow)) != 0)
      return sys_error(error, "grow");
    file_size_ = off + kWindow;
  }
  void* p = ::mmap(nullptr, kWindow, PROT_READ | PROT_WRITE, MAP_SHARED, fd_,
                   static_cast<off_t>(off));
  if (p == MAP_FAILED) return sys_error(error, "mmap");
  window_ = static_cast<std::uint8_t*>(p);
  window_off_ = off;
  ++stats_.maps;
  return true;
}

bool WalWriter::store(std::size_t at, const std::uint8_t* src, std::size_t n) {
  while (n > 0) {
    if ((!window_ || at == window_off_ + kWindow) &&
        !map_window(page_floor(at)))
      return false;
    ZMAIL_ASSERT(window_ && at >= window_off_ && at < window_off_ + kWindow);
    const std::size_t k = std::min(n, window_off_ + kWindow - at);
    std::memcpy(window_ + (at - window_off_), src, k);
    at += k;
    src += k;
    n -= k;
  }
  return true;
}

bool WalWriter::store_terminator(std::size_t end) {
  if ((!window_ || end + kTerminator > window_off_ + kWindow) &&
      !map_window(page_floor(end)))
    return false;
  ZMAIL_ASSERT(window_ && end >= window_off_ &&
               end + kTerminator <= window_off_ + kWindow);
  std::memset(window_ + (end - window_off_), 0, kTerminator);
  return true;
}

bool WalWriter::open(const std::string& path, std::uint32_t group_commit_records,
                     bool fsync_data, std::string* error) {
  close();
  path_ = path;
  group_ = group_commit_records == 0 ? 1 : group_commit_records;
  fsync_data_ = fsync_data;
  pending_.clear();
  pending_records_ = 0;

  crypto::Bytes existing;
  const StoreStatus rs = read_file(path, existing);
  if (rs == StoreStatus::kIoError)
    return set_error(error, "wal: read " + path + ": " + std::strerror(errno));

  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0)
    return set_error(error, "wal: open " + path + ": " + std::strerror(errno));
  file_size_ = existing.size();

  if (rs == StoreStatus::kNotFound || existing.empty()) return restart_at(1, error);

  const WalScanResult scan = wal_scan(existing);
  switch (scan.status) {
    case StoreStatus::kOk:
    case StoreStatus::kTruncated:
    case StoreStatus::kCorrupt:
      break;  // usable up to valid_bytes (possibly zero records)
    default:
      ::close(fd_);
      fd_ = -1;
      return set_error(error, std::string("wal: unusable log header: ") +
                                  store_status_name(scan.status));
  }
  // Header itself was damaged or short: start the log over.
  if (scan.valid_bytes < kHeaderSize) return restart_at(1, error);
  // Trim any torn tail so future appends extend a fully valid log.  A log
  // that ends at its terminator keeps its extent.
  if (scan.status != StoreStatus::kOk) {
    if (::ftruncate(fd_, static_cast<off_t>(scan.valid_bytes)) != 0)
      return sys_error(error, "trim");
    file_size_ = scan.valid_bytes;
  }
  end_ = scan.valid_bytes;
  // The window's growth zero-fills any bytes past a trimmed or closed log,
  // so the terminator is already in place.
  if (!map_window(page_floor(end_), error)) return false;
  next_lsn_ = scan.last_lsn + 1;
  durable_lsn_ = scan.last_lsn;
  return true;
}

Lsn WalWriter::append_record(std::uint8_t type,
                             std::span<const std::uint8_t> payload) {
  const Lsn lsn = next_lsn_++;
  // Encode in place at the end of pending_ (its capacity survives sync(),
  // so a warm log appends without allocating): the body first, then the
  // length and CRC over the body bytes as they sit in the buffer.
  const std::size_t body_len = kBodyFixed + payload.size();
  const std::size_t start = pending_.size();
  pending_.resize(start + kRecordOverhead + body_len);
  std::uint8_t* rec = pending_.data() + start;
  std::uint8_t* body = rec + kRecordOverhead;
  crypto::store_be(body, lsn, 8);
  body[8] = type;
  if (!payload.empty())
    std::memcpy(body + kBodyFixed, payload.data(), payload.size());
  crypto::store_be(rec, body_len, 4);
  crypto::store_be(rec + 4, crc32c(body, body_len), 4);
  ++pending_records_;
  ++stats_.records_appended;
  stats_.bytes_appended += kRecordOverhead + body_len;
  if (pending_records_ >= group_) sync();
  return lsn;
}

void WalWriter::sync() {
  if (fd_ < 0 || pending_.empty()) return;
  ZMAIL_PROF_SCOPE("store.wal_sync");
  // On a failed grow or map the records stay pending and the next sync
  // stores them again at the same offset (sim store: nothing actionable
  // mid-run; recovery re-scans).
  const std::size_t end = end_ + pending_.size();
  if (!store(end_, pending_.data(), pending_.size()) || !store_terminator(end))
    return;
  end_ = end;
  pending_.clear();
  pending_records_ = 0;
  ++stats_.syncs;
  if (fsync_data_) {
    ::fdatasync(fd_);
    ++stats_.fsyncs;
  }
  durable_lsn_ = next_lsn_ - 1;
}

bool WalWriter::restart(Lsn next_lsn, bool trim, std::string* error) {
  if (fd_ < 0) return set_error(error, "wal: not open");
  // Buffered records are dropped with the rest: the caller's state covers
  // them (a checkpoint) or never held them (a fresh log).
  pending_.clear();
  pending_records_ = 0;
  if ((!window_ || window_off_ != 0) && !map_window(0, error)) return false;
  static_assert(kHeaderSize + kTerminator <= kWindow);
  ZMAIL_ASSERT(window_ && window_off_ == 0);
  std::uint8_t* h = window_;
  std::memcpy(h, kMagic, 4);
  crypto::store_be(h + 4, kVersion, 4);
  crypto::store_be(h + 8, next_lsn, 8);
  crypto::store_be(h + 16, crc32c(h, 16), 4);
  // The new header goes in before the old records are trimmed, so a crash
  // between the two leaves a whole header: the old records after it do not
  // continue its LSNs, and the next scan stops at them.  (Trimming first
  // would leave a file too short to hold a header at all.)  The trim cuts
  // the file to the header and grows it back to the window with zeros.
  if (trim && (::ftruncate(fd_, static_cast<off_t>(kHeaderSize)) != 0 ||
               ::ftruncate(fd_, static_cast<off_t>(kWindow)) != 0))
    return sys_error(error, "trim");
  if (trim) file_size_ = kWindow;
  std::memset(h + kHeaderSize, 0, kTerminator);
  end_ = kHeaderSize;
  if (fsync_data_ && ::fdatasync(fd_) != 0) return sys_error(error, "fdatasync");
  next_lsn_ = next_lsn;
  durable_lsn_ = next_lsn - 1;
  return true;
}

void WalWriter::simulate_crash() {
  pending_.clear();
  pending_records_ = 0;
  next_lsn_ = durable_lsn_ + 1;
}

}  // namespace zmail::store
