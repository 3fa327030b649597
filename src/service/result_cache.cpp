#include "repro/service/result_cache.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "repro/common/assert.hpp"
#include "repro/common/atomic_file.hpp"
#include "repro/common/log.hpp"
#include "repro/service/protocol.hpp"

namespace repro::service {

namespace {

constexpr const char* kJournalFile = "journal.log";
constexpr const char* kSnapshotFile = "snapshot.txt";

std::string hex16(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

/// One parsed journal entry, or why parsing stopped.
struct EntryScan {
  bool ok = false;
  std::uint64_t identity = 0;
  std::string payload;
  std::size_t consumed = 0;
};

/// Parses one RCJE entry at `text[pos..]`. Anything short, malformed
/// or digest-mismatched returns ok=false: the caller treats it as the
/// torn tail and stops.
EntryScan scan_entry(const std::string& text, std::size_t pos) {
  EntryScan scan;
  const std::size_t eol = text.find('\n', pos);
  if (eol == std::string::npos) {
    return scan;
  }
  std::istringstream header(text.substr(pos, eol - pos));
  std::string tag;
  std::uint64_t identity = 0;
  std::size_t bytes = 0;
  std::string digest_hex;
  if (!(header >> tag >> identity >> bytes >> digest_hex) || tag != "RCJE") {
    return scan;
  }
  const std::size_t payload_at = eol + 1;
  // +1 for the trailing '\n' that closes the payload.
  if (payload_at + bytes + 1 > text.size()) {
    return scan;
  }
  if (text[payload_at + bytes] != '\n') {
    return scan;
  }
  const std::string payload = text.substr(payload_at, bytes);
  if (hex16(frame_digest(payload)) != digest_hex) {
    return scan;
  }
  scan.ok = true;
  scan.identity = identity;
  scan.payload = payload;
  scan.consumed = payload_at + bytes + 1 - pos;
  return scan;
}

std::string read_whole_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return {};
  }
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace

std::string encode_journal_entry(std::uint64_t identity,
                                 const std::string& payload) {
  std::ostringstream os;
  os << "RCJE " << identity << ' ' << payload.size() << ' '
     << hex16(frame_digest(payload)) << '\n'
     << payload << '\n';
  return os.str();
}

ResultCache::ResultCache(CacheConfig config) : config_(std::move(config)) {
  REPRO_REQUIRE_MSG(config_.capacity >= 1, "result cache capacity must be >= 1");
  if (!config_.dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config_.dir, ec);
    REPRO_REQUIRE_MSG(!ec, "cannot create result cache directory");
    recover();
    open_journal();
  }
}

ResultCache::~ResultCache() {
  if (journal_fd_ >= 0) {
    ::close(journal_fd_);
  }
}

std::string ResultCache::journal_path() const {
  return config_.dir + "/" + kJournalFile;
}

std::string ResultCache::snapshot_path() const {
  return config_.dir + "/" + kSnapshotFile;
}

void ResultCache::recover() {
  // Snapshot first (atomic_write_file guarantees it is whole, but the
  // per-entry digests are still verified -- cheap insurance against
  // editors and cosmic rays)...
  const std::string snapshot = read_whole_file(snapshot_path());
  std::size_t pos = 0;
  if (!snapshot.empty()) {
    const std::size_t eol = snapshot.find('\n');
    std::istringstream header(snapshot.substr(0, eol));
    std::string tag;
    std::string version;
    std::size_t count = 0;
    if (eol != std::string::npos && (header >> tag >> version >> count) &&
        tag == "RCSS" && version == "v1") {
      pos = eol + 1;
      for (std::size_t i = 0; i < count; ++i) {
        const EntryScan scan = scan_entry(snapshot, pos);
        if (!scan.ok) {
          REPRO_LOG_WARN("result cache: snapshot entry ", i,
                         " unreadable; keeping the ", entries_.size(),
                         " entries before it");
          break;
        }
        if (insert_in_memory(scan.identity, scan.payload)) {
          ++stats_.recovered_entries;
        }
        pos += scan.consumed;
      }
    } else {
      REPRO_LOG_WARN("result cache: unrecognized snapshot header; starting "
                     "from the journal alone");
    }
  }
  // ...then replay the journal over it, stopping at the torn tail.
  const std::string journal = read_whole_file(journal_path());
  pos = 0;
  while (pos < journal.size()) {
    const EntryScan scan = scan_entry(journal, pos);
    if (!scan.ok) {
      stats_.dropped_torn_bytes = journal.size() - pos;
      REPRO_LOG_WARN("result cache: dropping ", stats_.dropped_torn_bytes,
                     " bytes of torn journal tail");
      break;
    }
    // Replay over a snapshot is idempotent: same identity implies the
    // byte-identical payload.
    if (insert_in_memory(scan.identity, scan.payload)) {
      ++stats_.recovered_entries;
    }
    pos += scan.consumed;
  }
}

bool ResultCache::insert_in_memory(std::uint64_t identity,
                                   std::string payload) {
  const auto it = index_.find(identity);
  if (it != index_.end()) {
    REPRO_REQUIRE_MSG(it->second->second == payload,
                      "result cache: two different payloads for one config "
                      "identity -- the deterministic simulator contradicted "
                      "itself");
    entries_.splice(entries_.begin(), entries_, it->second);
    return false;
  }
  entries_.emplace_front(identity, std::move(payload));
  index_[identity] = entries_.begin();
  while (entries_.size() > config_.capacity) {
    index_.erase(entries_.back().first);
    entries_.pop_back();
    ++stats_.evictions;
  }
  return true;
}

void ResultCache::open_journal() {
  journal_fd_ = ::open(journal_path().c_str(),
                       O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  REPRO_REQUIRE_MSG(journal_fd_ >= 0, "cannot open result cache journal");
}

std::optional<std::string> ResultCache::lookup(std::uint64_t identity) {
  const auto it = index_.find(identity);
  if (it == index_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  entries_.splice(entries_.begin(), entries_, it->second);
  return it->second->second;
}

void ResultCache::insert(std::uint64_t identity, const std::string& payload) {
  if (journal_fd_ >= 0) {
    append_journal(identity, payload);
  }
  if (insert_in_memory(identity, payload)) {
    ++stats_.insertions;
  }
  if (journal_fd_ >= 0 && config_.snapshot_every != 0 &&
      ++appends_since_snapshot_ >= config_.snapshot_every) {
    write_snapshot();
  }
}

void ResultCache::append_journal(std::uint64_t identity,
                                 const std::string& payload) {
  const std::string entry = encode_journal_entry(identity, payload);
  std::size_t off = 0;
  while (off < entry.size()) {
    const ssize_t n =
        ::write(journal_fd_, entry.data() + off, entry.size() - off);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      REPRO_REQUIRE_MSG(false, "result cache journal write failed");
    }
    off += static_cast<std::size_t>(n);
  }
  // The fsync is the acknowledgement: once insert() returns, recovery
  // is obliged to find this entry.
  REPRO_REQUIRE_MSG(::fsync(journal_fd_) == 0,
                    "result cache journal fsync failed");
}

void ResultCache::write_snapshot() {
  std::ostringstream os;
  os << "RCSS v1 " << entries_.size() << '\n';
  // Oldest first, so recovery's insert order reproduces the recency
  // order (MRU re-inserted last ends up at the front).
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    os << encode_journal_entry(it->first, it->second);
  }
  atomic_write_file(snapshot_path(), os.str());
  ++stats_.snapshots;
  appends_since_snapshot_ = 0;
  // Truncate the journal only after the snapshot is durably in place;
  // a crash in between replays the journal over the snapshot, which is
  // idempotent.
  ::close(journal_fd_);
  journal_fd_ = -1;
  atomic_write_file(journal_path(), "");
  open_journal();
}

void ResultCache::flush_snapshot() {
  if (journal_fd_ >= 0) {
    write_snapshot();
  }
}

}  // namespace repro::service
