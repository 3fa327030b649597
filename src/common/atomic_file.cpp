#include "repro/common/atomic_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "repro/common/assert.hpp"

namespace repro {

void atomic_write_file(const std::string& path, const std::string& content) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::filesystem::create_directories(parent);
  }
  // POSIX I/O rather than std::ofstream: the durability step needs
  // fsync on the descriptor, which iostreams cannot express.
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  REPRO_REQUIRE_MSG(fd >= 0, "cannot open temporary output file");
  const char* data = content.data();
  std::size_t left = content.size();
  bool ok = true;
  while (left > 0) {
    const ssize_t n = ::write(fd, data, left);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      ok = false;
      break;
    }
    data += n;
    left -= static_cast<std::size_t>(n);
  }
  ok = ok && ::fsync(fd) == 0;
  ok = (::close(fd) == 0) && ok;
  if (!ok) {
    ::remove(tmp.c_str());
    REPRO_REQUIRE_MSG(false, "short write on output file");
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::remove(tmp.c_str());
    REPRO_REQUIRE_MSG(false, "cannot rename output file into place");
  }
}

}  // namespace repro
