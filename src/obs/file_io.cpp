#include "obs/file_io.h"

#include <cstdio>

#include <sys/stat.h>
#include <unistd.h>

namespace satin::obs {

namespace {

bool set_error(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

bool read_file(const std::string& path, std::string& out, std::string* error) {
  out.clear();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return set_error(error, path + ": cannot open");
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok || set_error(error, path + ": read error");
}

bool check_replaceable(const std::string& path, std::string* error) {
  struct stat st{};
  if (::stat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode)) {
    return set_error(error, path + ": refusing to replace non-regular file");
  }
  return true;
}

bool replace_file(const std::string& path, const std::string& bytes,
                  bool sync, std::string* error) {
  if (!check_replaceable(path, error)) return false;
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return set_error(error, tmp + ": cannot open for write");
  const bool write_ok =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  const bool flush_ok =
      std::fflush(f) == 0 && (!sync || ::fsync(fileno(f)) == 0);
  const bool close_ok = std::fclose(f) == 0;
  if (!write_ok || !flush_ok || !close_ok) {
    std::remove(tmp.c_str());
    return set_error(error, tmp + ": write failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return set_error(error, path + ": rename failed");
  }
  return true;
}

}  // namespace satin::obs
