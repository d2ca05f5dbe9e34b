#include "campaign/journal.h"

#include <cinttypes>
#include <cstdio>

#include <unistd.h>

#include "obs/file_io.h"

namespace satin::campaign {

namespace {

constexpr char kHeaderMagic[] = "SATNCAMP1";

std::string header_line(std::uint64_t spec_hash, std::uint64_t trials,
                        std::uint64_t root_seed) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "%s spec=%016" PRIx64 " trials=%" PRIu64 " root_seed=%" PRIu64,
                kHeaderMagic, spec_hash, trials, root_seed);
  return buf;
}

// A header is exactly the line header_line() writes for its fields:
// sscanf alone would also take trailing bytes, a 0x prefix or upper-case
// hex, which open() then refuses as another campaign's header.
bool parse_header(const std::string& line, CampaignJournal::Status& out) {
  unsigned long long spec = 0, trials = 0, root_seed = 0;
  if (std::sscanf(line.c_str(), "%*s spec=%llx trials=%llu root_seed=%llu",
                  &spec, &trials, &root_seed) != 3 ||
      line != header_line(spec, trials, root_seed)) {
    return false;
  }
  out.spec_hash = spec;
  out.trials = trials;
  out.root_seed = root_seed;
  return true;
}

// Replays a journal's `text`: the header line into `status`, each valid
// record into `completed` (the first record of an index wins). A torn
// tail (a final fragment without its newline: the artifact of a killed
// append), a checksum-failing line and an index past the header's trial
// count are quarantined instead: counted in `status`, and their trials
// re-run. False when the first line is not a header.
bool replay(const std::string& text, CampaignJournal::Status& status,
            std::map<std::uint64_t, TrialResult>& completed) {
  std::size_t pos = 0;
  bool first = true;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const bool torn = nl == std::string::npos;
    const std::string line =
        text.substr(pos, torn ? std::string::npos : nl - pos);
    pos = torn ? text.size() : nl + 1;
    if (first) {
      first = false;
      if (torn || !parse_header(line, status)) return false;
      continue;
    }
    if (line.empty()) continue;
    TrialResult result;
    if (torn || !decode_trial_record(line, result) ||
        result.index >= status.trials) {
      ++status.quarantined;
      continue;
    }
    completed.emplace(result.index, result);
  }
  status.completed = completed.size();
  return !first;
}

bool set_error(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

bool flush_and_sync(std::FILE* f) {
  return std::fflush(f) == 0 && fsync(fileno(f)) == 0;
}

}  // namespace

CampaignJournal::~CampaignJournal() { close(); }

void CampaignJournal::close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

bool CampaignJournal::open(const std::string& path, const CampaignSpec& spec,
                           std::string* error) {
  close();
  completed_.clear();
  quarantined_ = 0;
  appended_ = 0;
  path_ = path;

  std::string text;
  const bool exists = ::access(path.c_str(), F_OK) == 0;
  if (exists && !obs::read_file(path, text, error)) return false;

  const std::string expected_header =
      header_line(spec.content_hash(), spec.trials, spec.root_seed);

  if (exists && !text.empty()) {
    Status header;
    if (!replay(text, header, completed_)) {
      return set_error(error, path + ": corrupt journal header");
    }
    if (text.compare(0, text.find('\n'), expected_header) != 0) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    ": journal belongs to a different campaign "
                    "(spec=%016" PRIx64 " trials=%" PRIu64
                    " root_seed=%" PRIu64 ")",
                    header.spec_hash, header.trials, header.root_seed);
      completed_.clear();
      return set_error(error, path + buf);
    }
    quarantined_ = header.quarantined;
  }

  // A torn tail was quarantined above, but it is also still physically at
  // the end of the file — appending after it would glue the next record
  // onto the fragment and corrupt BOTH. Cut the file back to the last
  // complete line before reopening for append.
  if (exists && !text.empty() && text.back() != '\n') {
    // replay() refused a torn header, so a complete line is there to keep.
    const std::size_t keep = text.rfind('\n') + 1;
    if (::truncate(path.c_str(), static_cast<off_t>(keep)) != 0) {
      return set_error(error, path + ": cannot trim torn tail");
    }
  }

  file_ = std::fopen(path.c_str(), exists ? "ab" : "wb");
  if (file_ == nullptr) {
    return set_error(error, path + ": cannot open for append");
  }
  if (!exists || text.empty()) {
    const std::string header = expected_header + "\n";
    if (std::fwrite(header.data(), 1, header.size(), file_) != header.size() ||
        !flush_and_sync(file_)) {
      close();
      return set_error(error, path + ": cannot write header");
    }
  }
  return true;
}

bool CampaignJournal::append(const TrialResult& result) {
  if (file_ == nullptr) return false;
  const std::string line = encode_trial_record(result) + "\n";
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()) {
    return false;
  }
  if (!flush_and_sync(file_)) return false;
  completed_.emplace(result.index, result);
  ++appended_;
  return true;
}

bool CampaignJournal::read_status(const std::string& path, Status& out,
                                  std::string* error) {
  out = Status{};
  if (::access(path.c_str(), F_OK) != 0) {
    return set_error(error, path + ": no such journal");
  }
  std::string text;
  if (!obs::read_file(path, text, error)) return false;
  if (text.empty()) return set_error(error, path + ": empty journal");
  std::map<std::uint64_t, TrialResult> completed;
  if (!replay(text, out, completed)) {
    return set_error(error, path + ": corrupt journal header");
  }
  return true;
}

}  // namespace satin::campaign
