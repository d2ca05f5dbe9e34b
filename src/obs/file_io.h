// Whole-file I/O for the persisted formats: one reader and one
// crash-safe writer. read_file reads campaign specs, journals and SATNMET1
// metrics snapshots; replace_file writes the snapshots and the campaign
// stats file.
#pragma once

#include <string>

namespace satin::obs {

// Reads all of `path` into `out`. False with "<path>: cannot open" or
// "<path>: read error" in *error (when given).
bool read_file(const std::string& path, std::string& out, std::string* error);

// False (with *error) when `path` exists and is not a regular file:
// replace_file's rename would swap the device node or socket there for a
// regular file (`--out=/dev/null` turning /dev/null into one is the
// classic casualty).
bool check_replaceable(const std::string& path, std::string* error);

// Replaces `path` with `bytes` so that a reader sees the whole old file or
// the whole new one: writes "<path>.tmp", fsyncs it when `sync`, and
// renames it over `path`. Refuses what check_replaceable refuses.
bool replace_file(const std::string& path, const std::string& bytes,
                  bool sync, std::string* error);

}  // namespace satin::obs
