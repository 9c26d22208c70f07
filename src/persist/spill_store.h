#ifndef BIONAV_PERSIST_SPILL_STORE_H_
#define BIONAV_PERSIST_SPILL_STORE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace bionav {

/// A flat directory of snapshot records, one file per session token. Writes
/// are atomic (temp file + rename), so a kill -9 mid-spill leaves either
/// the old record or the new one — never a torn file; torn temp files are
/// swept on Init. Tokens map to filenames through a conservative escaping
/// ([A-Za-z0-9_-] verbatim, everything else %XX), so arbitrary token
/// prefixes cannot traverse out of the directory.
///
/// The store also keeps a tiny MANIFEST with the server's token counter:
/// after a warm restart (or a crash) the new process must not mint tokens
/// that collide with sessions still parked on disk.
///
/// Put, Get and Delete are virtual so tests can slow down or fail the
/// tier's I/O (SessionManager takes an injected store).
class SpillStore {
 public:
  explicit SpillStore(std::string dir);
  virtual ~SpillStore() = default;

  /// Creates the directory (parents included) and clears stale temp files.
  Status Init();

  const std::string& dir() const { return dir_; }

  /// Atomically writes `record` as the snapshot of `token`.
  virtual Status Put(const std::string& token, std::string_view record);

  /// Reads the snapshot record of `token`. NotFound if absent; IOError on
  /// an unreadable file.
  virtual Result<std::string> Get(const std::string& token);

  /// Removes the snapshot of `token`. False if there was none.
  virtual bool Delete(const std::string& token);

  /// Tokens currently parked in the directory (unordered).
  std::vector<std::string> ListTokens() const;

  /// Persists the token counter (and implicitly "a clean spill finished").
  Status WriteManifest(uint64_t next_token);

  /// Reads the persisted token counter. NotFound when absent or unreadable
  /// — callers fall back to scanning parked tokens.
  Result<uint64_t> ReadManifest() const;

 private:
  std::string PathFor(const std::string& token) const;
  static Status WriteFileAtomic(const std::string& path,
                                std::string_view record);

  std::string dir_;
};

/// Filename-safe escaping of a session token (exposed for tests).
std::string EscapeSpillToken(std::string_view token);
Result<std::string> UnescapeSpillToken(std::string_view name);

}  // namespace bionav

#endif  // BIONAV_PERSIST_SPILL_STORE_H_
