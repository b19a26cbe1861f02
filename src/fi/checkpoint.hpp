#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "util/result.hpp"
#include "util/retry.hpp"

/// \file checkpoint.hpp
/// The one record envelope rota persists and reads back: checkpoints of
/// long-running commands (`rota sweep`, `rota mc`, `rota degrade`) and
/// schedule-cache entries (svc::encode_cache_entry). A record is a small
/// text artifact:
///
///   rota-checkpoint v2
///   kind <sweep|mc|degrade|schedule-cache>
///   fingerprint <work-identity token>
///   progress <units completed>
///   field <name> <bytes>
///   <raw bytes>
///   ...
///   digest <16 hex digits: FNV-1a of every byte above>
///   end
///
/// `fingerprint` encodes the inputs that define the work (workload set,
/// policy set, iteration count, seed, …); resuming verifies it so a
/// checkpoint is never applied to different work. Field payloads are
/// length-prefixed raw bytes, so carried state (CSV rows, hexfloat
/// moment sums) round-trips bit-exactly. The digest makes any altered
/// byte a decode error rather than different state; v1 records (no
/// digest) are rejected as an unsupported version.
///
/// Persistence is crash-safe and fault-tolerant: saves go through
/// util::write_file_atomic (temp file + fsync + rename) wrapped in
/// util::retry_io, and a torn or corrupted file fails load with a
/// structured error — callers then restart from scratch, never resume
/// from garbage.

namespace rota::fi {

inline constexpr std::string_view kCheckpointMagic = "rota-checkpoint";
inline constexpr int kCheckpointVersion = 2;

struct Checkpoint {
  std::string kind;         ///< which command wrote it ("sweep", "mc")
  std::string fingerprint;  ///< identity of the work being resumed
  std::int64_t progress = 0;  ///< completed work units (cells, trials)
  std::map<std::string, std::string> fields;  ///< carried state blobs
};

/// Serialize to the format above. Deterministic (fields are emitted in
/// map order). \pre kind and fingerprint non-empty and single-line.
[[nodiscard]] std::string encode_checkpoint(const Checkpoint& checkpoint);

/// Parse; kInvalidArgument on any structural problem (bad magic, bad
/// version, a field size beyond the bytes left, truncated payload, digest
/// mismatch, trailing bytes). Never allocates more than `text` holds.
[[nodiscard]] util::Result<Checkpoint> decode_checkpoint(
    const std::string& text);

/// Atomically persist to `path`, retrying transient I/O errors. Throws
/// util::io_error once retries are exhausted.
void save_checkpoint(const std::string& path, const Checkpoint& checkpoint,
                     const util::RetryOptions& retry = {});

/// Load and decode `path`, retrying transient read errors. Returns
/// kNotFound when the file does not exist (a fresh run, not an error),
/// kIo when it stays unreadable, kInvalidArgument when it is corrupt.
[[nodiscard]] util::Result<Checkpoint> load_checkpoint(
    const std::string& path, const util::RetryOptions& retry = {});

}  // namespace rota::fi
