#include "fi/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string_view>

#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/encode.hpp"
#include "util/io.hpp"

namespace rota::fi {

namespace {

using util::Error;
using util::ErrorCode;

Error corrupt(const std::string& what) {
  return Error{ErrorCode::kInvalidArgument, "corrupt checkpoint: " + what};
}

bool single_line(const std::string& text) {
  return text.find('\n') == std::string::npos &&
         text.find('\r') == std::string::npos;
}

/// The digest line over `covered`, every byte that precedes it.
std::string digest_line(std::string_view covered) {
  char line[32];
  std::snprintf(line, sizeof line, "digest %016llx",
                static_cast<unsigned long long>(util::fnv1a64(covered)));
  return line;
}

}  // namespace

std::string encode_checkpoint(const Checkpoint& checkpoint) {
  ROTA_REQUIRE(!checkpoint.kind.empty() && single_line(checkpoint.kind),
               "checkpoint kind must be a non-empty single line");
  ROTA_REQUIRE(!checkpoint.fingerprint.empty() &&
                   single_line(checkpoint.fingerprint),
               "checkpoint fingerprint must be a non-empty single line");
  ROTA_REQUIRE(checkpoint.progress >= 0,
               "checkpoint progress must be non-negative");
  std::ostringstream out;
  out << kCheckpointMagic << " v" << kCheckpointVersion << "\n";
  out << "kind " << checkpoint.kind << "\n";
  out << "fingerprint " << checkpoint.fingerprint << "\n";
  out << "progress " << checkpoint.progress << "\n";
  for (const auto& [name, blob] : checkpoint.fields) {
    ROTA_REQUIRE(!name.empty() && name.find(' ') == std::string::npos &&
                     single_line(name),
                 "checkpoint field names must be single space-free tokens");
    out << "field " << name << " " << blob.size() << "\n";
    out << blob << "\n";
  }
  std::string text = out.str();
  text += digest_line(text);
  text += "\nend\n";
  return text;
}

util::Result<Checkpoint> decode_checkpoint(const std::string& text) {
  const std::string_view all = text;
  const std::string_view header = all.substr(0, all.find('\n'));
  const std::size_t space = std::min(header.find(' '), header.size());
  const std::string magic(header.substr(0, space));
  const std::string version(header.substr(std::min(space + 1, header.size())));
  if (magic != kCheckpointMagic) return corrupt("bad magic '" + magic + "'");
  // Built with append rather than "v" + to_string(...): GCC 12 at -O3
  // raises a spurious -Wrestrict on operator+(const char*, string&&).
  std::string expected = "v";
  expected += std::to_string(kCheckpointVersion);
  if (version != expected)
    return Error{ErrorCode::kInvalidArgument,
                 "unsupported checkpoint version '" + version +
                     "' (this build reads v" +
                     std::to_string(kCheckpointVersion) + ")"};

  // The record ends "digest <hex>\nend\n", the digest covering every byte
  // before its line, so nothing below reads an altered or torn byte.
  const std::size_t digest_at = all.rfind("\ndigest ") + 1;  // 0 if absent
  if (digest_at <= header.size() ||
      all.substr(digest_at) != digest_line(all.substr(0, digest_at)) + "\nend\n")
    return corrupt("digest mismatch or no end marker (altered or torn)");

  std::string_view rest =
      all.substr(header.size() + 1, digest_at - header.size() - 1);
  // The payload of the next line iff it reads "<tag> <non-empty payload>".
  const auto tagged = [&rest](std::string_view tag) -> std::string_view {
    const std::size_t eol = std::min(rest.find('\n'), rest.size());
    const std::string_view line = rest.substr(0, eol);
    rest.remove_prefix(std::min(eol + 1, rest.size()));
    if (line.size() <= tag.size() + 1 || !line.starts_with(tag) ||
        line[tag.size()] != ' ')
      return {};
    return line.substr(tag.size() + 1);
  };
  Checkpoint cp;
  cp.kind = tagged("kind");
  if (cp.kind.empty()) return corrupt("missing kind");
  cp.fingerprint = tagged("fingerprint");
  if (cp.fingerprint.empty()) return corrupt("missing fingerprint");
  const std::string_view progress = tagged("progress");
  const auto parsed_progress = util::parse_i64(progress);
  if (!parsed_progress || *parsed_progress < 0)
    return corrupt("bad progress '" + std::string(progress) + "'");
  cp.progress = *parsed_progress;

  while (!rest.empty()) {
    // "field <name> <bytes>", then exactly <bytes> raw bytes and '\n'. The
    // size is checked against the bytes left before anything is copied.
    const std::string_view spec = tagged("field");
    const std::size_t gap = std::min(spec.find(' '), spec.size());
    const std::string name(spec.substr(0, gap));
    const auto bytes = util::parse_i64(spec.substr(std::min(gap + 1, spec.size())));
    if (name.empty() || !bytes || *bytes < 0)
      return corrupt("bad field header 'field " + std::string(spec) + "'");
    const auto size = static_cast<std::uint64_t>(*bytes);
    if (size >= rest.size() || rest[size] != '\n')
      return corrupt("field '" + name + "' is truncated or unterminated");
    if (!cp.fields.emplace(name, rest.substr(0, size)).second)
      return corrupt("duplicate field '" + name + "'");
    rest.remove_prefix(size + 1);
  }
  return cp;
}

void save_checkpoint(const std::string& path, const Checkpoint& checkpoint,
                     const util::RetryOptions& retry) {
  const std::string encoded = encode_checkpoint(checkpoint);
  auto& reg = obs::MetricsRegistry::global();
  util::retry_io(
      retry, util::fnv1a64(path),
      [&] { util::write_file_atomic(path, encoded); },
      [&](int /*attempt*/, const util::io_error&) {
        reg.add("fi.checkpoint_write_retries");
      });
  reg.add("fi.checkpoints_saved");
}

util::Result<Checkpoint> load_checkpoint(const std::string& path,
                                         const util::RetryOptions& retry) {
  auto& reg = obs::MetricsRegistry::global();
  std::optional<std::string> text;
  try {
    text = util::retry_io(
        retry, util::fnv1a64(path),
        [&] { return util::read_text_file_if_exists(path); },
        [&](int /*attempt*/, const util::io_error&) {
          reg.add("fi.checkpoint_read_retries");
        });
  } catch (const util::io_error& e) {
    return Error{ErrorCode::kIo, e.what()};
  }
  if (!text.has_value())
    return Error{ErrorCode::kNotFound, "no checkpoint at " + path};
  return decode_checkpoint(*text);
}

}  // namespace rota::fi
