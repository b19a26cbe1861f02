#include "fi/checkpoint.hpp"

#include <sstream>

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
  out << "end\n";
  return out.str();
}

util::Result<Checkpoint> decode_checkpoint(const std::string& text) {
  std::istringstream in(text);
  std::string line;

  if (!std::getline(in, line)) return corrupt("empty file");
  {
    std::istringstream header(line);
    std::string magic;
    std::string version;
    header >> magic >> version;
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
  }

  Checkpoint cp;
  auto read_tagged = [&](const std::string& tag,
                         std::string* value) -> bool {
    if (!std::getline(in, line)) return false;
    const std::string prefix = tag + " ";
    if (line.rfind(prefix, 0) != 0) return false;
    *value = line.substr(prefix.size());
    return !value->empty();
  };
  std::string progress_text;
  if (!read_tagged("kind", &cp.kind)) return corrupt("missing kind");
  if (!read_tagged("fingerprint", &cp.fingerprint))
    return corrupt("missing fingerprint");
  if (!read_tagged("progress", &progress_text))
    return corrupt("missing progress");
  try {
    std::size_t used = 0;
    cp.progress = std::stoll(progress_text, &used);
    if (used != progress_text.size() || cp.progress < 0)
      return corrupt("bad progress '" + progress_text + "'");
  } catch (const std::exception&) {
    return corrupt("bad progress '" + progress_text + "'");
  }

  bool saw_end = false;
  while (std::getline(in, line)) {
    if (line == "end") {
      saw_end = true;
      break;
    }
    std::istringstream field(line);
    std::string tag;
    std::string name;
    std::size_t bytes = 0;
    field >> tag >> name >> bytes;
    if (tag != "field" || name.empty() || field.fail())
      return corrupt("bad field header '" + line + "'");
    std::string blob(bytes, '\0');
    if (bytes > 0 &&
        !in.read(blob.data(), static_cast<std::streamsize>(bytes)))
      return corrupt("truncated field '" + name + "'");
    int newline = in.get();
    if (newline != '\n') return corrupt("field '" + name + "' not terminated");
    if (!cp.fields.emplace(name, std::move(blob)).second)
      return corrupt("duplicate field '" + name + "'");
  }
  if (!saw_end) return corrupt("missing end marker (torn write?)");
  if (std::getline(in, line) && !line.empty())
    return corrupt("trailing bytes after end marker");
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
