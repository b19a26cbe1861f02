#pragma once

#include <cstdint>
#include <string>
#include <string_view>

/// \file encode.hpp
/// Stable encodings that persisted bytes depend on. The FNV-1a hash names
/// schedule-cache files, digests ArrayStates, salts checkpoint retries and
/// offsets fault-injection streams; the hexfloat writer renders every
/// double that must round-trip exactly (cache entries, checkpoints,
/// timeline and pareto CSVs). Changing either orphans data on disk.

namespace rota::util {

/// 64-bit FNV-1a over `bytes` — stable across runs, platforms and standard
/// libraries, unlike std::hash.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes);

/// `value` in printf's %a format: exact, locale-free, and read back
/// bit for bit by std::strtod.
[[nodiscard]] std::string hexfloat(double value);

}  // namespace rota::util
