#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

/// \file encode.hpp
/// Stable encodings that persisted bytes depend on, and the one strict
/// reader for every number rota reads back. The FNV-1a hash names
/// schedule-cache files, digests ArrayStates and checkpoint records,
/// salts checkpoint retries and offsets fault-injection streams; the
/// hexfloat writer renders every double that must round-trip exactly
/// (cache entries, checkpoints, timeline and pareto CSVs). Changing
/// either orphans data on disk.
///
/// The parse_* readers serve CLI flags, fault specs, objective weights,
/// request fields, JSON numbers, schedule CSVs, checkpoints and cache
/// entries alike. The whole input must be the number: no leading
/// whitespace, no '+', base 10, and a value out of range is rejected
/// rather than clamped. They return std::nullopt on any violation;
/// callers keep their own range checks and error messages.

namespace rota::util {

/// 64-bit FNV-1a over `bytes` — stable across runs, platforms and standard
/// libraries, unlike std::hash.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes);

/// `value` in printf's %a format: exact, locale-free, and read back
/// bit for bit by parse_f64.
[[nodiscard]] std::string hexfloat(double value);

/// A signed decimal integer ("-12", "007").
[[nodiscard]] std::optional<std::int64_t> parse_i64(std::string_view text);

/// An unsigned decimal integer, or hex after "0x"/"0X". A multi-digit
/// decimal with a leading '0' is rejected, so "010" never reads as octal.
[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view text);

/// A decimal or %a double, read exactly as std::strtod reads it
/// (subnormals and -0.0 included). Overflow to ±inf is rejected; spelled
/// "inf"/"nan" are not, so callers that need finiteness check it.
[[nodiscard]] std::optional<double> parse_f64(std::string_view text);

/// "WxH" with both sides positive parse_i64 integers: {W, H}.
[[nodiscard]] std::optional<std::pair<std::int64_t, std::int64_t>>
parse_geometry(std::string_view text);

}  // namespace rota::util
