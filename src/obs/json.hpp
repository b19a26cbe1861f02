#pragma once

#include <string>
#include <string_view>

/// \file json.hpp
/// Minimal JSON emission helpers shared by the observability sinks
/// (metrics, trace events, run manifests). No external dependency: the
/// JSON we emit is flat and machine-generated, so a small hand-rolled
/// writer is both sufficient and auditable. The repo's one JSON reader is
/// svc::JsonValue (svc/jsonv.hpp); tests parse emitted JSON with it.

namespace rota::obs {

/// Version of every JSON envelope this repo emits or accepts: the
/// metrics snapshot (`--stats-out`, svc `stats`), BENCH_perf.json, the
/// trace envelope and the svc request/reply protocol. Unversioned
/// envelopes from before the v1 API redesign are retroactively version 1;
/// bump this whenever any envelope's layout changes so downstream tooling
/// (tools/bench_compare.py, CI smoke checks, svc clients) fails loudly on
/// drift instead of misreading fields.
inline constexpr int kSchemaVersion = 2;

/// Escape a string for use inside a JSON string literal (quotes, control
/// characters and backslashes; UTF-8 passes through untouched).
[[nodiscard]] std::string json_escape(std::string_view text);

/// `text` escaped and wrapped in double quotes.
[[nodiscard]] std::string json_quote(std::string_view text);

/// Format a double as a JSON number. Non-finite values (which JSON cannot
/// represent) render as `null`.
[[nodiscard]] std::string json_number(double value);

}  // namespace rota::obs
