#include "util/encode.hpp"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace rota::util {

namespace {

/// from_chars over all of `text`: no whitespace, no '+', no overflow.
template <typename T>
std::optional<T> parse_whole(std::string_view text, int base) {
  T value{};
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value, base);
  if (ec != std::errc{} || ptr != last) return std::nullopt;
  return value;
}

}  // namespace

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hexfloat(double value) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", value);
  return buf;
}

std::optional<std::int64_t> parse_i64(std::string_view text) {
  return parse_whole<std::int64_t>(text, 10);
}

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X'))
    return parse_whole<std::uint64_t>(text.substr(2), 16);
  if (text.size() > 1 && text[0] == '0') return std::nullopt;
  return parse_whole<std::uint64_t>(text, 10);
}

std::optional<double> parse_f64(std::string_view text) {
  // strtod skips leading whitespace and takes '+'; the contract does not.
  if (text.empty() || text[0] == '+' ||
      std::isspace(static_cast<unsigned char>(text[0])))
    return std::nullopt;
  const std::string terminated(text);
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(terminated.c_str(), &end);
  if (end != terminated.c_str() + terminated.size()) return std::nullopt;
  if (errno == ERANGE && std::isinf(value)) return std::nullopt;
  return value;
}

std::optional<std::pair<std::int64_t, std::int64_t>> parse_geometry(
    std::string_view text) {
  const std::size_t x = text.find('x');
  if (x == std::string_view::npos) return std::nullopt;
  const auto width = parse_i64(text.substr(0, x));
  const auto height = parse_i64(text.substr(x + 1));
  if (!width || !height || *width < 1 || *height < 1) return std::nullopt;
  return std::pair{*width, *height};
}

}  // namespace rota::util
