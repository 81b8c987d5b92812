// Field scanners for the flat JSON-lines records the benches write (one
// object per line, no nesting inside a scanned field).
#pragma once

#include <cstdlib>
#include <string>

namespace diva::flat_json {

/// Reads `"key":<number>` from one record line; false when the key is
/// absent or its value is not a number. A key only matches right after
/// '{' or ',', so "p50_ms" never matches inside "x_p50_ms".
inline bool extract_number(const std::string& line, const std::string& key,
                           double* out) {
  const std::string needle = "\"" + key + "\":";
  for (std::size_t pos = line.find(needle); pos != std::string::npos;
       pos = line.find(needle, pos + needle.size())) {
    if (pos > 0 && line[pos - 1] != ',' && line[pos - 1] != '{') continue;
    const char* start = line.c_str() + pos + needle.size();
    char* end = nullptr;
    const double v = std::strtod(start, &end);
    if (end == start) return false;
    *out = v;
    return true;
  }
  return false;
}

/// Reads `"key":"<value>"` (no escapes inside the value); false when
/// the key is absent or the value is unterminated.
inline bool extract_string(const std::string& line, const std::string& key,
                           std::string* out) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  const std::size_t start = pos + needle.size();
  const std::size_t stop = line.find('"', start);
  if (stop == std::string::npos) return false;
  *out = line.substr(start, stop - start);
  return true;
}

}  // namespace diva::flat_json
