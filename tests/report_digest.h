// 64-bit FNV-1a of a report's text, computed as isobench digests it, so a
// test can pin a whole rendered report in one 16-hex-digit string.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

namespace testutil {

inline std::string digest(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace testutil
