#include "common/memory.h"

#include <array>
#include <cstdio>

namespace platod2gl {

std::size_t StringBytes(const std::string& s) {
  // Heap allocation only happens above the SSO capacity.
  if (s.capacity() > std::string().capacity()) {
    return s.capacity() + 1;  // +1 for the NUL terminator.
  }
  return 0;
}

std::string HumanBytes(std::size_t bytes) {
  static constexpr std::array<const char*, 5> kUnits = {"B", "KB", "MB", "GB",
                                                        "TB"};
  double value = static_cast<double>(bytes);
  std::size_t unit = 0;
  while (value >= 1024.0 && unit + 1 < kUnits.size()) {
    value /= 1024.0;
    ++unit;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f %s", value, kUnits[unit]);
  return buf;
}

}  // namespace platod2gl
