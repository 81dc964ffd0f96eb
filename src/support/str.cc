#include "src/support/str.h"

#include <cstdarg>
#include <cstdio>
#include <cstring>

namespace gist {

std::vector<std::string_view> SplitNonEmpty(std::string_view text, char separator) {
  std::vector<std::string_view> pieces;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find(separator, start);
    if (end == std::string_view::npos) {
      end = text.size();
    }
    if (end > start) {
      pieces.push_back(text.substr(start, end - start));
    }
    start = end + 1;
  }
  return pieces;
}

std::string_view StripWhitespace(std::string_view text) {
  const char* kSpace = " \t\r\n";
  const size_t first = text.find_first_not_of(kSpace);
  if (first == std::string_view::npos) {
    return std::string_view();
  }
  const size_t last = text.find_last_not_of(kSpace);
  return text.substr(first, last - first + 1);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

std::string StrFormat(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  std::string out(needed > 0 ? static_cast<size_t>(needed) : 0, '\0');
  if (needed > 0) {
    std::vsnprintf(out.data(), out.size() + 1, format, args_copy);
  }
  va_end(args_copy);
  return out;
}

bool ParseU64(std::string_view text, uint64_t max, uint64_t* out) {
  if (text.empty()) {
    return false;
  }
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      return false;
    }
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (digit > max || value > (max - digit) / 10) {
      return false;  // value * 10 + digit > max
    }
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

bool ParseI64(std::string_view text, int64_t* out) {
  constexpr uint64_t kMaxPositive = static_cast<uint64_t>(INT64_MAX);
  const bool negative = !text.empty() && text[0] == '-';
  uint64_t magnitude = 0;
  if (!ParseU64(negative ? text.substr(1) : text, kMaxPositive + (negative ? 1 : 0),
                &magnitude)) {
    return false;
  }
  *out = negative ? static_cast<int64_t>(0 - magnitude) : static_cast<int64_t>(magnitude);
  return true;
}

uint64_t HashBytes(const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

uint64_t HashCombine(uint64_t seed, uint64_t value) {
  // Boost-style mix with 64-bit golden ratio.
  return seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 12) + (seed >> 4));
}

std::string PadRight(std::string_view text, size_t width) {
  std::string out(text);
  if (out.size() < width) {
    out.append(width - out.size(), ' ');
  }
  return out;
}

std::string PadLeft(std::string_view text, size_t width) {
  std::string out;
  if (text.size() < width) {
    out.append(width - text.size(), ' ');
  }
  out.append(text);
  return out;
}

}  // namespace gist
