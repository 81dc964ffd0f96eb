// Small string helpers shared across modules.

#ifndef GIST_SRC_SUPPORT_STR_H_
#define GIST_SRC_SUPPORT_STR_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace gist {

// Splits `text` on `separator`, dropping empty pieces.
std::vector<std::string_view> SplitNonEmpty(std::string_view text, char separator);

// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);

// Formats like printf into a std::string.
std::string StrFormat(const char* format, ...) __attribute__((format(printf, 1, 2)));

// Strict base-10 parse of an unsigned integer in [0, max]: digits only, so
// an empty string, a sign, whitespace, trailing characters and overflow are
// all rejected. Leaves `*out` untouched on failure.
bool ParseU64(std::string_view text, uint64_t max, uint64_t* out);
// Same, for a signed integer: an optional leading '-', then digits.
bool ParseI64(std::string_view text, int64_t* out);

// FNV-1a over bytes; used for stack-trace hashing and failure matching.
uint64_t HashBytes(const void* data, size_t size);
uint64_t HashCombine(uint64_t seed, uint64_t value);

// Left/right pads `text` with spaces to `width` columns (no truncation).
std::string PadRight(std::string_view text, size_t width);
std::string PadLeft(std::string_view text, size_t width);

}  // namespace gist

#endif  // GIST_SRC_SUPPORT_STR_H_
