#include "io/scan.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <istream>
#include <limits>
#include <system_error>
#include <type_traits>

namespace msn {
namespace {

/// C-locale isspace: ' ', '\t', '\n', '\v', '\f', '\r'.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

bool IsExponent(char c) { return c == 'e' || c == 'E'; }

/// Whether a decimal that std::from_chars found outside the range of
/// double underflowed (rather than overflowed).  Out of range means a
/// decimal exponent beyond +-300, so the exponent of the leading
/// significant digit decides.
bool Underflows(const char* first, const char* last) {
  const char* p = first;
  if (*p == '-') ++p;
  long long lead = 0;
  bool significant = false;
  bool point = false;
  for (; p != last && !IsExponent(*p); ++p) {
    if (*p == '.') {
      point = true;
    } else if (significant) {
      if (!point) ++lead;
    } else if (*p != '0' || point) {  // First significant digit, or a
      significant = *p != '0';        // zero between it and the point.
      if (point) --lead;
    }
  }
  if (!significant) return true;
  if (p == last) return lead < 0;
  ++p;  // Past the 'e'; from_chars consumed only complete exponents.
  const bool negative = *p == '-';
  if (*p == '+' || *p == '-') ++p;
  long long exp = 0;
  if (std::from_chars(p, last, exp).ec != std::errc()) {
    exp = std::numeric_limits<long long>::max() / 2;  // Saturated.
  }
  return lead + (negative ? -exp : exp) < 0;
}

/// Reads an integer at `*pos` the way `std::istream >>` does.
template <typename T>
bool ParseInteger(const char** pos, const char* end, T* out) {
  using U = std::make_unsigned_t<T>;
  const char* p = *pos;
  bool negative = false;
  if (p != end && (*p == '+' || *p == '-')) {
    negative = *p == '-';
    ++p;
  }
  unsigned long long magnitude = 0;
  const auto [next, ec] = std::from_chars(p, end, magnitude);
  if (ec != std::errc()) return false;  // No digits, or overflow.
  const unsigned long long limit =
      std::is_signed_v<T> && negative
          ? static_cast<unsigned long long>(std::numeric_limits<T>::max()) + 1
          : static_cast<unsigned long long>(std::numeric_limits<T>::max());
  if (magnitude > limit) return false;
  const U bits = static_cast<U>(magnitude);
  // An unsigned value read with '-' wraps, as strtoull does.
  *out = static_cast<T>(negative ? static_cast<U>(U{0} - bits) : bits);
  *pos = next;
  return true;
}

}  // namespace

std::string ReadAll(std::istream& is) {
  std::string text;
  char buf[1 << 14];
  while (is.read(buf, sizeof buf) || is.gcount() > 0) {
    text.append(buf, static_cast<std::size_t>(is.gcount()));
  }
  return text;
}

bool LineScanner::NextRecord(std::string_view* tag) {
  while (!rest_.empty()) {
    const std::size_t newline = rest_.find('\n');
    std::string_view line = rest_.substr(0, newline);
    rest_ = newline == std::string_view::npos ? std::string_view()
                                              : rest_.substr(newline + 1);
    ++line_no_;
    line = line.substr(0, line.find('#'));
    pos_ = line.data();
    end_ = pos_ + line.size();
    if (ReadOne(tag)) return true;  // Else blank or comment-only.
  }
  return false;
}

bool LineScanner::ReadOne(std::string_view* out) {
  while (pos_ != end_ && IsSpace(*pos_)) ++pos_;
  const char* start = pos_;
  while (pos_ != end_ && !IsSpace(*pos_)) ++pos_;
  *out = std::string_view(start, static_cast<std::size_t>(pos_ - start));
  return pos_ != start;
}

bool LineScanner::ReadOne(std::string* out) {
  std::string_view token;
  if (!ReadOne(&token)) return false;
  out->assign(token);
  return true;
}

bool LineScanner::ReadOne(double* out) {
  while (pos_ != end_ && IsSpace(*pos_)) ++pos_;
  const char* digits = pos_;
  if (digits != end_ && (*digits == '+' || *digits == '-')) ++digits;
  // A sign or "inf"/"nan" alone is no number.
  if (digits == end_ || !(IsDigit(*digits) || *digits == '.')) return false;
  const char* first = *pos_ == '+' ? digits : pos_;
  double value = 0.0;
  const auto [next, ec] = std::from_chars(first, end_, value);
  if (ec == std::errc::invalid_argument) return false;
  // from_chars leaves an exponent without digits unread; the stream
  // would have consumed it and failed.
  if (next != end_ && IsExponent(*next) &&
      std::find_if(first, next, IsExponent) == next) {
    return false;
  }
  if (ec == std::errc::result_out_of_range) {
    if (!Underflows(first, next)) return false;
    value = *first == '-' ? -0.0 : 0.0;
  }
  *out = value;
  pos_ = next;
  return true;
}

bool LineScanner::ReadOne(int* out) {
  while (pos_ != end_ && IsSpace(*pos_)) ++pos_;
  return ParseInteger(&pos_, end_, out);
}

bool LineScanner::ReadOne(std::int64_t* out) {
  while (pos_ != end_ && IsSpace(*pos_)) ++pos_;
  return ParseInteger(&pos_, end_, out);
}

bool LineScanner::ReadOne(std::size_t* out) {
  while (pos_ != end_ && IsSpace(*pos_)) ++pos_;
  return ParseInteger(&pos_, end_, out);
}

}  // namespace msn
