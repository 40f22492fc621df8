// Zero-copy line and field scanner shared by the text readers (`.msn`
// nets, solution sections and `.msd` designs).
//
// A LineScanner is a cursor over one std::string_view.  It splits the
// text into '\n'-terminated lines, cuts each line at its first '#', and
// reads whitespace-separated fields (C-locale whitespace, so a CRLF line
// end is just trailing whitespace).  Numbers are parsed with
// std::from_chars, never through a stream or the global locale.
//
// Each field is read exactly as `std::istream >>` reads it in the C
// locale, which is how the .msn and .msd formats define a field:
//   * A number is the longest numeric prefix at the cursor; the rest of
//     the token is left for the next field ("5.0x" reads 5, "0x10"
//     reads 0).
//   * A leading '+' is accepted ("+5"); "inf", "nan" and hex floats are
//     not numbers.  A value that overflows a double fails; one that
//     underflows reads as (signed) zero, and subnormals are kept.
//   * An unsigned integer written with '-' wraps ("-1" reads SIZE_MAX);
//     an integer out of its type's range fails.
//   * A mantissa followed by a dangling exponent ("1e", "1e+") fails.
#ifndef MSN_IO_SCAN_H
#define MSN_IO_SCAN_H

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace msn {

/// The rest of `is`, read into one string (the stream overloads of the
/// readers parse that string).
std::string ReadAll(std::istream& is);

class LineScanner {
 public:
  explicit LineScanner(std::string_view text) : rest_(text) {}

  /// Moves to the next line that holds a field once cut at its first
  /// '#' and reads that field as the record tag.  False at end of text.
  bool NextRecord(std::string_view* tag);

  /// 1-based number of the current line (blank lines count).
  std::size_t LineNo() const { return line_no_; }

  /// Reads the next fields of the current line into `out...` in order,
  /// stopping at the first that fails, like a chain of `>>`.
  template <typename... T>
  bool Read(T*... out) {
    return (ReadOne(out) && ...);
  }

 private:
  bool ReadOne(std::string_view* out);
  bool ReadOne(std::string* out);
  bool ReadOne(double* out);
  bool ReadOne(int* out);
  bool ReadOne(std::int64_t* out);
  bool ReadOne(std::size_t* out);

  std::string_view rest_;  ///< Text after the current line.
  const char* pos_ = nullptr;  ///< Cursor in the current line.
  const char* end_ = nullptr;  ///< End of the current line, '#' cut off.
  std::size_t line_no_ = 0;
};

}  // namespace msn

#endif  // MSN_IO_SCAN_H
