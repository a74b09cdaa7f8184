//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal buffered output stream in the spirit of llvm::raw_ostream.
/// The Mul-T runtime writes all terminal output through an OutStream so that
/// the distinguished terminal task can own the sink (paper section 2.3) and
/// tests can capture output without touching stdio.
///
//===----------------------------------------------------------------------===//

#ifndef MULT_SUPPORT_OUTSTREAM_H
#define MULT_SUPPORT_OUTSTREAM_H

#include <charconv>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace mult {

/// Longest decimal rendering of a 64-bit integer, sign included.
inline constexpr size_t MaxDecimalChars = 20;

/// Writes \p N in decimal at \p Out, which must have room for
/// MaxDecimalChars bytes, and returns the end of the digits. The integer
/// operators below and the Chrome trace exporter share this formatter.
template <class Int> char *formatDecimal(char *Out, Int N) {
  return std::to_chars(Out, Out + MaxDecimalChars, N).ptr;
}

/// Abstract byte sink with convenience formatting operators.
class OutStream {
public:
  virtual ~OutStream();

  OutStream &operator<<(std::string_view S) {
    write(S.data(), S.size());
    return *this;
  }
  OutStream &operator<<(const char *S) { return *this << std::string_view(S); }
  OutStream &operator<<(char C) {
    write(&C, 1);
    return *this;
  }
  OutStream &operator<<(int64_t N);
  OutStream &operator<<(uint64_t N);
  OutStream &operator<<(int N) { return *this << static_cast<int64_t>(N); }
  OutStream &operator<<(unsigned N) {
    return *this << static_cast<uint64_t>(N);
  }
  OutStream &operator<<(double D);

  /// Appends \p Size bytes starting at \p Data to the sink.
  virtual void write(const char *Data, size_t Size) = 0;

  /// Flushes buffered bytes, if the sink buffers. Default is a no-op.
  virtual void flush() {}
};

/// An OutStream that appends to a caller-owned std::string.
class StringOutStream final : public OutStream {
public:
  explicit StringOutStream(std::string &Buffer) : Buffer(Buffer) {}

  void write(const char *Data, size_t Size) override {
    Buffer.append(Data, Size);
  }

private:
  std::string &Buffer;
};

/// An OutStream over a stdio FILE handle (used by the REPL and examples).
class FileOutStream final : public OutStream {
public:
  /// Wraps \p File, which the caller keeps open for the stream's lifetime.
  explicit FileOutStream(void *File) : File(File) {}

  void write(const char *Data, size_t Size) override;
  void flush() override;

  /// Returns the stream bound to stdout.
  static FileOutStream &stdoutStream();

private:
  void *File;
};

/// Opens \p Path with fopen mode \p Mode, lets \p Write fill it through a
/// FileOutStream, then flushes and closes it. Returns an empty string on
/// success; otherwise what failed -- the open, a write (the stream's error
/// flag after the flush) or the close -- with the path and the reason.
std::string writeFileChecked(const std::string &Path, const char *Mode,
                             const std::function<void(OutStream &)> &Write);

} // namespace mult

#endif // MULT_SUPPORT_OUTSTREAM_H
