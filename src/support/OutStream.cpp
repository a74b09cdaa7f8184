//===----------------------------------------------------------------------===//
///
/// \file
/// OutStream implementation.
///
//===----------------------------------------------------------------------===//

#include "support/OutStream.h"

#include <cstdio>

using namespace mult;

OutStream::~OutStream() = default;

OutStream &OutStream::operator<<(int64_t N) {
  char Buf[MaxDecimalChars];
  write(Buf, static_cast<size_t>(formatDecimal(Buf, N) - Buf));
  return *this;
}

OutStream &OutStream::operator<<(uint64_t N) {
  char Buf[MaxDecimalChars];
  write(Buf, static_cast<size_t>(formatDecimal(Buf, N) - Buf));
  return *this;
}

OutStream &OutStream::operator<<(double D) {
  char Buf[48];
  int Len = std::snprintf(Buf, sizeof(Buf), "%g", D);
  write(Buf, static_cast<size_t>(Len));
  return *this;
}

void FileOutStream::write(const char *Data, size_t Size) {
  std::fwrite(Data, 1, Size, static_cast<FILE *>(File));
}

void FileOutStream::flush() { std::fflush(static_cast<FILE *>(File)); }

FileOutStream &FileOutStream::stdoutStream() {
  static FileOutStream Stream(stdout);
  return Stream;
}
