//===----------------------------------------------------------------------===//
///
/// \file
/// OutStream implementation.
///
//===----------------------------------------------------------------------===//

#include "support/OutStream.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

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

std::string mult::writeFileChecked(
    const std::string &Path, const char *Mode,
    const std::function<void(OutStream &)> &Write) {
  FILE *F = std::fopen(Path.c_str(), Mode);
  if (!F)
    return "cannot open " + Path + ": " + std::strerror(errno);
  FileOutStream FS(F);
  Write(FS);
  std::string Err;
  if (std::fflush(F) != 0 || std::ferror(F))
    Err = "cannot write " + Path + ": " + std::strerror(errno);
  if (std::fclose(F) != 0 && Err.empty())
    Err = "cannot close " + Path + ": " + std::strerror(errno);
  return Err;
}
