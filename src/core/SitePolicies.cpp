//===----------------------------------------------------------------------===//
///
/// \file
/// Site-policy table text format: parse, format, file I/O.
///
//===----------------------------------------------------------------------===//

#include "core/SitePolicies.h"

#include "support/OutStream.h"
#include "support/StrUtil.h"

#include <cstdio>

using namespace mult;

const char *mult::sitePolicyName(SitePolicy P) {
  switch (P) {
  case SitePolicy::Eager:
    return "eager";
  case SitePolicy::Inline:
    return "inline";
  case SitePolicy::Lazy:
    return "lazy";
  }
  return "?";
}

const SitePolicy *SitePolicyTable::lookup(std::string_view Site) const {
  auto It = Policies.find(Site);
  return It == Policies.end() ? nullptr : &It->second;
}

std::string SitePolicyTable::format() const {
  std::string Out = ";; mul-t site policies v1\n";
  for (const auto &[Site, Pol] : Policies) {
    Out += "site ";
    Out += Site;
    Out += ' ';
    Out += sitePolicyName(Pol);
    Out += '\n';
  }
  return Out;
}

static std::string_view trimWs(std::string_view S) {
  return trim(S, " \t\r");
}

bool SitePolicyTable::parse(std::string_view Text, std::string &Err) {
  Policies.clear();
  size_t LineNo = 0;
  while (!Text.empty()) {
    ++LineNo;
    size_t Nl = Text.find('\n');
    std::string_view Line =
        Nl == std::string_view::npos ? Text : Text.substr(0, Nl);
    Text.remove_prefix(Nl == std::string_view::npos ? Text.size() : Nl + 1);
    Line = trimWs(Line);
    if (Line.empty() || Line.front() == ';')
      continue;
    // "site <name> <policy>"
    size_t Sp1 = Line.find(' ');
    if (Sp1 == std::string_view::npos || Line.substr(0, Sp1) != "site") {
      Err = strFormat("line %zu: expected \"site <name> <policy>\"", LineNo);
      Policies.clear();
      return false;
    }
    std::string_view Rest = trimWs(Line.substr(Sp1 + 1));
    size_t Sp2 = Rest.rfind(' ');
    if (Sp2 == std::string_view::npos) {
      Err = strFormat("line %zu: missing policy", LineNo);
      Policies.clear();
      return false;
    }
    std::string_view Site = trimWs(Rest.substr(0, Sp2));
    std::string_view Pol = trimWs(Rest.substr(Sp2 + 1));
    SitePolicy P;
    if (Pol == "eager")
      P = SitePolicy::Eager;
    else if (Pol == "inline")
      P = SitePolicy::Inline;
    else if (Pol == "lazy")
      P = SitePolicy::Lazy;
    else {
      Err = strFormat("line %zu: unknown policy \"%.*s\"", LineNo,
                      static_cast<int>(Pol.size()), Pol.data());
      Policies.clear();
      return false;
    }
    if (Site.empty()) {
      Err = strFormat("line %zu: empty site name", LineNo);
      Policies.clear();
      return false;
    }
    Policies[std::string(Site)] = P;
  }
  return true;
}

bool SitePolicyTable::loadFile(const std::string &Path, std::string &Err) {
  FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    Err = "cannot open " + Path;
    return false;
  }
  std::string Text;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Text.append(Buf, N);
  std::fclose(F);
  return parse(Text, Err);
}

bool SitePolicyTable::saveFile(const std::string &Path,
                               std::string &Err) const {
  Err = writeFileChecked(Path, "w", [&](OutStream &OS) { OS << format(); });
  return Err.empty();
}
