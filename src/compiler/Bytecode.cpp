//===----------------------------------------------------------------------===//
///
/// \file
/// Bytecode utilities: mnemonics and the disassembler.
///
//===----------------------------------------------------------------------===//

#include "compiler/Bytecode.h"

#include "runtime/Printer.h"
#include "support/StrUtil.h"

using namespace mult;

const char *mult::opName(Op O) {
  auto I = static_cast<size_t>(O);
  return I < NumOpcodes ? OpInfos[I].Mnemonic : "bad-op";
}

std::string mult::disassemble(const Code &C) {
  std::string Out;
  StringOutStream OS(Out);
  OS << C.Name << " (params " << C.NumParams << ", frame "
     << C.MaxFrameWords << "):\n";
  for (size_t I = 0; I < C.Insns.size(); ++I) {
    const Insn &In = C.Insns[I];
    OS << strFormat("  %4zu  %-16s", I, opName(In.Opcode));
    switch (opShape(In.Opcode)) {
    case OperandShape::Const:
    case OperandShape::Global:
      OS << In.A << "  ; ";
      printValue(OS, C.Constants[static_cast<size_t>(In.A)]);
      break;
    case OperandShape::Closure:
      OS << In.A << ", free " << In.B;
      break;
    case OperandShape::Slot:
      OS << In.A << ", slot " << In.B;
      break;
    case OperandShape::Argc:
      OS << In.A << ", argc " << In.B;
      break;
    case OperandShape::A:
      OS << In.A;
      break;
    case OperandShape::None:
      break;
    }
    OS << '\n';
  }
  return Out;
}
