//===--- NativeModule.cpp -------------------------------------------------===//

#include "native/NativeModule.h"

#include "codegen/CEmitter.h"
#include "native/StepHash.h"

#include <dlfcn.h>

#include <type_traits>

using namespace sigc;

namespace {

/// The fixed internal process name every native unit is emitted under;
/// keeps the cache independent of the user-visible process name.
const char *UnitName = "sigc_unit";

} // namespace

std::string NativeModule::buildSource(const CompiledStep &CS,
                                      const std::string &Hash) {
  CEmitOptions EO;
  EO.WithDriver = false;
  std::string Out = emitC(CS, UnitName, EO);

  const std::string NOut = std::to_string(CS.Outputs.size());
  const std::string NState = std::to_string(CS.StateInit.size());

  Out += "\n/* ---- signalc native tier shim (ABI v" +
         std::to_string(NativeFormatVersion) + ") ---- */\n";
  Out += "int sigc_native_abi_tag(void) { return " +
         std::to_string(NativeFormatVersion) + "; }\n";
  Out += "const char *sigc_native_hash(void) { return \"" + Hash + "\"; }\n";
  Out += "const char *sigc_native_flags(void) { return \"" +
         std::string(nativeCcFlags()) + "\"; }\n";
  Out += "unsigned long sigc_native_state_bytes(void) { return (unsigned "
         "long)sizeof(sigc_unit_state_t); }\n";
  Out += "unsigned sigc_native_num_state(void) { return " + NState + "u; }\n\n";

  // Scalar batch entry on the host's state block: columnar strided
  // stimulus (the VmExecutor batch buffer layout), row-major
  // flush-ordered outputs. The emitted step memsets its out struct, so
  // absent outputs read as present=0/value=0. A failed clock check
  // stops the batch after its instant's rows.
  Out += "unsigned sigc_native_run(void *stv, const unsigned char *ticks, "
         "unsigned long tick_stride, const sigc_unit_slot_t *ins, "
         "unsigned long in_stride, unsigned char *outp, sigc_unit_slot_t "
         "*outv, unsigned count, int *check) {\n"
         "  sigc_unit_state_t *st = (sigc_unit_state_t *)stv;\n"
         "  sigc_unit_in_t in_s;\n"
         "  sigc_unit_out_t out_s;\n"
         "  unsigned i;\n"
         "  memset(&in_s, 0, sizeof in_s);\n"
         "  (void)ticks; (void)tick_stride; (void)ins; (void)in_stride;\n"
         "  (void)outp; (void)outv;\n"
         "  for (i = 0; i < count; ++i) {\n";
  for (size_t D = 0; D < CS.ClockInputs.size(); ++D)
    Out += "    in_s.tick_" + sanitizeIdent(CS.ClockInputs[D].Name) +
           " = ticks[" + std::to_string(D) + "ul * tick_stride + i];\n";
  for (size_t D = 0; D < CS.Inputs.size(); ++D) {
    const auto &SI = CS.Inputs[D];
    Out += "    in_s." + sanitizeIdent(SI.Name) + " = ins[" +
           std::to_string(D) + "ul * in_stride + i]." + slotMember(SI.Type) +
           ";\n";
  }
  Out += "    int r = sigc_unit_step(st, &in_s, &out_s);\n";
  for (size_t Pos = 0; Pos < CS.OutputFlushOrder.size(); ++Pos) {
    const auto &SO = CS.Outputs[CS.OutputFlushOrder[Pos]];
    std::string Id = sanitizeIdent(SO.Name);
    std::string At = "i * " + NOut + "u + " + std::to_string(Pos) + "u";
    Out += "    outp[" + At + "] = (unsigned char)out_s." + Id +
           "_present;\n";
    Out += "    outv[" + At + "]." + slotMember(SO.Type) + " = out_s." + Id +
           ";\n";
  }
  Out += "    if (r) {\n      *check = r;\n      return i + 1;\n    }\n";
  Out += "  }\n  return count;\n}\n";
  return Out;
}

NativeModule::~NativeModule() { close(); }

void NativeModule::close() {
  if (Handle) {
    dlclose(Handle);
    Handle = nullptr;
  }
}

bool NativeModule::load(const std::string &SoPath,
                        const std::string &ExpectHash, std::string &Error) {
  close();
  Handle = dlopen(SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!Handle) {
    const char *E = dlerror();
    Error = "dlopen failed: " + std::string(E ? E : "unknown error");
    return false;
  }
  Path = SoPath;

  auto Resolve = [&](const char *Name, auto &Fn) {
    Fn = reinterpret_cast<std::remove_reference_t<decltype(Fn)>>(
        dlsym(Handle, Name));
    if (!Fn && Error.empty())
      Error = std::string("missing symbol ") + Name;
  };
  Error.clear();
  Resolve("sigc_native_abi_tag", AbiTagFn);
  Resolve("sigc_native_hash", HashFn);
  Resolve("sigc_native_flags", FlagsFn);
  Resolve("sigc_native_state_bytes", StateBytesFn);
  Resolve("sigc_native_num_state", NumStateFn);
  Resolve("sigc_native_run", RunFn);
  if (!Error.empty()) {
    close();
    return false;
  }

  if (AbiTagFn() != NativeFormatVersion) {
    Error = "ABI tag mismatch: artifact v" + std::to_string(AbiTagFn()) +
            ", runtime v" + std::to_string(NativeFormatVersion);
    close();
    return false;
  }
  if (std::string(FlagsFn()) != nativeCcFlags()) {
    Error = "compiler-flag mismatch: artifact built with \"" +
            std::string(FlagsFn()) + "\"";
    close();
    return false;
  }
  // The host runs the artifact on its own state block: the emitted
  // struct must be two counters and N 8-byte slots, nothing else.
  if (StateBytesFn() != 16ul + 8ul * NumStateFn()) {
    Error = "state layout mismatch: " + std::to_string(StateBytesFn()) +
            " bytes for " + std::to_string(NumStateFn()) + " delay slot(s)";
    close();
    return false;
  }
  if (ExpectHash != HashFn()) {
    Error = "stale artifact: embedded hash " + std::string(HashFn()) +
            " != expected " + ExpectHash;
    close();
    return false;
  }
  return true;
}
