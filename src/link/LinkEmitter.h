//===--- LinkEmitter.h - C emission for linked systems ----------*- C++-*-===//
///
/// \file
/// Renders a LinkedSystem as one self-contained C source file by
/// emitting the *fused* CompiledStep (see link/StepFusion.h) through
/// the ordinary single-process CEmitter: the linker has already
/// interleaved every unit's bytecode along the cross-process dependence
/// order and turned channels into slot copies, so the linked system
/// compiles to exactly the code shape a monolithic compilation of the
/// composed program would get —
///
///   <sys>_state_t       the fused delay state (plus counters),
///   <sys>_in_t          the system's external ticks and input values
///                       (channel-bound ticks and values do not appear),
///   <sys>_out_t         the external outputs,
///   <sys>_step()        one fused reaction,
///   <sys>_step_batch()  N instants over input/output arrays.
///
/// External fields are deduplicated by name, mirroring the
/// interpreter's name-keyed environment: two units importing the same
/// unmatched signal read the same field. linkedCInterface() exposes the
/// exact field list so harness generators (the differential oracle)
/// stay in lockstep with the emitted struct layout.
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_LINK_LINKEMITTER_H
#define SIGNALC_LINK_LINKEMITTER_H

#include "codegen/CEmitter.h"
#include "link/Linker.h"

#include <string>
#include <vector>

namespace sigc {

/// The external C interface of a linked system: one entry per struct
/// field, with the environment name it corresponds to.
struct LinkedCInterface {
  struct TickField {
    std::string Field;     ///< "tick_<sanitized>" member of <sys>_in_t.
    std::string ClockName; ///< Environment clock name ("^X", ...).
  };
  struct ValueField {
    std::string Field;      ///< Member of <sys>_in_t / <sys>_out_t.
    std::string SignalName; ///< Environment signal name.
    TypeKind Type = TypeKind::Unknown;
  };
  std::vector<TickField> Ticks;
  std::vector<ValueField> Inputs;
  std::vector<ValueField> Outputs;
};

/// Computes the deduplicated external field lists of \p Sys.
LinkedCInterface linkedCInterface(const LinkedSystem &Sys);

/// Emits the complete linked C translation unit from the fused step.
/// \p SysName names the system-level symbols. Options.WithDriver
/// appends a deterministic main().
std::string emitLinkedC(const LinkedSystem &Sys, const std::string &SysName,
                        const CEmitOptions &Options);

} // namespace sigc

#endif // SIGNALC_LINK_LINKEMITTER_H
