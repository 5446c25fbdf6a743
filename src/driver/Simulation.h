//===--- Simulation.h - The --simulate environment --------------*- C++-*-===//
///
/// \file
/// The environment behind `signalc --simulate`: a scalar run of one
/// CompiledStep against a seeded random environment, stepped by
/// runWindows (interp/VmExecutor.h) like every other run. TextEnvironment
/// renders every flushed output row straight into text, so a --simulate
/// run builds its stdout without recording a single OutputEvent.
///
//===----------------------------------------------------------------------===//

#ifndef SIGNALC_DRIVER_SIMULATION_H
#define SIGNALC_DRIVER_SIMULATION_H

#include "interp/Environment.h"

#include <string>

namespace sigc {

/// A RandomEnvironment that streams its outputs as text instead of
/// recording OutputEvents: each output becomes one appendOutputLine()
/// line, its value rendered by the binding's declared type. The text is
/// exactly formatEvents() over the events a plain RandomEnvironment of
/// the same seed records.
class TextEnvironment : public RandomEnvironment {
public:
  using RandomEnvironment::RandomEnvironment;

  void exchangeOutputs(unsigned Start, unsigned Count, unsigned NumOutputs,
                       const EnvOutputId *Ids, const unsigned char *Present,
                       const VmSlot *Vals) override;

  /// The output lines so far.
  const std::string &text() const { return Text; }

private:
  std::string Text;
};

} // namespace sigc

#endif // SIGNALC_DRIVER_SIMULATION_H
