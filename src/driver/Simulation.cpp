//===--- Simulation.cpp ---------------------------------------------------===//

#include "driver/Simulation.h"

using namespace sigc;

void TextEnvironment::exchangeOutputs(unsigned Start, unsigned Count,
                                      unsigned NumOutputs,
                                      const EnvOutputId *Ids,
                                      const unsigned char *Present,
                                      const VmSlot *Vals) {
  for (unsigned I = 0; I < Count; ++I)
    for (unsigned O = 0; O < NumOutputs; ++O) {
      size_t At = static_cast<size_t>(I) * NumOutputs + O;
      if (Present[At])
        appendOutputLine(Text, Start + I, outputBindingName(Ids[O]), Vals[At],
                         outputBindingType(Ids[O]));
    }
}
