// Fixture: stat-registry/bad-digit-separator — declares "smartdimm".
#include "trace/trace.h"

void
registerStats(sd::trace::StatsRegistry &registry)
{
    registry.add("smartdimm", [](sd::trace::StatsBlock &) {});
}
