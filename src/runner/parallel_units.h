/**
 * @file
 * runUnits() moved to src/sim/parallel_units.h so the graph layer can
 * use it; this header keeps the old include path building.
 */

#ifndef BAUVM_RUNNER_PARALLEL_UNITS_H_
#define BAUVM_RUNNER_PARALLEL_UNITS_H_

#include "src/sim/parallel_units.h"

#endif // BAUVM_RUNNER_PARALLEL_UNITS_H_
