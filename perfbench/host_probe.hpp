// Host-speed probe of the benchmark (README.md, "Timing statistics").
//
// A fixed piece of work, written here and not in the library, that runs
// the two kinds of kernel the antenna workloads spend their time in: a
// complex sparse matrix-vector product and the projection of vectors on a
// block Krylov basis. Its time tracks how fast the shared host runs those
// solvers at the moment, and it cannot move when the library changes. It
// is compiled without the library's compile options (CMakeLists.txt).
#pragma once

namespace perfbench {

// Wall time of one probe, in milliseconds (about 4 ms on the reference
// host). The first call also builds the probe's inputs.
double host_probe_ms();

}  // namespace perfbench
