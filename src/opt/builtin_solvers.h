// Private bridge between the registry (solver.cpp) and the seven solver
// translation units. Each solver .cpp defines its Solver class and the
// factory below next to it; solver.cpp references them all when seeding the
// registry. Routing the references through named functions (not static
// registrar objects) keeps registration reliable under static-archive
// linking, where an object file whose only content is a self-registering
// global would be dropped.
#ifndef SAFEOPT_OPT_BUILTIN_SOLVERS_H
#define SAFEOPT_OPT_BUILTIN_SOLVERS_H

#include <memory>

#include "safeopt/opt/solver.h"

namespace safeopt::opt::builtin {

std::unique_ptr<Solver> coordinate_descent();
std::unique_ptr<Solver> differential_evolution();
std::unique_ptr<Solver> golden_section();
std::unique_ptr<Solver> grid_search();
std::unique_ptr<Solver> hooke_jeeves();
std::unique_ptr<Solver> multi_start();
std::unique_ptr<Solver> nelder_mead();

}  // namespace safeopt::opt::builtin

#endif  // SAFEOPT_OPT_BUILTIN_SOLVERS_H
