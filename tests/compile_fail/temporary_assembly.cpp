// Compile-fail case: a simulator built from a temporary assembly.
//
// The simulator borrows the assembly's catalogue, so make_simulator() and
// run_simulator() are deleted on rvalues: the temporary would be gone
// before the simulator's first lookup.  With HPCEM_MISTAKE defined this
// file must not compile; without it, the named-assembly form must compile.
#include <memory>

#include "core/assembly.hpp"

namespace {

std::unique_ptr<hpcem::FacilitySimulator> build(
    const hpcem::ScenarioSpec& spec) {
#ifdef HPCEM_MISTAKE
  return hpcem::FacilityAssembly(spec).make_simulator();
#else
  static const hpcem::FacilityAssembly assembly(spec);
  return assembly.make_simulator();
#endif
}

}  // namespace

int main() {
  hpcem::ScenarioSpec spec;
  spec.window_end = spec.window_start + hpcem::Duration::days(1.0);
  return build(spec) ? 0 : 1;
}
