// Structural well-formedness checks for MiniIR modules.
//
// Run after construction (builder or parser) and before handing a module to
// the analyses or the VM; both assume verified modules.

#ifndef GIST_SRC_IR_VERIFIER_H_
#define GIST_SRC_IR_VERIFIER_H_

#include "src/ir/module.h"
#include "src/support/result.h"

namespace gist {

// Returns ok iff the module is well formed:
//   * every function has at least one block; every block ends with exactly
//     one terminator and contains no interior terminators;
//   * branch/jump targets, callees, globals, and registers are in range;
//   * the globals fit in [kGlobalsBase, kHeapBase) (kMaxGlobalWords words);
//   * call and spawn argument counts match callee parameter counts;
//   * instruction ids round-trip through the module's location table.
Status VerifyModule(const Module& module);

}  // namespace gist

#endif  // GIST_SRC_IR_VERIFIER_H_
