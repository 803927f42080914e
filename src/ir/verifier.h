#ifndef HIDA_IR_VERIFIER_H
#define HIDA_IR_VERIFIER_H

/**
 * @file
 * Structural IR verifier: SSA dominance, isolation (IsolatedFromAbove),
 * terminator placement, plus per-op hooks from the OpRegistry.
 *
 * Cost: one pre-order pass over the tree, iterating blocks in place. A
 * dominance check is O(depth) (Operation::isBeforeInBlock is O(1)), and
 * the op info comes from the registry's lock-free id-indexed table.
 *
 * Structural verdicts: a clean verify of a detached root records, per
 * thread, a verdict keyed on the root and its structure epoch (see
 * Operation::structureEpoch), holding the tree's hooks in pre-order. A
 * later verify of that root at the same epoch skips the walk and the
 * structural checks, which read only operands, op order, block
 * arguments and op names, and runs every hook from that list in the
 * same order, so it returns the same first error. Each thread keeps one
 * verdict, for the last root it verified in full if that verify passed;
 * any structural mutation moves the epoch and so retires it. A verify
 * of an op inside a tree always runs in full and records nothing. The
 * order indices it reads are lazily written tree state: only the thread
 * that owns the tree may verify it.
 */

#include <optional>
#include <string>

#include "src/support/diagnostics.h"

namespace hida {

class Operation;

/**
 * Verify @p root and everything nested inside it.
 * @return the first error in pre-order, or std::nullopt when the IR is
 * valid.
 */
std::optional<std::string> verify(Operation* root);

/**
 * Recoverable verification: returns a kVerifyFailed Diagnostic instead
 * of aborting, so a sweep can reject a bad prototype (or a bad point)
 * as data before any worker starts. Honors the FaultSite::kVerifier
 * injection hook (src/support/fault_inject.h). @p what names the
 * subject in the diagnostic path (e.g. "sweep prototype").
 */
std::optional<Diagnostic> verifyToDiagnostic(Operation* root,
                                             const std::string& what = "");

} // namespace hida

#endif // HIDA_IR_VERIFIER_H
