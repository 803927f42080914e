#ifndef HIDA_IR_PARSER_H
#define HIDA_IR_PARSER_H

/**
 * @file
 * Textual IR parser: reads the generic form produced by printOp() back
 * into in-memory IR, enabling print/parse round-trips, IR snapshots in
 * tests, and file-based interchange (the Translation role in MLIR
 * terminology, Section 3.1).
 *
 * Known lossy corner: a float attribute with an integral value prints
 * without a decimal point and re-parses as an integer attribute; both
 * read back identically through Attribute::asFloat().
 */

#include <string>

#include "src/ir/builtin_ops.h"
#include "src/support/diagnostics.h"

namespace hida {

/** Parse the printed form of a module (as produced by toString()).
 * Malformed text yields a kParseFailed Diagnostic whose message gives
 * the offset and the token it stopped at. */
Result<OwnedModule> parseModule(const std::string& text);

} // namespace hida

#endif // HIDA_IR_PARSER_H
