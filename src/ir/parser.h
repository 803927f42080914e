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

#include <optional>
#include <string>

#include "src/ir/builtin_ops.h"

namespace hida {

/** Result of a parse: the module, or an error message with a position. */
struct ParseResult {
    OwnedModule module;
    std::optional<std::string> error;

    explicit operator bool() const { return !error.has_value(); }
};

/** Parse the printed form of a module (as produced by toString()). */
ParseResult parseModule(const std::string& text);

} // namespace hida

#endif // HIDA_IR_PARSER_H
