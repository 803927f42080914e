#include "src/ir/printer.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/ir/operation.h"

namespace hida {

namespace {

/** Stateful printer assigning stable SSA names per top-level print call. */
class Printer {
  public:
    explicit Printer(std::ostream& os) : os_(os) {}

    void print(const Operation* op, int indent);

  private:
    std::string nameOf(Value* value);
    void indentTo(int indent);

    std::ostream& os_;
    std::unordered_map<Value*, std::string> names_;
    std::unordered_map<std::string, int> hintCounts_;
    int nextId_ = 0;
};

std::string
Printer::nameOf(Value* value)
{
    auto it = names_.find(value);
    if (it != names_.end())
        return it->second;
    std::string name;
    if (!value->nameHint().empty()) {
        int count = hintCounts_[value->nameHint()]++;
        name = "%" + value->nameHint();
        if (count > 0)
            name += "_" + std::to_string(count);
    } else {
        name = "%" + std::to_string(nextId_++);
    }
    names_[value] = name;
    return name;
}

void
Printer::indentTo(int indent)
{
    for (int i = 0; i < indent; ++i)
        os_ << "  ";
}

void
Printer::print(const Operation* op, int indent)
{
    indentTo(indent);
    auto* mutable_op = const_cast<Operation*>(op);

    // Results.
    for (unsigned i = 0; i < op->numResults(); ++i) {
        os_ << (i ? ", " : "") << nameOf(mutable_op->result(i));
    }
    if (op->numResults() > 0)
        os_ << " = ";

    os_ << op->name();

    // Operands.
    os_ << "(";
    for (unsigned i = 0; i < op->numOperands(); ++i) {
        if (i)
            os_ << ", ";
        Value* operand = op->operand(i);
        os_ << (operand != nullptr ? nameOf(operand) : std::string("<<null>>"));
        if (operand != nullptr)
            os_ << " : " << operand->type().str();
    }
    os_ << ")";

    // Attributes. Storage is sorted by intern id; print lexicographically
    // so output is stable across intern orders (and matches the historical
    // std::map-keyed format).
    if (!op->attrs().empty()) {
        std::vector<std::pair<std::string_view, const Attribute*>> entries;
        entries.reserve(op->attrs().size());
        for (const auto& [key, value] : op->attrs())
            entries.emplace_back(key.str(), &value);
        std::sort(
            entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
        os_ << " {";
        bool first = true;
        for (const auto& [key, value] : entries) {
            if (!first)
                os_ << ", ";
            first = false;
            os_ << key << " = " << value->str();
        }
        os_ << "}";
    }

    // Result types.
    if (op->numResults() > 0) {
        os_ << " : ";
        for (unsigned i = 0; i < op->numResults(); ++i)
            os_ << (i ? ", " : "") << mutable_op->result(i)->type().str();
    }

    // Regions.
    for (unsigned r = 0; r < op->numRegions(); ++r) {
        const Region& region = op->region(r);
        os_ << " {";
        for (const auto& block : region.blocks()) {
            if (block->numArguments() > 0) {
                os_ << "\n";
                indentTo(indent + 1);
                os_ << "^bb(";
                for (unsigned i = 0; i < block->numArguments(); ++i) {
                    if (i)
                        os_ << ", ";
                    os_ << nameOf(block->argument(i)) << " : "
                        << block->argument(i)->type().str();
                }
                os_ << "):";
            }
            for (Operation* nested : *block) {
                os_ << "\n";
                print(nested, indent + 1);
            }
        }
        os_ << "\n";
        indentTo(indent);
        os_ << "}";
    }
    if (indent == 0)
        os_ << "\n";
}

} // namespace

void
printOp(const Operation* op, std::ostream& os)
{
    Printer(os).print(op, 0);
    os << "\n";
}

std::string
toString(const Operation* op)
{
    std::ostringstream os;
    printOp(op, os);
    return os.str();
}

} // namespace hida
