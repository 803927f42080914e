#include "src/emitter/hls_emitter.h"

#include <sstream>
#include <unordered_map>

#include "src/dialect/affine/affine_ops.h"
#include "src/dialect/arith/arith_ops.h"
#include "src/dialect/hida/hida_ops.h"
#include "src/dialect/memref/memref_ops.h"
#include "src/support/diagnostics.h"

namespace hida {

namespace {

/** Stateful emitter with stable C identifiers per SSA value. */
class Emitter {
  public:
    explicit Emitter(std::ostream& os) : os_(os) {}

    void emitFunc(FuncOp func);

  private:
    std::string nameOf(Value* value, const std::string& prefix = "v");
    std::string cType(Type type);
    void indent();
    void emitBlock(Block* block);
    void emitOp(Operation* op);
    void emitBufferDecl(Value* value, BufferOp buffer);
    std::string indexExpr(Value* index);

    std::ostream& os_;
    std::unordered_map<Value*, std::string> names_;
    int nextId_ = 0;
    int depth_ = 1;
    int nodeId_ = 0;
};

std::string
Emitter::nameOf(Value* value, const std::string& prefix)
{
    auto it = names_.find(value);
    if (it != names_.end())
        return it->second;
    std::string base = value->nameHint().empty() ? prefix : value->nameHint();
    std::string name = base + "_" + std::to_string(nextId_++);
    names_[value] = name;
    return name;
}

std::string
Emitter::cType(Type type)
{
    if (type.isFloat())
        return type.bitWidth() == 32 ? "float" : "double";
    if (type.isInteger() || type.isToken()) {
        unsigned width = std::max(type.bitWidth(), 1u);
        return strCat("ap_int<", width, ">");
    }
    if (type.isIndex())
        return "int";
    return "/*unknown*/int";
}

void
Emitter::indent()
{
    for (int i = 0; i < depth_; ++i)
        os_ << "  ";
}

std::string
Emitter::indexExpr(Value* index)
{
    auto expr = decomposeIndex(index);
    if (!expr)
        return nameOf(index);
    std::ostringstream out;
    bool first = true;
    for (const AffineTerm& term : expr->terms) {
        if (!first)
            out << " + ";
        first = false;
        if (term.coeff != 1)
            out << term.coeff << " * ";
        out << nameOf(term.iv, "i");
    }
    if (expr->offset != 0 || first) {
        if (!first)
            out << (expr->offset >= 0 ? " + " : " - ");
        out << std::abs(expr->offset);
    }
    return out.str();
}

void
Emitter::emitBufferDecl(Value* value, BufferOp buffer)
{
    Type type = buffer.type();
    indent();
    os_ << cType(type.elementType()) << " " << nameOf(value, "buf");
    for (int64_t dim : type.shape())
        os_ << "[" << dim << "]";
    os_ << ";";
    if (buffer.isExternal())
        os_ << "  // soft FIFO / external (stages=" << buffer.stages() << ")";
    os_ << "\n";
    auto factors = buffer.partitionFactors();
    auto fashions = buffer.partitionFashions();
    for (size_t d = 0; d < factors.size(); ++d) {
        if (factors[d] <= 1)
            continue;
        indent();
        os_ << "#pragma HLS array_partition variable=" << nameOf(value)
            << (fashions[d] == static_cast<int64_t>(PartitionFashion::kBlock)
                    ? " block"
                    : " cyclic")
            << " factor=" << factors[d] << " dim=" << (d + 1) << "\n";
    }
    if (buffer.stages() > 1 && !buffer.isExternal()) {
        indent();
        os_ << "// ping-pong: " << buffer.stages() << " stages\n";
    }
}

void
Emitter::emitOp(Operation* op)
{
    if (auto loop = dynCast<ForOp>(op)) {
        std::string iv = nameOf(loop.inductionVar(), "i");
        indent();
        os_ << "for (int " << iv << " = " << loop.lowerBound() << "; " << iv
            << " < " << loop.upperBound() << "; " << iv
            << " += " << loop.step() << ") {\n";
        ++depth_;
        if (loop.isPipelined()) {
            indent();
            os_ << "#pragma HLS pipeline II="
                << op->intAttrOr(ForOp::iiId(), 1) << "\n";
        }
        if (loop.unrollFactor() > 1) {
            indent();
            os_ << "#pragma HLS unroll factor=" << loop.unrollFactor()
                << "\n";
        }
        emitBlock(loop.body());
        --depth_;
        indent();
        os_ << "}\n";
        return;
    }
    if (auto node = dynCast<NodeOp>(op)) {
        indent();
        os_ << "// ---- node: " << node.label() << " ----\n";
        indent();
        os_ << "{\n";
        ++depth_;
        for (unsigned i = 0; i < op->numOperands(); ++i)
            names_[node.innerArg(i)] = nameOf(op->operand(i));
        emitBlock(node.body());
        --depth_;
        indent();
        os_ << "}\n";
        return;
    }
    if (auto schedule = dynCast<ScheduleOp>(op)) {
        indent();
        os_ << "{ // dataflow region\n";
        ++depth_;
        indent();
        os_ << "#pragma HLS dataflow\n";
        for (unsigned i = 0; i < op->numOperands(); ++i)
            names_[schedule.body()->argument(i)] = nameOf(op->operand(i));
        emitBlock(schedule.body());
        --depth_;
        indent();
        os_ << "}\n";
        return;
    }
    if (auto buffer = dynCast<BufferOp>(op)) {
        emitBufferDecl(op->result(0), buffer);
        return;
    }
    if (auto stream = dynCast<StreamOp>(op)) {
        indent();
        os_ << "hls::stream<" << cType(stream.elementType()) << "> "
            << nameOf(op->result(0), "fifo") << ";\n";
        indent();
        os_ << "#pragma HLS stream variable=" << nameOf(op->result(0))
            << " depth=" << stream.depth() << "\n";
        return;
    }
    if (isAffineLoad(op)) {
        LoadOp load(op);
        bool padded = op->nameId() != opNameId<LoadOp>();
        indent();
        os_ << cType(op->result(0)->type()) << " "
            << nameOf(op->result(0), "ld") << " = ";
        if (padded)
            os_ << "/*zero-padded*/ ";
        os_ << nameOf(load.memref());
        for (unsigned i = 0; i < load.numIndices(); ++i)
            os_ << "[" << indexExpr(load.index(i)) << "]";
        os_ << ";\n";
        return;
    }
    if (auto store = dynCast<StoreOp>(op)) {
        indent();
        os_ << nameOf(store.memref());
        for (unsigned i = 0; i < store.numIndices(); ++i)
            os_ << "[" << indexExpr(store.index(i)) << "]";
        os_ << " = " << nameOf(store.value()) << ";\n";
        return;
    }
    if (isa<BinaryOp>(op)) {
        BinaryOp binary(op);
        static const char* symbols[] = {"+", "-", "*", "/", "max", "min"};
        const char* symbol = symbols[static_cast<int>(binary.kind())];
        indent();
        os_ << cType(op->result(0)->type()) << " "
            << nameOf(op->result(0), "t") << " = ";
        if (binary.kind() == BinaryKind::kMax ||
            binary.kind() == BinaryKind::kMin)
            os_ << symbol << "(" << nameOf(binary.lhs()) << ", "
                << nameOf(binary.rhs()) << ");\n";
        else
            os_ << nameOf(binary.lhs()) << " " << symbol << " "
                << nameOf(binary.rhs()) << ";\n";
        return;
    }
    if (auto constant = dynCast<ConstantOp>(op)) {
        indent();
        os_ << cType(op->result(0)->type()) << " "
            << nameOf(op->result(0), "c") << " = " << constant.value()
            << ";\n";
        return;
    }
    if (isa<ApplyOp>(op)) {
        indent();
        os_ << "int " << nameOf(op->result(0), "idx") << " = "
            << indexExpr(op->result(0)) << ";\n";
        return;
    }
    if (isa<StreamReadOp>(op)) {
        indent();
        os_ << cType(op->result(0)->type()) << " "
            << nameOf(op->result(0), "tok") << " = "
            << nameOf(op->operand(0)) << ".read();\n";
        return;
    }
    if (isa<StreamWriteOp>(op)) {
        indent();
        os_ << nameOf(op->operand(1)) << ".write(" << nameOf(op->operand(0))
            << ");\n";
        return;
    }
    if (auto copy = dynCast<CopyOp>(op)) {
        indent();
        os_ << "memcpy_wide(" << nameOf(copy.dest()) << ", "
            << nameOf(copy.source()) << ");  // burst copy\n";
        return;
    }
    if (auto port = dynCast<PortOp>(op)) {
        indent();
        os_ << "// port " << nameOf(op->result(0), "port") << ": "
            << port.kind() << " interface, latency " << port.latency();
        if (op->hasAttr(BundleOp::bundleNameId()))
            os_ << ", bundle " << op->attr(BundleOp::bundleNameId()).asString();
        os_ << "\n";
        return;
    }
    if (isa<PackOp>(op)) {
        indent();
        os_ << "#pragma HLS interface m_axi port=" << nameOf(op->operand(0));
        PortOp port = dynCast<PortOp>(op->operand(1)->definingOp());
        if (port && port.op()->hasAttr(BundleOp::bundleNameId()))
            os_ << " bundle="
                << port.op()->attr(BundleOp::bundleNameId()).asString();
        os_ << " latency=" << (port ? port.latency() : PortOp::kDefaultLatency)
            << "\n";
        return;
    }
    if (isa<BundleOp>(op)) {
        indent();
        os_ << "// bundle " << op->attr(BundleOp::bundleNameId()).asString()
            << ": " << op->numOperands() << " ports\n";
        return;
    }
    if (isa<AllocOp>(op) || isa<WeightOp>(op)) {
        Type type = op->result(0)->type();
        indent();
        os_ << cType(type.elementType()) << " " << nameOf(op->result(0));
        for (int64_t dim : type.shape())
            os_ << "[" << dim << "]";
        os_ << ";" << (isa<WeightOp>(op) ? "  // trained parameters" : "")
            << "\n";
        return;
    }
    indent();
    os_ << "// unhandled op: " << op->name() << "\n";
}

void
Emitter::emitBlock(Block* block)
{
    for (Operation* op : *block)
        emitOp(op);
}

void
Emitter::emitFunc(FuncOp func)
{
    os_ << "void " << func.symName() << "(";
    for (unsigned i = 0; i < func.numArguments(); ++i) {
        Value* arg = func.argument(i);
        if (i)
            os_ << ", ";
        os_ << cType(arg->type().elementType()) << " "
            << nameOf(arg, "io");
        for (int64_t dim : arg->type().shape())
            os_ << "[" << dim << "]";
    }
    os_ << ") {\n";
    for (unsigned i = 0; i < func.numArguments(); ++i) {
        Value* arg = func.argument(i);
        if (arg->type().memorySpace() == MemorySpace::kExternal) {
            indent();
            os_ << "#pragma HLS interface m_axi port=" << nameOf(arg)
                << " bundle=gmem" << i << "\n";
        }
    }
    emitBlock(func.body());
    os_ << "}\n";
}

} // namespace

void
emitHlsCpp(ModuleOp module, std::ostream& os)
{
    os << "// Generated by HIDA (hierarchical dataflow compiler for HLS)\n"
       << "#include <ap_int.h>\n#include <hls_stream.h>\n\n";
    for (Operation* op : *module.body())
        if (auto func = dynCast<FuncOp>(op))
            Emitter(os).emitFunc(func);
}

std::string
emitHlsCpp(ModuleOp module)
{
    std::ostringstream os;
    emitHlsCpp(module, os);
    return os.str();
}

} // namespace hida
