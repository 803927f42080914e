#ifndef HIDA_IR_TYPE_H
#define HIDA_IR_TYPE_H

/**
 * @file
 * Immutable, value-semantic type system for the HIDA IR. Types are small
 * handles onto shared immutable storage with structural equality, mirroring
 * the role of mlir::Type. Storage is uniqued in a process-wide table
 * guarded by a mutex, so structurally equal types share one storage object
 * (pointer-equality fast paths in == and hash) and a module deep-clone
 * handed to a worker thread shares type storage with its prototype safely:
 * the storage is immutable apart from the lazily computed hash, which is
 * atomic.
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace hida {

/** Discriminator for the built-in type kinds used across all dialects. */
enum class TypeKind {
    kNone,     ///< Absence of a value (used for token-less results).
    kIndex,    ///< Loop induction variables and sizes.
    kInteger,  ///< Fixed-width integer (i1 .. i64).
    kFloat,    ///< IEEE float (f32 or f64 by width).
    kTensor,   ///< Immutable SSA tensor (Functional dataflow).
    kMemRef,   ///< Mutable memory reference (Structural dataflow).
    kStream,   ///< FIFO stream channel with a bounded depth.
    kToken,    ///< Single-bit synchronization token channel.
};

/** Memory space a memref/buffer lives in. */
enum class MemorySpace {
    kDefault,   ///< Not yet placed.
    kOnChip,    ///< BRAM/URAM on-chip storage.
    kExternal,  ///< Off-chip DRAM behind an AXI interface.
};

/** Shared immutable payload backing a Type handle. */
struct TypeStorage {
    TypeKind kind = TypeKind::kNone;
    unsigned width = 0;                ///< Bit width for int/float types.
    bool isSigned = true;              ///< Signedness for integers.
    std::vector<int64_t> shape;        ///< For tensor/memref.
    std::shared_ptr<const TypeStorage> element;  ///< For tensor/memref/stream.
    int64_t depth = 0;                 ///< Stream depth (number of entries).
    MemorySpace space = MemorySpace::kDefault;   ///< For memref.
    /**
     * Lazily computed structural hash (0 = not yet computed). Atomic so
     * concurrent compilations sharing uniqued storage may race to fill it
     * (both writers store the same value; relaxed ordering suffices).
     */
    mutable std::atomic<uint64_t> hashCache{0};
};

/**
 * Value-semantic type handle. Default-constructed handles are null; all
 * factory methods return non-null handles.
 */
class Type {
  public:
    Type() = default;

    /** @name Factory methods for every built-in kind. @{ */
    static Type none();
    static Type index();
    static Type integer(unsigned width, bool is_signed = true);
    static Type i1() { return integer(1, false); }
    static Type i8() { return integer(8); }
    static Type i16() { return integer(16); }
    static Type i32() { return integer(32); }
    static Type i64() { return integer(64); }
    static Type f32() { return floating(32); }
    static Type f64() { return floating(64); }
    static Type floating(unsigned width);
    static Type tensor(std::vector<int64_t> shape, Type element);
    static Type memref(std::vector<int64_t> shape, Type element,
                       MemorySpace space = MemorySpace::kDefault);
    static Type stream(Type element, int64_t depth);
    static Type token();
    /** @} */

    explicit operator bool() const { return impl_ != nullptr; }
    bool operator==(const Type& other) const;
    bool operator!=(const Type& other) const { return !(*this == other); }

    TypeKind kind() const { return impl_ ? impl_->kind : TypeKind::kNone; }
    bool isIndex() const { return kind() == TypeKind::kIndex; }
    bool isInteger() const { return kind() == TypeKind::kInteger; }
    bool isFloat() const { return kind() == TypeKind::kFloat; }
    bool isTensor() const { return kind() == TypeKind::kTensor; }
    bool isMemRef() const { return kind() == TypeKind::kMemRef; }
    bool isStream() const { return kind() == TypeKind::kStream; }
    bool isToken() const { return kind() == TypeKind::kToken; }
    bool isShaped() const { return isTensor() || isMemRef(); }

    /** Bit width of an int/float type (0 otherwise). */
    unsigned bitWidth() const;
    bool isSigned() const;
    /** Shape of a tensor/memref type. */
    const std::vector<int64_t>& shape() const;
    /** Number of elements of a shaped type. */
    int64_t numElements() const;
    /** Element type of a shaped or stream type. */
    Type elementType() const;
    /** Stream depth. */
    int64_t streamDepth() const;
    /** Memory space of a memref. */
    MemorySpace memorySpace() const;

    /** Rebuild this memref with a different memory space. */
    Type withMemorySpace(MemorySpace space) const;
    /** Rebuild this tensor type as a memref (Functional -> Structural). */
    Type toMemRef(MemorySpace space = MemorySpace::kDefault) const;

    /**
     * Structural 64-bit hash: equal types hash equally regardless of the
     * backing storage object. Feeds the QoR directive fingerprint.
     */
    uint64_t hash() const;

    /** Render as text, e.g. "memref<64x64xi8, external>". */
    std::string str() const;

    const TypeStorage* storage() const { return impl_.get(); }

  private:
    explicit Type(std::shared_ptr<const TypeStorage> impl)
        : impl_(std::move(impl)) {}

    /** Intern @p proto in the process-wide uniquing table. */
    static Type uniqued(std::shared_ptr<TypeStorage> proto);

    std::shared_ptr<const TypeStorage> impl_;
};

} // namespace hida

#endif // HIDA_IR_TYPE_H
