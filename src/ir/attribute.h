#ifndef HIDA_IR_ATTRIBUTE_H
#define HIDA_IR_ATTRIBUTE_H

/**
 * @file
 * Compile-time-constant attributes attached to operations. Value-semantic
 * handles with structural equality, mirroring mlir::Attribute. Storage is
 * immutable apart from the lazily computed structural hash, which is
 * atomic so handles may be shared across concurrently compiling threads
 * (e.g. between a module and its worker-thread deep clones). Unit and
 * small-integer attributes are pooled process-wide, which both removes
 * the per-directive allocation from the DSE hot path and lets equality
 * short-circuit on the storage pointer.
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/ir/type.h"

namespace hida {

/** Attribute kind discriminator. */
enum class AttrKind {
    kUnit,       ///< Presence-only flag.
    kInt,        ///< 64-bit integer.
    kFloat,      ///< Double.
    kString,     ///< UTF-8 string.
    kType,       ///< Wrapped Type.
    kArray,      ///< Ordered list of attributes.
    kAffineMap,  ///< Semi-affine map (permutation + scaling), Section 5.2.
};

class Attribute;

/**
 * A semi-affine map in the sense of Figure 4 / Table 4 of the paper: for
 * each result dimension it records which source dimension feeds it (or
 * kEmpty) together with a rational scaling factor. Used for buffer
 * partition/layout attributes and for connection permutation/scaling maps.
 */
struct SemiAffineMap {
    /** Marker for an unmapped dimension (the paper's "empty" entry). */
    static constexpr int64_t kEmpty = -1;

    std::vector<int64_t> permutation;  ///< Source dim per dim, or kEmpty.
    std::vector<double> scaling;       ///< Stride scale per result dim.

    bool operator==(const SemiAffineMap& other) const = default;
    std::string str() const;
};

/** Shared immutable payload backing an Attribute handle. */
struct AttrStorage {
    AttrKind kind = AttrKind::kUnit;
    int64_t intValue = 0;
    double floatValue = 0.0;
    std::string stringValue;
    Type typeValue;
    std::vector<Attribute> arrayValue;
    SemiAffineMap mapValue;
    /**
     * Lazily computed structural hash (0 = not yet computed). Atomic so
     * threads sharing pooled/cloned storage may race to fill it (both
     * compute the same structural value; relaxed ordering suffices).
     */
    mutable std::atomic<uint64_t> hashCache{0};
};

/** Value-semantic attribute handle; default-constructed handles are null. */
class Attribute {
  public:
    Attribute() = default;

    static Attribute unit();
    static Attribute integer(int64_t value);
    static Attribute real(double value);
    static Attribute string(std::string value);
    static Attribute type(Type value);
    static Attribute array(std::vector<Attribute> value);
    static Attribute i64Array(const std::vector<int64_t>& values);
    static Attribute affineMap(SemiAffineMap map);

    explicit operator bool() const { return impl_ != nullptr; }
    /** Structural equality; uses cached hashes to refute fast. */
    bool operator==(const Attribute& other) const;
    bool operator!=(const Attribute& other) const { return !(*this == other); }

    AttrKind kind() const;
    /** Non-null and of @p k: the check before an asserting accessor. */
    bool is(AttrKind k) const { return impl_ != nullptr && impl_->kind == k; }
    int64_t asInt() const;
    double asFloat() const;
    const std::string& asString() const;
    const std::vector<Attribute>& asArray() const;
    std::vector<int64_t> asI64Array() const;
    const SemiAffineMap& asAffineMap() const;

    /**
     * Structural 64-bit hash: equal attributes hash equally regardless of
     * the backing storage object. Feeds the QoR directive fingerprint.
     */
    uint64_t hash() const;

    std::string str() const;

  private:
    explicit Attribute(std::shared_ptr<const AttrStorage> impl)
        : impl_(std::move(impl)) {}

    std::shared_ptr<const AttrStorage> impl_;
};

} // namespace hida

#endif // HIDA_IR_ATTRIBUTE_H
