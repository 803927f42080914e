#include "src/ir/attribute.h"

#include <bit>
#include <functional>
#include <sstream>

#include "src/support/diagnostics.h"
#include "src/support/utils.h"

namespace hida {

std::string
SemiAffineMap::str() const
{
    std::ostringstream os;
    os << "[";
    for (size_t i = 0; i < permutation.size(); ++i) {
        if (i)
            os << ", ";
        if (permutation[i] == kEmpty)
            os << "_";
        else
            os << permutation[i];
        if (i < scaling.size() && scaling[i] != 1.0)
            os << "*" << scaling[i];
    }
    os << "]";
    return os.str();
}

namespace {

/** Pooled small integers: DSE directive factors land in this range, so a
 * setIntAttr on the sweep hot path is a table read, not an allocation, and
 * equality of two pooled values is a pointer compare. Initialized once via
 * a thread-safe magic static; reads are lock-free. */
constexpr int64_t kIntPoolMin = -16;
constexpr int64_t kIntPoolMax = 1024;

std::shared_ptr<const AttrStorage>
makeIntStorage(int64_t value)
{
    auto s = std::make_shared<AttrStorage>();
    s->kind = AttrKind::kInt;
    s->intValue = value;
    return s;
}

const std::vector<std::shared_ptr<const AttrStorage>>&
intPool()
{
    static const std::vector<std::shared_ptr<const AttrStorage>> pool = [] {
        std::vector<std::shared_ptr<const AttrStorage>> p;
        p.reserve(kIntPoolMax - kIntPoolMin + 1);
        for (int64_t v = kIntPoolMin; v <= kIntPoolMax; ++v)
            p.push_back(makeIntStorage(v));
        return p;
    }();
    return pool;
}

} // namespace

Attribute
Attribute::unit()
{
    static const Attribute singleton = [] {
        auto s = std::make_shared<AttrStorage>();
        s->kind = AttrKind::kUnit;
        return Attribute(std::move(s));
    }();
    return singleton;
}

Attribute
Attribute::integer(int64_t value)
{
    if (value >= kIntPoolMin && value <= kIntPoolMax)
        return Attribute(intPool()[value - kIntPoolMin]);
    return Attribute(makeIntStorage(value));
}

Attribute
Attribute::real(double value)
{
    auto s = std::make_shared<AttrStorage>();
    s->kind = AttrKind::kFloat;
    s->floatValue = value;
    return Attribute(std::move(s));
}

Attribute
Attribute::string(std::string value)
{
    auto s = std::make_shared<AttrStorage>();
    s->kind = AttrKind::kString;
    s->stringValue = std::move(value);
    return Attribute(std::move(s));
}

Attribute
Attribute::type(Type value)
{
    auto s = std::make_shared<AttrStorage>();
    s->kind = AttrKind::kType;
    s->typeValue = value;
    return Attribute(std::move(s));
}

Attribute
Attribute::array(std::vector<Attribute> value)
{
    auto s = std::make_shared<AttrStorage>();
    s->kind = AttrKind::kArray;
    s->arrayValue = std::move(value);
    return Attribute(std::move(s));
}

Attribute
Attribute::i64Array(const std::vector<int64_t>& values)
{
    std::vector<Attribute> attrs;
    attrs.reserve(values.size());
    for (int64_t v : values)
        attrs.push_back(integer(v));
    return array(std::move(attrs));
}

Attribute
Attribute::affineMap(SemiAffineMap map)
{
    auto s = std::make_shared<AttrStorage>();
    s->kind = AttrKind::kAffineMap;
    s->mapValue = std::move(map);
    return Attribute(std::move(s));
}

bool
Attribute::operator==(const Attribute& other) const
{
    if (impl_ == other.impl_)
        return true;
    if (!impl_ || !other.impl_)
        return false;
    const auto& a = *impl_;
    const auto& b = *other.impl_;
    if (a.kind != b.kind)
        return false;
    // Structurally equal attributes hash equally, so two already-computed
    // hashes that differ prove inequality without a deep compare (the
    // common case in Operation::setAttr's changed-value check on the DSE
    // hot path, where array attrs would otherwise compare element-wise).
    uint64_t ha = a.hashCache.load(std::memory_order_relaxed);
    uint64_t hb = b.hashCache.load(std::memory_order_relaxed);
    if (ha != 0 && hb != 0 && ha != hb)
        return false;
    switch (a.kind) {
      case AttrKind::kUnit:
        return true;
      case AttrKind::kInt:
        return a.intValue == b.intValue;
      case AttrKind::kFloat:
        return a.floatValue == b.floatValue;
      case AttrKind::kString:
        return a.stringValue == b.stringValue;
      case AttrKind::kType:
        return a.typeValue == b.typeValue;
      case AttrKind::kArray:
        return a.arrayValue == b.arrayValue;
      case AttrKind::kAffineMap:
        return a.mapValue == b.mapValue;
    }
    return false;
}

AttrKind
Attribute::kind() const
{
    HIDA_ASSERT(impl_, "null attribute");
    return impl_->kind;
}

int64_t
Attribute::asInt() const
{
    HIDA_ASSERT(impl_ && impl_->kind == AttrKind::kInt, "not an int attr");
    return impl_->intValue;
}

double
Attribute::asFloat() const
{
    HIDA_ASSERT(impl_, "null attribute");
    if (impl_->kind == AttrKind::kInt)
        return static_cast<double>(impl_->intValue);
    HIDA_ASSERT(impl_->kind == AttrKind::kFloat, "not a float attr");
    return impl_->floatValue;
}

const std::string&
Attribute::asString() const
{
    HIDA_ASSERT(impl_ && impl_->kind == AttrKind::kString, "not a string attr");
    return impl_->stringValue;
}

const std::vector<Attribute>&
Attribute::asArray() const
{
    HIDA_ASSERT(impl_ && impl_->kind == AttrKind::kArray, "not an array attr");
    return impl_->arrayValue;
}

std::vector<int64_t>
Attribute::asI64Array() const
{
    std::vector<int64_t> result;
    for (const Attribute& a : asArray())
        result.push_back(a.asInt());
    return result;
}

const SemiAffineMap&
Attribute::asAffineMap() const
{
    HIDA_ASSERT(impl_ && impl_->kind == AttrKind::kAffineMap, "not a map attr");
    return impl_->mapValue;
}

uint64_t
Attribute::hash() const
{
    if (!impl_)
        return 0;
    const AttrStorage& s = *impl_;
    uint64_t cached = s.hashCache.load(std::memory_order_relaxed);
    if (cached != 0)
        return cached;
    uint64_t h = hashMix(static_cast<uint64_t>(s.kind) + 1);
    switch (s.kind) {
      case AttrKind::kUnit:
        break;
      case AttrKind::kInt:
        h = hashCombine(h, static_cast<uint64_t>(s.intValue));
        break;
      case AttrKind::kFloat:
        // Normalize -0.0 to +0.0: operator== treats them as equal, so the
        // hash must too (the == fast path refutes on unequal hashes).
        h = hashCombine(h, std::bit_cast<uint64_t>(
                               s.floatValue == 0.0 ? 0.0 : s.floatValue));
        break;
      case AttrKind::kString:
        h = hashCombine(h, std::hash<std::string>{}(s.stringValue));
        break;
      case AttrKind::kType:
        h = hashCombine(h, s.typeValue.hash());
        break;
      case AttrKind::kArray:
        for (const Attribute& a : s.arrayValue)
            h = hashCombine(h, a.hash());
        break;
      case AttrKind::kAffineMap:
        for (int64_t p : s.mapValue.permutation)
            h = hashCombine(h, static_cast<uint64_t>(p));
        for (double f : s.mapValue.scaling)
            h = hashCombine(h, std::bit_cast<uint64_t>(f == 0.0 ? 0.0 : f));
        break;
    }
    if (h == 0)
        h = 1;  // reserve 0 for "not computed"
    // Concurrent fillers compute the same structural value; last store wins.
    s.hashCache.store(h, std::memory_order_relaxed);
    return h;
}

std::string
Attribute::str() const
{
    if (!impl_)
        return "<<null>>";
    std::ostringstream os;
    switch (impl_->kind) {
      case AttrKind::kUnit:
        os << "unit";
        break;
      case AttrKind::kInt:
        os << impl_->intValue;
        break;
      case AttrKind::kFloat:
        os << impl_->floatValue;
        break;
      case AttrKind::kString:
        os << '"' << impl_->stringValue << '"';
        break;
      case AttrKind::kType:
        os << impl_->typeValue.str();
        break;
      case AttrKind::kArray: {
        os << "[";
        for (size_t i = 0; i < impl_->arrayValue.size(); ++i) {
            if (i)
                os << ", ";
            os << impl_->arrayValue[i].str();
        }
        os << "]";
        break;
      }
      case AttrKind::kAffineMap:
        os << impl_->mapValue.str();
        break;
    }
    return os.str();
}

} // namespace hida
