#include "src/ir/type.h"

#include <mutex>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "src/support/diagnostics.h"
#include "src/support/utils.h"

namespace hida {

namespace {

bool
storageEq(const TypeStorage* a, const TypeStorage* b)
{
    if (a == b)
        return true;
    if (!a || !b)
        return false;
    if (a->kind != b->kind || a->width != b->width ||
        a->isSigned != b->isSigned || a->shape != b->shape ||
        a->depth != b->depth || a->space != b->space)
        return false;
    return storageEq(a->element.get(), b->element.get());
}

uint64_t
storageHash(const TypeStorage* s)
{
    if (s == nullptr)
        return 0;
    uint64_t cached = s->hashCache.load(std::memory_order_relaxed);
    if (cached != 0)
        return cached;
    uint64_t h = hashMix(static_cast<uint64_t>(s->kind) + 1);
    h = hashCombine(h, s->width);
    h = hashCombine(h, s->isSigned ? 1 : 0);
    for (int64_t d : s->shape)
        h = hashCombine(h, static_cast<uint64_t>(d));
    h = hashCombine(h, static_cast<uint64_t>(s->depth));
    h = hashCombine(h, static_cast<uint64_t>(s->space));
    h = hashCombine(h, storageHash(s->element.get()));
    if (h == 0)
        h = 1;  // reserve 0 for "not computed"
    // Concurrent fillers compute the same structural value; last store wins.
    s->hashCache.store(h, std::memory_order_relaxed);
    return h;
}

/**
 * Process-wide type uniquer: structurally equal types share one storage
 * object, so handle equality usually short-circuits on the pointer and
 * cloned modules handed to worker threads share storage safely (it is
 * immutable apart from the atomic hash). Creation takes a mutex; type
 * construction happens during lowering, not on the per-point DSE path.
 */
class TypeUniquer {
  public:
    std::shared_ptr<const TypeStorage>
    unique(std::shared_ptr<TypeStorage> proto)
    {
        uint64_t key = storageHash(proto.get());
        std::lock_guard<std::mutex> lock(mutex_);
        auto& bucket = table_[key];
        for (const auto& existing : bucket)
            if (storageEq(existing.get(), proto.get()))
                return existing;
        bucket.push_back(proto);
        return proto;
    }

    static TypeUniquer& instance()
    {
        static TypeUniquer uniquer;
        return uniquer;
    }

  private:
    std::mutex mutex_;
    std::unordered_map<uint64_t,
                       std::vector<std::shared_ptr<const TypeStorage>>>
        table_;
};

} // namespace

Type
Type::uniqued(std::shared_ptr<TypeStorage> proto)
{
    return Type(TypeUniquer::instance().unique(std::move(proto)));
}

Type
Type::none()
{
    auto s = std::make_shared<TypeStorage>();
    s->kind = TypeKind::kNone;
    return uniqued(std::move(s));
}

Type
Type::index()
{
    auto s = std::make_shared<TypeStorage>();
    s->kind = TypeKind::kIndex;
    return uniqued(std::move(s));
}

Type
Type::integer(unsigned width, bool is_signed)
{
    auto s = std::make_shared<TypeStorage>();
    s->kind = TypeKind::kInteger;
    s->width = width;
    s->isSigned = is_signed;
    return uniqued(std::move(s));
}

Type
Type::floating(unsigned width)
{
    auto s = std::make_shared<TypeStorage>();
    s->kind = TypeKind::kFloat;
    s->width = width;
    return uniqued(std::move(s));
}

Type
Type::tensor(std::vector<int64_t> shape, Type element)
{
    HIDA_ASSERT(element && !element.isShaped(),
                "tensor element must be scalar");
    auto s = std::make_shared<TypeStorage>();
    s->kind = TypeKind::kTensor;
    s->shape = std::move(shape);
    s->element = element.impl_;  // uniqued storage is shared, not copied
    return uniqued(std::move(s));
}

Type
Type::memref(std::vector<int64_t> shape, Type element, MemorySpace space)
{
    HIDA_ASSERT(element && !element.isShaped(),
                "memref element must be scalar");
    auto s = std::make_shared<TypeStorage>();
    s->kind = TypeKind::kMemRef;
    s->shape = std::move(shape);
    s->element = element.impl_;
    s->space = space;
    return uniqued(std::move(s));
}

Type
Type::stream(Type element, int64_t depth)
{
    HIDA_ASSERT(element, "stream element required");
    auto s = std::make_shared<TypeStorage>();
    s->kind = TypeKind::kStream;
    s->element = element.impl_;
    s->depth = depth;
    return uniqued(std::move(s));
}

Type
Type::token()
{
    auto s = std::make_shared<TypeStorage>();
    s->kind = TypeKind::kToken;
    return uniqued(std::move(s));
}

bool
Type::operator==(const Type& other) const
{
    return storageEq(impl_.get(), other.impl_.get());
}

unsigned
Type::bitWidth() const
{
    if (!impl_)
        return 0;
    if (impl_->kind == TypeKind::kIndex)
        return 64;
    if (impl_->kind == TypeKind::kToken)
        return 1;
    return impl_->width;
}

bool
Type::isSigned() const
{
    return impl_ && impl_->isSigned;
}

const std::vector<int64_t>&
Type::shape() const
{
    static const std::vector<int64_t> empty;
    return impl_ && isShaped() ? impl_->shape : empty;
}

int64_t
Type::numElements() const
{
    if (!isShaped())
        return 0;
    int64_t n = 1;
    for (int64_t d : shape())
        n *= d;
    return n;
}

Type
Type::elementType() const
{
    if (!impl_ || !impl_->element)
        return Type();
    return Type(impl_->element);
}

int64_t
Type::streamDepth() const
{
    return impl_ ? impl_->depth : 0;
}

MemorySpace
Type::memorySpace() const
{
    return impl_ ? impl_->space : MemorySpace::kDefault;
}

Type
Type::withMemorySpace(MemorySpace space) const
{
    HIDA_ASSERT(isMemRef(), "withMemorySpace requires a memref");
    return memref(shape(), elementType(), space);
}

Type
Type::toMemRef(MemorySpace space) const
{
    HIDA_ASSERT(isTensor(), "toMemRef requires a tensor");
    return memref(shape(), elementType(), space);
}

uint64_t
Type::hash() const
{
    return storageHash(impl_.get());
}

std::string
Type::str() const
{
    if (!impl_)
        return "<<null>>";
    std::ostringstream os;
    switch (impl_->kind) {
      case TypeKind::kNone:
        os << "none";
        break;
      case TypeKind::kIndex:
        os << "index";
        break;
      case TypeKind::kInteger:
        os << (impl_->isSigned ? "i" : "u") << impl_->width;
        break;
      case TypeKind::kFloat:
        os << "f" << impl_->width;
        break;
      case TypeKind::kTensor:
      case TypeKind::kMemRef: {
        os << (impl_->kind == TypeKind::kTensor ? "tensor<" : "memref<");
        for (int64_t d : impl_->shape)
            os << d << "x";
        os << elementType().str();
        if (impl_->space == MemorySpace::kOnChip)
            os << ", on_chip";
        else if (impl_->space == MemorySpace::kExternal)
            os << ", external";
        os << ">";
        break;
      }
      case TypeKind::kStream:
        os << "stream<" << elementType().str() << ", " << impl_->depth << ">";
        break;
      case TypeKind::kToken:
        os << "token";
        break;
    }
    return os.str();
}

} // namespace hida
