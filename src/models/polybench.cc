#include "src/models/polybench.h"

#include "src/frontend/loop_builder.h"
#include "src/support/diagnostics.h"

namespace hida {

namespace {

using Ivs = std::vector<Value*>;

/** C[i][j] = 0 over extents. */
void
zeroNest(KernelBuilder& kb, Value* out, int64_t n, int64_t m)
{
    kb.nest({n, m}, [&](OpBuilder& b, const Ivs& iv) {
        kb.store(b, kb.constant(b, kb.element(), 0.0), out, {iv[0], iv[1]});
    });
}

/** out[i][j] += a[i][k] * bm[k][j]. */
void
matmulNest(KernelBuilder& kb, Value* a, Value* bm, Value* out, int64_t n,
           int64_t m, int64_t k)
{
    kb.nest({n, m, k}, [&](OpBuilder& b, const Ivs& iv) {
        Value* x = kb.load(b, a, {iv[0], iv[2]});
        Value* y = kb.load(b, bm, {iv[2], iv[1]});
        Value* acc = kb.load(b, out, {iv[0], iv[1]});
        kb.store(b, kb.add(b, acc, kb.mul(b, x, y)), out, {iv[0], iv[1]});
    });
}

OwnedModule
build2mm(int64_t n)
{
    KernelBuilder kb("2mm");
    Value* a = kb.arg({n, n}, "A");
    Value* bm = kb.arg({n, n}, "B");
    Value* c = kb.arg({n, n}, "C");
    Value* d = kb.arg({n, n}, "D");
    Value* tmp = kb.local({n, n}, "tmp");

    zeroNest(kb, tmp, n, n);
    matmulNest(kb, a, bm, tmp, n, n, n);
    // D *= beta.
    kb.nest({n, n}, [&](OpBuilder& b, const Ivs& iv) {
        Value* v = kb.load(b, d, {iv[0], iv[1]});
        kb.store(b, kb.mul(b, v, kb.constant(b, kb.element(), 1.2)), d,
                 {iv[0], iv[1]});
    });
    matmulNest(kb, tmp, c, d, n, n, n);
    return kb.takeModule();
}

OwnedModule
build3mm(int64_t n)
{
    KernelBuilder kb("3mm");
    Value* a = kb.arg({n, n}, "A");
    Value* bm = kb.arg({n, n}, "B");
    Value* c = kb.arg({n, n}, "C");
    Value* d = kb.arg({n, n}, "D");
    Value* g = kb.arg({n, n}, "G");
    Value* e = kb.local({n, n}, "E");
    Value* f = kb.local({n, n}, "F");

    zeroNest(kb, e, n, n);
    matmulNest(kb, a, bm, e, n, n, n);
    zeroNest(kb, f, n, n);
    matmulNest(kb, c, d, f, n, n, n);
    zeroNest(kb, g, n, n);
    matmulNest(kb, e, f, g, n, n, n);
    return kb.takeModule();
}

OwnedModule
buildAtax(int64_t n)
{
    KernelBuilder kb("atax");
    Value* a = kb.arg({n, n}, "A");
    Value* x = kb.arg({n}, "x");
    Value* y = kb.arg({n}, "y");
    Value* tmp = kb.local({n}, "tmp");

    kb.nest({n}, [&](OpBuilder& b, const Ivs& iv) {
        kb.store(b, kb.constant(b, kb.element(), 0.0), tmp, {iv[0]});
    });
    kb.nest({n, n}, [&](OpBuilder& b, const Ivs& iv) {
        Value* v = kb.mul(b, kb.load(b, a, {iv[0], iv[1]}),
                          kb.load(b, x, {iv[1]}));
        kb.store(b, kb.add(b, kb.load(b, tmp, {iv[0]}), v), tmp, {iv[0]});
    });
    kb.nest({n}, [&](OpBuilder& b, const Ivs& iv) {
        kb.store(b, kb.constant(b, kb.element(), 0.0), y, {iv[0]});
    });
    kb.nest({n, n}, [&](OpBuilder& b, const Ivs& iv) {
        // y[j] += A[i][j] * tmp[i]; iv = (j, i) keeps the store index outer.
        Value* v = kb.mul(b, kb.load(b, a, {iv[1], iv[0]}),
                          kb.load(b, tmp, {iv[1]}));
        kb.store(b, kb.add(b, kb.load(b, y, {iv[0]}), v), y, {iv[0]});
    });
    return kb.takeModule();
}

OwnedModule
buildBicg(int64_t n)
{
    KernelBuilder kb("bicg");
    Value* a = kb.arg({n, n}, "A");
    Value* r = kb.arg({n}, "r");
    Value* p = kb.arg({n}, "p");
    Value* s = kb.arg({n}, "s");
    Value* q = kb.arg({n}, "q");

    kb.nest({n}, [&](OpBuilder& b, const Ivs& iv) {
        kb.store(b, kb.constant(b, kb.element(), 0.0), s, {iv[0]});
    });
    // Fused single main nest, as in the PolyBench reference.
    kb.nest({n}, [&](OpBuilder& b, const Ivs& outer) {
        kb.store(b, kb.constant(b, kb.element(), 0.0), q, {outer[0]});
        ForOp inner = ForOp::create(b, 0, n, 1, "j");
        OpBuilder ib(inner.body());
        Value* j = inner.inductionVar();
        Value* aij = kb.load(ib, a, {outer[0], j});
        Value* s_new = kb.add(ib, kb.load(ib, s, {j}),
                              kb.mul(ib, kb.load(ib, r, {outer[0]}), aij));
        kb.store(ib, s_new, s, {j});
        Value* q_new = kb.add(ib, kb.load(ib, q, {outer[0]}),
                              kb.mul(ib, aij, kb.load(ib, p, {j})));
        kb.store(ib, q_new, q, {outer[0]});
    });
    return kb.takeModule();
}

OwnedModule
buildGesummv(int64_t n)
{
    KernelBuilder kb("gesummv");
    Value* a = kb.arg({n, n}, "A");
    Value* bm = kb.arg({n, n}, "B");
    Value* x = kb.arg({n}, "x");
    Value* y = kb.arg({n}, "y");
    Value* tmp = kb.local({n}, "tmp");

    kb.nest({n}, [&](OpBuilder& b, const Ivs& outer) {
        Value* i = outer[0];
        kb.store(b, kb.constant(b, kb.element(), 0.0), tmp, {i});
        kb.store(b, kb.constant(b, kb.element(), 0.0), y, {i});
        ForOp inner = ForOp::create(b, 0, n, 1, "j");
        OpBuilder ib(inner.body());
        Value* j = inner.inductionVar();
        Value* t_new = kb.add(ib, kb.load(ib, tmp, {i}),
                              kb.mul(ib, kb.load(ib, a, {i, j}),
                                     kb.load(ib, x, {j})));
        kb.store(ib, t_new, tmp, {i});
        Value* y_new = kb.add(ib, kb.load(ib, y, {i}),
                              kb.mul(ib, kb.load(ib, bm, {i, j}),
                                     kb.load(ib, x, {j})));
        kb.store(ib, y_new, y, {i});
        // y[i] = alpha*tmp[i] + beta*y[i].
        Value* combined =
            kb.add(b, kb.mul(b, kb.load(b, tmp, {i}),
                             kb.constant(b, kb.element(), 1.5)),
                   kb.mul(b, kb.load(b, y, {i}),
                          kb.constant(b, kb.element(), 1.2)));
        kb.store(b, combined, y, {i});
    });
    return kb.takeModule();
}

OwnedModule
buildCorrelation(int64_t n)
{
    KernelBuilder kb("correlation");
    Value* data = kb.arg({n, n}, "data");
    Value* corr = kb.arg({n, n}, "corr");
    Value* mean = kb.local({n}, "mean");
    Value* stddev = kb.local({n}, "stddev");

    // mean[j] = sum_i data[i][j] / n.
    kb.nest({n}, [&](OpBuilder& b, const Ivs& iv) {
        kb.store(b, kb.constant(b, kb.element(), 0.0), mean, {iv[0]});
    });
    kb.nest({n, n}, [&](OpBuilder& b, const Ivs& iv) {
        Value* v = kb.add(b, kb.load(b, mean, {iv[0]}),
                          kb.load(b, data, {iv[1], iv[0]}));
        kb.store(b, v, mean, {iv[0]});
    });
    // stddev[j] = sum_i (data[i][j]-mean[j])^2 (sqrt folded into scaling).
    kb.nest({n}, [&](OpBuilder& b, const Ivs& iv) {
        kb.store(b, kb.constant(b, kb.element(), 0.0), stddev, {iv[0]});
    });
    kb.nest({n, n}, [&](OpBuilder& b, const Ivs& iv) {
        Value* d = kb.sub(b, kb.load(b, data, {iv[1], iv[0]}),
                          kb.load(b, mean, {iv[0]}));
        Value* v = kb.add(b, kb.load(b, stddev, {iv[0]}), kb.mul(b, d, d));
        kb.store(b, v, stddev, {iv[0]});
    });
    // corr[i][j] = sum_k (data[k][i]-mean[i])*(data[k][j]-mean[j]).
    kb.nest({n, n}, [&](OpBuilder& b, const Ivs& iv) {
        kb.store(b, kb.constant(b, kb.element(), 0.0), corr, {iv[0], iv[1]});
    });
    kb.nest({n, n, n}, [&](OpBuilder& b, const Ivs& iv) {
        Value* u = kb.sub(b, kb.load(b, data, {iv[2], iv[0]}),
                          kb.load(b, mean, {iv[0]}));
        Value* v = kb.sub(b, kb.load(b, data, {iv[2], iv[1]}),
                          kb.load(b, mean, {iv[1]}));
        Value* acc = kb.add(b, kb.load(b, corr, {iv[0], iv[1]}),
                            kb.mul(b, u, v));
        kb.store(b, acc, corr, {iv[0], iv[1]});
    });
    return kb.takeModule();
}

OwnedModule
buildJacobi2d(int64_t n)
{
    KernelBuilder kb("jacobi-2d");
    Value* a = kb.arg({n, n}, "A");
    Value* bm = kb.arg({n, n}, "B");
    int64_t steps = std::max<int64_t>(n / 8, 2);

    OpBuilder builder;
    builder.setInsertionPointToEnd(kb.func().body());
    ForOp t = ForOp::create(builder, 0, steps, 1, "t");
    OpBuilder tb(t.body());

    auto sweep = [&](Value* src, Value* dst) {
        ForOp li = ForOp::create(tb, 1, n - 1, 1, "i");
        OpBuilder bi(li.body());
        ForOp lj = ForOp::create(bi, 1, n - 1, 1, "j");
        OpBuilder bj(lj.body());
        Value* i = li.inductionVar();
        Value* j = lj.inductionVar();
        Value* up = kb.apply(bj, {i}, {1}, -1);
        Value* down = kb.apply(bj, {i}, {1}, 1);
        Value* left = kb.apply(bj, {j}, {1}, -1);
        Value* right = kb.apply(bj, {j}, {1}, 1);
        Value* sum = kb.load(bj, src, {i, j});
        sum = kb.add(bj, sum, kb.load(bj, src, {up, j}));
        sum = kb.add(bj, sum, kb.load(bj, src, {down, j}));
        sum = kb.add(bj, sum, kb.load(bj, src, {i, left}));
        sum = kb.add(bj, sum, kb.load(bj, src, {i, right}));
        kb.store(bj, kb.mul(bj, sum, kb.constant(bj, kb.element(), 0.2)), dst,
                 {i, j});
    };
    sweep(a, bm);
    sweep(bm, a);
    return kb.takeModule();
}

OwnedModule
buildMvt(int64_t n)
{
    KernelBuilder kb("mvt");
    Value* a = kb.arg({n, n}, "A");
    Value* x1 = kb.arg({n}, "x1");
    Value* x2 = kb.arg({n}, "x2");
    Value* y1 = kb.arg({n}, "y1");
    Value* y2 = kb.arg({n}, "y2");

    kb.nest({n, n}, [&](OpBuilder& b, const Ivs& iv) {
        Value* v = kb.add(b, kb.load(b, x1, {iv[0]}),
                          kb.mul(b, kb.load(b, a, {iv[0], iv[1]}),
                                 kb.load(b, y1, {iv[1]})));
        kb.store(b, v, x1, {iv[0]});
    });
    kb.nest({n, n}, [&](OpBuilder& b, const Ivs& iv) {
        Value* v = kb.add(b, kb.load(b, x2, {iv[0]}),
                          kb.mul(b, kb.load(b, a, {iv[1], iv[0]}),
                                 kb.load(b, y2, {iv[1]})));
        kb.store(b, v, x2, {iv[0]});
    });
    return kb.takeModule();
}

OwnedModule
buildSeidel2d(int64_t n)
{
    KernelBuilder kb("seidel-2d");
    Value* a = kb.arg({n, n}, "A");
    int64_t steps = std::max<int64_t>(n / 8, 2);

    OpBuilder builder;
    builder.setInsertionPointToEnd(kb.func().body());
    ForOp t = ForOp::create(builder, 0, steps, 1, "t");
    OpBuilder tb(t.body());
    ForOp li = ForOp::create(tb, 1, n - 1, 1, "i");
    OpBuilder bi(li.body());
    ForOp lj = ForOp::create(bi, 1, n - 1, 1, "j");
    OpBuilder bj(lj.body());
    Value* i = li.inductionVar();
    Value* j = lj.inductionVar();
    Value* up = kb.apply(bj, {i}, {1}, -1);
    Value* down = kb.apply(bj, {i}, {1}, 1);
    Value* left = kb.apply(bj, {j}, {1}, -1);
    Value* right = kb.apply(bj, {j}, {1}, 1);
    Value* sum = kb.load(bj, a, {i, j});
    sum = kb.add(bj, sum, kb.load(bj, a, {up, j}));
    sum = kb.add(bj, sum, kb.load(bj, a, {down, j}));
    sum = kb.add(bj, sum, kb.load(bj, a, {i, left}));
    sum = kb.add(bj, sum, kb.load(bj, a, {i, right}));
    kb.store(bj, kb.mul(bj, sum, kb.constant(bj, kb.element(), 0.2)), a,
             {i, j});
    return kb.takeModule();
}

OwnedModule
buildSymm(int64_t n)
{
    KernelBuilder kb("symm");
    Value* a = kb.arg({n, n}, "A");
    Value* bm = kb.arg({n, n}, "B");
    Value* c = kb.arg({n, n}, "C");

    // Rectangular variant of the PolyBench symm main nest (triangular
    // bounds are not expressible with constant-bound affine.for).
    kb.nest({n, n, n}, [&](OpBuilder& b, const Ivs& iv) {
        Value* v = kb.add(b, kb.load(b, c, {iv[0], iv[1]}),
                          kb.mul(b, kb.load(b, a, {iv[0], iv[2]}),
                                 kb.load(b, bm, {iv[2], iv[1]})));
        kb.store(b, v, c, {iv[0], iv[1]});
    });
    return kb.takeModule();
}

OwnedModule
buildSyr2k(int64_t n)
{
    KernelBuilder kb("syr2k");
    Value* a = kb.arg({n, n}, "A");
    Value* bm = kb.arg({n, n}, "B");
    Value* c = kb.arg({n, n}, "C");

    kb.nest({n, n}, [&](OpBuilder& b, const Ivs& iv) {
        Value* v = kb.mul(b, kb.load(b, c, {iv[0], iv[1]}),
                          kb.constant(b, kb.element(), 1.2));
        kb.store(b, v, c, {iv[0], iv[1]});
    });
    kb.nest({n, n, n}, [&](OpBuilder& b, const Ivs& iv) {
        Value* t1 = kb.mul(b, kb.load(b, a, {iv[0], iv[2]}),
                           kb.load(b, bm, {iv[1], iv[2]}));
        Value* t2 = kb.mul(b, kb.load(b, bm, {iv[0], iv[2]}),
                           kb.load(b, a, {iv[1], iv[2]}));
        Value* v = kb.add(b, kb.load(b, c, {iv[0], iv[1]}),
                          kb.add(b, t1, t2));
        kb.store(b, v, c, {iv[0], iv[1]});
    });
    return kb.takeModule();
}

} // namespace

std::vector<std::string>
polybenchKernelNames()
{
    return {"2mm",     "3mm",        "atax",      "bicg",
            "correlation", "gesummv", "jacobi-2d", "mvt",
            "seidel-2d",   "symm",    "syr2k"};
}

OwnedModule
buildPolybenchKernel(const std::string& name, int64_t size)
{
    if (name == "2mm")
        return build2mm(size);
    if (name == "3mm")
        return build3mm(size);
    if (name == "atax")
        return buildAtax(size);
    if (name == "bicg")
        return buildBicg(size);
    if (name == "correlation")
        return buildCorrelation(size);
    if (name == "gesummv")
        return buildGesummv(size);
    if (name == "jacobi-2d")
        return buildJacobi2d(size);
    if (name == "mvt")
        return buildMvt(size);
    if (name == "seidel-2d")
        return buildSeidel2d(size);
    if (name == "symm")
        return buildSymm(size);
    if (name == "syr2k")
        return buildSyr2k(size);
    HIDA_FATAL("unknown PolyBench kernel: ", name);
}

OwnedModule
buildListing1()
{
    KernelBuilder kb("listing1");
    // Locals (not function args) so the arrays become hida.buffer ops whose
    // partitions Table 6 reports.
    Value* a = kb.local({32, 16}, "A");
    Value* bm = kb.local({16, 16}, "B");
    Value* c = kb.local({16, 16}, "C");

    // NODE0: load array A.
    kb.nest({32, 16}, [&](OpBuilder& b, const Ivs& iv) {
        kb.store(b, kb.constant(b, kb.element(), 1.0), a, {iv[0], iv[1]});
    });
    // NODE1: load array B.
    kb.nest({16, 16}, [&](OpBuilder& b, const Ivs& iv) {
        kb.store(b, kb.constant(b, kb.element(), 2.0), bm, {iv[0], iv[1]});
    });
    // NODE2: C[i][j] = A[i*2][k] * B[k][j].
    kb.nest({16, 16, 16}, [&](OpBuilder& b, const Ivs& iv) {
        Value* strided = kb.apply(b, {iv[0]}, {2});
        Value* x = kb.load(b, a, {strided, iv[2]});
        Value* y = kb.load(b, bm, {iv[2], iv[1]});
        kb.store(b, kb.mul(b, x, y), c, {iv[0], iv[1]});
    });
    return kb.takeModule();
}

} // namespace hida
