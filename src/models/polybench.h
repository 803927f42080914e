#ifndef HIDA_MODELS_POLYBENCH_H
#define HIDA_MODELS_POLYBENCH_H

/**
 * @file
 * The eleven PolyBench kernels of Table 7, synthesized directly as affine
 * IR through the KernelBuilder (the Polygeist-front-end substitution).
 * Structures follow the PolyBench C reference implementations: the
 * "single-loop" kernels (bicg, gesummv, seidel-2d, symm, syr2k) keep their
 * fused single-nest shapes; the multi-loop kernels (2mm, 3mm, atax,
 * correlation, jacobi-2d, mvt) expose the multi-nest dataflow HIDA exploits.
 */

#include <string>
#include <vector>

#include "src/ir/builtin_ops.h"

namespace hida {

/** Names of all Table 7 kernels, in the paper's row order. */
std::vector<std::string> polybenchKernelNames();

/**
 * Build one kernel by name.
 * @param size base problem dimension (matrices are size x size; the time
 *        loops of the stencils run size/8 steps). Use small sizes for
 *        interpreter-based correctness tests and the default for benches.
 */
OwnedModule buildPolybenchKernel(const std::string& name, int64_t size = 64);

/**
 * The paper's Listing 1 micro-kernel (Tables 4-6): two producer nests
 * writing the local arrays A[32][16] and B[16][16], then the strided
 * consumer C[i][j] = A[2i][k] * B[k][j]. The arrays are locals, so they
 * lower to hida.buffer ops.
 */
OwnedModule buildListing1();

} // namespace hida

#endif // HIDA_MODELS_POLYBENCH_H
