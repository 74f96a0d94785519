/*
 * The planned BGK collide (with fused Guo forcing) as one C loop: the
 * compiled form of repro.core.plan.KernelPlan.collide_into, and, through
 * the plan's gather table, of the whole planned step KernelPlan.advance.
 *
 * repro.core.compiled builds this file once per process and dtype with
 *
 *     cc -O2 -ftree-vectorize -march=native -ffp-contract=off -shared -fPIC
 *        -DREPRO_REAL=<double|float> -DREPRO_ALIGN=64
 *
 * and never with -ffast-math.  Without contraction (no fused
 * multiply-add) and without reassociation every operation below is one
 * IEEE-754 operation rounded to REPRO_REAL, so the instruction set the
 * compiler picks cannot change a bit of the result.
 *
 * The op sequence.  Every value has the plan dtype; every step is one
 * add, subtract, multiply, divide or negation.  The numpy reference
 * (KernelPlan._collide_reference) performs the same steps, one ufunc
 * call per step, so both paths write the same bytes.  Per cell:
 *
 *   1. rho = f_0 + f_1 + ... + f_{Q-1}, rows added in ascending i.
 *   2. m_a = sum_i c_ia f_i for each axis a, over the non-zero c_ia in
 *      ascending i ("the rule"):
 *        - the first term initialises the sum: f_i if c = 1, -f_i if
 *          c = -1, f_i * c otherwise;
 *        - a later term adds f_i if c = 1, subtracts f_i if c = -1, and
 *          otherwise adds the rounded product f_i * c.
 *      A sum with no terms is 0.
 *   3. u_a = m_a + h_a when h_a != 0 (h = F/2, forced plans only), then
 *      u_a = u_a / rho (a true division, not a reciprocal multiply).
 *   4. order >= 2: s2 = u_0 * u_0, then s2 = s2 + u_a * u_a for
 *      a = 1 .. D-1; s2 = s2 * K_HALF_INV_CS2.
 *      order 3: s3 = s2 * K_SIX_CS2.
 *   5. for each velocity i, in any order:
 *        cu = sum_a c_ia u_a by the rule (ascending a);
 *        x = cu * K_INV_CS2;
 *        order 1: t = x + 1;
 *        order >= 2: t = x * x; t = t * 0.5; t = t + x; t = t + 1;
 *                    t = t - s2;
 *        order 3: y = cu * cu; y = y * K_INV_CS2; y = y - s3;
 *                 y = y * cu; y = y * K_CUBIC; t = t + y;
 *        t = t * w_i; t = t * rho;                       (feq)
 *        o = f_i * K_KEEP; t = t * K_OMEGA; o = o + t;    (relax)
 *        forced: s = sum_a M_ia u_a by the rule (ascending a);
 *                s = s + b_i when b_i != 0; o = o + s;     (Guo source)
 *        out_i = o.
 *
 * The constants K_* (see the enum) are computed once in float64 by the
 * plan and cast to the dtype before they arrive here, which is how numpy
 * casts a Python float operand (NEP 50); so are c, w, h, M and b.
 *
 * Cells are processed in blocks of REPRO_BLOCK, every loop over a whole
 * block (a fixed trip count keeps the build fast).  Each block's Q
 * populations are loaded into scratch before any of its outputs is
 * written.  Without a gather table the load copies the block's rows of
 * src, so src and out may be the same array (an in-place collide);
 * neither pointer is declared restrict for that reason.  With a gather
 * table (the plan's pull indices, static walls folded in) the load
 * reads f_i of cell j from src[gather[i * n + j]]: streaming and the
 * collide become one pass over memory, the paper's Fig. 2 loop with its
 * distr_adv never written.  That load reads arbitrary cells of src, so on
 * that path src and out must not overlap (the caller refuses it).
 *
 * Index width.  A gather table holds int32 indices (index_size 4) when
 * every index fits, else int64 (index_size 8); the width changes the
 * bytes the load reads beside the populations, never a value loaded.
 * repro_gather is the same load without the collide: the plan's
 * stand-alone stream, out[j] = src[gather[j]].
 *
 * Alignment contract.  scratch starts on a REPRO_ALIGN-byte boundary
 * (one cache line; the plan allocates it so and refuses any other), and
 * every scratch row starts REPRO_BLOCK elements after the previous one,
 * a multiple of REPRO_ALIGN bytes for both element types, so every row
 * the block loops read or write in scratch is aligned too.  The loops
 * are told so (__builtin_assume_aligned); a misaligned scratch would
 * make that undefined behaviour.  Without the guarantee, a step ran
 * 10-25% slower whenever the scratch drew a start 16, 32 or 48 bytes
 * past a cache line.  src, out and the gather table carry no alignment
 * requirement.
 */

#include <stdint.h>
#include <string.h>

#ifndef REPRO_REAL
#define REPRO_REAL double
#endif

typedef REPRO_REAL real;

#define REPRO_BLOCK 128

/* Byte boundary scratch starts on (see the alignment contract above). */
#ifndef REPRO_ALIGN
#define REPRO_ALIGN 64
#endif

/* Indices into the constants array k. */
enum {
    K_KEEP,          /* 1 - omega */
    K_OMEGA,         /* omega */
    K_INV_CS2,       /* 1 / cs2 */
    K_HALF_INV_CS2,  /* 0.5 * (1 / cs2) */
    K_SIX_CS2,       /* 6 * cs2 */
    K_CUBIC,         /* (1 / cs2) * (1 / cs2) / 6 */
    K_COUNT
};

/* Cells per block. */
int repro_collide_block(void) { return REPRO_BLOCK; }

/* Scratch elements repro_collide needs for q velocities in d dimensions. */
long repro_collide_scratch(int q, int d) { return (long)(q + d + 6) * REPRO_BLOCK; }

/*
 * acc = sum_j coef[j * cstride] * rows[j * REPRO_BLOCK ...] by the rule,
 * over one block.  acc and rows are rows of the aligned scratch.  Kept
 * out of line: inlining its six loops at each of the three call sites
 * slows the build more than it speeds the loop.
 */
__attribute__((noinline)) static void
rule_sum(real *restrict acc_in, const real *restrict rows_in, const real *coef,
         long cstride, int count)
{
    real *restrict acc = __builtin_assume_aligned(acc_in, REPRO_ALIGN);
    const real *restrict rows = __builtin_assume_aligned(rows_in, REPRO_ALIGN);
    int first = 1;
    for (int j = 0; j < count; j++) {
        const real c = coef[j * cstride];
        const real *restrict r = rows + (long)j * REPRO_BLOCK;
        if (c == 0)
            continue;
        if (first) {
            if (c == 1)
                for (int b = 0; b < REPRO_BLOCK; b++) acc[b] = r[b];
            else if (c == -1)
                for (int b = 0; b < REPRO_BLOCK; b++) acc[b] = -r[b];
            else
                for (int b = 0; b < REPRO_BLOCK; b++) acc[b] = r[b] * c;
            first = 0;
        } else if (c == 1) {
            for (int b = 0; b < REPRO_BLOCK; b++) acc[b] = acc[b] + r[b];
        } else if (c == -1) {
            for (int b = 0; b < REPRO_BLOCK; b++) acc[b] = acc[b] - r[b];
        } else {
            for (int b = 0; b < REPRO_BLOCK; b++) {
                const real p = r[b] * c;
                acc[b] = acc[b] + p;
            }
        }
    }
    if (first)
        for (int b = 0; b < REPRO_BLOCK; b++) acc[b] = 0;
}

/* Step 5 after the Hermite series t: feq, then the relaxed population. */
static inline real relax(real t, real fi, real wi, real rho, real keep, real omega)
{
    t = t * wi;
    t = t * rho;
    const real r = fi * keep;
    t = t * omega;
    return r + t;
}

/*
 * out[j] = src[gather[j]] for j < count, through index_size-byte
 * indices (4 or 8), all in bounds; src must not overlap out.  The block
 * load of repro_collide and the plan's stand-alone stream.  Kept scalar
 * and out of line: vectorised, and once more inlined into the block
 * load, its loops added ~15% to the build (gcc 12) for a step-time
 * difference within run-to-run noise.
 */
__attribute__((noinline, optimize("no-tree-vectorize"))) void
repro_gather(const real *src, const void *gather, int index_size,
             real *restrict out, long count)
{
    if (index_size == 4) {
        const int32_t *restrict g = gather;
        for (long j = 0; j < count; j++) out[j] = src[g[j]];
    } else {
        const int64_t *restrict g = gather;
        for (long j = 0; j < count; j++) out[j] = src[g[j]];
    }
}

/*
 * Collide n cells into the (q, n) row-major out.  The populations come
 * from the (q, n) row-major src when gather is NULL, else from
 * src[gather[i * n + j]] (gather holds q * n in-bounds indices of
 * index_size bytes, 4 or 8, and src must not overlap out).  c and
 * force_m are (q, d) row-major, w and force_b have q entries, half_force
 * d entries and k K_COUNT; force_m is NULL on an unforced plan
 * (half_force and force_b are then ignored).  scratch holds
 * repro_collide_scratch(q, d) elements and starts on a REPRO_ALIGN-byte
 * boundary.
 */
void repro_collide(const real *src, const void *gather, int index_size,
                   real *out, long n, int q, int d, int order, const real *c,
                   const real *w, const real *k, const real *half_force,
                   const real *force_m, const real *force_b, real *scratch_in)
{
    real *scratch = __builtin_assume_aligned(scratch_in, REPRO_ALIGN);
    real *restrict f = scratch;                   /* q rows: this block's src */
    real *restrict u = f + (long)q * REPRO_BLOCK; /* d rows: moments, then u */
    real *restrict rho = u + (long)d * REPRO_BLOCK;
    real *restrict s2 = rho + REPRO_BLOCK;
    real *restrict s3 = s2 + REPRO_BLOCK;
    real *restrict cu = s3 + REPRO_BLOCK;
    real *restrict s = cu + REPRO_BLOCK;
    real *restrict o = s + REPRO_BLOCK; /* the tail block's output */
    const int forced = force_m != 0;
    const real keep = k[K_KEEP], omega = k[K_OMEGA], inv_cs2 = k[K_INV_CS2];
    const real half_inv_cs2 = k[K_HALF_INV_CS2], six_cs2 = k[K_SIX_CS2];
    const real cubic = k[K_CUBIC];

    for (long j0 = 0; j0 < n; j0 += REPRO_BLOCK) {
        /* Every loop runs over a whole block: the tail block's missing
         * cells repeat its first cell and are never written out. */
        const int nb = n - j0 < REPRO_BLOCK ? (int)(n - j0) : REPRO_BLOCK;
        for (int i = 0; i < q; i++) {
            real *restrict fi = f + (long)i * REPRO_BLOCK;
            if (gather) {
                const char *gi = gather;
                gi += ((long)i * n + j0) * index_size;
                repro_gather(src, gi, index_size, fi, nb);
            } else {
                memcpy(fi, src + (long)i * n + j0, (size_t)nb * sizeof(real));
            }
            for (int b = nb; b < REPRO_BLOCK; b++) fi[b] = fi[0];
        }

        /* 1. density */
        for (int b = 0; b < REPRO_BLOCK; b++) rho[b] = f[b];
        for (int i = 1; i < q; i++) {
            const real *restrict fi = f + (long)i * REPRO_BLOCK;
            for (int b = 0; b < REPRO_BLOCK; b++) rho[b] = rho[b] + fi[b];
        }

        /* 2-3. momentum, force shift, velocity */
        for (int a = 0; a < d; a++) {
            real *restrict ua = u + (long)a * REPRO_BLOCK;
            rule_sum(ua, f, c + a, d, q);
            if (forced && half_force[a] != 0) {
                const real h = half_force[a];
                for (int b = 0; b < REPRO_BLOCK; b++) ua[b] = ua[b] + h;
            }
            for (int b = 0; b < REPRO_BLOCK; b++) ua[b] = ua[b] / rho[b];
        }

        /* 4. |u|^2 scaled for the Hermite series */
        if (order >= 2) {
            for (int b = 0; b < REPRO_BLOCK; b++) s2[b] = u[b] * u[b];
            for (int a = 1; a < d; a++) {
                const real *restrict ua = u + (long)a * REPRO_BLOCK;
                for (int b = 0; b < REPRO_BLOCK; b++) {
                    const real sq = ua[b] * ua[b];
                    s2[b] = s2[b] + sq;
                }
            }
            for (int b = 0; b < REPRO_BLOCK; b++) s2[b] = s2[b] * half_inv_cs2;
            if (order >= 3)
                for (int b = 0; b < REPRO_BLOCK; b++) s3[b] = s2[b] * six_cs2;
        }

        /* 5. per velocity: source, equilibrium, relaxation */
        for (int i = 0; i < q; i++) {
            const real *restrict fi = f + (long)i * REPRO_BLOCK;
            real *dst = nb == REPRO_BLOCK ? out + (long)i * n + j0 : o;
            const real wi = w[i];
            if (forced) {
                rule_sum(s, u, force_m + (long)i * d, 1, d);
                if (force_b[i] != 0) {
                    const real bi = force_b[i];
                    for (int b = 0; b < REPRO_BLOCK; b++) s[b] = s[b] + bi;
                }
            }
            rule_sum(cu, u, c + (long)i * d, 1, d);
            if (order >= 3) {
                for (int b = 0; b < REPRO_BLOCK; b++) {
                    const real x = cu[b] * inv_cs2;
                    real t = x * x;
                    t = t * (real)0.5;
                    t = t + x;
                    t = t + (real)1;
                    t = t - s2[b];
                    real y = cu[b] * cu[b];
                    y = y * inv_cs2;
                    y = y - s3[b];
                    y = y * cu[b];
                    y = y * cubic;
                    t = t + y;
                    const real r = relax(t, fi[b], wi, rho[b], keep, omega);
                    dst[b] = forced ? r + s[b] : r;
                }
            } else if (order == 2) {
                for (int b = 0; b < REPRO_BLOCK; b++) {
                    const real x = cu[b] * inv_cs2;
                    real t = x * x;
                    t = t * (real)0.5;
                    t = t + x;
                    t = t + (real)1;
                    t = t - s2[b];
                    const real r = relax(t, fi[b], wi, rho[b], keep, omega);
                    dst[b] = forced ? r + s[b] : r;
                }
            } else {
                for (int b = 0; b < REPRO_BLOCK; b++) {
                    const real x = cu[b] * inv_cs2;
                    const real t = x + (real)1;
                    const real r = relax(t, fi[b], wi, rho[b], keep, omega);
                    dst[b] = forced ? r + s[b] : r;
                }
            }
            if (dst == o)
                memcpy(out + (long)i * n + j0, o, (size_t)nb * sizeof(real));
        }
    }
}
