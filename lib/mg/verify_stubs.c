/* The Poisson operator A_h = -lap_h, the residual sum and the rim scan
 * of Verify, on dense row-major float64 grids with one ghost layer per
 * side.
 *
 * Each point is 2d*c minus each neighbour in turn, dimension by
 * dimension: the per-point oracle's operations in its order.  The
 * residual's squares go to eight lanes: a point at column offset j of
 * its row (j = 0 at the first interior column) adds into lane j mod 8,
 * rows in row-major order, and the lanes are combined by the fixed tree
 * ((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7)).  That order is the contract: the
 * OCaml oracle sums the same way, bit for bit.  The lanes are one gcc
 * vector of eight doubles.  On x86-64 the sum is compiled twice, for
 * AVX-512 and for the baseline ISA, and Verify takes AVX-512 where the
 * host runs it; elsewhere only the baseline is built.  Both paths do
 * the same IEEE operations on the same lanes, so the bits do not depend
 * on the host.  Built with -ffp-contract=off and without -ffast-math,
 * so gcc may neither fuse nor reassociate.
 *
 * Verify.check validates rank, extents, strides and buffer lengths
 * before calling in; these functions trust it, never allocate nor raise,
 * and are [@@noalloc].  The _byte twins box the floats for bytecode.
 */

#include <math.h>

#include <caml/alloc.h>
#include <caml/bigarray.h>
#include <caml/mlvalues.h>

#define EXT(e, k) Long_val(Field((e), (k)))

/* The operator at offset o, reading v through [A]: V1 gives one
   double, V8 the eight lanes from o on, so both do the same operations
   in the same order. */
#define LAP2(A, o, s0) \
  (4.0 * A(o) - A(o - s0) - A(o + s0) - A(o - 1) - A(o + 1))
#define LAP3(A, o, s0, s1) \
  (6.0 * A(o) - A(o - s0) - A(o + s0) - A(o - s1) - A(o + s1) - A(o - 1) \
   - A(o + 1))

/* Eight lanes of doubles; [lanes_u] loads them from any 8-byte
   aligned address. */
typedef double lanes __attribute__((vector_size(8 * sizeof(double))));
typedef double lanes_u
    __attribute__((vector_size(8 * sizeof(double)), aligned(8), may_alias));
#define V1(o) v[o]
#define V8(o) (*(const lanes_u *)(v + (o)))

/* The squared residuals of the m points of one row from offset o0 into
   [acc]: whole groups of eight as one vector, then the tail point by
   point, offset j into lane j & 7. */
#define ROW(LAP, LAPV)                                            \
  do {                                                            \
    long j = 0;                                                   \
    for (; j + 8 <= m; j += 8) {                                  \
      long o = o0 + j;                                            \
      lanes r = *(const lanes_u *)(f + o) - invhsq * (LAPV);      \
      acc += r * r;                                               \
    }                                                             \
    for (; j < m; j++) {                                          \
      long o = o0 + j;                                            \
      double r = f[o] - invhsq * (LAP);                           \
      acc[j & 7] += r * r;                                        \
    }                                                             \
  } while (0)

/* Inlined into each path below, so each compiles it for its own ISA. */
static inline __attribute__((always_inline)) double
residual_sum(const double *v, const double *f, double invhsq, value ext)
{
  lanes acc = { 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0 };
  if (Wosize_val(ext) == 2) {
    long n0 = EXT(ext, 0), s0 = EXT(ext, 1), m = s0 - 2;
    for (long i = 1; i < n0 - 1; i++) {
      long o0 = i * s0 + 1;
      ROW(LAP2(V1, o, s0), LAP2(V8, o, s0));
    }
  } else {
    long n0 = EXT(ext, 0), n1 = EXT(ext, 1), s1 = EXT(ext, 2), s0 = n1 * s1;
    long m = s1 - 2;
    for (long i = 1; i < n0 - 1; i++)
      for (long row = i * s0 + s1; row < i * s0 + (n1 - 1) * s1; row += s1) {
        long o0 = row + 1;
        ROW(LAP3(V1, o, s0, s1), LAP3(V8, o, s0, s1));
      }
  }
  return ((acc[0] + acc[1]) + (acc[2] + acc[3]))
         + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
}

/* The code paths, by index: 0 the baseline, 1 AVX-512.  An AVX2 path
   ran 2.3x slower than the baseline's SSE2 on an AVX-512 host, so there
   is none. */
typedef double sum_path(const double *, const double *, double, value);

static double sum_baseline(const double *v, const double *f, double invhsq,
                           value ext)
{
  return residual_sum(v, f, invhsq, ext);
}

#if defined(__x86_64__) && defined(__GNUC__)
#include <cpuid.h>

__attribute__((target("avx512f")))
static double sum_avx512f(const double *v, const double *f, double invhsq,
                          value ext)
{
  return residual_sum(v, f, invhsq, ext);
}

static sum_path *const paths[] = { sum_baseline, sum_avx512f };

/* AVX-512F in CPUID leaf 7 and the ZMM state enabled by the OS (XCR0
   bits 1, 2 and 5-7).  Read with cpuid.h and xgetbv, not
   __builtin_cpu_supports, whose libgcc probe would be linked in. */
static int avx512f_usable(void)
{
  unsigned a, b, c, d, lo, hi;
  if (!__get_cpuid(1, &a, &b, &c, &d) || !(c & bit_OSXSAVE)) return 0;
  __asm__("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
  if ((lo & 0xe6) != 0xe6) return 0;
  return __get_cpuid_count(7, 0, &a, &b, &c, &d) && (b & bit_AVX512F);
}
#else
static sum_path *const paths[] = { sum_baseline };

static int avx512f_usable(void) { return 0; }
#endif

/* The bit mask of the paths this build and host run; Verify reads it
   once and passes the path to every sum. */
CAMLprim value polymg_verify_paths(value unit)
{
  (void)unit;
  return Val_int(avx512f_usable() ? 3 : 1);
}

double polymg_verify_residual_sum(intnat path, value vv, value vf,
                                  double invhsq, value ext)
{
  return paths[path](Caml_ba_data_val(vv), Caml_ba_data_val(vf), invhsq,
                     ext);
}

value polymg_verify_apply_poisson(value vv, value vout, double invhsq,
                                  value ext)
{
  const double *v = Caml_ba_data_val(vv);
  double *out = Caml_ba_data_val(vout);
  if (Wosize_val(ext) == 2) {
    long n0 = EXT(ext, 0), s0 = EXT(ext, 1);
    for (long i = 1; i < n0 - 1; i++)
      for (long o = i * s0 + 1; o < i * s0 + s0 - 1; o++)
        out[o] = invhsq * LAP2(V1, o, s0);
  } else {
    long n0 = EXT(ext, 0), n1 = EXT(ext, 1), s1 = EXT(ext, 2), s0 = n1 * s1;
    for (long i = 1; i < n0 - 1; i++)
      for (long row = i * s0 + s1; row < i * s0 + (n1 - 1) * s1; row += s1)
        for (long o = row + 1; o < row + s1 - 1; o++)
          out[o] = invhsq * LAP3(V1, o, s0, s1);
  }
  return Val_unit;
}

/* Whether every point with at least two ghost coordinates is finite:
   the 4 corners in 2-D, the 12 edges (with the corners) in 3-D, i.e.
   the points no stencil of the residual reads. */
CAMLprim value polymg_verify_rim_finite(value vv, value ext)
{
  const double *v = Caml_ba_data_val(vv);
  if (Wosize_val(ext) == 2) {
    long last = (EXT(ext, 0) - 1) * EXT(ext, 1), s0 = EXT(ext, 1);
    return Val_bool(isfinite(v[0]) && isfinite(v[s0 - 1])
                    && isfinite(v[last]) && isfinite(v[last + s0 - 1]));
  }
  long n[3] = { EXT(ext, 0), EXT(ext, 1), EXT(ext, 2) };
  long s[3] = { n[1] * n[2], n[2], 1 };
  /* the edges along axis a: the other two axes each at 0 or at their
     last index */
  for (int a = 0; a < 3; a++) {
    int b = (a + 1) % 3, c = (a + 2) % 3;
    for (int corner = 0; corner < 4; corner++) {
      long base = ((corner & 1) ? (n[b] - 1) * s[b] : 0)
                  + ((corner & 2) ? (n[c] - 1) * s[c] : 0);
      for (long t = 0; t < n[a]; t++)
        if (!isfinite(v[base + t * s[a]])) return Val_false;
    }
  }
  return Val_true;
}

CAMLprim value polymg_verify_residual_sum_byte(value path, value vv,
                                               value vf, value vinvhsq,
                                               value ext)
{
  return caml_copy_double(polymg_verify_residual_sum(
      Long_val(path), vv, vf, Double_val(vinvhsq), ext));
}

CAMLprim value polymg_verify_apply_poisson_byte(value vv, value vout,
                                                value vinvhsq, value ext)
{
  return polymg_verify_apply_poisson(vv, vout, Double_val(vinvhsq), ext);
}
