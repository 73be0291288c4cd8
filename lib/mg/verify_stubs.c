/* The Poisson operator A_h = -lap_h, the residual sum and the rim scan
 * of Verify, on dense row-major float64 grids with one ghost layer per
 * side.
 *
 * Each point is 2d*c minus each neighbour in turn, dimension by
 * dimension, and the squares are summed by one scalar accumulator in
 * row-major order: the per-point oracle's operations in its order, so
 * the results are bit-identical to it.  Built with -ffp-contract=off and
 * without -ffast-math, so gcc may neither fuse nor reassociate.
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

#define LAP2(v, o, s0) \
  (4.0 * v[o] - v[o - s0] - v[o + s0] - v[o - 1] - v[o + 1])
#define LAP3(v, o, s0, s1) \
  (6.0 * v[o] - v[o - s0] - v[o + s0] - v[o - s1] - v[o + s1] - v[o - 1] \
   - v[o + 1])

double polymg_verify_residual_sum(value vv, value vf, double invhsq,
                                  value ext)
{
  const double *v = Caml_ba_data_val(vv), *f = Caml_ba_data_val(vf);
  double sum = 0.0;
  if (Wosize_val(ext) == 2) {
    long n0 = EXT(ext, 0), s0 = EXT(ext, 1);
    for (long i = 1; i < n0 - 1; i++)
      for (long o = i * s0 + 1; o < i * s0 + s0 - 1; o++) {
        double r = f[o] - invhsq * LAP2(v, o, s0);
        sum += r * r;
      }
  } else {
    long n0 = EXT(ext, 0), n1 = EXT(ext, 1), s1 = EXT(ext, 2), s0 = n1 * s1;
    for (long i = 1; i < n0 - 1; i++)
      for (long row = i * s0 + s1; row < i * s0 + (n1 - 1) * s1; row += s1)
        for (long o = row + 1; o < row + s1 - 1; o++) {
          double r = f[o] - invhsq * LAP3(v, o, s0, s1);
          sum += r * r;
        }
  }
  return sum;
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
        out[o] = invhsq * LAP2(v, o, s0);
  } else {
    long n0 = EXT(ext, 0), n1 = EXT(ext, 1), s1 = EXT(ext, 2), s0 = n1 * s1;
    for (long i = 1; i < n0 - 1; i++)
      for (long row = i * s0 + s1; row < i * s0 + (n1 - 1) * s1; row += s1)
        for (long o = row + 1; o < row + s1 - 1; o++)
          out[o] = invhsq * LAP3(v, o, s0, s1);
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

CAMLprim value polymg_verify_residual_sum_byte(value vv, value vf,
                                               value vinvhsq, value ext)
{
  return caml_copy_double(
      polymg_verify_residual_sum(vv, vf, Double_val(vinvhsq), ext));
}

CAMLprim value polymg_verify_apply_poisson_byte(value vv, value vout,
                                                value vinvhsq, value ext)
{
  return polymg_verify_apply_poisson(vv, vout, Double_val(vinvhsq), ext);
}
