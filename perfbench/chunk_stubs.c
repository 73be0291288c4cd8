/* The compiled part of mgbench's host-speed reference chunk: Jacobi
   sweeps of a 5-point stencil over two fixed 258 x 258 grids, built
   with the flags the native backend uses for its kernels.  It lives in
   the benchmark, not the library, so a change to the library never
   changes it. */

#include <caml/mlvalues.h>

#define M 258

static double grid_a[M * M], grid_b[M * M];

value perfbench_chunk_sweeps(value v_sweeps)
{
  int sweeps = Int_val(v_sweeps);
  double *src = grid_a, *dst = grid_b;
  for (int s = 0; s < sweeps; s++) {
    for (int i = 1; i < M - 1; i++)
      for (int j = 1; j < M - 1; j++)
        dst[i * M + j] = 0.25 * (src[i * M + j - 1] + src[i * M + j + 1]
                                 + src[(i - 1) * M + j] + src[(i + 1) * M + j])
                         + 1e-3;
    double *t = src;
    src = dst;
    dst = t;
  }
  return Val_unit;
}
