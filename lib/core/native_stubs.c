/* dlopen/dlsym primitives for the native execution backend (Native).
 *
 * The OCaml side hands us the path of a compiled kernel .so and an
 * array of Bigarray.Array1 buffers; we resolve the fixed entry symbol
 * and call it with the raw data pointers.  Bigarray data is allocated
 * outside the OCaml heap and never moves, so the pointers stay valid
 * while the values are rooted — we extract them before releasing the
 * runtime lock for the (potentially millisecond-scale) kernel call.
 */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/bigarray.h>
#include <caml/signals.h>

#include <dlfcn.h>

#include "emitter_digest.h"

#define POLYMG_MAX_BUFS 64

CAMLprim value polymg_native_dlopen(value vpath)
{
  CAMLparam1(vpath);
  void *h;
  (void) dlerror();
  h = dlopen(String_val(vpath), RTLD_NOW | RTLD_LOCAL);
  if (h == NULL) {
    const char *err = dlerror();
    caml_failwith(err != NULL ? err : "dlopen failed");
  }
  CAMLreturn(caml_copy_nativeint((intnat) h));
}

CAMLprim value polymg_native_dlsym(value vhandle, value vname)
{
  CAMLparam2(vhandle, vname);
  void *h = (void *) Nativeint_val(vhandle);
  void *sym;
  (void) dlerror();
  sym = dlsym(h, String_val(vname));
  if (sym == NULL) {
    const char *err = dlerror();
    caml_failwith(err != NULL ? err : "dlsym failed");
  }
  CAMLreturn(caml_copy_nativeint((intnat) sym));
}

CAMLprim value polymg_native_dlclose(value vhandle)
{
  CAMLparam1(vhandle);
  dlclose((void *) Nativeint_val(vhandle));
  CAMLreturn(Val_unit);
}

/* Call int (*entry)(double **) with the data pointers of an array of
   float64 Bigarrays.  Returns the entry's return code. */
CAMLprim value polymg_native_call(value ventry, value vbufs)
{
  CAMLparam2(ventry, vbufs);
  double *ptrs[POLYMG_MAX_BUFS];
  int n = Wosize_val(vbufs);
  int i, rc;
  int (*entry)(double **) = (int (*)(double **)) Nativeint_val(ventry);
  if (n > POLYMG_MAX_BUFS)
    caml_invalid_argument("polymg_native_call: too many buffers");
  for (i = 0; i < n; i++)
    ptrs[i] = (double *) Caml_ba_data_val(Field(vbufs, i));
  caml_enter_blocking_section();
  rc = entry(ptrs);
  caml_leave_blocking_section();
  CAMLreturn(Val_int(rc));
}

/* The MD5 of the source that prints a kernel's C, taken by the build
   (emitter_digest.h): part of every kernel's cache key. */
CAMLprim value polymg_native_emitter_digest(value unit)
{
  (void) unit;
  return caml_copy_string(POLYMG_EMITTER_DIGEST);
}
