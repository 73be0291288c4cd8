/* CRC-32 and the grid codec of the polymg.snapshot/1 container
 * (Snapshot).
 *
 * The CRC is IEEE / zlib (reflected polynomial 0xEDB88320).  It has two
 * code paths, which return the same value on every input:
 *
 * - 0, slicing-by-16, on every host: table k carries a byte's
 *   contribution past k further bytes, so sixteen lookups advance the
 *   CRC over sixteen bytes.  Words are assembled by shifts, so the
 *   result is the same on either byte order.
 * - 1, carry-less multiply, on x86-64 hosts with PCLMULQDQ and SSE4.1
 *   (CPUID leaf 1): four 128-bit lanes fold 64 bytes a step, then fold
 *   into one lane, which takes the remaining 16-byte blocks; the lane
 *   is reduced to 64 bits and, by a Barrett reduction, to the 32-bit
 *   CRC (Gopal et al., "Fast CRC Computation for Generic Polynomials
 *   Using PCLMULQDQ Instruction", Intel, 2009, with the bit-reflected
 *   constants of the zlib polynomial).  A range under 64 bytes, and the
 *   tail under 16 bytes of a longer one, go through the tables.
 *
 * Snapshot reads the paths this build and host run once, at start-up,
 * and passes the fastest to every call.  The host is read through
 * cpuid.h, not __builtin_cpu_supports or target_clones: either links
 * libgcc's CPU probe ahead of the OCaml program and moves code laid out
 * after it.
 *
 * A grid payload is the buffer's doubles as little-endian IEEE-754: a
 * memcpy on little-endian hosts, one byte swap per double on big-endian
 * ones.  The carry-less path encodes a grid in one pass, storing each
 * 16-byte block into the file buffer as it folds it.  The OCaml side
 * checks every range before calling in; none of these functions
 * allocates or raises, so they are [@@noalloc].
 *
 * The in-place writer opens the file it rewrites with O_NOFOLLOW, which
 * OCaml's Unix.openfile cannot ask for: a symbolic link at that name
 * fails with ELOOP instead of being written through.
 */

#include <fcntl.h>
#include <stdint.h>
#include <string.h>

#include <caml/mlvalues.h>
#include <caml/bigarray.h>
#include <caml/memory.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

static uint32_t crc_tables[16][256];

static inline uint32_t load_le32(const unsigned char *p)
{
  return (uint32_t) p[0] | ((uint32_t) p[1] << 8) | ((uint32_t) p[2] << 16)
         | ((uint32_t) p[3] << 24);
}

/* The CRC of [len] bytes at [p], continuing the checksum [crc]. */
static uint32_t crc32_table(uint32_t crc, const unsigned char *p, size_t len)
{
  uint32_t c = ~crc;
  for (; len >= 16; p += 16, len -= 16) {
    uint32_t w0 = load_le32(p) ^ c, w1 = load_le32(p + 4);
    uint32_t w2 = load_le32(p + 8), w3 = load_le32(p + 12);
    c = crc_tables[15][w0 & 0xFF] ^ crc_tables[14][(w0 >> 8) & 0xFF]
        ^ crc_tables[13][(w0 >> 16) & 0xFF] ^ crc_tables[12][w0 >> 24]
        ^ crc_tables[11][w1 & 0xFF] ^ crc_tables[10][(w1 >> 8) & 0xFF]
        ^ crc_tables[9][(w1 >> 16) & 0xFF] ^ crc_tables[8][w1 >> 24]
        ^ crc_tables[7][w2 & 0xFF] ^ crc_tables[6][(w2 >> 8) & 0xFF]
        ^ crc_tables[5][(w2 >> 16) & 0xFF] ^ crc_tables[4][w2 >> 24]
        ^ crc_tables[3][w3 & 0xFF] ^ crc_tables[2][(w3 >> 8) & 0xFF]
        ^ crc_tables[1][(w3 >> 16) & 0xFF] ^ crc_tables[0][w3 >> 24];
  }
  for (; len > 0; p++, len--)
    c = crc_tables[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return ~c;
}

/* Copies [n] doubles between host order and little-endian: a memcpy on
   little-endian hosts, a byte swap per double on big-endian ones (the
   same operation in both directions). */
static void copy_le64(void *dst, const void *src, size_t n)
{
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  for (size_t i = 0; i < n; i++) {
    uint64_t w;
    memcpy(&w, (const unsigned char *) src + 8 * i, 8);
    w = __builtin_bswap64(w);
    memcpy((unsigned char *) dst + 8 * i, &w, 8);
  }
#else
  memcpy(dst, src, 8 * n);
#endif
}

/* Path 0: copy, then the tables. */
static uint32_t crc32_copy_table(unsigned char *dst, const void *src, size_t n)
{
  copy_le64(dst, src, n);
  return crc32_table(0, dst, 8 * n);
}

typedef uint32_t crc_path(uint32_t, const unsigned char *, size_t);
typedef uint32_t copy_path(unsigned char *, const void *, size_t);

#if defined(__x86_64__) && defined(__GNUC__)
#include <cpuid.h>
#include <immintrin.h>

#define CLMUL __attribute__((target("pclmul,sse4.1")))

/* The bit-reflected constants: k1, k2 fold a lane across 512 bits, k3,
   k4 across 128, k5 reduces 96 bits to 64; then the polynomial P and
   mu = floor(x^64 / P) for the Barrett reduction. */
static const uint64_t k1k2[2] __attribute__((aligned(16))) = {
  0x154442bd4, 0x1c6e41596
};
static const uint64_t k3k4[2] __attribute__((aligned(16))) = {
  0x1751997d0, 0x0ccaa009e
};
static const uint64_t k5k0[2] __attribute__((aligned(16))) = {
  0x163cd6124, 0
};
static const uint64_t poly_mu[2] __attribute__((aligned(16))) = {
  0x1db710641, 0x1f7011641
};

/* Lane [x] carried across the distance its constants [k] stand for,
   plus the next block [y]. */
CLMUL static inline __m128i fold(__m128i x, __m128i k, __m128i y)
{
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       y);
}

/* The 16-byte block at [src + o], also stored at [dst + o] when [dst]
   is not NULL. */
CLMUL static inline __m128i block(unsigned char *dst, const unsigned char *src,
                                  size_t o)
{
  __m128i x = _mm_loadu_si128((const __m128i *) (src + o));
  if (dst) _mm_storeu_si128((__m128i *) (dst + o), x);
  return x;
}

/* The CRC register [c] (not inverted) advanced over [len] bytes of
   [src], len a multiple of 16 and at least 64; with [dst], the bytes
   are stored there too.  Inlined into both callers, so the test of
   [dst] is folded away. */
CLMUL static inline __attribute__((always_inline)) uint32_t
clmul_fold(uint32_t c, unsigned char *dst, const unsigned char *src,
           size_t len)
{
  __m128i x0 = _mm_xor_si128(block(dst, src, 0), _mm_cvtsi32_si128(c));
  __m128i x1 = block(dst, src, 16), x2 = block(dst, src, 32);
  __m128i x3 = block(dst, src, 48);
  __m128i k = _mm_load_si128((const __m128i *) k1k2);
  size_t o = 64;
  for (; o + 64 <= len; o += 64) {
    x0 = fold(x0, k, block(dst, src, o));
    x1 = fold(x1, k, block(dst, src, o + 16));
    x2 = fold(x2, k, block(dst, src, o + 32));
    x3 = fold(x3, k, block(dst, src, o + 48));
  }
  k = _mm_load_si128((const __m128i *) k3k4);
  x0 = fold(x0, k, x1);
  x0 = fold(x0, k, x2);
  x0 = fold(x0, k, x3);
  for (; o < len; o += 16) x0 = fold(x0, k, block(dst, src, o));

  /* 128 bits to 64: the low half times k4 into the high half, then the
     low 32 bits times k5 into the upper 64 */
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), _mm_clmulepi64_si128(x0, k, 0x10));
  k = _mm_load_si128((const __m128i *) k5k0);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k, 0x00));

  /* Barrett: q = (low 32 bits * mu) mod x^32, then the remainder's
     32 bits from q * P */
  k = _mm_load_si128((const __m128i *) poly_mu);
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), k, 0x00);
  return (uint32_t) _mm_extract_epi32(_mm_xor_si128(x0, q), 1);
}

CLMUL static uint32_t crc32_clmul(uint32_t crc, const unsigned char *p,
                                  size_t len)
{
  if (len < 64) return crc32_table(crc, p, len);
  size_t body = len & ~(size_t) 15;
  uint32_t c = clmul_fold(~crc, NULL, p, body);
  return crc32_table(~c, p + body, len - body);
}

/* Path 1: one pass that stores and folds each block, then the tail
   under 16 bytes copied and put through the tables. */
CLMUL static uint32_t crc32_copy_clmul(unsigned char *dst, const void *src,
                                       size_t n)
{
  size_t len = 8 * n;
  if (len < 64) return crc32_copy_table(dst, src, n);
  size_t body = len & ~(size_t) 15;
  uint32_t c = clmul_fold(~0u, dst, src, body);
  memcpy(dst + body, (const unsigned char *) src + body, len - body);
  return crc32_table(~c, dst + body, len - body);
}

static crc_path *const crc_paths[] = { crc32_table, crc32_clmul };
static copy_path *const copy_paths[] = { crc32_copy_table, crc32_copy_clmul };

/* PCLMULQDQ and SSE4.1 in CPUID leaf 1. */
static int clmul_usable(void)
{
  unsigned a, b, c, d;
  return __get_cpuid(1, &a, &b, &c, &d) && (c & bit_PCLMUL)
         && (c & bit_SSE4_1);
}
#else
static crc_path *const crc_paths[] = { crc32_table };
static copy_path *const copy_paths[] = { crc32_copy_table };

static int clmul_usable(void) { return 0; }
#endif

/* Fills the tables and returns the bit mask of the paths this build and
   host run.  Called once from Snapshot's module initialisation, before
   any domain can call the CRC. */
CAMLprim value polymg_snapshot_crc_init(value unit)
{
  (void) unit;
  for (uint32_t n = 0; n < 256; n++) {
    uint32_t c = n;
    for (int k = 0; k < 8; k++)
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    crc_tables[0][n] = c;
  }
  for (int k = 1; k < 16; k++)
    for (int n = 0; n < 256; n++) {
      uint32_t prev = crc_tables[k - 1][n];
      crc_tables[k][n] = (prev >> 8) ^ crc_tables[0][prev & 0xFF];
    }
  return Val_int(clmul_usable() ? 3 : 1);
}

CAMLprim value polymg_snapshot_crc32(value vpath, value vcrc, value vs,
                                     value vpos, value vlen)
{
  const unsigned char *p =
      (const unsigned char *) String_val(vs) + Long_val(vpos);
  return Val_long(crc_paths[Long_val(vpath)]((uint32_t) Long_val(vcrc), p,
                                             Long_val(vlen)));
}

/* Encodes [n] doubles of a float64 Bigarray into [b] at [pos] and
   returns the CRC of the bytes written. */
CAMLprim value polymg_snapshot_encode_floats(value vpath, value vdata,
                                             value vn, value vb, value vpos)
{
  return Val_long(copy_paths[Long_val(vpath)](
      Bytes_val(vb) + Long_val(vpos), Caml_ba_data_val(vdata), Long_val(vn)));
}

/* Decodes [n] doubles of [s] at [pos] into a float64 Bigarray. */
CAMLprim value polymg_snapshot_decode_floats(value vs, value vpos, value vdata,
                                             value vn)
{
  copy_le64(Caml_ba_data_val(vdata), String_val(vs) + Long_val(vpos),
            Long_val(vn));
  return Val_unit;
}

/* open(path, O_RDWR | O_NOFOLLOW | O_CLOEXEC), raising Unix.Unix_error
   on failure. */
CAMLprim value polymg_snapshot_open_nofollow(value vpath)
{
  CAMLparam1(vpath);
  char *path;
  int fd;
  caml_unix_check_path(vpath, "open");
  path = caml_stat_strdup(String_val(vpath));
  caml_enter_blocking_section();
  fd = open(path, O_RDWR | O_NOFOLLOW | O_CLOEXEC);
  caml_leave_blocking_section();
  caml_stat_free(path);
  if (fd == -1) caml_uerror("open", vpath);
  CAMLreturn(Val_int(fd));
}
