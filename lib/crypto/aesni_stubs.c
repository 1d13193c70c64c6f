/* AES-128 on the x86 AES-NI instructions, for Crypto.Aes128.
 *
 * Key expansion (aeskeygenassist, plus aesimc for the equivalent-inverse
 * decryption schedule), single-block encrypt/decrypt, and the two CBC
 * chains Crypto.Cbc runs a whole cell through in one call.
 *
 * A schedule is a 352-byte OCaml bytes value: 11 encryption round keys
 * followed by 11 decryption round keys.  Loads and stores are unaligned,
 * so any bytes value and any offset work.
 *
 * Every entry point is [@@noalloc] on the OCaml side: none allocates,
 * raises or releases the runtime lock.  None checks a range either —
 * Aes128 and Cbc check every offset and length before calling in.
 *
 * Each function that runs AES instructions carries
 * __attribute__((target("aes,sse2"))), so the file needs no global -maes flag and the rest of the program stays free of
 * AES instructions; sfdd_aesni_available() (CPUID) decides at run time
 * whether they may execute.  On non-x86 targets, or with a compiler that
 * lacks the target attribute, the guard below compiles only stubs that
 * report "unavailable", and Aes128 runs its T-table code alone. */

#include <caml/mlvalues.h>

#if (defined(__x86_64__) || defined(__i386__)) && defined(__has_attribute)
#if __has_attribute(target)
#define SFDD_AESNI 1
#endif
#endif

#ifdef SFDD_AESNI

#include <cpuid.h>
#include <emmintrin.h>
#include <wmmintrin.h>

#define AESNI_FN __attribute__((target("aes,sse2")))

#define LOAD(p) _mm_loadu_si128((const __m128i *)(p))
#define STORE(p, v) _mm_storeu_si128((__m128i *)(p), (v))

CAMLprim value sfdd_aesni_available(value unit)
{
  unsigned int a, b, c, d;
  (void)unit;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return Val_false;
  return Val_bool((c & bit_AES) && (d & bit_SSE2));
}

/* One key-schedule step: fold the previous round key with the
   RotWord/SubWord/Rcon word aeskeygenassist left in lane 3 of [t]. */
AESNI_FN static inline __m128i expand_step(__m128i k, __m128i t)
{
  t = _mm_shuffle_epi32(t, 0xff);
  k = _mm_xor_si128(k, _mm_slli_si128(k, 4));
  k = _mm_xor_si128(k, _mm_slli_si128(k, 4));
  k = _mm_xor_si128(k, _mm_slli_si128(k, 4));
  return _mm_xor_si128(k, t);
}

/* The round constant is an instruction immediate, hence the macro. */
#define STEP(i, rcon) \
  rk[i] = expand_step(rk[(i) - 1], _mm_aeskeygenassist_si128(rk[(i) - 1], (rcon)))

AESNI_FN CAMLprim value sfdd_aesni_expand(value raw, value sched)
{
  __m128i rk[11];
  unsigned char *out = Bytes_val(sched);
  int i;
  rk[0] = LOAD(String_val(raw));
  STEP(1, 0x01); STEP(2, 0x02); STEP(3, 0x04); STEP(4, 0x08); STEP(5, 0x10);
  STEP(6, 0x20); STEP(7, 0x40); STEP(8, 0x80); STEP(9, 0x1b); STEP(10, 0x36);
  for (i = 0; i <= 10; i++) STORE(out + 16 * i, rk[i]);
  /* Equivalent inverse cipher: round keys reversed, InvMixColumns on the
     nine middle ones. */
  STORE(out + 16 * 11, rk[10]);
  for (i = 1; i <= 9; i++) STORE(out + 16 * (11 + i), _mm_aesimc_si128(rk[10 - i]));
  STORE(out + 16 * 21, rk[0]);
  return Val_unit;
}

/* The 11 round keys of one direction, loaded once per call so a chain
   keeps them in registers. */
#define LOAD_KEYS(k, ks) \
  do { int i_; for (i_ = 0; i_ < 11; i_++) (k)[i_] = LOAD((ks) + 16 * i_); } while (0)

AESNI_FN static inline __m128i enc1(const __m128i *k, __m128i s)
{
  s = _mm_xor_si128(s, k[0]);
  s = _mm_aesenc_si128(s, k[1]);
  s = _mm_aesenc_si128(s, k[2]);
  s = _mm_aesenc_si128(s, k[3]);
  s = _mm_aesenc_si128(s, k[4]);
  s = _mm_aesenc_si128(s, k[5]);
  s = _mm_aesenc_si128(s, k[6]);
  s = _mm_aesenc_si128(s, k[7]);
  s = _mm_aesenc_si128(s, k[8]);
  s = _mm_aesenc_si128(s, k[9]);
  return _mm_aesenclast_si128(s, k[10]);
}

AESNI_FN static inline __m128i dec1(const __m128i *k, __m128i s)
{
  s = _mm_xor_si128(s, k[0]);
  s = _mm_aesdec_si128(s, k[1]);
  s = _mm_aesdec_si128(s, k[2]);
  s = _mm_aesdec_si128(s, k[3]);
  s = _mm_aesdec_si128(s, k[4]);
  s = _mm_aesdec_si128(s, k[5]);
  s = _mm_aesdec_si128(s, k[6]);
  s = _mm_aesdec_si128(s, k[7]);
  s = _mm_aesdec_si128(s, k[8]);
  s = _mm_aesdec_si128(s, k[9]);
  return _mm_aesdeclast_si128(s, k[10]);
}

#define ENC_KEYS(sched) ((const unsigned char *)Bytes_val(sched))
#define DEC_KEYS(sched) ((const unsigned char *)Bytes_val(sched) + 176)

AESNI_FN CAMLprim value sfdd_aesni_encrypt_block(value sched, value src, value src_off,
                                                 value dst, value dst_off)
{
  __m128i k[11];
  LOAD_KEYS(k, ENC_KEYS(sched));
  STORE(Bytes_val(dst) + Long_val(dst_off),
        enc1(k, LOAD(Bytes_val(src) + Long_val(src_off))));
  return Val_unit;
}

AESNI_FN CAMLprim value sfdd_aesni_decrypt_block(value sched, value src, value src_off,
                                                 value dst, value dst_off)
{
  __m128i k[11];
  LOAD_KEYS(k, DEC_KEYS(sched));
  STORE(Bytes_val(dst) + Long_val(dst_off),
        dec1(k, LOAD(Bytes_val(src) + Long_val(src_off))));
  return Val_unit;
}

/* In place: block k of buf at [off] becomes E(p_k ^ c_{k-1}), c_{-1} being
   the IV at [iv_off]. */
AESNI_FN CAMLprim value sfdd_aesni_cbc_encrypt(value sched, value buf, value iv_off,
                                               value off, value nblocks)
{
  __m128i k[11];
  unsigned char *p = Bytes_val(buf) + Long_val(off);
  __m128i c = LOAD(Bytes_val(buf) + Long_val(iv_off));
  long b, n = Long_val(nblocks);
  LOAD_KEYS(k, ENC_KEYS(sched));
  for (b = 0; b < n; b++, p += 16) {
    c = enc1(k, _mm_xor_si128(LOAD(p), c));
    STORE(p, c);
  }
  return Val_unit;
}

/* dst block k = D(c_k) ^ c_{k-1}.  Each ciphertext block is loaded before
   its plaintext is stored, so the IV may alias [src] (the cell layout puts
   it just before the body). */
AESNI_FN CAMLprim value sfdd_aesni_cbc_decrypt(value sched, value src, value src_off,
                                               value iv, value iv_off, value dst,
                                               value dst_off, value nblocks)
{
  __m128i k[11];
  const unsigned char *s = Bytes_val(src) + Long_val(src_off);
  unsigned char *d = Bytes_val(dst) + Long_val(dst_off);
  __m128i prev = LOAD(Bytes_val(iv) + Long_val(iv_off));
  long b, n = Long_val(nblocks);
  LOAD_KEYS(k, DEC_KEYS(sched));
  for (b = 0; b < n; b++, s += 16, d += 16) {
    __m128i c = LOAD(s);
    STORE(d, _mm_xor_si128(dec1(k, c), prev));
    prev = c;
  }
  return Val_unit;
}

#else /* !SFDD_AESNI: the T-table path is the only one. */

CAMLprim value sfdd_aesni_available(value unit)
{
  (void)unit;
  return Val_false;
}

/* Never called: Aes128 only builds AES-NI keys when the probe above says
   true.  Defined so the OCaml externals link. */
CAMLprim value sfdd_aesni_expand(value raw, value sched)
{
  (void)raw; (void)sched;
  return Val_unit;
}

CAMLprim value sfdd_aesni_encrypt_block(value sched, value src, value src_off,
                                        value dst, value dst_off)
{
  (void)sched; (void)src; (void)src_off; (void)dst; (void)dst_off;
  return Val_unit;
}

CAMLprim value sfdd_aesni_decrypt_block(value sched, value src, value src_off,
                                        value dst, value dst_off)
{
  (void)sched; (void)src; (void)src_off; (void)dst; (void)dst_off;
  return Val_unit;
}

CAMLprim value sfdd_aesni_cbc_encrypt(value sched, value buf, value iv_off,
                                      value off, value nblocks)
{
  (void)sched; (void)buf; (void)iv_off; (void)off; (void)nblocks;
  return Val_unit;
}

CAMLprim value sfdd_aesni_cbc_decrypt(value sched, value src, value src_off,
                                      value iv, value iv_off, value dst,
                                      value dst_off, value nblocks)
{
  (void)sched; (void)src; (void)src_off; (void)iv; (void)iv_off;
  (void)dst; (void)dst_off; (void)nblocks;
  return Val_unit;
}

#endif /* SFDD_AESNI */

/* Bytecode entry for the eight-argument chain. */
CAMLprim value sfdd_aesni_cbc_decrypt_byte(value *argv, int argn)
{
  (void)argn;
  return sfdd_aesni_cbc_decrypt(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                                argv[6], argv[7]);
}
