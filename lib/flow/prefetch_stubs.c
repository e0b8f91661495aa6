/* Software-prefetch stub for the burst prescan.
 *
 * The primitive computes an address and issues a non-faulting prefetch
 * hint; it neither reads nor writes OCaml heap memory, so it is a
 * [@@noalloc] external with no GC interaction.  On compilers without
 * __builtin_prefetch it compiles to nothing: a hint is never needed for
 * correctness, so every build links this one stub.
 */

#include <caml/mlvalues.h>

#if defined(__GNUC__) || defined(__clang__)
#define SB_PREFETCH(p) __builtin_prefetch((p), 0, 3)
#else
#define SB_PREFETCH(p) ((void)(p))
#endif

/* Prefetch the cache line holding element [i] of a flat OCaml array
 * (int array, float array or pointer array: all have 8-byte elements). */
CAMLprim value sb_prefetch_field(value arr, value i)
{
  SB_PREFETCH((const char *)arr + Long_val(i) * sizeof(value));
  return Val_unit;
}
