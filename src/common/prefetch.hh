/**
 * @file
 * Host prefetch hint for the simulator's own data structures.
 *
 * __builtin_prefetch alone is not enough here.  GCC's pure-const
 * analysis treats a function whose only effect is __builtin_prefetch
 * as pure, so at -O2 a call to such a hook, whose result is unused by
 * definition, is deleted as dead code: GCC 12 compiled
 * AlloyCache::prefetch to a bare `ret`.  A volatile asm is an effect
 * no pass may drop, so on x86 the hint is emitted that way; elsewhere
 * it falls back to the builtin.  tools/ci.sh step 9 checks the
 * disassembly (DESIGN.md §15).
 */

#ifndef BEAR_COMMON_PREFETCH_HH
#define BEAR_COMMON_PREFETCH_HH

namespace bear
{

/** Prefetch the cache line holding @p p into every cache level.  A
 *  hint: it never faults and changes no program state. */
inline void
hostPrefetch(const void *p)
{
#if defined(__x86_64__) || defined(__i386__)
    asm volatile("prefetcht0 %0" : : "m"(*static_cast<const char *>(p)));
#else
    __builtin_prefetch(p);
#endif
}

} // namespace bear

#endif // BEAR_COMMON_PREFETCH_HH
