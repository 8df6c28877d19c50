/**
 * @file
 * The memory-reference record exchanged between workload generators
 * and the core model.
 *
 * The simulator is trace-driven at the L2-miss level (LLC mode): each
 * record is one reference that reaches the shared L3, annotated with
 * the number of instructions the core executed since the previous
 * reference, the PC of the issuing instruction (for the MAP-I
 * predictor) and whether downstream computation depends on the loaded
 * value immediately (pointer-chasing loads serialise the core;
 * streaming loads overlap via MSHRs).
 */

#ifndef BEAR_CORE_TRACE_HH
#define BEAR_CORE_TRACE_HH

#include <cstddef>
#include <cstdint>

#include "common/types.hh"

namespace bear
{

/** One memory reference of a simulated core. */
struct MemRef
{
    Addr vaddr = 0;           ///< virtual byte address
    Pc pc = 0;                ///< issuing instruction address
    std::uint32_t instGap = 0; ///< instructions since the previous ref
    bool isWrite = false;     ///< store (dirties the line on chip)
    bool dependent = false;   ///< load value needed immediately
};

/**
 * Generator interface: an endless stream of references.
 *
 * peek() looks ahead without consuming: peek(k) is the reference the
 * (k+1)-th next() from now returns, and any mix of peek() and next()
 * calls yields the same next() sequence as next() alone (DESIGN.md
 * §15).  A stream that cannot look ahead returns nullptr, which is
 * the default.
 */
class RefStream
{
  public:
    /** Lookahead every peeking stream supports: peek(k), k < kMaxPeek. */
    static constexpr std::size_t kMaxPeek = 4;

    virtual ~RefStream() = default;
    virtual MemRef next() = 0;

    /** The reference @p k places ahead, or nullptr; valid until the
     *  next call on this stream. */
    virtual const MemRef *peek(std::size_t) { return nullptr; }
};

} // namespace bear

#endif // BEAR_CORE_TRACE_HH
