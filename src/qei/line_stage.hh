/**
 * @file
 * A batch's line-staging buffer: which cachelines a QUERY_BATCH has
 * already staged, and the cycle each one lands.
 *
 * The buffer holds at most kMaxLines lines and drops them all when a
 * line arrives while it is full. It is a fixed open-addressed table of
 * twice that many slots, keyed by line address with linear probing,
 * so a probe is short and always ends at a free slot. Clearing bumps a
 * generation stamp instead of touching the slots: a slot is live only
 * while its stamp equals the table's, like the Cache's per-set epochs.
 */

#ifndef QEI_QEI_LINE_STAGE_HH
#define QEI_QEI_LINE_STAGE_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/types.hh"

namespace qei {

class LineStage
{
  public:
    /** Lines held before an overflow drops them all. */
    static constexpr std::size_t kMaxLines = 256;

    /** Staged-at cycle of @p line, or nullptr when it is not staged. */
    const Cycles*
    find(Addr line) const
    {
        for (std::size_t i = home(line);; i = (i + 1) & kMask) {
            const Slot& s = slots_[i];
            if (s.gen != gen_)
                return nullptr;
            if (s.line == line)
                return &s.at;
        }
    }

    /**
     * Stage @p line, which is not staged, at cycle @p at. When
     * kMaxLines lines are already staged, drop them all first.
     */
    void
    stage(Addr line, Cycles at)
    {
        if (live_ == kMaxLines)
            clear();
        std::size_t i = home(line);
        while (slots_[i].gen == gen_)
            i = (i + 1) & kMask;
        slots_[i] = Slot{line, at, gen_};
        ++live_;
    }

    /** Lines staged since the last clear. */
    std::size_t size() const { return live_; }

    /** Drop every staged line. */
    void
    clear()
    {
        live_ = 0;
        if (++gen_ == 0) {
            // The stamp wrapped: no slot may still carry the new one.
            for (Slot& s : slots_)
                s.gen = 0;
            gen_ = 1;
        }
    }

  private:
    static constexpr unsigned kBits = 9;
    static constexpr std::size_t kSlots = std::size_t{1} << kBits;
    static constexpr std::size_t kMask = kSlots - 1;
    static_assert(kMaxLines < kSlots, "a probe must reach a free slot");

    struct Slot
    {
        Addr line = 0;
        Cycles at = 0;
        /** Live while equal to gen_; 0 never is. */
        std::uint32_t gen = 0;
    };

    /** Fibonacci hash of the line number into [0, kSlots). */
    static std::size_t
    home(Addr line)
    {
        return static_cast<std::size_t>(
            ((line / kCacheLineBytes) * 0x9E3779B97F4A7C15ULL) >>
            (64 - kBits));
    }

    std::array<Slot, kSlots> slots_{};
    std::uint32_t gen_ = 1;
    std::size_t live_ = 0;
};

} // namespace qei

#endif // QEI_QEI_LINE_STAGE_HH
