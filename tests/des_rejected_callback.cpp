/**
 * @file
 * Must not compile.  Schedules one callback that breaks the kernel's
 * inline-slot rule, chosen by RSIN_REJECTED_CAPTURE: a 200-byte
 * capture (over Simulator::kLargeCapacity), a capture aligned to 16,
 * or one whose move constructor may throw.  The des_rejects_* ctests
 * run the compiler on this file with -fsyntax-only and pass only when
 * its output carries scheduleAt's static_assert message, so a callback
 * that outgrows the slot classes cannot bring back a per-event heap
 * path unnoticed.
 */

#include "des/simulator.hpp"

namespace {

struct Oversized
{
    unsigned char bytes[200];
};

struct alignas(16) Overaligned
{
    double value;
};

struct ThrowingMove
{
    ThrowingMove() = default;
    ThrowingMove(const ThrowingMove &) = default;
    ThrowingMove(ThrowingMove &&) noexcept(false) {}
};

} // namespace

void
scheduleRejected(rsin::des::Simulator &sim)
{
    RSIN_REJECTED_CAPTURE capture{};
    sim.schedule(1.0, [capture] { (void)capture; });
}
