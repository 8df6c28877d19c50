/**
 * @file
 * Seeded, deterministic mutation fuzzing of the serve wire layer
 * (DESIGN.md §17).  A recorded multi-frame session byte-stream is
 * mutated — single-byte flips, truncations, duplicated and deleted
 * slices, random insertions — and replayed into FrameDecoder under
 * random slicings.  The contract under test is total: every outcome
 * is either a sequence of valid frames or one structured ServeError,
 * the decoder never crashes, never hangs (the pump is bounded and the
 * bound asserted), and once it has failed it stays failed with the
 * same error.  The payload parsers (parseHello / parseHelloOk /
 * parseBusy / parseError) get the same treatment on mutated payloads.
 *
 * Everything is driven by splitmix64 from fixed seeds, so a failure
 * reproduces exactly; ci.sh runs this binary under ASan/UBSan, which
 * is what turns "didn't crash" into evidence.
 */

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/frame.hh"
#include "serve/serve_error.hh"
#include "tests/mutation.hh"

using namespace bear;
using namespace bear::serve;

namespace
{

using Rng = test::SplitMix64;
using test::mutate;

/** A realistic session recording: every frame type a client sends. */
std::vector<std::uint8_t>
recordedSession(Rng &rng)
{
    std::vector<std::uint8_t> chunk(256);
    for (std::size_t i = 0; i < chunk.size(); ++i)
        chunk[i] = static_cast<std::uint8_t>(rng.next());

    std::vector<std::uint8_t> wire;
    for (const auto &frame :
         {encodeFrame(FrameType::Hello, buildHello("BEAR")),
          encodeFrame(FrameType::TraceData, chunk),
          encodeFrame(FrameType::TraceData, chunk),
          encodeFrame(FrameType::TraceDone, {}),
          encodeFrame(FrameType::Bye, {})})
        wire.insert(wire.end(), frame.begin(), frame.end());
    return wire;
}

/**
 * Replay @p bytes into a decoder under a random slicing and pump it
 * dry.  Asserts the total contract: bounded work, structured failure,
 * and sticky failure identity.  The number of frames decoded comes
 * back through @p frames_out (gtest ASSERT needs a void function).
 */
void
pumpDecoderChecked(const std::vector<std::uint8_t> &bytes, Rng &rng,
                   std::size_t &frames_out)
{
    FrameDecoder decoder;
    std::size_t frames = 0;
    bool failed = false;
    ServeErrorKind first_kind = ServeErrorKind::Io;

    // A stream of N bytes can hold at most N/9 frames (header + CRC
    // are 9 bytes); double that plus slack bounds the pump against
    // any would-be infinite loop.
    const std::size_t pump_cap = 2 * (bytes.size() / 9 + 4);
    std::size_t pumps = 0;

    std::size_t offset = 0;
    while (offset < bytes.size() && !failed) {
        const std::size_t slice =
            1 + rng.below(std::min<std::size_t>(
                    bytes.size() - offset, 97));
        decoder.ingest(bytes.data() + offset, slice);
        offset += slice;
        for (;;) {
            ASSERT_LT(pumps++, pump_cap)
                << "decoder pump did not terminate";
            auto next = decoder.next();
            if (!next.hasValue()) {
                failed = true;
                first_kind = next.error().kind;
                EXPECT_FALSE(next.error().detail.empty()
                             && next.error().kind
                                 == ServeErrorKind::Io)
                    << "unstructured decoder failure";
                break;
            }
            if (!next->has_value())
                break;
            ++frames;
        }
    }

    if (failed) {
        // Failure is sticky and stable: no resync, same error kind.
        auto again = decoder.next();
        ASSERT_FALSE(again.hasValue());
        EXPECT_EQ(again.error().kind, first_kind);
        auto finished = decoder.finish();
        ASSERT_FALSE(finished.hasValue());
        EXPECT_EQ(finished.error().kind, first_kind);
    } else {
        // finish() must settle: true on a frame boundary, Truncated
        // inside an open frame — never anything unstructured.
        auto finished = decoder.finish();
        if (!finished.hasValue()) {
            EXPECT_EQ(finished.error().kind,
                      ServeErrorKind::Truncated);
        }
    }
    frames_out = frames;
}

TEST(ServeFuzz, UnmutatedSessionAlwaysDecodesWhole)
{
    Rng rng(0x5E55101ULL);
    const std::vector<std::uint8_t> wire = recordedSession(rng);
    for (int round = 0; round < 64; ++round) {
        std::size_t frames = 0;
        pumpDecoderChecked(wire, rng, frames);
        if (::testing::Test::HasFatalFailure())
            return;
        EXPECT_EQ(frames, 5U) << "round " << round;
    }
}

TEST(ServeFuzz, MutatedStreamsNeverCrashOrHang)
{
    Rng rng(0xB10A7ULL);
    const std::vector<std::uint8_t> master = recordedSession(rng);
    for (int round = 0; round < 2000; ++round) {
        std::vector<std::uint8_t> bytes = mutate(master, rng);
        // Sometimes stack a second and third mutation: compound
        // corruption exercises resync-refusal paths single flips
        // cannot reach.
        if (rng.below(2) == 0)
            bytes = mutate(std::move(bytes), rng);
        if (rng.below(4) == 0)
            bytes = mutate(std::move(bytes), rng);
        std::size_t frames = 0;
        pumpDecoderChecked(bytes, rng, frames);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

TEST(ServeFuzz, PureGarbageStreamsNeverCrashOrHang)
{
    Rng rng(0x6A12BA6EULL);
    for (int round = 0; round < 500; ++round) {
        std::vector<std::uint8_t> bytes(rng.below(4096));
        for (auto &b : bytes)
            b = static_cast<std::uint8_t>(rng.next());
        std::size_t frames = 0;
        pumpDecoderChecked(bytes, rng, frames);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

TEST(ServeFuzz, OversizedLengthsNeverReachAllocation)
{
    // Headers declaring payloads beyond the cap, with plausible CRCs
    // appended: the decoder must reject on the length field alone.
    Rng rng(0x0E45123ULL);
    for (int round = 0; round < 200; ++round) {
        std::vector<std::uint8_t> wire;
        wire.push_back(static_cast<std::uint8_t>(rng.next()));
        const std::uint32_t len = kMaxFramePayloadBytes + 1
            + static_cast<std::uint32_t>(rng.next() % (1U << 20));
        wire.push_back(static_cast<std::uint8_t>(len));
        wire.push_back(static_cast<std::uint8_t>(len >> 8));
        wire.push_back(static_cast<std::uint8_t>(len >> 16));
        wire.push_back(static_cast<std::uint8_t>(len >> 24));

        FrameDecoder decoder;
        decoder.ingest(wire.data(), wire.size());
        auto next = decoder.next();
        ASSERT_FALSE(next.hasValue());
        EXPECT_EQ(next.error().kind, ServeErrorKind::Oversized);
    }
}

// --- Payload parsers on mutated payloads ----------------------------

/** Mutate a valid payload; the parser must settle, never crash. */
template <typename Parse>
void
fuzzParser(const std::vector<std::uint8_t> &valid, Parse parse,
           std::uint64_t seed)
{
    Rng rng(seed);
    for (int round = 0; round < 2000; ++round) {
        std::vector<std::uint8_t> payload = mutate(valid, rng);
        if (rng.below(2) == 0)
            payload = mutate(std::move(payload), rng);
        parse(payload);
    }
}

TEST(ServeFuzz, ParseHelloSettlesOnMutatedPayloads)
{
    fuzzParser(buildHello("BEAR"),
               [](const std::vector<std::uint8_t> &payload) {
                   auto parsed = parseHello(payload);
                   if (!parsed.hasValue()) {
                       EXPECT_FALSE(
                           parsed.error().detail.empty()
                           && parsed.error().kind
                               == ServeErrorKind::Io);
                   }
               },
               0x48E110ULL);
}

TEST(ServeFuzz, ParseHelloOkSettlesOnMutatedPayloads)
{
    HelloOk ok;
    ok.tenantId = 0xDEADBEEFCAFEF00DULL;
    ok.shard = 7;
    fuzzParser(buildHelloOk(ok),
               [](const std::vector<std::uint8_t> &payload) {
                   (void)parseHelloOk(payload);
               },
               0x48E1100BULL);
}

TEST(ServeFuzz, ParseBusySettlesOnMutatedPayloads)
{
    fuzzParser(buildBusy(250),
               [](const std::vector<std::uint8_t> &payload) {
                   (void)parseBusy(payload);
               },
               0xB0B5ULL);
}

TEST(ServeFuzz, ParseErrorSettlesOnMutatedPayloads)
{
    ServeError error;
    error.kind = ServeErrorKind::BadTrace;
    error.detail = "chunk 3 checksum mismatch (stored != computed)";
    fuzzParser(buildError(error),
               [](const std::vector<std::uint8_t> &payload) {
                   // parseError is total by design: unknown kind
                   // bytes and garbled detail degrade, not crash.
                   const ServeError back = parseError(payload);
                   (void)back;
               },
               0xE4404ULL);
}

} // namespace
