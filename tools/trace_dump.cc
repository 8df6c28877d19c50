/**
 * @file
 * Inspect a .beartrace file: header, per-core totals, first records.
 *
 *   trace_dump <file.beartrace> [--records N]
 *   trace_dump --selftest
 *
 * Prints the header metadata (workload, seed, cores, record count,
 * format version), decodes the whole file to per-core record counts
 * and reference statistics (reads/writes/dependent loads), and shows
 * the first N decoded records (default 8).  Because it decodes every
 * chunk, a successful dump doubles as an integrity check: bad CRCs,
 * truncation and version mismatches come back as the same TraceError
 * diagnostics the replay path would raise.
 *
 * The self-test writes a small trace to a temporary file, dumps it,
 * and then verifies the corruption contracts on mutated copies
 * (flipped payload byte → bad-crc, truncated tail → truncated, bumped
 * version byte → bad-version, core count above the format cap →
 * bad-header at open, before any per-core table is sized from it), so
 * CI proves corrupted traces are rejected loudly without a single
 * real workload file.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "tools/tool_args.hh"
#include "trace/trace_reader.hh"
#include "trace/trace_writer.hh"
#include "workloads/workload.hh"

namespace
{

const char *const kUsage =
    "usage: trace_dump <file.beartrace> [--records N]\n"
    "       trace_dump --selftest\n"
    "  --records  decoded records to print (default 8)\n";

int
dump(const std::string &path, std::uint64_t show_records)
{
    auto opened = bear::trace::TraceReader::open(path);
    if (!opened.hasValue()) {
        std::fprintf(stderr, "trace_dump: %s: %s\n", path.c_str(),
                     opened.error().message().c_str());
        return 1;
    }
    bear::trace::TraceReader reader = std::move(opened.value());
    const bear::trace::TraceMeta &meta = reader.meta();

    std::printf("%s\n", path.c_str());
    std::printf("  format    v%u\n", bear::trace::kFormatVersion);
    std::printf("  workload  %s\n", meta.workload.c_str());
    std::printf("  seed      0x%llX\n",
                static_cast<unsigned long long>(meta.seed));
    std::printf("  cores     %u\n", meta.coreCount);
    std::printf("  records   %llu\n",
                static_cast<unsigned long long>(meta.recordCount));

    std::vector<std::uint64_t> per_core(meta.coreCount, 0);
    std::uint64_t writes = 0;
    std::uint64_t dependents = 0;
    std::uint64_t shown = 0;
    for (;;) {
        bear::MemRef ref;
        bear::CoreId core = 0;
        auto r = reader.next(&ref, &core);
        if (!r.hasValue()) {
            std::fprintf(stderr, "trace_dump: %s: %s\n", path.c_str(),
                         r.error().message().c_str());
            return 1;
        }
        if (!*r)
            break;
        ++per_core[core];
        writes += ref.isWrite ? 1 : 0;
        dependents += ref.dependent ? 1 : 0;
        if (shown < show_records) {
            std::printf("  [%llu] core %u vaddr=0x%llX pc=0x%llX "
                        "gap=%u%s%s\n",
                        static_cast<unsigned long long>(shown), core,
                        static_cast<unsigned long long>(ref.vaddr),
                        static_cast<unsigned long long>(ref.pc),
                        ref.instGap, ref.isWrite ? " write" : " read",
                        ref.dependent ? " dependent" : "");
            ++shown;
        }
    }

    std::uint64_t total = 0;
    for (bear::CoreId c = 0; c < meta.coreCount; ++c) {
        std::printf("  core %u: %llu records\n", c,
                    static_cast<unsigned long long>(per_core[c]));
        total += per_core[c];
    }
    std::printf("  %llu records in %llu chunks; %.1f%% writes, "
                "%.1f%% dependent loads\n",
                static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(reader.chunksSeen()),
                total ? 100.0 * static_cast<double>(writes)
                        / static_cast<double>(total)
                      : 0.0,
                total ? 100.0 * static_cast<double>(dependents)
                        / static_cast<double>(total)
                      : 0.0);
    return 0;
}

/** Byte-level mutations for the corruption self-tests. */
std::vector<char>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

void
spit(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

/** Recompute the header CRC after a deliberate header-field edit. */
void
patchHeaderCrc(std::vector<char> &bytes)
{
    const std::size_t name_len = static_cast<unsigned char>(
        bytes[bear::trace::kHeaderFixedBytes - 1]);
    const std::size_t crc_at =
        bear::trace::kHeaderFixedBytes + name_len;
    const std::uint32_t patched =
        bear::trace::crc32(bytes.data(), crc_at);
    for (int byte = 0; byte < 4; ++byte)
        bytes[crc_at + static_cast<std::size_t>(byte)] =
            static_cast<char>(patched >> (8 * byte));
}

/** Expect open+full decode of @p path to fail with @p kind. */
bool
expectRejected(const std::string &path, bear::trace::TraceErrorKind kind,
               const char *what)
{
    auto opened = bear::trace::TraceReader::open(path);
    if (!opened.hasValue()) {
        if (opened.error().kind == kind)
            return true;
        std::fprintf(stderr,
                     "selftest: FAILED: %s rejected as %s, wanted "
                     "%s\n",
                     what,
                     traceErrorKindName(opened.error().kind),
                     traceErrorKindName(kind));
        return false;
    }
    bear::trace::TraceReader reader = std::move(opened.value());
    for (;;) {
        bear::MemRef ref;
        bear::CoreId core = 0;
        auto r = reader.next(&ref, &core);
        if (!r.hasValue()) {
            if (r.error().kind == kind)
                return true;
            std::fprintf(stderr,
                         "selftest: FAILED: %s rejected as %s, "
                         "wanted %s\n",
                         what, traceErrorKindName(r.error().kind),
                         traceErrorKindName(kind));
            return false;
        }
        if (!*r)
            break;
    }
    std::fprintf(stderr, "selftest: FAILED: %s was accepted\n", what);
    return false;
}

int
selftest()
{
    const bear::tools::TempFile temp("beartrace-dump-selftest");
    const bear::tools::TempFile mutatedTemp("beartrace-dump-mut");
    if (!temp.valid() || !mutatedTemp.valid()) {
        std::fprintf(stderr, "selftest: mkstemp failed\n");
        return 1;
    }
    const std::string &path = temp.path();

    bool ok = true;
    {
        bear::trace::TraceMeta meta;
        meta.workload = "selftest";
        meta.seed = 7;
        meta.coreCount = 2;
        auto created = bear::trace::TraceWriter::create(path, meta);
        if (!created.hasValue()) {
            std::fprintf(stderr, "selftest: %s\n",
                         created.error().message().c_str());
            return 1;
        }
        bear::trace::TraceWriter writer = std::move(created.value());
        for (bear::CoreId core = 0; core < 2; ++core) {
            bear::WorkloadStream stream(
                bear::profileByName("libquantum"), 11 + core, 0.0625);
            for (int i = 0; i < 300; ++i) {
                auto appended = writer.append(core, stream.next());
                if (!appended.hasValue()) {
                    std::fprintf(stderr, "selftest: %s\n",
                                 appended.error().message().c_str());
                    return 1;
                }
            }
        }
        ok = writer.finish().hasValue() && ok;
    }

    ok = dump(path, 4) == 0 && ok;

    const std::vector<char> pristine = slurp(path);
    const std::string &mutated = mutatedTemp.path();

    // Flip one payload byte: the chunk CRC must catch it.
    std::vector<char> flipped = pristine;
    flipped[flipped.size() / 2] =
        static_cast<char>(flipped[flipped.size() / 2] ^ 0x40);
    spit(mutated, flipped);
    ok = expectRejected(mutated, bear::trace::TraceErrorKind::BadCrc,
                        "flipped payload byte")
        && ok;

    // Cut the file mid-chunk: truncation must be named, not crash.
    std::vector<char> cut(pristine.begin(),
                          pristine.end() - pristine.size() / 4);
    spit(mutated, cut);
    ok = expectRejected(mutated, bear::trace::TraceErrorKind::Truncated,
                        "truncated file")
        && ok;

    // Bump the version field (and its CRC shield goes stale too, so
    // patch the header checksum to isolate the version check).
    std::vector<char> versioned = pristine;
    versioned[8] = static_cast<char>(versioned[8] + 1);
    patchHeaderCrc(versioned);
    spit(mutated, versioned);
    ok = expectRejected(mutated,
                        bear::trace::TraceErrorKind::BadVersion,
                        "future format version")
        && ok;

    // A 0xFFFFFFFF core count with a valid CRC: open() must refuse it
    // before dump() sizes its per-core table from it.
    std::vector<char> manyCores = pristine;
    for (int byte = 0; byte < 4; ++byte)
        manyCores[12 + static_cast<std::size_t>(byte)] =
            static_cast<char>(0xFF);
    patchHeaderCrc(manyCores);
    spit(mutated, manyCores);
    ok = expectRejected(mutated,
                        bear::trace::TraceErrorKind::BadHeader,
                        "core count above the format cap")
        && ok;

    if (ok) {
        std::printf("selftest passed\n");
        return 0;
    }
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const bear::tools::ToolArgs args(argc, argv, {"records"}, kUsage);
    if (args.selftest())
        return selftest();
    return dump(args.inputPath(), args.u64Or("records", 8));
}
