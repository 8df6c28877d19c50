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
 * the first N decoded records of each core (default 8).  It loads
 * the file exactly as replay does, so a successful dump doubles as an
 * integrity check: bad CRCs, truncation and version mismatches come
 * back as the same TraceError diagnostics replay would raise.
 *
 * The self-test writes a small trace to a temporary file, dumps it,
 * and then verifies the corruption contracts on mutated copies
 * (flipped payload byte → bad-crc, truncated tail → truncated, bumped
 * version byte → bad-version, core count above the format cap →
 * bad-header, before any per-core table is sized from it), so
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
    "  --records  decoded records to print per core (default 8)\n";

int
dump(const std::string &path, std::uint64_t show_records)
{
    auto loaded = bear::trace::loadTrace(path);
    if (!loaded.hasValue()) {
        std::fprintf(stderr, "trace_dump: %s: %s\n", path.c_str(),
                     loaded.error().message().c_str());
        return 1;
    }
    const bear::trace::TraceMeta &meta = loaded->meta;

    std::printf("%s\n", path.c_str());
    std::printf("  format    v%u\n", bear::trace::kFormatVersion);
    std::printf("  workload  %s\n", meta.workload.c_str());
    std::printf("  seed      0x%llX\n",
                static_cast<unsigned long long>(meta.seed));
    std::printf("  cores     %u\n", meta.coreCount);
    std::printf("  records   %llu\n",
                static_cast<unsigned long long>(meta.recordCount));

    // The loader keeps each core's records in recorded order (not the
    // file's interleaving), so the listing is per core.
    std::uint64_t total = 0;
    std::uint64_t writes = 0;
    std::uint64_t dependents = 0;
    for (bear::CoreId core = 0; core < meta.coreCount; ++core) {
        const std::vector<bear::MemRef> &records =
            loaded->coreRecords[core];
        for (std::size_t i = 0; i < records.size(); ++i) {
            const bear::MemRef &ref = records[i];
            writes += ref.isWrite ? 1 : 0;
            dependents += ref.dependent ? 1 : 0;
            if (i < show_records) {
                std::printf("  [%zu] core %u vaddr=0x%llX pc=0x%llX "
                            "gap=%u%s%s\n",
                            i, core,
                            static_cast<unsigned long long>(ref.vaddr),
                            static_cast<unsigned long long>(ref.pc),
                            ref.instGap,
                            ref.isWrite ? " write" : " read",
                            ref.dependent ? " dependent" : "");
            }
        }
        total += records.size();
    }

    for (bear::CoreId core = 0; core < meta.coreCount; ++core) {
        std::printf("  core %u: %zu records\n", core,
                    loaded->coreRecords[core].size());
    }
    std::printf("  %llu records in %llu chunks; %.1f%% writes, "
                "%.1f%% dependent loads\n",
                static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(loaded->chunks),
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

/** Expect loading @p path to fail with @p kind. */
bool
expectRejected(const std::string &path, bear::trace::TraceErrorKind kind,
               const char *what)
{
    auto loaded = bear::trace::loadTrace(path);
    if (loaded.hasValue()) {
        std::fprintf(stderr, "selftest: FAILED: %s was accepted\n",
                     what);
        return false;
    }
    if (loaded.error().kind == kind)
        return true;
    std::fprintf(stderr,
                 "selftest: FAILED: %s rejected as %s, wanted %s\n",
                 what, traceErrorKindName(loaded.error().kind),
                 traceErrorKindName(kind));
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

    // A 0xFFFFFFFF core count with a valid CRC: the header parser
    // must refuse it before any per-core table is sized from it.
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
