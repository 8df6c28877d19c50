/**
 * @file
 * Chaos suite for the resilience layer (DESIGN.md §11): fault-spec
 * grammar and injector determinism, per-job crash containment, the
 * forward-progress watchdog, transient trace-I/O retry, SIGINT sweep
 * draining, and the CRC-sealed results journal with byte-identical
 * resumed reports.
 */

#include <csignal>
#include <cstdlib>
#include <fstream>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/fault.hh"
#include "sim/experiment.hh"
#include "sim/journal.hh"
#include "sim/report.hh"
#include "sim/runner.hh"
#include "trace/trace_reader.hh"
#include "trace/trace_writer.hh"

using namespace bear;

namespace
{

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "bear-resilience-" + name + "-"
        + std::to_string(::getpid());
}

RunnerOptions
fastOptions()
{
    RunnerOptions options;
    options.scale = 0.015625;
    options.warmupRefsPerCore = 20000;
    options.measureRefsPerCore = 10000;
    options.workers = 1;
    return options;
}

/** Restore the process-wide injector to quiet after a direct-use test. */
struct InjectorGuard
{
    ~InjectorGuard() { fault::injector().disarm(); }
};

} // namespace

// ---------------------------------------------------------------------
// Fault-spec grammar

TEST(FaultSpec, ParsesKindsSitesAndTriggers)
{
    const auto plan = fault::parseFaultSpec(
        "throw@job.setup,panic@a.b:n=3,alloc@c:p=0.25,stall@*,"
        "trace-io@trace.write");
    ASSERT_TRUE(plan.hasValue());
    ASSERT_EQ(plan->clauses.size(), 5u);

    EXPECT_EQ(plan->clauses[0].kind, fault::FaultKind::Throw);
    EXPECT_EQ(plan->clauses[0].site, "job.setup");
    EXPECT_EQ(plan->clauses[0].nth, 1u); // default trigger

    EXPECT_EQ(plan->clauses[1].kind, fault::FaultKind::Panic);
    EXPECT_EQ(plan->clauses[1].nth, 3u);

    EXPECT_EQ(plan->clauses[2].kind, fault::FaultKind::Alloc);
    EXPECT_EQ(plan->clauses[2].nth, 0u); // p-mode
    EXPECT_DOUBLE_EQ(plan->clauses[2].probability, 0.25);

    EXPECT_EQ(plan->clauses[3].site, "*");
    EXPECT_EQ(plan->clauses[4].kind, fault::FaultKind::TraceIo);
}

TEST(FaultSpec, RejectsMalformedClauses)
{
    for (const char *spec :
         {"", "throw", "explode@x", "throw@", "throw@sp ace",
          "throw@x:n=0", "throw@x:n=abc", "throw@x:p=0",
          "throw@x:p=1.5", "throw@x:q=1",
          "throw@ok,panic@x:n="}) {
        const auto plan = fault::parseFaultSpec(spec);
        EXPECT_FALSE(plan.hasValue()) << "spec accepted: " << spec;
    }
    // The error names the offending clause, not just "parse error".
    const auto plan = fault::parseFaultSpec("throw@ok,explode@x");
    ASSERT_FALSE(plan.hasValue());
    EXPECT_NE(plan.error().find("explode@x"), std::string::npos);
}

TEST(FaultInjector, NthTriggerCountsPerSiteScopePair)
{
    InjectorGuard guard;
    auto plan = fault::parseFaultSpec("throw@site:n=2");
    ASSERT_TRUE(plan.hasValue());
    fault::injector().arm(std::move(*plan));

    // Scope "a": fires on exactly the second evaluation.
    EXPECT_FALSE(fault::injector().evaluate("site", "a").has_value());
    EXPECT_EQ(fault::injector().evaluate("site", "a"),
              fault::FaultKind::Throw);
    EXPECT_FALSE(fault::injector().evaluate("site", "a").has_value());

    // Scope "b" keeps its own counter.
    EXPECT_FALSE(fault::injector().evaluate("site", "b").has_value());
    EXPECT_EQ(fault::injector().evaluate("site", "b"),
              fault::FaultKind::Throw);

    // Other sites never fire.
    EXPECT_FALSE(fault::injector().evaluate("other", "a").has_value());
    EXPECT_EQ(fault::injector().firedAt("site"), 2u);
    EXPECT_EQ(fault::injector().firedAt("other"), 0u);
}

TEST(FaultInjector, ProbabilisticDrawIsDeterministic)
{
    InjectorGuard guard;
    const auto decide = [] {
        auto plan = fault::parseFaultSpec("throw@site:p=0.5");
        plan->seed = 42;
        fault::injector().arm(std::move(*plan));
        std::vector<bool> fired;
        for (int i = 0; i < 200; ++i)
            fired.push_back(
                fault::injector().evaluate("site", "scope").has_value());
        return fired;
    };
    const std::vector<bool> first = decide();
    const std::vector<bool> second = decide();
    EXPECT_EQ(first, second);

    // p=0.5 over 200 draws: both outcomes must actually occur.
    std::size_t hits = 0;
    for (bool b : first)
        hits += b;
    EXPECT_GT(hits, 0u);
    EXPECT_LT(hits, first.size());
}

TEST(FaultInjector, DisarmedInjectorIsSilent)
{
    fault::injector().disarm();
    EXPECT_FALSE(fault::injector().armed());
    EXPECT_FALSE(
        fault::injector().evaluate("site", "scope").has_value());
}

// ---------------------------------------------------------------------
// Per-job crash containment

TEST(Containment, ThrowBecomesStructuredError)
{
    RunnerOptions options = fastOptions();
    options.faultSpec = "throw@job.measure";
    Runner runner(options);
    RunJob job;
    job.rateBenchmark = "wrf";
    const RunOutcome outcome = runner.tryRun(job);
    ASSERT_FALSE(outcome.hasValue());
    const RunError &err = outcome.error();
    EXPECT_EQ(err.kind, RunErrorKind::Contained);
    EXPECT_EQ(err.phase, JobPhase::Measure);
    EXPECT_EQ(err.workload, "wrf");
    EXPECT_NE(err.what.find("injected fault"), std::string::npos);
    EXPECT_EQ(err.attempts, 1u); // contained failures never retry
    EXPECT_NE(err.message().find("measure"), std::string::npos);
}

TEST(Containment, PanicIsContainedNotFatal)
{
    RunnerOptions options = fastOptions();
    options.faultSpec = "panic@job.warmup";
    Runner runner(options);
    RunJob job;
    job.rateBenchmark = "wrf";
    const RunOutcome outcome = runner.tryRun(job);
    ASSERT_FALSE(outcome.hasValue());
    EXPECT_EQ(outcome.error().kind, RunErrorKind::Contained);
    EXPECT_EQ(outcome.error().phase, JobPhase::Warmup);
}

TEST(Containment, AllocFailureContainedAtSetup)
{
    RunnerOptions options = fastOptions();
    options.faultSpec = "alloc@job.setup";
    Runner runner(options);
    RunJob job;
    job.rateBenchmark = "wrf";
    const RunOutcome outcome = runner.tryRun(job);
    ASSERT_FALSE(outcome.hasValue());
    EXPECT_EQ(outcome.error().kind, RunErrorKind::Contained);
    EXPECT_EQ(outcome.error().phase, JobPhase::Setup);
}

TEST(Containment, RunAllIsolatesFailuresPerCell)
{
    // Fault only the IPC_alone reference runs (p=1: every attempt,
    // including runAll's precompute pass): the rate job completes, the
    // mix job fails — in the same sweep, through the same pool.
    RunnerOptions options = fastOptions();
    options.faultSpec = "throw@alone.run:p=1";
    Runner runner(options);

    std::vector<RunJob> jobs;
    RunJob rate;
    rate.rateBenchmark = "wrf";
    jobs.push_back(rate);
    RunJob mix;
    mix.mix = &tableThreeMixes().front();
    jobs.push_back(mix);

    const auto outcomes = runner.runAll(jobs);
    ASSERT_EQ(outcomes.size(), 2u);
    ASSERT_TRUE(outcomes[0].hasValue());
    EXPECT_EQ(outcomes[0]->workload, "wrf");
    ASSERT_FALSE(outcomes[1].hasValue());
    EXPECT_EQ(outcomes[1].error().kind, RunErrorKind::Contained);
    EXPECT_EQ(outcomes[1].error().phase, JobPhase::IpcAlone);
}

TEST(Containment, CleanRunnerIsUnaffectedByPlumbing)
{
    // The resilience layer must not perturb results: a clean runner
    // with no knobs set produces the same stats as always.
    Runner runner(fastOptions());
    const RunOutcome outcome = runner.tryRun([] {
        RunJob job;
        job.rateBenchmark = "wrf";
        return job;
    }());
    ASSERT_TRUE(outcome.hasValue());
    EXPECT_GT(outcome->stats.ipcTotal, 0.0);
}

// ---------------------------------------------------------------------
// Watchdog and interrupts

TEST(Watchdog, HangBecomesTimeoutFailureWithDiagnostics)
{
    RunnerOptions options = fastOptions();
    options.faultSpec = "stall@job.measure";
    options.jobTimeoutSeconds = 0.25;
    options.traceCapacity = 64; // give diagnostics an event tail
    Runner runner(options);
    RunJob job;
    job.rateBenchmark = "wrf";
    const RunOutcome outcome = runner.tryRun(job);
    ASSERT_FALSE(outcome.hasValue());
    const RunError &err = outcome.error();
    EXPECT_EQ(err.kind, RunErrorKind::Timeout);
    EXPECT_NE(err.what.find("watchdog"), std::string::npos);
    EXPECT_FALSE(err.diagnostics.empty());
}

TEST(Interrupt, SignalDrainsSweepWithExitCode130)
{
    // In the death-test child: raise SIGINT before the sweep starts;
    // every cell must drain as Interrupted and the exit policy maps
    // that to 130.  The parent only observes the exit code.
    EXPECT_EXIT(
        {
            Runner runner(fastOptions());
            std::raise(SIGINT);
            std::vector<RunJob> jobs;
            RunJob job;
            job.rateBenchmark = "wrf";
            jobs.push_back(job);
            const auto outcomes = runner.runAll(jobs);
            const bool drained = !outcomes[0].hasValue()
                && outcomes[0].error().kind == RunErrorKind::Interrupted;
            std::exit(drained && interruptRequested() ? 130 : 1);
        },
        ::testing::ExitedWithCode(130), "");
}

// ---------------------------------------------------------------------
// Transient trace-I/O retry

TEST(Retry, TransientTraceIoFailureRetriesAndSucceeds)
{
    const std::string path = tempPath("transient");
    RunnerOptions options = fastOptions();
    options.traceOutPath = path;
    options.faultSpec = "trace-io@trace.write:n=1";
    Runner runner(options);
    RunJob job;
    job.rateBenchmark = "wrf";
    const RunOutcome outcome = runner.tryRun(job);
    ASSERT_TRUE(outcome.hasValue())
        << outcome.error().message();
    EXPECT_GE(fault::injector().firedAt("trace.write"), 1u);

    // The retry re-recorded from scratch: the corpus is complete and
    // readable, not the poisoned first attempt.
    auto loaded = trace::loadTrace(path);
    ASSERT_TRUE(loaded.hasValue());
    EXPECT_EQ(loaded->meta.workload, "wrf");
    std::remove(path.c_str());
}

TEST(Retry, ExhaustedRetriesSurfaceAsTraceIoError)
{
    const std::string path = tempPath("exhausted");
    RunnerOptions options = fastOptions();
    options.traceOutPath = path;
    options.faultSpec = "trace-io@trace.write:p=1"; // every attempt
    options.retries = 2;
    Runner runner(options);
    RunJob job;
    job.rateBenchmark = "wrf";
    const RunOutcome outcome = runner.tryRun(job);
    ASSERT_FALSE(outcome.hasValue());
    EXPECT_EQ(outcome.error().kind, RunErrorKind::TraceIo);
    EXPECT_EQ(outcome.error().attempts, 2u);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// TraceWriter stream-failure surfacing (no silent corruption)

TEST(TraceWriterFault, WriteFailureSurfacesAtSealAndPoisonsWriter)
{
    InjectorGuard guard;
    auto plan = fault::parseFaultSpec("trace-io@trace.write:n=1");
    fault::injector().arm(std::move(*plan));

    const std::string path = tempPath("writer-seal");
    trace::TraceMeta meta;
    meta.workload = "synthetic";
    meta.coreCount = 1;
    auto writer = trace::TraceWriter::create(path, meta);
    ASSERT_TRUE(writer.hasValue());

    // The fault poisons the stream on the first append; the failure is
    // observed at the chunk seal, after which every append fails fast.
    MemRef ref{};
    bool saw_error = false;
    for (std::uint32_t i = 0; i < trace::kMaxChunkRecords; ++i) {
        auto r = writer.value().append(0, ref);
        if (!r.hasValue()) {
            saw_error = true;
            break;
        }
    }
    EXPECT_TRUE(saw_error) << "seal failure never surfaced";
    EXPECT_FALSE(writer.value().append(0, ref).hasValue());
    EXPECT_FALSE(writer.value().finish().hasValue());
    std::remove(path.c_str());
}

TEST(TraceWriterFault, FinishFailureSurfaces)
{
    InjectorGuard guard;
    auto plan = fault::parseFaultSpec("trace-io@trace.finish");
    fault::injector().arm(std::move(*plan));

    const std::string path = tempPath("writer-finish");
    trace::TraceMeta meta;
    meta.workload = "synthetic";
    meta.coreCount = 1;
    auto writer = trace::TraceWriter::create(path, meta);
    ASSERT_TRUE(writer.hasValue());
    MemRef ref{};
    EXPECT_TRUE(writer.value().append(0, ref).hasValue());
    EXPECT_FALSE(writer.value().finish().hasValue());
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Results journal

namespace
{

/** A RunResult with distinctive bit patterns in the lossy spots. */
RunResult
sampleResult(const std::string &workload)
{
    RunResult r;
    r.workload = workload;
    r.design = "Bear";
    r.stats.ipcTotal = 1.0 / 3.0; // not representable in %.10g
    r.stats.execCycles = 123456789;
    r.stats.ipcPerCore = {0.1, 0.2};
    return r;
}

} // namespace

TEST(Journal, FreshJournalRoundTripsEntries)
{
    const std::string path = tempPath("roundtrip");
    std::remove(path.c_str());
    {
        auto journal = ResultJournal::openOrCreate(path, 7);
        ASSERT_TRUE(journal.hasValue());
        EXPECT_TRUE(journal->results().empty());
        EXPECT_TRUE(journal->appendResult("k1", sampleResult("wrf")));
        EXPECT_TRUE(journal->appendAlone("wrf", 1.0 / 7.0));
    }
    auto reopened = ResultJournal::openOrCreate(path, 7);
    ASSERT_TRUE(reopened.hasValue());
    ASSERT_EQ(reopened->results().count("k1"), 1u);
    const RunResult &r = reopened->results().at("k1");
    EXPECT_EQ(r.workload, "wrf");
    // Bit-identical restore, not just approximately equal.
    EXPECT_EQ(r.stats.ipcTotal, 1.0 / 3.0);
    ASSERT_EQ(reopened->aloneIpcs().count("wrf"), 1u);
    EXPECT_EQ(reopened->aloneIpcs().at("wrf"), 1.0 / 7.0);
    std::remove(path.c_str());
}

TEST(Journal, FingerprintMismatchIsHardError)
{
    const std::string path = tempPath("fingerprint");
    std::remove(path.c_str());
    {
        auto journal = ResultJournal::openOrCreate(path, 7);
        ASSERT_TRUE(journal.hasValue());
    }
    auto mismatched = ResultJournal::openOrCreate(path, 8);
    ASSERT_FALSE(mismatched.hasValue());
    EXPECT_NE(mismatched.error().message.find("different runner"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(Journal, NotAJournalIsRejected)
{
    const std::string path = tempPath("garbage");
    {
        std::ofstream out(path, std::ios::binary);
        out << "definitely not a journal";
    }
    auto opened = ResultJournal::openOrCreate(path, 7);
    ASSERT_FALSE(opened.hasValue());
    EXPECT_NE(opened.error().message.find("not a BEAR results journal"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(Journal, TornTailIsTruncatedSealedEntriesKept)
{
    const std::string path = tempPath("torn");
    std::remove(path.c_str());
    {
        auto journal = ResultJournal::openOrCreate(path, 7);
        ASSERT_TRUE(journal.hasValue());
        EXPECT_TRUE(journal->appendResult("k1", sampleResult("wrf")));
    }
    { // Simulate a crash mid-append: half a frame at the tail.
        std::ofstream out(path,
                          std::ios::binary | std::ios::app);
        const char torn[] = {1, 0, 0, 0, 42};
        out.write(torn, sizeof(torn));
    }
    auto reopened = ResultJournal::openOrCreate(path, 7);
    ASSERT_TRUE(reopened.hasValue());
    EXPECT_EQ(reopened->results().count("k1"), 1u);

    // The truncation is durable: a third open sees a clean file and
    // can append to it.
    auto again = ResultJournal::openOrCreate(path, 7);
    ASSERT_TRUE(again.hasValue());
    EXPECT_TRUE(again->appendResult("k2", sampleResult("mcf")));
    std::remove(path.c_str());
}

TEST(Journal, ResumeSkipsJournaledCellsAndRestoresBitIdentical)
{
    const std::string path = tempPath("resume");
    std::remove(path.c_str());

    RunJob job;
    job.rateBenchmark = "wrf";

    // Phase 1: complete the cell under a journal.
    std::string first_json;
    {
        RunnerOptions options = fastOptions();
        options.journalPath = path;
        Runner runner(options);
        const RunOutcome outcome = runner.tryRun(job);
        ASSERT_TRUE(outcome.hasValue());
        first_json = runResultToJson(*outcome);
    }

    // Phase 2: same journal, but every *executed* job would fail at
    // warm-up.  The journaled cell must come back from disk — proving
    // it was never re-executed — and byte-identical.
    {
        RunnerOptions options = fastOptions();
        options.journalPath = path;
        options.faultSpec = "throw@job.warmup";
        Runner runner(options);
        ASSERT_NE(runner.journal(), nullptr);
        EXPECT_EQ(runner.journal()->results().size(), 1u);

        const RunOutcome resumed = runner.tryRun(job);
        ASSERT_TRUE(resumed.hasValue());
        EXPECT_EQ(runResultToJson(*resumed), first_json);

        // A cell not in the journal still executes (and here, fails).
        RunJob fresh;
        fresh.rateBenchmark = "mcf";
        EXPECT_FALSE(runner.tryRun(fresh).hasValue());
    }
    std::remove(path.c_str());
}

TEST(Journal, FaultedSweepResumesToByteIdenticalReport)
{
    // The §11 acceptance shape in miniature: a faulted sweep yields a
    // partial report; resuming against the journal completes it; the
    // completed report is byte-identical to an unfaulted run's.
    const std::string path = tempPath("acceptance");
    std::remove(path.c_str());

    std::vector<RunJob> jobs;
    RunJob rate;
    rate.rateBenchmark = "wrf";
    jobs.push_back(rate);
    RunJob mix;
    mix.mix = &tableThreeMixes().front();
    jobs.push_back(mix);

    // Reference: clean, journal-free sweep.
    std::string clean_json;
    {
        Runner runner(fastOptions());
        const Comparison cmp = compareDesigns(
            runner, jobs, DesignKind::Alloy, {DesignKind::Bear});
        ASSERT_TRUE(cmp.complete());
        EXPECT_EQ(exitStatus(cmp), 0);
        clean_json = comparisonToJson("chaos", cmp);
        // A clean report never mentions failures.
        EXPECT_EQ(clean_json.find("failure"), std::string::npos);
    }

    // Faulted sweep: IPC_alone runs throw, so the mix cells fail while
    // the rate cells complete and land in the journal.
    {
        RunnerOptions options = fastOptions();
        options.journalPath = path;
        options.faultSpec = "throw@alone.run:p=1";
        Runner runner(options);
        const Comparison cmp = compareDesigns(
            runner, jobs, DesignKind::Alloy, {DesignKind::Bear});
        EXPECT_FALSE(cmp.complete());
        EXPECT_EQ(exitStatus(cmp), 3);
        const std::string partial = comparisonToJson("chaos", cmp);
        EXPECT_NE(partial.find("failures"), std::string::npos);
        EXPECT_NE(partial.find("ipc_alone"), std::string::npos);
    }

    // Resume: only the failed/missing cells execute; the final report
    // mixes journaled and fresh results and must equal the reference
    // byte for byte.
    {
        RunnerOptions options = fastOptions();
        options.journalPath = path;
        Runner runner(options);
        const Comparison cmp = compareDesigns(
            runner, jobs, DesignKind::Alloy, {DesignKind::Bear});
        ASSERT_TRUE(cmp.complete());
        EXPECT_EQ(comparisonToJson("chaos", cmp), clean_json);
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Exit-code policy

TEST(ExitPolicy, CompletePartialAndInterrupted)
{
    Comparison cmp;
    EXPECT_EQ(exitStatus(cmp), 0);

    RunError contained;
    contained.kind = RunErrorKind::Contained;
    cmp.failures.push_back(contained);
    EXPECT_EQ(exitStatus(cmp), 3);

    RunError interrupted;
    interrupted.kind = RunErrorKind::Interrupted;
    cmp.failures.push_back(interrupted);
    EXPECT_EQ(exitStatus(cmp), 130);
}
