/**
 * @file
 * Integration tests: full systems running workloads end-to-end, plus
 * parameterised invariant sweeps across all designs.
 */

#include <gtest/gtest.h>

#include "sim/system.hh"
#include "tests/test_util.hh"
#include "workloads/generators.hh"
#include "workloads/workload.hh"

using namespace bear;

namespace
{

constexpr double kTestScale = 0.015625; // 1/64: 16 MB cache, fast

std::vector<std::unique_ptr<RefStream>>
rateStreams(const std::string &benchmark, std::uint32_t cores,
            double scale = kTestScale)
{
    std::vector<std::unique_ptr<RefStream>> streams;
    for (std::uint32_t c = 0; c < cores; ++c) {
        streams.push_back(std::make_unique<WorkloadStream>(
            profileByName(benchmark), 1000 + c, scale));
    }
    return streams;
}

SystemConfig
testConfig(DesignKind design)
{
    SystemConfig config;
    config.design = design;
    config.scale = kTestScale;
    return config;
}

SystemStats
quickRun(DesignKind design, const std::string &benchmark,
         std::uint64_t warm = 60000, std::uint64_t measure = 30000)
{
    System sys(testConfig(design), rateStreams(benchmark, 8));
    sys.run(warm);
    sys.resetStats();
    sys.run(measure);
    return sys.stats();
}

} // namespace

TEST(SystemIntegration, BwOptBloatFactorIsOne)
{
    const SystemStats s = quickRun(DesignKind::BwOptimized, "soplex");
    EXPECT_NEAR(s.bloatFactor, 1.0, 1e-9);
}

TEST(SystemIntegration, AlloyBloatInPaperBand)
{
    // Paper Section 2.2: the Alloy Cache bloats several-fold; exact
    // values depend on hit rate, but the band is unmistakable.
    const SystemStats s = quickRun(DesignKind::Alloy, "soplex");
    EXPECT_GT(s.bloatFactor, 2.0);
    EXPECT_LT(s.bloatFactor, 9.0);
}

TEST(SystemIntegration, BearReducesBloat)
{
    const SystemStats alloy = quickRun(DesignKind::Alloy, "milc");
    const SystemStats bear = quickRun(DesignKind::Bear, "milc");
    EXPECT_LT(bear.bloatFactor, alloy.bloatFactor);
}

TEST(SystemIntegration, BearCutsHitLatency)
{
    const SystemStats alloy = quickRun(DesignKind::Alloy, "milc");
    const SystemStats bear = quickRun(DesignKind::Bear, "milc");
    EXPECT_LT(bear.l4HitLatency, alloy.l4HitLatency);
}

TEST(SystemIntegration, DcpEliminatesWritebackProbes)
{
    System sys(testConfig(DesignKind::BabDcp), rateStreams("lbm", 8));
    sys.run(60000);
    sys.resetStats();
    sys.run(30000);
    EXPECT_EQ(sys.bloat().bytes(BloatCategory::WritebackProbe), Bytes{0});
}

TEST(SystemIntegration, NtcAvoidsSomeMissProbes)
{
    System sys(testConfig(DesignKind::Bear), rateStreams("lbm", 8));
    sys.run(60000);
    const auto *alloy =
        dynamic_cast<const AlloyCache *>(&sys.dramCache());
    ASSERT_NE(alloy, nullptr);
    EXPECT_GT(alloy->missProbesAvoided(), 0u);
}

TEST(SystemIntegration, MpkiNearTableTwo)
{
    const SystemStats s = quickRun(DesignKind::Alloy, "omnetpp");
    const double target = profileByName("omnetpp").l3Mpki;
    EXPECT_NEAR(s.measuredMpki, target, target * 0.35);
}

TEST(SystemIntegration, StatsResetZeroesMeasurement)
{
    System sys(testConfig(DesignKind::Alloy), rateStreams("wrf", 8));
    sys.run(20000);
    sys.resetStats();
    const SystemStats s = sys.stats();
    EXPECT_EQ(s.execCycles, 0u);
    EXPECT_EQ(sys.bloat().totalBytes(), Bytes{0});
}

TEST(SystemIntegration, DeterministicAcrossRuns)
{
    const SystemStats a = quickRun(DesignKind::Bear, "gcc", 20000, 10000);
    const SystemStats b = quickRun(DesignKind::Bear, "gcc", 20000, 10000);
    EXPECT_EQ(a.execCycles, b.execCycles);
    EXPECT_DOUBLE_EQ(a.bloatFactor, b.bloatFactor);
    EXPECT_DOUBLE_EQ(a.l4HitRate, b.l4HitRate);
}

TEST(SystemIntegration, MoreBandwidthNeverSlower)
{
    SystemConfig slow = testConfig(DesignKind::Alloy);
    slow.bandwidthRatio = 4;
    SystemConfig fast = testConfig(DesignKind::Alloy);
    fast.bandwidthRatio = 16;
    System s1(slow, rateStreams("lbm", 8));
    System s2(fast, rateStreams("lbm", 8));
    s1.run(40000);
    s1.resetStats();
    s1.run(20000);
    s2.run(40000);
    s2.resetStats();
    s2.run(20000);
    EXPECT_LE(s2.stats().execCycles, s1.stats().execCycles);
}

TEST(SystemIntegration, FullHierarchyModeRuns)
{
    SystemConfig config = testConfig(DesignKind::Alloy);
    config.modelL1L2 = true;
    System sys(config, rateStreams("xalancbmk", 8));
    sys.run(20000);
    sys.resetStats();
    sys.run(10000);
    const SystemStats s = sys.stats();
    EXPECT_GT(s.ipcTotal, 0.0);
    // L1/L2 capture raises on-chip hits: fewer L3 misses per kiloinst
    // than the LLC-mode run of the same workload.
    const SystemStats llc_mode = quickRun(DesignKind::Alloy, "xalancbmk",
                                          20000, 10000);
    EXPECT_LT(s.measuredMpki, llc_mode.measuredMpki + 1.0);
}

// ------------------------------------------------- invariant sweeps

class DesignInvariants : public ::testing::TestWithParam<DesignKind>
{
};

TEST_P(DesignInvariants, EndToEndSanity)
{
    System sys(testConfig(GetParam()), rateStreams("milc", 8));
    sys.run(40000);
    sys.resetStats();
    sys.run(20000);
    const SystemStats s = sys.stats();

    EXPECT_GE(s.l4HitRate, 0.0);
    EXPECT_LE(s.l4HitRate, 1.0);
    EXPECT_GT(s.ipcTotal, 0.0);
    EXPECT_LE(s.ipcTotal, 16.0 + 1e-9); // 8 cores x width 2
    EXPECT_GT(s.execCycles, 0u);

    // Byte conservation: every byte the bloat tracker attributes moved
    // on the DRAM-cache bus, and vice versa.
    EXPECT_EQ(sys.bloat().totalBytes(),
              sys.cacheDram().totalBytesTransferred());

    // Per-category factors sum to the whole.
    double sum = 0.0;
    for (double f : s.bloatBreakdown)
        sum += f;
    EXPECT_NEAR(sum, s.bloatFactor, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, DesignInvariants,
    ::testing::ValuesIn(bear::test::allCacheDesigns()),
    [](const ::testing::TestParamInfo<DesignKind> &param_info) {
        std::string name = designName(param_info.param);
        for (char &c : name)
            if (c == '-' || c == '+')
                c = '_';
        return name;
    });

class WorkloadSweep : public ::testing::TestWithParam<const char *>
{
};

TEST_P(WorkloadSweep, BearNeverBreaksInvariants)
{
    System sys(testConfig(DesignKind::Bear), rateStreams(GetParam(), 8));
    sys.run(30000);
    sys.resetStats();
    sys.run(15000);
    const SystemStats s = sys.stats();
    EXPECT_GT(s.ipcTotal, 0.0);
    EXPECT_GE(s.bloatFactor, 1.0); // TAD transfers exceed useful bytes
    EXPECT_EQ(sys.bloat().totalBytes(),
              sys.cacheDram().totalBytesTransferred());
}

INSTANTIATE_TEST_SUITE_P(
    SixteenBenchmarks, WorkloadSweep,
    ::testing::Values("mcf", "lbm", "soplex", "milc", "libquantum",
                      "omnetpp", "bwaves", "gcc", "sphinx3", "GemsFDTD",
                      "leslie3d", "wrf", "cactusADM", "zeusmp", "bzip2",
                      "xalancbmk"));

namespace
{

/**
 * Counts references handed to the System across all cores, and
 * requests a cancel from inside the @p cancel_at-th one (never if 0).
 */
class CountingStream : public RefStream
{
  public:
    CountingStream(std::unique_ptr<RefStream> inner, std::uint64_t &count,
                   JobControl &control, std::uint64_t cancel_at)
        : inner_(std::move(inner)), count_(count), control_(control),
          cancel_at_(cancel_at)
    {
    }

    MemRef
    next() override
    {
        if (++count_ == cancel_at_)
            control_.requestCancel(CancelReason::Interrupt);
        return inner_->next();
    }

  private:
    std::unique_ptr<RefStream> inner_;
    std::uint64_t &count_;
    JobControl &control_;
    std::uint64_t cancel_at_;
};

/** A 3-core System whose streams count into @p count. */
std::unique_ptr<System>
controlledSystem(JobControl &control, std::uint64_t &count,
                 std::uint64_t cancel_at = 0)
{
    std::vector<std::unique_ptr<RefStream>> streams;
    for (auto &inner : rateStreams("mcf", 3)) {
        streams.push_back(std::make_unique<CountingStream>(
            std::move(inner), count, control, cancel_at));
    }
    SystemConfig config = testConfig(DesignKind::Bear);
    config.cores = 3;
    config.control = &control;
    return std::make_unique<System>(config, std::move(streams));
}

} // namespace

TEST(SystemControl, CancelBeforeRunThrowsBeforeAnyRef)
{
    JobControl control;
    std::uint64_t count = 0;
    auto sys = controlledSystem(control, count);
    control.requestCancel(CancelReason::Timeout);
    try {
        sys->run(1000);
        FAIL() << "run() ignored a pending cancel";
    } catch (const JobCancelled &cancelled) {
        EXPECT_EQ(cancelled.reason, CancelReason::Timeout);
    }
    EXPECT_EQ(count, 0u);
    EXPECT_EQ(control.progress.load(), 0u);
}

TEST(SystemControl, MidRunCancelStopsWithinOnePollWindow)
{
    for (const std::uint64_t k : {1ULL, 1023ULL, 1024ULL, 1025ULL, 5000ULL}) {
        JobControl control;
        std::uint64_t count = 0;
        auto sys = controlledSystem(control, count, k);
        EXPECT_THROW(sys->run(10000), JobCancelled) << "cancel at " << k;
        EXPECT_GE(count, k);
        EXPECT_LE(count, k + 1024) << "cancel at " << k;
        // Published progress is exactly the refs simulated.
        EXPECT_EQ(control.progress.load(), count) << "cancel at " << k;
    }
}

TEST(SystemControl, CleanRunPublishesEveryRef)
{
    JobControl control;
    std::uint64_t count = 0;
    auto sys = controlledSystem(control, count);
    sys->run(1000); // 3000 refs: not a multiple of the poll interval
    EXPECT_EQ(control.progress.load(), 3000u);
    sys->run(7);
    EXPECT_EQ(control.progress.load(), 3021u);
    EXPECT_EQ(count, 3021u);
}
