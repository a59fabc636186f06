/**
 * @file
 * Unit tests for the common library: RNG, statistics, CLI, tables,
 * logging, the flat map, checkpoint state I/O (StateIo) with its
 * run-length block codec, BinaryWriter's failure handling, and the
 * checksum64 integrity checksum.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "common/binary_io.hh"
#include "common/cli.hh"
#include "common/flat_map.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/statistics.hh"
#include "common/table.hh"

namespace tp {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(Rng, ZeroSeedIsUsable)
{
    Rng r(0);
    std::set<std::uint64_t> vals;
    for (int i = 0; i < 100; ++i)
        vals.insert(r.next());
    EXPECT_GT(vals.size(), 95u);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.nextBounded(13), 13u);
}

TEST(Rng, BoundedCoversRange)
{
    Rng r(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(r.nextBounded(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, Uniform01InUnitInterval)
{
    Rng r(3);
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform01();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, Uniform01MeanNearHalf)
{
    Rng r(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += r.uniform01();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NormalMomentsApproximatelyStandard)
{
    Rng r(17);
    double sum = 0.0, sumsq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double x = r.normal();
        sum += x;
        sumsq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sumsq / n, 1.0, 0.03);
}

TEST(Rng, LogNormalMedianApproximatelyCorrect)
{
    Rng r(23);
    std::vector<double> xs;
    for (int i = 0; i < 20001; ++i)
        xs.push_back(r.logNormal(100.0, 0.5));
    EXPECT_NEAR(percentile(xs, 50.0), 100.0, 5.0);
}

TEST(Rng, ExponentialMeanApproximatelyCorrect)
{
    Rng r(29);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += r.exponential(42.0);
    EXPECT_NEAR(sum / n, 42.0, 1.5);
}

TEST(Rng, BernoulliProbabilityApproximatelyCorrect)
{
    Rng r(31);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += r.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(double(hits) / n, 0.3, 0.01);
}

TEST(Rng, ParetoRespectsMinimum)
{
    Rng r(37);
    for (int i = 0; i < 10000; ++i)
        EXPECT_GE(r.pareto(5.0, 1.2), 5.0);
}

TEST(Rng, ParetoIsHeavyTailed)
{
    Rng r(41);
    double mx = 0.0;
    for (int i = 0; i < 100000; ++i)
        mx = std::max(mx, r.pareto(1.0, 0.8));
    EXPECT_GT(mx, 1000.0); // alpha<1: extreme draws expected
}

TEST(Rng, ZipfStaysInRange)
{
    Rng r(43);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.zipf(100, 0.8), 100u);
}

TEST(Rng, ZipfIsSkewedTowardLowRanks)
{
    Rng r(47);
    int low = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        low += r.zipf(1000, 0.9) < 100 ? 1 : 0;
    // Top 10% of ranks should receive far more than 10% of draws.
    EXPECT_GT(double(low) / n, 0.3);
}

TEST(Rng, ZipfHandlesExponentOne)
{
    Rng r(53);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.zipf(64, 1.0), 64u);
}

TEST(Statistics, MeanBasics)
{
    EXPECT_DOUBLE_EQ(mean({2.0}), 2.0);
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(Statistics, StddevBasics)
{
    EXPECT_DOUBLE_EQ(stddev({1.0}), 0.0);
    EXPECT_NEAR(stddev({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}),
                2.0, 1e-12);
}

TEST(Statistics, SampleVarianceUsesBesselDivisor)
{
    // Population variance of {2,4,4,4,5,5,7,9} is 4 (divisor 8);
    // the unbiased sample variance divides by 7.
    const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0,
                                    5.0, 5.0, 7.0, 9.0};
    EXPECT_NEAR(sampleVariance(xs), 32.0 / 7.0, 1e-12);
    EXPECT_NEAR(sampleStddev(xs), std::sqrt(32.0 / 7.0), 1e-12);
    // With n=4 (the default IPC history size H) the two divisors
    // differ by a factor 4/3 -- the bias the CI math must avoid.
    const std::vector<double> h4 = {1.0, 2.0, 3.0, 4.0};
    EXPECT_NEAR(sampleVariance(h4),
                stddev(h4) * stddev(h4) * 4.0 / 3.0, 1e-12);
}

TEST(Statistics, EmptyAndShortInputsPanicUniformly)
{
    // The whole module shares one contract: too few observations is
    // a caller bug, never a silent 0.0 (a fake zero variance would
    // read as "converged" to the adaptive stopping rule).
    EXPECT_THROW(mean({}), SimError);
    EXPECT_THROW(stddev({}), SimError);
    EXPECT_THROW(sampleVariance({}), SimError);
    EXPECT_THROW(sampleVariance({1.0}), SimError);
    EXPECT_THROW(sampleStddev({1.0}), SimError);
    EXPECT_THROW(minOf({}), SimError);

    RunningStats rs;
    EXPECT_THROW(rs.mean(), SimError);
    EXPECT_THROW(rs.populationVariance(), SimError);
    EXPECT_THROW(rs.sampleVariance(), SimError);
    EXPECT_THROW(rs.min(), SimError);
    rs.add(1.0);
    EXPECT_DOUBLE_EQ(rs.mean(), 1.0);
    EXPECT_DOUBLE_EQ(rs.populationVariance(), 0.0);
    EXPECT_THROW(rs.sampleVariance(), SimError); // needs n >= 2
}

TEST(Statistics, PercentileLinearInterpolation)
{
    std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 4.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 2.5);
    EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 1.75);
}

TEST(Statistics, PercentileSingleElement)
{
    EXPECT_DOUBLE_EQ(percentile({7.0}, 95.0), 7.0);
}

TEST(Statistics, PercentileUnsortedInput)
{
    EXPECT_DOUBLE_EQ(percentile({9.0, 1.0, 5.0}, 50.0), 5.0);
}

TEST(Statistics, BoxplotQuartilesAndWhiskers)
{
    std::vector<double> xs;
    for (int i = 1; i <= 100; ++i)
        xs.push_back(double(i));
    const BoxplotStats b = boxplot(xs);
    EXPECT_NEAR(b.median, 50.5, 1e-9);
    EXPECT_NEAR(b.q1, 25.75, 1e-9);
    EXPECT_NEAR(b.q3, 75.25, 1e-9);
    EXPECT_NEAR(b.whiskerLo, 5.95, 1e-9);
    EXPECT_NEAR(b.whiskerHi, 95.05, 1e-9);
    EXPECT_EQ(b.count, 100u);
    // 5 below p5 and 5 above p95.
    EXPECT_EQ(b.outliers, 10u);
}

TEST(Statistics, NormalizeToMeanPct)
{
    const auto out = normalizeToMeanPct({1.0, 3.0}, 2.0);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_DOUBLE_EQ(out[0], -50.0);
    EXPECT_DOUBLE_EQ(out[1], 50.0);
}

TEST(Statistics, AbsPctError)
{
    EXPECT_DOUBLE_EQ(absPctError(110.0, 100.0), 10.0);
    EXPECT_DOUBLE_EQ(absPctError(90.0, 100.0), 10.0);
    EXPECT_DOUBLE_EQ(absPctError(100.0, 100.0), 0.0);
}

TEST(Statistics, RunningStatsMatchesBatch)
{
    RunningStats rs;
    std::vector<double> xs = {3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0};
    for (double x : xs)
        rs.add(x);
    EXPECT_EQ(rs.count(), xs.size());
    EXPECT_NEAR(rs.mean(), mean(xs), 1e-12);
    EXPECT_NEAR(rs.populationStddev(), stddev(xs), 1e-12);
    EXPECT_NEAR(rs.sampleVariance(), sampleVariance(xs), 1e-12);
    EXPECT_DOUBLE_EQ(rs.min(), 1.0);
    EXPECT_DOUBLE_EQ(rs.max(), 9.0);
}

/**
 * Regression for the naive sumSq/n - mean^2 formula: with a large
 * mean and a tight spread (exactly the per-type IPC-history regime,
 * scaled) the two accumulated terms agree in all but their last few
 * bits, the subtraction cancels catastrophically and the clamp that
 * used to hide negative results returned 0 -- i.e. "no variance".
 * Welford's update keeps full precision.
 */
TEST(Statistics, WelfordSurvivesCatastrophicCancellation)
{
    const double base = 1e9;
    const std::vector<double> xs = {base + 4.0, base + 7.0,
                                    base + 13.0, base + 16.0};
    // What the old implementation computed.
    double sum = 0.0, sum_sq = 0.0;
    for (double x : xs) {
        sum += x;
        sum_sq += x * x;
    }
    const double naive_mean = sum / double(xs.size());
    double naive_var =
        sum_sq / double(xs.size()) - naive_mean * naive_mean;
    naive_var = naive_var < 0.0 ? 0.0 : naive_var;
    // True population variance is 22.5; the naive formula loses it
    // entirely (|x|^2 ~ 1e18 swallows a spread of ~1e1 in doubles).
    EXPECT_GT(std::abs(naive_var - 22.5), 1.0)
        << "naive formula unexpectedly survived; regression test "
           "needs a harsher dataset";

    RunningStats rs;
    for (double x : xs)
        rs.add(x);
    EXPECT_NEAR(rs.populationVariance(), 22.5, 1e-6);
    EXPECT_NEAR(rs.sampleVariance(), 30.0, 1e-6);
}

TEST(Cli, ParsesKeyValueAndFlags)
{
    const char *argv[] = {"prog", "--alpha=3", "--flag",
                          "--name=xyz"};
    CliArgs args(4, argv, {"alpha", "flag", "name"});
    EXPECT_EQ(args.getInt("alpha", 0), 3);
    EXPECT_TRUE(args.has("flag"));
    EXPECT_EQ(args.getString("name", ""), "xyz");
    EXPECT_EQ(args.getInt("missing", 42), 42);
}

TEST(Cli, RejectsUnknownOption)
{
    const char *argv[] = {"prog", "--bogus=1"};
    EXPECT_THROW(CliArgs(2, argv, {"alpha"}), SimError);
}

TEST(Cli, RejectsMalformedInteger)
{
    const char *argv[] = {"prog", "--alpha=xyz"};
    CliArgs args(2, argv, {"alpha"});
    EXPECT_THROW(args.getInt("alpha", 0), SimError);
}

TEST(Cli, RejectsNegativeForUnsigned)
{
    const char *argv[] = {"prog", "--n=-4"};
    CliArgs args(2, argv, {"n"});
    EXPECT_THROW(args.getUint("n", 0), SimError);
}

TEST(Cli, ParsesLists)
{
    const char *argv[] = {"prog", "--list=a,b,c"};
    CliArgs args(2, argv, {"list"});
    const auto v = args.getList("list", {});
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[1], "b");
}

TEST(Cli, ParsesDoubles)
{
    const char *argv[] = {"prog", "--x=0.25"};
    CliArgs args(2, argv, {"x"});
    EXPECT_DOUBLE_EQ(args.getDouble("x", 1.0), 0.25);
}

TEST(Cli, RejectsEmptyNumericValue)
{
    const char *argv[] = {"prog", "--a=", "--b="};
    CliArgs args(3, argv, {"a", "b"});
    EXPECT_THROW(args.getInt("a", 0), SimError);
    EXPECT_THROW(args.getDouble("b", 0.0), SimError);
}

TEST(Cli, RejectsNonFiniteDoubles)
{
    // strtod happily parses these; a scale of inf or nan must be a
    // hard configuration error, not a silently absurd workload.
    for (const char *v : {"--x=inf", "--x=-inf", "--x=nan",
                          "--x=1e999", "--x=-1e999"}) {
        const char *argv[] = {"prog", v};
        CliArgs args(2, argv, {"x"});
        EXPECT_THROW(args.getDouble("x", 1.0), SimError) << v;
    }
}

TEST(Cli, RejectsOutOfRangeIntegers)
{
    const char *argv[] = {"prog", "--x=99999999999999999999999"};
    CliArgs args(2, argv, {"x"});
    EXPECT_THROW(args.getInt("x", 0), SimError);
    EXPECT_THROW(args.getUint("x", 0), SimError);
}

TEST(Cli, GetUintInEnforcesInclusiveRange)
{
    const char *argv[] = {"prog", "--lo=1", "--hi=100", "--out=101"};
    CliArgs args(4, argv, {"lo", "hi", "out"});
    EXPECT_EQ(args.getUintIn("lo", 5, 1, 100), 1u);
    EXPECT_EQ(args.getUintIn("hi", 5, 1, 100), 100u);
    EXPECT_THROW(args.getUintIn("out", 5, 1, 100), SimError);
    // Absent option: the fallback is the caller's default and is
    // not range-checked.
    EXPECT_EQ(args.getUintIn("missing", 0, 1, 100), 0u);
}

TEST(Cli, GetDoubleInEnforcesInclusiveRange)
{
    const char *argv[] = {"prog", "--lo=0.25", "--hi=4.0",
                          "--out=4.5", "--inf=inf"};
    CliArgs args(5, argv, {"lo", "hi", "out", "inf"});
    EXPECT_DOUBLE_EQ(args.getDoubleIn("lo", 1.0, 0.25, 4.0), 0.25);
    EXPECT_DOUBLE_EQ(args.getDoubleIn("hi", 1.0, 0.25, 4.0), 4.0);
    EXPECT_THROW(args.getDoubleIn("out", 1.0, 0.25, 4.0), SimError);
    EXPECT_THROW(args.getDoubleIn("inf", 1.0, 0.25, 4.0), SimError);
    EXPECT_DOUBLE_EQ(args.getDoubleIn("missing", 0.0, 0.25, 4.0),
                     0.0);
}

TEST(Cli, UnknownOptionErrorSuggestsHelp)
{
    const char *argv[] = {"some/dir/prog", "--bogus=1"};
    try {
        CliArgs args(2, argv, {{"alpha", "the alpha knob"}});
        FAIL() << "unknown option must be fatal";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("--help"),
                  std::string::npos)
            << "error must point at --help";
        EXPECT_NE(std::string(e.what()).find("prog"),
                  std::string::npos)
            << "error must name the binary (basename)";
    }
}

TEST(Cli, GeneratedHelpListsEveryOptionWithDescription)
{
    const std::string help = CliArgs::helpText(
        "prog", {{"alpha", "the alpha knob"},
                 {"beta-mode", "how beta behaves"},
                 jobsCliOption(), cacheDirCliOption(),
                 cacheModeCliOption()});
    EXPECT_NE(help.find("usage: prog"), std::string::npos);
    for (const char *needle :
         {"--alpha", "the alpha knob", "--beta-mode",
          "how beta behaves", "--jobs", "--cache-dir", "--cache",
          "--help", "show this help"})
        EXPECT_NE(help.find(needle), std::string::npos) << needle;
}

TEST(Table, RendersAlignedColumns)
{
    TextTable t("title");
    t.setHeader({"a", "bb"});
    t.addRow({"xxx", "y"});
    const std::string out = t.render();
    EXPECT_NE(out.find("title"), std::string::npos);
    EXPECT_NE(out.find("xxx"), std::string::npos);
    EXPECT_NE(out.find("bb"), std::string::npos);
}

TEST(Table, CsvOutput)
{
    TextTable t;
    t.setHeader({"a", "b"});
    t.addRow({"1", "2"});
    EXPECT_EQ(t.toCsv(), "a,b\n1,2\n");
}

TEST(Table, FormatHelpers)
{
    EXPECT_EQ(fmtDouble(3.14159, 2), "3.14");
    EXPECT_EQ(fmtCount(1234567ULL), "1,234,567");
    EXPECT_EQ(fmtCount(12ULL), "12");
}

TEST(Logging, PanicThrowsSimError)
{
    EXPECT_THROW(panic("boom %d", 42), SimError);
}

TEST(Logging, FatalThrowsSimError)
{
    EXPECT_THROW(fatal("bad config"), SimError);
}

TEST(Logging, StrprintfFormats)
{
    EXPECT_EQ(strprintf("%d-%s", 7, "x"), "7-x");
}

TEST(Logging, AssertMacroFires)
{
    EXPECT_THROW([] { tp_assert(1 == 2); }(), SimError);
    EXPECT_NO_THROW([] { tp_assert(1 == 1); }());
}

TEST(FlatMap64, InsertFindUpdateClear)
{
    FlatMap64<std::uint64_t> m(16);
    EXPECT_EQ(m.size(), 0u);
    EXPECT_EQ(m.find(42), nullptr);

    m[42] = 7;
    EXPECT_EQ(m.size(), 1u);
    ASSERT_NE(m.find(42), nullptr);
    EXPECT_EQ(*m.find(42), 7u);

    // operator[] on an existing key returns the same slot.
    m[42] |= 8;
    EXPECT_EQ(*m.find(42), 15u);
    EXPECT_EQ(m.size(), 1u);

    // Absent key default-constructs.
    EXPECT_EQ(m[99], 0u);
    EXPECT_EQ(m.size(), 2u);

    m.clear();
    EXPECT_EQ(m.size(), 0u);
    EXPECT_EQ(m.find(42), nullptr);
}

TEST(FlatMap64, GrowsPastInitialCapacityAndKeepsEntries)
{
    FlatMap64<std::uint64_t> m(16);
    // Dense and colliding keys, far above the initial capacity.
    for (std::uint64_t i = 0; i < 10000; ++i)
        m[i * 64] = i;
    EXPECT_EQ(m.size(), 10000u);
    for (std::uint64_t i = 0; i < 10000; ++i) {
        ASSERT_NE(m.find(i * 64), nullptr) << i;
        EXPECT_EQ(*m.find(i * 64), i);
    }
    EXPECT_EQ(m.find(63), nullptr);
    EXPECT_GE(m.capacity(), 10000u);
}

TEST(FlatMap64, MatchesReferenceMapUnderRandomMix)
{
    FlatMap64<std::uint64_t> m;
    std::map<std::uint64_t, std::uint64_t> ref;
    Rng rng(3);
    for (int i = 0; i < 50000; ++i) {
        const std::uint64_t key = rng.nextBounded(4096) * 977;
        if (rng.bernoulli(0.7)) {
            const std::uint64_t val = rng.next();
            m[key] = val;
            ref[key] = val;
        } else {
            const auto it = ref.find(key);
            std::uint64_t *p = m.find(key);
            if (it == ref.end()) {
                EXPECT_EQ(p, nullptr);
            } else {
                ASSERT_NE(p, nullptr);
                EXPECT_EQ(*p, it->second);
            }
        }
    }
    EXPECT_EQ(m.size(), ref.size());
}

/** A component declaring its checkpoint state once. */
struct StateSample
{
    enum class Kind : std::uint8_t { A, B, C };

    std::uint32_t narrow = 0;
    std::size_t wide = 0;
    bool on = false;
    Kind kind = Kind::A;
    std::vector<std::uint64_t> fixed = std::vector<std::uint64_t>(3);
    std::vector<std::uint32_t> var;

    void
    state(StateIo &io)
    {
        io.pod(narrow);
        io.pod<std::uint64_t>(wide);
        io.flag(on);
        io.tag(kind, Kind::C, "sample kind tag");
        io.count(fixed.size(), "sample geometry");
        io.block(fixed);
        io.length(var, sizeof(std::uint32_t), "sample length");
        for (std::uint32_t &v : var)
            io.pod(v);
    }
};

std::string
saveSample(StateSample s)
{
    std::ostringstream os(std::ios::binary);
    BinaryWriter w(os);
    StateIo io(w);
    s.state(io);
    return os.str();
}

StateSample
loadSample(const std::string &bytes, StateSample into = {})
{
    std::istringstream is(bytes, std::ios::binary);
    BinaryReader r(is, "sample");
    StateIo io(r);
    into.state(io);
    r.expectEof();
    return into;
}

TEST(StateIo, OneDeclarationRoundTripsEveryFieldKind)
{
    StateSample s;
    s.narrow = 7;
    s.wide = std::size_t{1} << 40;
    s.on = true;
    s.kind = StateSample::Kind::C;
    s.fixed = {1, 2, 3};
    s.var = {9, 8};
    const std::string bytes = saveSample(s);
    // u32, u64 wire width, bool byte, u8 tag, u64 count, the block
    // (u64 span length, u32 literal header, 3 x u64), u64 length,
    // 2 x u32.
    EXPECT_EQ(bytes.size(), 4u + 8 + 1 + 1 + 8 + (8 + 4 + 24) + 8 + 8);

    const StateSample back = loadSample(bytes);
    EXPECT_EQ(back.narrow, s.narrow);
    EXPECT_EQ(back.wide, s.wide);
    EXPECT_EQ(back.on, s.on);
    EXPECT_EQ(back.kind, s.kind);
    EXPECT_EQ(back.fixed, s.fixed);
    EXPECT_EQ(back.var, s.var);
    EXPECT_EQ(saveSample(back), bytes);
}

TEST(StateIo, LoadRejectsCorruptFieldsNamingThem)
{
    const std::string good = saveSample(StateSample{});
    const auto expectIoError = [](const std::string &bytes,
                                  const char *needle,
                                  StateSample into = {}) {
        try {
            loadSample(bytes, into);
            FAIL() << "expected IoError mentioning " << needle;
        } catch (const IoError &e) {
            EXPECT_NE(std::string(e.what()).find(needle),
                      std::string::npos)
                << e.what();
        }
    };

    std::string bad = good;
    bad[12] = 2; // bool byte
    expectIoError(bad, "boolean");
    bad = good;
    bad[13] = 3; // tag past Kind::C
    expectIoError(bad, "sample kind tag");
    StateSample four;
    four.fixed.resize(4);
    expectIoError(good, "sample geometry", four);
    bad = good;
    const std::uint64_t huge = 1ULL << 40;
    // `var` is empty, so its u64 length is the last field.
    bad.replace(good.size() - sizeof(huge), sizeof(huge),
                reinterpret_cast<const char *>(&huge), sizeof(huge));
    expectIoError(bad, "sample length");
    expectIoError(good.substr(0, good.size() - 1), "truncated");
}

/** The 16-byte slot of a FlatMap64<std::uint64_t> (key, value). */
struct Slot16
{
    std::uint64_t key;
    std::uint64_t value;
};

/** @return the `i`-th of pairwise distinct values of each type. */
template <typename T>
T
distinct(std::uint64_t i)
{
    if constexpr (std::is_same_v<T, Slot16>)
        return Slot16{i * 0x9e3779b97f4a7c15ULL, ~i};
    else if constexpr (std::is_same_v<T, double>)
        return 0.5 + 0.25 * static_cast<double>(i);
    else
        return static_cast<T>(i * 2654435761ULL + 1);
}

/** @return the state bytes of one block() of `v`. */
template <typename T>
std::string
saveBlock(std::vector<T> v)
{
    std::ostringstream os(std::ios::binary);
    BinaryWriter w(os);
    StateIo io(w);
    io.block(v);
    return os.str();
}

/** Load one block() of `n` elements from `bytes`, which it must use up. */
template <typename T>
std::vector<T>
loadBlock(const std::string &bytes, std::size_t n)
{
    std::istringstream is(bytes, std::ios::binary);
    BinaryReader r(is, "block");
    StateIo io(r);
    std::vector<T> v(n, distinct<T>(999));
    io.block(v);
    r.expectEof();
    return v;
}

template <typename T>
class BlockShapes : public testing::Test
{};

using BlockElements =
    testing::Types<std::uint32_t, std::uint64_t, double, Slot16>;
TYPED_TEST_SUITE(BlockShapes, BlockElements);

/**
 * Every shape round-trips byte for byte, and each encodes as the
 * documented tokens: u64 span length, then per token a u32 header
 * and one element (run) or `count` elements (literal).
 */
TYPED_TEST(BlockShapes, RoundTripAsDocumentedTokens)
{
    using T = TypeParam;
    const T a = distinct<T>(1);
    const T b = distinct<T>(2);
    const T c = distinct<T>(3);
    std::vector<T> all_distinct;
    for (std::uint64_t i = 0; i < 9; ++i)
        all_distinct.push_back(distinct<T>(i));
    constexpr std::size_t S = sizeof(T);
    constexpr std::size_t H = 4; // token header
    const struct
    {
        const char *name;
        std::vector<T> elems;
        std::size_t spanBytes;
    } shapes[] = {
        {"empty", {}, 0},
        {"one element", {a}, H + S},
        {"all equal", std::vector<T>(9, a), H + S},
        {"all distinct", all_distinct, H + 9 * S},
        {"alternating", {a, b, a, b, a, b, a}, H + 7 * S},
        {"runs at both ends", {a, a, a, b, c, b, c, c, c},
         (H + S) + (H + 3 * S) + (H + S)},
        {"run in the middle", {b, a, a, a, a, c}, 3 * H + 3 * S},
        {"runs of two", {a, a, b, c, c}, 3 * H + 3 * S},
    };
    const auto raw = [](const std::vector<T> &v) {
        return std::string(reinterpret_cast<const char *>(v.data()),
                           v.size() * S);
    };
    for (const auto &shape : shapes) {
        const std::string bytes = saveBlock(shape.elems);
        EXPECT_EQ(bytes.size(), 8 + shape.spanBytes) << shape.name;
        EXPECT_EQ(raw(loadBlock<T>(bytes, shape.elems.size())),
                  raw(shape.elems))
            << shape.name;
    }
}

/** A long run (the common case: junk and empty ways) and a FlatMap. */
TEST(BlockCodec, LongRunsAndFlatMapSlotsRoundTrip)
{
    std::vector<std::uint64_t> v(100000, 7);
    v[0] = 1;
    v[50000] = 2;
    v[99999] = 3;
    const std::string bytes = saveBlock(v);
    // literal(1), run(49999), literal(1), run(49998), literal(1)
    EXPECT_EQ(bytes.size(), 8u + 5 * 4 + 5 * 8);
    EXPECT_EQ(loadBlock<std::uint64_t>(bytes, v.size()), v);

    FlatMap64<std::uint64_t> m;
    for (std::uint64_t i = 0; i < 3000; ++i)
        m[i * 977] = i;
    std::ostringstream os(std::ios::binary);
    BinaryWriter w(os);
    StateIo save(w);
    m.state(save);
    std::istringstream is(os.str(), std::ios::binary);
    BinaryReader r(is, "map");
    StateIo load(r);
    FlatMap64<std::uint64_t> back;
    back.state(load);
    r.expectEof();
    EXPECT_EQ(back.size(), m.size());
    for (std::uint64_t i = 0; i < 3000; ++i) {
        ASSERT_NE(back.find(i * 977), nullptr) << i;
        EXPECT_EQ(*back.find(i * 977), i);
    }
}

/** Token helpers for hand-built spans of u64 elements. */
void
addToken(std::string &span, std::uint32_t header,
         std::initializer_list<std::uint64_t> elems)
{
    span.append(reinterpret_cast<const char *>(&header), sizeof(header));
    for (const std::uint64_t e : elems)
        span.append(reinterpret_cast<const char *>(&e), sizeof(e));
}

std::uint32_t
runOf(std::uint32_t count)
{
    return count << 1 | 1;
}

std::uint32_t
literalOf(std::uint32_t count)
{
    return count << 1;
}

/** @return `span` behind a u64 length prefix of `len` (default: its size). */
std::string
framed(const std::string &span, std::uint64_t len = ~0ULL)
{
    if (len == ~0ULL)
        len = span.size();
    std::string out(reinterpret_cast<const char *>(&len), sizeof(len));
    return out + span;
}

TEST(BlockCodec, MalformedSpansAreIoErrors)
{
    // A well-formed span of four u64 elements loads.
    std::string good;
    addToken(good, runOf(2), {5});
    addToken(good, literalOf(2), {6, 7});
    EXPECT_EQ(loadBlock<std::uint64_t>(framed(good), 4),
              (std::vector<std::uint64_t>{5, 5, 6, 7}));

    // Each case must fail on its own check, before any byte is read
    // past the span or written past the array.
    const auto expectIoError = [](const std::string &bytes,
                                  const char *needle) {
        try {
            loadBlock<std::uint64_t>(bytes, 4);
            FAIL() << "expected an IoError naming " << needle;
        } catch (const IoError &e) {
            EXPECT_NE(std::string(e.what()).find(needle),
                      std::string::npos)
                << e.what();
        }
    };
    std::string span;
    addToken(span, runOf(5), {5}); // a run overrunning the array
    expectIoError(framed(span), "token count");

    span.clear();
    addToken(span, runOf(2), {5});
    addToken(span, literalOf(3), {6, 7, 8}); // and a literal
    expectIoError(framed(span), "token count");

    span.clear();
    addToken(span, literalOf(0), {});
    addToken(span, runOf(4), {5});
    expectIoError(framed(span), "token count");
    span.clear();
    addToken(span, runOf(0), {5});
    addToken(span, runOf(4), {5});
    expectIoError(framed(span), "token count");

    span.clear();
    addToken(span, runOf(3), {5}); // one element short of the array
    expectIoError(framed(span), "tokens stop short");
    expectIoError(framed(good.substr(0, 14)), "tokens stop short");
    expectIoError(framed(good.substr(0, good.size() - 3)),
                  "literal past its span");
    span.clear();
    addToken(span, runOf(4), {});
    expectIoError(framed(span), "run past its span");

    expectIoError(framed(good + std::string(1, '\0')), "trailing bytes");
    span = good;
    addToken(span, runOf(1), {9}); // a token after the array is full
    expectIoError(framed(span), "trailing bytes");

    expectIoError(framed(good, good.size() + 1), "state block length");
    expectIoError(framed(good, ~0ULL - 1), "state block length");
    // Longer than any encoding of four u64 elements (4 x (4 + 8)),
    // even though the bytes are there.
    expectIoError(framed(good + std::string(20, '\0')),
                  "state block length");
    expectIoError(framed(good).substr(0, 5), "truncated");
}

/**
 * A stream buffer that accepts the first `limit` bytes written to it
 * and refuses the rest, recording every call it gets.
 */
class LimitedBuf : public std::streambuf
{
  public:
    explicit LimitedBuf(std::size_t limit) : limit_(limit) {}

    std::string accepted;
    std::size_t calls = 0;

  protected:
    std::streamsize
    xsputn(const char *s, std::streamsize n) override
    {
        ++calls;
        const auto room = static_cast<std::streamsize>(limit_) -
                          static_cast<std::streamsize>(accepted.size());
        const std::streamsize take = std::min(n, room);
        accepted.append(s, static_cast<std::size_t>(take));
        return take;
    }

    int_type
    overflow(int_type c) override
    {
        const char ch = traits_type::to_char_type(c);
        return xsputn(&ch, 1) == 1 ? c : traits_type::eof();
    }

  private:
    std::size_t limit_;
};

TEST(BinaryWriter, ShortWriteFailsAndStopsWriting)
{
    LimitedBuf buf(10);
    std::ostream out(&buf);
    BinaryWriter w(out);
    w.pod<std::uint64_t>(0x0807060504030201ULL);
    EXPECT_TRUE(w.good());
    w.pod<std::uint32_t>(0x0c0b0a09U); // only 2 of its 4 bytes fit
    EXPECT_FALSE(w.good());
    EXPECT_TRUE(out.bad());
    EXPECT_EQ(buf.accepted, std::string("\x01\x02\x03\x04\x05\x06"
                                        "\x07\x08\x09\x0a",
                                        10));
    const std::size_t calls = buf.calls;
    w.pod<std::uint64_t>(1);
    w.str("after the failure");
    w.bytes("xyz", 3);
    EXPECT_EQ(buf.calls, calls) << "the buffer saw a write after the "
                                   "failure";
    EXPECT_EQ(buf.accepted.size(), 10u);
    EXPECT_FALSE(w.good());
}

TEST(BinaryWriter, FailedStreamIsNotWritten)
{
    LimitedBuf buf(1024);
    std::ostream out(&buf);
    out.setstate(std::ios::failbit);
    BinaryWriter w(out);
    w.pod<std::uint64_t>(1);
    w.str("never written");
    EXPECT_EQ(buf.calls, 0u);
    EXPECT_TRUE(buf.accepted.empty());
    EXPECT_FALSE(w.good());
}

/**
 * Pins checksum64 (host byte order) over bytes
 * `i * 131 + 7` for every length 0-40: the aligned lanes, whole tail
 * words and a partial tail word all contribute. Entries on disk carry
 * these values, so a change here must bump every envelope version.
 */
TEST(Checksum64, ValuesArePinned)
{
    const std::uint64_t pinned[41] = {
        0x1792a0c56e7c1920ULL, 0xa9f3d935e17970abULL, 0xa9c2608f542b1f8cULL,
        0x0a44961536691fedULL, 0x7fba1c329a173127ULL, 0xb60ffa4d17988741ULL,
        0x13c64a3832380fb6ULL, 0x7a3322551f25cd8aULL, 0x8ddc8fc6ec3b32e7ULL,
        0xa648496f65be9760ULL, 0x3eaf6848e8660c7eULL, 0x48a7fdc7597f0041ULL,
        0xd6820c05ba9ac88aULL, 0x027f99b812e584b9ULL, 0x82bc96b3cd6a91faULL,
        0xa42c3631f76700d3ULL, 0x88f96f28fd465ccfULL, 0x2b204cdec4bbf6aeULL,
        0x85d78170f107a7ffULL, 0xdbae78645c504b08ULL, 0x5a4c5ef6c217b4aaULL,
        0x2acff55d798ef4d2ULL, 0x4d7fb9a6d9d0fb25ULL, 0xb51f63bce8bb0b5eULL,
        0xd343c4562d77ed50ULL, 0x175650b40becded0ULL, 0x5c5e4169973cbee0ULL,
        0x78c57fa26b0abd84ULL, 0x1f7fcfa41067bf8cULL, 0xdce32f79f30c9e30ULL,
        0xe1e172bf5c70dab9ULL, 0x82777e0695c3674fULL, 0x8211d1a7f72f9c3cULL,
        0x0ee817056c98a930ULL, 0x30fb3e8599f309ddULL, 0x05a4f0d95df72de2ULL,
        0xd7573abd69fb377cULL, 0x93ffcc15f7b8996aULL, 0x95e8c257415e72fcULL,
        0xa4af82846d2f536bULL, 0x7dc36e13c40a5800ULL,
    };
    unsigned char bytes[40];
    for (std::size_t i = 0; i < sizeof(bytes); ++i)
        bytes[i] = static_cast<unsigned char>(i * 131 + 7);
    for (std::size_t len = 0; len <= sizeof(bytes); ++len)
        EXPECT_EQ(checksum64(bytes, len), pinned[len])
            << "length " << len << ": 0x" << toHex(checksum64(bytes, len));
}

TEST(Checksum64, EverySingleBitFlipChangesIt)
{
    std::string buf(4096 + 13, '\0');
    Rng rng(11);
    for (char &c : buf)
        c = static_cast<char>(rng.next());
    const std::uint64_t base = checksum64(buf.data(), buf.size());
    std::size_t unchanged = 0;
    for (std::size_t bit = 0; bit < buf.size() * 8; ++bit) {
        buf[bit / 8] = static_cast<char>(buf[bit / 8] ^ (1 << (bit % 8)));
        unchanged += checksum64(buf.data(), buf.size()) == base;
        buf[bit / 8] = static_cast<char>(buf[bit / 8] ^ (1 << (bit % 8)));
    }
    EXPECT_EQ(unchanged, 0u);
}

} // namespace
} // namespace tp
