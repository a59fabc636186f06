/**
 * @file
 * Round-trip and corruption batteries for trace/trace_io — the
 * prerequisite for shipping traces to out-of-process workers and for
 * keying the result cache by serialized trace bytes.
 *
 * Round trip, for every workload in the registry:
 *  - serialize → deserialize → re-serialize is byte-identical
 *  - the deserialized trace simulates to the same SimResult as the
 *    original (the trace carries *all* simulation-relevant state)
 *
 * Corruption: truncated files, bad magic, and flipped bytes must
 * raise a recoverable error (IoError / SimError), never crash or
 * silently succeed.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/binary_io.hh"
#include "corruption_battery.hh"
#include "harness/experiment.hh"
#include "trace/trace_io.hh"
#include "workloads/workloads.hh"

namespace tp::trace {
namespace {

work::WorkloadParams
tinyScale()
{
    work::WorkloadParams p;
    p.scale = 0.02;
    p.seed = 42;
    return p;
}

std::string
serializedBytes(const TaskTrace &t)
{
    std::ostringstream os(std::ios::binary);
    serializeTrace(t, os);
    return os.str();
}

TaskTrace
fromBytes(const std::string &bytes)
{
    std::istringstream is(bytes, std::ios::binary);
    return deserializeTrace(is, "<memory>");
}

/** Deterministic fields of a SimResult (host wall-clock excluded). */
void
expectSameSimResult(const sim::SimResult &a, const sim::SimResult &b)
{
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.detailedTasks, b.detailedTasks);
    EXPECT_EQ(a.fastTasks, b.fastTasks);
    EXPECT_EQ(a.detailedInsts, b.detailedInsts);
    EXPECT_EQ(a.fastInsts, b.fastInsts);
    EXPECT_EQ(a.avgActiveCores, b.avgActiveCores);
    EXPECT_EQ(a.tasks.size(), b.tasks.size());
    EXPECT_EQ(a.memStats.l1.accesses, b.memStats.l1.accesses);
    EXPECT_EQ(a.memStats.l1.misses, b.memStats.l1.misses);
    EXPECT_EQ(a.memStats.dramRequests, b.memStats.dramRequests);
    EXPECT_EQ(a.memStats.coherenceInvalidations,
              b.memStats.coherenceInvalidations);
}

/** A temp file path unique to this test binary. */
std::string
tmpPath(const std::string &tag)
{
    return testing::TempDir() + "tp_trace_io_" + tag + ".bin";
}

TEST(TraceIoRoundTrip, EveryWorkloadReserializesByteIdentical)
{
    for (const work::WorkloadInfo &w : work::allWorkloads()) {
        SCOPED_TRACE(w.name);
        const TaskTrace t = work::generateWorkload(w.name,
                                                   tinyScale());
        const std::string bytes = serializedBytes(t);
        const TaskTrace back = fromBytes(bytes);
        EXPECT_EQ(back.name(), t.name());
        EXPECT_EQ(back.size(), t.size());
        EXPECT_EQ(serializedBytes(back), bytes)
            << "re-serialization must be byte-identical";
    }
}

TEST(TraceIoRoundTrip, EveryWorkloadSimulatesIdentically)
{
    for (const work::WorkloadInfo &w : work::allWorkloads()) {
        SCOPED_TRACE(w.name);
        const TaskTrace t = work::generateWorkload(w.name,
                                                   tinyScale());
        const TaskTrace back = fromBytes(serializedBytes(t));

        harness::RunSpec spec;
        spec.arch = cpu::highPerformanceConfig();
        spec.threads = 4;
        expectSameSimResult(harness::runDetailed(t, spec),
                            harness::runDetailed(back, spec));
    }
}

TEST(TraceIoRoundTrip, FileAndStreamFormatsAgree)
{
    const TaskTrace t =
        work::generateWorkload("histogram", tinyScale());
    const std::string path = tmpPath("file_stream");
    serializeTrace(t, path);
    std::ifstream in(path, std::ios::binary);
    std::stringstream fileBytes;
    fileBytes << in.rdbuf();
    EXPECT_EQ(fileBytes.str(), serializedBytes(t));
    const TaskTrace back = deserializeTrace(path);
    EXPECT_EQ(serializedBytes(back), serializedBytes(t));
    std::remove(path.c_str());
}

class TraceIoCorruption : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        trace_ = work::generateWorkload("histogram", tinyScale());
        bytes_ = serializedBytes(trace_);
    }

    /** Write `bytes` to a temp file and return the path. */
    std::string
    writeFile(const std::string &tag, const std::string &bytes)
    {
        const std::string path = tmpPath(tag);
        std::ofstream out(path,
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
        paths_.push_back(path);
        return path;
    }

    void
    TearDown() override
    {
        for (const std::string &p : paths_)
            std::remove(p.c_str());
    }

    TaskTrace trace_;
    std::string bytes_;
    std::vector<std::string> paths_;
};

TEST_F(TraceIoCorruption, TruncatedFileFailsCleanly)
{
    // The file-path decode surface; sparse sweep (the dense one runs
    // in-memory below), always including empty and drop-last-byte.
    test::expectTruncationsThrow(
        bytes_,
        [this](const std::string &bad) {
            (void)deserializeTrace(writeFile("trunc", bad));
        },
        bytes_.size() / 4);
}

TEST_F(TraceIoCorruption, BadMagicThrowsIoError)
{
    std::string bad = bytes_;
    bad[0] = static_cast<char>(bad[0] ^ 0x01);
    EXPECT_THROW((void)deserializeTrace(writeFile("magic", bad)),
                 IoError);
}

TEST_F(TraceIoCorruption, BadVersionThrowsIoError)
{
    std::string bad = bytes_;
    bad[8] = static_cast<char>(bad[8] ^ 0x40); // version word
    EXPECT_THROW((void)deserializeTrace(writeFile("version", bad)),
                 IoError);
}

TEST_F(TraceIoCorruption, FlippedLengthByteThrowsIoError)
{
    // Offset 12..19 is the name-length u64; blowing up its high byte
    // produces an implausible string length.
    std::string bad = bytes_;
    bad[19] = static_cast<char>(0xff);
    EXPECT_THROW((void)deserializeTrace(writeFile("length", bad)),
                 IoError);
}

TEST_F(TraceIoCorruption, HugeCountIsRejectedBeforeAllocating)
{
    // The task-type count u64 sits right after magic, version and
    // the name string. A corrupt count must be rejected up front by
    // the plausibility bounds — as IoError, not as a failed
    // multi-GiB allocation escaping as bad_alloc.
    const std::size_t ntypesOff = 8 + 4 + 8 + trace_.name().size();
    ASSERT_LT(ntypesOff + 7, bytes_.size());

    // High byte set: count far beyond the absolute bound.
    std::string bad = bytes_;
    bad[ntypesOff + 7] = static_cast<char>(0x7f);
    EXPECT_THROW((void)deserializeTrace(writeFile("huge1", bad)),
                 IoError);

    // Count below the absolute bound (2^20) but far beyond what the
    // remaining file bytes could hold: the remaining-bytes bound
    // must catch it.
    bad = bytes_;
    bad[ntypesOff + 2] = static_cast<char>(0x0f); // += 983040
    EXPECT_THROW((void)deserializeTrace(writeFile("huge2", bad)),
                 IoError);
}

TEST_F(TraceIoCorruption, OutOfRangePatternKindThrowsIoError)
{
    // The memory-pattern kind byte of type 0's first variant follows
    // magic, version, the trace name, the type count, the type's id
    // and name, its variant count and the profile's seven doubles.
    // An out-of-range kind must fail the load, naming the file, not
    // panic later when the instruction stream is generated.
    const TaskType &type = trace_.types()[0];
    const std::size_t kindOff = 8 + 4 + 8 + trace_.name().size() + 8 +
                                4 + 8 + type.name.size() + 8 + 7 * 8;
    ASSERT_LT(kindOff, bytes_.size());
    ASSERT_EQ(static_cast<std::uint8_t>(bytes_[kindOff]),
              static_cast<std::uint8_t>(type.variants[0].pattern.kind));

    std::string bad = bytes_;
    bad[kindOff] = 7;
    const std::string path = writeFile("kind", bad);
    try {
        (void)deserializeTrace(path);
        FAIL() << "an out-of-range pattern kind must not load";
    } catch (const IoError &e) {
        EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
            << e.what();
    }
}

TEST_F(TraceIoCorruption, FlippedTrailingByteFailsCleanly)
{
    // The final bytes encode successor counts/ids; flipping the last
    // byte yields a count pointing past EOF or an out-of-range id.
    std::string bad = bytes_;
    bad[bad.size() - 1] =
        static_cast<char>(bad[bad.size() - 1] ^ 0xff);
    EXPECT_THROW((void)deserializeTrace(writeFile("tail", bad)),
                 SimError);
}

TEST_F(TraceIoCorruption, EveryPrefixFailsCleanlyOrRoundTrips)
{
    // Sweep truncation points through the whole file: deserializing
    // any strict prefix must throw a recoverable SimError — never
    // crash the process.
    test::expectTruncationsThrow(
        bytes_,
        [](const std::string &bad) {
            std::istringstream is(bad, std::ios::binary);
            (void)deserializeTrace(is, "<prefix>");
        },
        bytes_.size() / 97);
}

TEST_F(TraceIoCorruption, EveryBitFlipFailsCleanlyOrDecodes)
{
    // The trace format has no whole-file checksum (plausibility
    // bounds and structural checks only), so a payload-byte flip may
    // legally decode to a different trace. The contract is weaker —
    // reject with SimError or decode, never crash — and a decode
    // that succeeds must be internally consistent enough to
    // re-serialize.
    test::expectBitFlipsHandled(
        bytes_,
        [](const std::string &bad) {
            std::istringstream is(bad, std::ios::binary);
            const TaskTrace t = deserializeTrace(is, "<flip>");
            (void)serializedBytes(t);
        },
        std::max<std::size_t>(1, bytes_.size() / 61));
}

TEST_F(TraceIoCorruption, MissingFileThrowsIoError)
{
    EXPECT_THROW(
        (void)deserializeTrace(tmpPath("definitely_missing")),
        IoError);
}

} // namespace
} // namespace tp::trace
