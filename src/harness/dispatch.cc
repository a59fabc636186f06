#include "harness/dispatch.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "common/backoff.hh"
#include "common/binary_io.hh"
#include "common/fault_injection.hh"
#include "common/logging.hh"
#include "common/subprocess.hh"
#include "harness/result_cache.hh"
#include "sim/result_io.hh"
#include "workloads/workloads.hh"

namespace fs = std::filesystem;

namespace tp::harness {

namespace {

const char *const kTaskSuffix = ".tpshard";
const char *const kStreamSuffix = ".tprs";

/**
 * Process-wide campaign counter for temp-spool names: two campaigns
 * in one process (or one after a failed cleanup) must never resolve
 * the same directory, or stale result streams from the earlier one
 * would be collected as current ones.
 */
std::atomic<std::uint64_t> g_spoolCounter{0};

std::string
defaultRunnerId()
{
    char host[256] = {0};
    if (::gethostname(host, sizeof(host) - 1) != 0)
        host[0] = '\0';
    return strprintf("%s-%d", host[0] != '\0' ? host : "host",
                     static_cast<int>(::getpid()));
}

/** Read a small file whole; empty string when unreadable. */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return "";
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/**
 * Appends each finished result of one shard task to the task's
 * envelope stream, under its parent-plan index: BatchRunner numbers
 * the shard's jobs 0..n-1, but the coordinator merges by plan index.
 *
 * Each append is one buffered write of a whole envelope followed by
 * a flush, so a crash between jobs leaves a clean stream boundary
 * and a crash mid-write leaves an incomplete tail — which the
 * tailing coordinator's EnvelopeStreamReader treats as
 * not-yet-published, never as a result.
 */
class StreamPublishingSink final : public ResultSink
{
  public:
    StreamPublishingSink(const PlanShard &shard,
                         const std::string &streamPath)
        : shard_(shard), out_(streamPath, std::ios::binary),
          path_(streamPath)
    {
        // The coordinator guarantees a fresh stream name per task
        // (steal-generation-unique task names), so truncating here
        // can never discard results a tailer already consumed.
        if (!out_)
            fatal("runner: cannot create result stream '%s'",
                  path_.c_str());
    }

    void
    consume(BatchResult &&r) override
    {
        tp_assert(r.index < shard_.jobs.size());
        r.index = static_cast<std::size_t>(
            shard_.jobs[r.index].planIndex);
        std::ostringstream payload(std::ios::binary);
        serializeBatchResult(r, payload);
        std::ostringstream framed(std::ios::binary);
        sim::writeEnvelope(framed, payload.str());

        const std::string bytes = framed.str();
        out_.write(bytes.data(),
                   static_cast<std::streamsize>(bytes.size()));
        out_.flush();
        if (!out_.good())
            fatal("runner: error appending to '%s'", path_.c_str());
        // The append just became durable — the boundary every
        // tailer's recovery story is written against. Injected data
        // faults damage the stream tail on disk (a truncated or
        // flipped envelope the reader must refuse); errno stands in
        // for the append itself failing like the fatal above; abort
        // kills this runner mid-task and delay wedges it with the
        // stream silent (the stalled-stream watchdog's case).
        if (const fault::FaultRule *f =
                FAULT_CHECK("worker.stream.append")) {
            if (f->action.kind == fault::FaultKind::ErrnoFault)
                fatal("runner: injected %s appending to '%s' "
                      "(fault site worker.stream.append)",
                      fault::errnoToken(f->action.arg).c_str(),
                      path_.c_str());
            fault::corruptFile(*f, path_);
        }
    }

  private:
    const PlanShard &shard_;
    std::ofstream out_;
    std::string path_;
};

} // namespace

std::string
defaultRunnerBinary()
{
    std::error_code ec;
    const fs::path self = fs::read_symlink("/proc/self/exe", ec);
    if (ec || !self.has_parent_path())
        return "taskpoint_dispatch";
    return (self.parent_path() / "taskpoint_dispatch").string();
}

std::string
formatTaskName(const DispatchTaskName &name)
{
    return strprintf("task-p%04u-g%02u-s%04u", name.priority,
                     name.generation, name.shardId);
}

std::optional<DispatchTaskName>
parseTaskName(const std::string &s)
{
    DispatchTaskName name;
    int consumed = 0;
    if (std::sscanf(s.c_str(), "task-p%u-g%u-s%u%n", &name.priority,
                    &name.generation, &name.shardId,
                    &consumed) != 3 ||
        static_cast<std::size_t>(consumed) != s.size())
        return std::nullopt;
    return name;
}

SpoolPaths::SpoolPaths(std::string root_dir)
    : root(std::move(root_dir)),
      queue((fs::path(root) / "queue").string()),
      claimed((fs::path(root) / "claimed").string()),
      done((fs::path(root) / "done").string()),
      results((fs::path(root) / "results").string()),
      runners((fs::path(root) / "runners").string()),
      stopFile((fs::path(root) / "stop").string())
{
}

std::string
SpoolPaths::queueFile(const std::string &task) const
{
    return (fs::path(queue) / (task + kTaskSuffix)).string();
}

std::string
SpoolPaths::claimedDir(const std::string &runner) const
{
    return (fs::path(claimed) / runner).string();
}

std::string
SpoolPaths::claimedFile(const std::string &runner,
                        const std::string &task) const
{
    return (fs::path(claimedDir(runner)) / (task + kTaskSuffix))
        .string();
}

std::string
SpoolPaths::doneFile(const std::string &task) const
{
    return (fs::path(done) / (task + kTaskSuffix)).string();
}

std::string
SpoolPaths::streamFile(const std::string &task) const
{
    return (fs::path(results) / (task + kStreamSuffix)).string();
}

std::string
SpoolPaths::heartbeatFile(const std::string &runner) const
{
    return (fs::path(runners) / (runner + ".hb")).string();
}

void
createSpool(const SpoolPaths &spool)
{
    for (const std::string *dir :
         {&spool.queue, &spool.claimed, &spool.done, &spool.results,
          &spool.runners}) {
        std::error_code ec;
        fs::create_directories(*dir, ec);
        if (ec)
            fatal("dispatch: cannot create spool directory '%s': %s",
                  dir->c_str(), ec.message().c_str());
    }
}

double
expectedJobCost(const JobSpec &job)
{
    // Expected dynamic work, in task-instance units. A trace-file
    // job's size is not in the spec; a neutral constant keeps it in
    // the middle of the schedule.
    double instances = 1e3;
    if (!job.workload.empty()) {
        if (const work::WorkloadInfo *info =
                work::findWorkload(job.workload))
            instances = static_cast<double>(info->paperInstances);
        instances *= job.workloadParams.scale;
    }
    double cost = instances * (job.workload.empty()
                                   ? 1.0
                                   : job.workloadParams.instrScale);
    // Mode weight: a Reference run simulates everything in detail; a
    // sampled run details only the sampled instances and fast-
    // forwards the rest; Both runs both.
    switch (job.mode) {
      case BatchMode::Sampled:
        cost *= 0.25;
        break;
      case BatchMode::Reference:
        break;
      case BatchMode::Both:
        cost *= 1.25;
        break;
    }
    if (job.isSlice() && job.sliceCount > 1)
        cost /= static_cast<double>(job.sliceCount);
    return cost;
}

double
expectedShardCost(const PlanShard &shard)
{
    double cost = 0.0;
    for (const ShardJob &sj : shard.jobs)
        cost += expectedJobCost(sj.job);
    return cost;
}

HeartbeatWriter::HeartbeatWriter(std::string path,
                                 std::chrono::milliseconds interval)
    : path_(std::move(path)), interval_(interval),
      thread_([this] { loop(); })
{
}

HeartbeatWriter::~HeartbeatWriter()
{
    stop_.store(true);
    thread_.join();
}

void
HeartbeatWriter::loop()
{
    std::uint64_t counter = 0;
    while (true) {
        // Injected errno loses this beat (one write that never hit
        // the disk); delay stalls the writer thread so the content
        // stops changing — the coordinator's dead-runner case.
        bool skipBeat = false;
        if (const fault::FaultRule *r =
                FAULT_CHECK("dispatch.heartbeat"))
            skipBeat =
                r->action.kind == fault::FaultKind::ErrnoFault;
        if (!skipBeat) {
            // Rewriting in place is enough: the watcher only looks
            // for *changed* content, so even a torn read counts as
            // liveness — which it is.
            std::ofstream out(path_, std::ios::trunc);
            out << counter++;
        }
        // Sleep in small slices so destruction never waits a whole
        // interval behind a long heartbeat period.
        auto remaining = interval_;
        while (remaining.count() > 0 && !stop_.load()) {
            const auto step =
                std::min(remaining, std::chrono::milliseconds(10));
            std::this_thread::sleep_for(step);
            remaining -= step;
        }
        if (stop_.load())
            break;
    }
}

std::size_t
runDispatchRunner(const DispatchRunnerOptions &options)
{
    if (options.spoolDir.empty())
        fatal("dispatch runner: a spool directory is required");
    SpoolPaths spool(options.spoolDir);
    // Idempotent: a runner may join before the coordinator created
    // the spool (cluster schedulers start jobs in any order).
    createSpool(spool);
    const std::string id = options.runnerId.empty()
                               ? defaultRunnerId()
                               : options.runnerId;
    std::error_code ec;
    fs::create_directories(spool.claimedDir(id), ec);
    if (ec)
        fatal("dispatch runner: cannot create claim directory: %s",
              ec.message().c_str());

    HeartbeatWriter heartbeat(spool.heartbeatFile(id),
                              options.heartbeatInterval);
    PollBackoff idle(std::chrono::milliseconds(2),
                     std::chrono::milliseconds(200));
    std::size_t executed = 0;
    while (true) {
        if (fs::exists(spool.stopFile, ec))
            break;

        // Scan the queue in lexicographic = schedule order and claim
        // the first task we win the rename race on.
        std::vector<std::string> queued;
        for (const auto &entry :
             fs::directory_iterator(spool.queue, ec)) {
            const std::string task = entry.path().stem().string();
            if (entry.path().extension() == kTaskSuffix &&
                parseTaskName(task))
                queued.push_back(task);
        }
        std::sort(queued.begin(), queued.end());

        bool ran = false;
        for (const std::string &task : queued) {
            const std::string claim = spool.claimedFile(id, task);
            std::error_code rec;
            // An injected errno simulates losing the claim race;
            // abort/delay kill or wedge the runner at the moment it
            // owns no task yet.
            if (const fault::FaultRule *r =
                    FAULT_CHECK("dispatch.claim"))
                if (r->action.kind == fault::FaultKind::ErrnoFault)
                    continue;
            // A coordinator starting after us wipes claimed/ to
            // clear the previous campaign; re-ensure our directory
            // so the claim rename has a target.
            fs::create_directories(spool.claimedDir(id), rec);
            fs::rename(spool.queueFile(task), claim, rec);
            if (rec)
                continue; // lost the race; try the next task
            if (options.progress)
                progress(strprintf("runner %s: claimed %s",
                                   id.c_str(), task.c_str()));
            const PlanShard shard = deserializeShard(claim);
            BatchOptions batch = options.batch;
            batch.collectTimelines = shard.collectTimelines;
            StreamPublishingSink publish(shard,
                                         spool.streamFile(task));
            BatchRunner(batch).run(shardPlan(shard), publish);
            fs::rename(claim, spool.doneFile(task), rec);
            ++executed;
            ran = true;
            // Rescan from the top: a stolen task published while we
            // worked may outrank everything still queued.
            break;
        }
        if (ran)
            idle.reset();
        else
            idle.sleep();
    }
    return executed;
}

namespace {

/** Coordinator-side state of one published task. */
struct TaskState
{
    PlanShard shard;
    DispatchTaskName name;
    /** Tails results/<task>.tprs (single writer, see file comment). */
    std::unique_ptr<sim::EnvelopeStreamReader> reader;
    /** Stream corrupt: stop tailing (remaining jobs were stolen). */
    bool failed = false;
    /** Remaining jobs were re-split; never steal a task twice. */
    bool stolen = false;
    /** Seen in some runner's claimed/ directory. */
    bool claimed = false;
    /** Seen in done/ (and its stream checked for completeness). */
    bool finished = false;
    /**
     * Results read from the stream; distinct, because its single
     * writer runs each job once.
     */
    std::size_t received = 0;
    /**
     * Last observed forward motion: publish, first sighting of the
     * claim, or results arriving on the stream. Drives the
     * stalled-stream watchdog.
     */
    std::chrono::steady_clock::time_point lastProgress;
};

/** Liveness tracking of one observed runner. */
struct RunnerTrack
{
    std::string lastBeat;
    std::chrono::steady_clock::time_point lastChange;
    bool dead = false;
};

/** One locally spawned runner process. */
struct LocalRunner
{
    std::string id;
    Subprocess process;
    bool exited = false;
};

/** runDispatchCampaign() after validation and slice expansion. */
void
runCampaign(const ExperimentPlan &plan, const DispatchOptions &options,
            ResultSink &sink)
{
    const bool ownSpool = options.spoolDir.empty();
    std::string root = options.spoolDir;
    if (root.empty())
        root = (fs::temp_directory_path() /
                strprintf("tp-dispatch-%d-%llu",
                          static_cast<int>(::getpid()),
                          static_cast<unsigned long long>(
                              g_spoolCounter.fetch_add(1))))
                   .string();
    SpoolPaths spool(root);
    // The spool is this campaign's working state: leftovers of an
    // earlier campaign (above all old result streams, whose task
    // names could collide) must not leak into this one. Runners may
    // already be waiting — they tolerate the directories flickering.
    for (const std::string *dir :
         {&spool.queue, &spool.claimed, &spool.done, &spool.results}) {
        std::error_code ec;
        fs::remove_all(*dir, ec);
    }
    {
        std::error_code ec;
        fs::remove(spool.stopFile, ec);
    }
    createSpool(spool);

    // --- Cost-model schedule -------------------------------------
    const std::uint32_t shardCount =
        options.shards != 0
            ? options.shards
            : static_cast<std::uint32_t>(
                  std::max<std::size_t>(options.localRunners, 1) * 2);
    std::vector<PlanShard> shards = makeShards(plan, shardCount);
    for (PlanShard &shard : shards)
        shard.collectTimelines = options.collectTimelines;

    struct Ranked
    {
        std::size_t idx;
        double cost;
    };
    std::vector<Ranked> ranked(shards.size());
    for (std::size_t i = 0; i < shards.size(); ++i) {
        ranked[i].idx = i;
        ranked[i].cost = expectedShardCost(shards[i]);
    }
    // Longest-expected-cost first, so the likely stragglers start
    // earliest.
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const Ranked &a, const Ranked &b) {
                         return a.cost > b.cost;
                     });

    std::map<std::string, TaskState> tasks;
    std::uint32_t nextShardId = shardCount;

    const auto publishTask = [&](PlanShard shard,
                                 DispatchTaskName name) {
        const std::string task = formatTaskName(name);
        // Publish by rename so a runner can never claim (and then
        // parse) a half-written task file.
        const std::string tmp =
            (fs::path(spool.root) / (task + ".tmp")).string();
        serializeShard(shard, tmp);
        // Injected errno fails the publish like a real rename error
        // below (the coordinator has no quieter degradation); data
        // faults damage the task file, so the claiming runner must
        // die parsing it and the dead-runner steal re-publishes.
        if (const fault::FaultRule *r =
                FAULT_CHECK("dispatch.publish")) {
            if (r->action.kind == fault::FaultKind::ErrnoFault)
                fatal("dispatch: injected %s publishing task '%s' "
                      "(fault site dispatch.publish)",
                      fault::errnoToken(r->action.arg).c_str(),
                      task.c_str());
            fault::corruptFile(*r, tmp);
        }
        std::error_code ec;
        fs::rename(tmp, spool.queueFile(task), ec);
        if (ec)
            fatal("dispatch: cannot publish task '%s': %s",
                  task.c_str(), ec.message().c_str());
        TaskState st;
        st.shard = std::move(shard);
        st.name = name;
        st.reader = std::make_unique<sim::EnvelopeStreamReader>(
            spool.streamFile(task));
        st.lastProgress = std::chrono::steady_clock::now();
        tasks.emplace(task, std::move(st));
    };

    for (std::size_t rank = 0; rank < ranked.size(); ++rank) {
        PlanShard &shard = shards[ranked[rank].idx];
        DispatchTaskName name;
        name.priority = static_cast<std::uint32_t>(rank);
        name.generation = 0;
        name.shardId = shard.shardIndex;
        publishTask(std::move(shard), name);
    }
    if (options.progress)
        progress(strprintf(
            "dispatch: %zu jobs in %zu tasks spooled at %s",
            plan.jobs.size(), tasks.size(), spool.root.c_str()));

    ResultMerger merger(sink, plan.jobs.size());

    // --- Local runner fleet --------------------------------------
    std::vector<LocalRunner> locals;
    std::size_t spawned = 0;
    const std::size_t spawnBudget =
        options.localRunners * (options.maxRetries + 1);
    const std::string runnerBin = options.runnerBinary.empty()
                                      ? defaultRunnerBinary()
                                      : options.runnerBinary;
    /** How the latest local runner died, for the give-up error. */
    std::string lastDeath;
    const auto spawnRunner = [&]() {
        LocalRunner lr;
        lr.id = strprintf("local-%zu", spawned);
        std::vector<std::string> argv = {
            runnerBin, "--runner", "--spool=" + spool.root,
            "--runner-id=" + lr.id,
            strprintf("--heartbeat=%lld",
                      static_cast<long long>(
                          options.heartbeatInterval.count())),
            strprintf("--jobs=%zu", options.jobsPerRunner)};
        if (!options.cacheDir.empty()) {
            argv.push_back("--cache-dir=" + options.cacheDir);
            argv.push_back("--cache=" + options.cacheMode);
        }
        if (!options.checkpointDir.empty())
            argv.push_back("--checkpoint-dir=" +
                           options.checkpointDir);
        SubprocessOptions so;
        so.stderrPath =
            (fs::path(spool.runners) / (lr.id + ".err")).string();
        lr.process = Subprocess::spawn(argv, so);
        ++spawned;
        if (options.progress)
            progress(strprintf("dispatch: runner %s -> pid %d",
                               lr.id.c_str(),
                               static_cast<int>(lr.process.pid())));
        locals.push_back(std::move(lr));
    };
    // An empty plan is complete before anyone could claim a thing.
    if (!plan.jobs.empty())
        for (std::size_t i = 0; i < options.localRunners; ++i)
            spawnRunner();

    const auto shutdown = [&]() {
        std::ofstream(spool.stopFile) << "stop\n";
        // All results (or the failure) are in hand; a straggler
        // still chewing on a duplicated task has nothing to add.
        for (LocalRunner &lr : locals) {
            lr.process.kill();
            lr.process.wait();
        }
    };

    std::map<std::string, RunnerTrack> runnerTracks;

    const auto aliveRunners = [&]() {
        std::size_t alive = 0;
        for (const auto &[id, rt] : runnerTracks)
            if (!rt.dead)
                ++alive;
        for (const LocalRunner &lr : locals)
            if (!lr.exited && runnerTracks.count(lr.id) == 0)
                ++alive; // spawned, first heartbeat still pending
        return alive;
    };

    const auto stealTask = [&](TaskState &t, const char *why) {
        if (t.stolen)
            return;
        FAULT_POINT("dispatch.steal");
        t.stolen = true;
        std::vector<ShardJob> remaining;
        for (const ShardJob &sj : t.shard.jobs)
            if (!merger.collected(
                    static_cast<std::size_t>(sj.planIndex)))
                remaining.push_back(sj);
        if (remaining.empty())
            return;
        const std::uint32_t gen = t.name.generation + 1;
        if (gen >= options.maxRetries) {
            shutdown();
            fatal("dispatch: task %s lineage failed %zu times "
                  "(last: %s)",
                  formatTaskName(t.name).c_str(),
                  static_cast<std::size_t>(gen), why);
        }
        // Re-split across the surviving fleet. The pieces keep the
        // parent plan's seed policy and each job's original plan
        // index, so shardPlan() on a stolen piece resolves exactly
        // the seeds of the original run — stolen work stays
        // bit-identical.
        const std::size_t pieces = std::min(
            remaining.size(), std::max<std::size_t>(
                                  static_cast<std::size_t>(1),
                                  aliveRunners()));
        for (std::size_t i = 0; i < pieces; ++i) {
            const auto [lo, hi] =
                shardRange(remaining.size(),
                           static_cast<std::uint32_t>(i),
                           static_cast<std::uint32_t>(pieces));
            PlanShard piece;
            piece.planDigest = t.shard.planDigest;
            piece.baseSeed = t.shard.baseSeed;
            piece.deriveSeeds = t.shard.deriveSeeds;
            piece.collectTimelines = t.shard.collectTimelines;
            piece.shardIndex = nextShardId;
            piece.shardCount = nextShardId + 1; // advisory position
            piece.jobs.assign(
                remaining.begin() +
                    static_cast<std::ptrdiff_t>(lo),
                remaining.begin() +
                    static_cast<std::ptrdiff_t>(hi));
            DispatchTaskName name;
            name.priority = t.name.priority;
            name.generation = gen;
            name.shardId = nextShardId;
            ++nextShardId;
            publishTask(std::move(piece), name);
        }
        warn("dispatch: stole %zu jobs from task %s into %zu "
             "gen-%u tasks (%s)",
             remaining.size(), formatTaskName(t.name).c_str(),
             pieces, gen, why);
    };

    /**
     * Merge every newly completed envelope of `t`'s stream; @return
     * whether anything happened (results arrived, or corruption got
     * the task stolen).
     */
    const auto pollTask =
        [&](TaskState &t, std::chrono::steady_clock::time_point now) {
            if (t.failed)
                return false;
            bool fresh = false;
            try {
                std::vector<std::string> payloads;
                t.reader->poll(payloads);
                if (!payloads.empty())
                    t.lastProgress = now;
                for (std::string &payload : payloads) {
                    std::istringstream ps(payload, std::ios::binary);
                    BatchResult r =
                        deserializeBatchResult(ps, t.reader->path());
                    // The stream's single writer executes this task,
                    // so every index must be one of its jobs (sorted
                    // ascending by plan index).
                    const std::uint64_t planIdx =
                        static_cast<std::uint64_t>(r.index);
                    const auto jt = std::lower_bound(
                        t.shard.jobs.begin(), t.shard.jobs.end(),
                        planIdx,
                        [](const ShardJob &sj, std::uint64_t v) {
                            return sj.planIndex < v;
                        });
                    if (jt == t.shard.jobs.end() ||
                        jt->planIndex != planIdx)
                        throwIoError("'%s': result index %zu is not "
                                     "one of the task's jobs",
                                     t.reader->path().c_str(),
                                     r.index);
                    ++t.received;
                    if (merger.offer(std::move(r)))
                        fresh = true;
                }
            } catch (const IoError &e) {
                // Definite corruption: this stream is not
                // trustworthy past what was already verified.
                t.failed = true;
                stealTask(t, e.what());
                fresh = true;
            }
            return fresh;
        };

    // --- Main loop: tail, track liveness, steal ------------------
    PollBackoff backoff(std::chrono::milliseconds(1),
                        std::chrono::milliseconds(100));
    try {
        while (!merger.complete()) {
            bool progressed = false;
            const auto now = std::chrono::steady_clock::now();

            for (auto &[task, t] : tasks)
                progressed |= pollTask(t, now);
            if (merger.complete())
                break;

            // Heartbeats: liveness is *content change* against our
            // own monotonic clock — no cross-host time comparison.
            std::error_code ec;
            for (const auto &entry :
                 fs::directory_iterator(spool.runners, ec)) {
                if (entry.path().extension() != ".hb")
                    continue;
                const std::string id =
                    entry.path().stem().string();
                const std::string beat =
                    slurp(entry.path().string());
                auto [it, inserted] =
                    runnerTracks.try_emplace(id);
                if (inserted) {
                    if (options.progress)
                        progress(strprintf(
                            "dispatch: runner %s joined",
                            id.c_str()));
                    it->second.lastBeat = beat;
                    it->second.lastChange = now;
                } else if (beat != it->second.lastBeat) {
                    it->second.lastBeat = beat;
                    it->second.lastChange = now;
                }
            }

            // Locally spawned runners also report through their
            // exit status — faster than a heartbeat timeout.
            for (LocalRunner &lr : locals) {
                if (lr.exited)
                    continue;
                if (const std::optional<ExitStatus> es =
                        lr.process.poll()) {
                    lr.exited = true;
                    lastDeath = strprintf(
                        "runner %s: %s, stderr in %s/%s.err",
                        lr.id.c_str(), es->describe().c_str(),
                        spool.runners.c_str(), lr.id.c_str());
                    RunnerTrack &rt = runnerTracks[lr.id];
                    if (!rt.dead) {
                        rt.dead = true;
                        warn("dispatch: runner %s died (%s)",
                             lr.id.c_str(),
                             es->describe().c_str());
                    }
                    progressed = true;
                }
            }

            // Death detection and stealing.
            for (auto &[id, rt] : runnerTracks) {
                const bool stale =
                    now - rt.lastChange > options.deadAfter;
                if (!rt.dead && stale) {
                    rt.dead = true;
                    warn("dispatch: runner %s heartbeat stalled; "
                         "declaring it dead",
                         id.c_str());
                }
                if (!rt.dead)
                    continue;
                // Steal every claimed, incomplete task once.
                for (const auto &entry : fs::directory_iterator(
                         spool.claimedDir(id), ec)) {
                    const std::string task =
                        entry.path().stem().string();
                    const auto it = tasks.find(task);
                    if (it == tasks.end() || it->second.stolen)
                        continue;
                    stealTask(it->second, "runner dead");
                    progressed = true;
                    std::error_code rec;
                    fs::remove(entry.path(), rec); // best effort
                }
            }

            // Torn final envelope: a runner moves a task to done/
            // only after its last append, so a stream still short of
            // the task's jobs after one more poll will never
            // complete — steal it now rather than wait out the
            // stalled-stream watchdog.
            for (const auto &entry :
                 fs::directory_iterator(spool.done, ec)) {
                const auto it =
                    tasks.find(entry.path().stem().string());
                if (it == tasks.end() || it->second.finished)
                    continue;
                TaskState &t = it->second;
                t.finished = true;
                progressed |= pollTask(t, now);
                if (t.received < t.shard.jobs.size()) {
                    stealTask(t, "task done with a torn result "
                                 "stream");
                    progressed = true;
                }
            }

            // Stalled-stream watchdog. A runner can wedge with its
            // heartbeat thread still beating (a stuck job, a hung
            // filesystem write) — heartbeat liveness never trips,
            // and without this pass the coordinator would tail the
            // silent stream forever. A *claimed* task whose stream
            // has not grown within the stall span is routed into
            // the same steal path as a dead runner's work; the
            // original stream stays tailed, so if the slow runner
            // does finish, its bit-identical duplicates are simply
            // dropped by the merger.
            for (const auto &entry :
                 fs::directory_iterator(spool.claimed, ec)) {
                if (!entry.is_directory())
                    continue;
                std::error_code dec;
                for (const auto &claim :
                     fs::directory_iterator(entry.path(), dec)) {
                    const auto it =
                        tasks.find(claim.path().stem().string());
                    if (it == tasks.end() || it->second.claimed)
                        continue;
                    it->second.claimed = true;
                    it->second.lastProgress = now;
                }
            }
            const auto stallBase =
                options.stalledAfter.count() > 0
                    ? options.stalledAfter
                    : std::max(options.deadAfter * 30,
                               std::chrono::milliseconds(60000));
            for (auto &[task, t] : tasks) {
                if (!t.claimed || t.stolen)
                    continue;
                // Doubling per generation keeps a genuinely slow
                // lineage from burning its whole retry budget on
                // watchdog steals.
                const auto span =
                    stallBase *
                    (1 << std::min(t.name.generation, 10u));
                if (now - t.lastProgress > span) {
                    stealTask(t, "result stream stalled");
                    progressed = true;
                }
            }

            // Keep the local fleet at strength while work remains.
            for (std::size_t i = 0; i < locals.size(); ++i) {
                if (!locals[i].exited)
                    continue;
                if (spawned < spawnBudget) {
                    locals[i].process.wait(); // reaped by poll()
                    spawnRunner();
                    locals.erase(locals.begin() +
                                 static_cast<std::ptrdiff_t>(i));
                    --i;
                    progressed = true;
                }
            }
            if (options.localRunners > 0 && aliveRunners() == 0 &&
                spawned >= spawnBudget) {
                shutdown();
                fatal("dispatch: local runners keep dying (%zu "
                      "spawns) and none are left; last: %s",
                      spawned, lastDeath.c_str());
            }

            if (progressed)
                backoff.reset();
            else
                backoff.sleep();
        }
    } catch (...) {
        shutdown();
        throw;
    }

    shutdown();
    merger.finish();
    if (options.progress)
        progress(strprintf(
            "dispatch: campaign complete: %zu jobs over %zu tasks, "
            "%zu runner spawns",
            merger.delivered(), tasks.size(), spawned));

    if (ownSpool && !options.keepSpool) {
        std::error_code rec;
        fs::remove_all(spool.root, rec); // best effort
    }
}

} // namespace

void
runDispatchCampaign(const ExperimentPlan &plan,
                    const DispatchOptions &options, ResultSink &sink)
{
    validatePlanJobs(plan);
    if (options.spoolDir.empty() && options.localRunners == 0)
        fatal("dispatch: a temp spool without local runners can "
              "never make progress; pass a spool directory or a "
              "runner count");
    if (options.maxRetries == 0)
        fatal("dispatch: at least one attempt per lineage needed");

    // Whole-run timelines cannot be stitched from slices, so a traced
    // campaign runs unexpanded (see BatchOptions::collectTimelines).
    const std::unique_ptr<ResultCache> checkpoints = openCheckpointDir(
        options.collectTimelines ? "" : options.checkpointDir);
    const std::size_t lanes =
        std::max<std::size_t>(options.localRunners, 1) *
        std::max<std::size_t>(options.jobsPerRunner, 1);
    runWithCheckpointSlices(
        plan, checkpoints.get(), static_cast<std::uint32_t>(lanes),
        options.progress, sink,
        [&options](const ExperimentPlan &p, ResultSink &s) {
            runCampaign(p, options, s);
        });
}

} // namespace tp::harness
