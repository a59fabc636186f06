#include "cpu/rob_core.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tp::cpu {

RobCore::RobCore(const CoreConfig &config, mem::Hierarchy &mem,
                 ThreadId id)
    : config_(config), mem_(mem), id_(id),
      rob_(config.robSize, 0), hist_(kHistSize, 0)
{
    tp_assert(config_.robSize > 0);
    tp_assert(config_.issueWidth > 0);
    tp_assert(config_.commitWidth > 0);
}

void
RobCore::beginTask(const trace::TaskType &type,
                   const trace::TaskInstance &inst, Cycles start)
{
    tp_assert(!stream_.has_value());
    stream_.emplace(type, inst);
    taskStart_ = start;
    lastEventCycle_ = start;
    lastCommit_ = start;
    dispatch_.reset(start, config_.issueWidth);
    commit_.reset(start, config_.commitWidth);
    robHead_ = 0;
    robCount_ = 0;
    std::fill(hist_.begin(), hist_.end(), start);
    instIndex_ = 0;
    stats_ = DetailedRunStats{};
}

Cycles
RobCore::commitHead()
{
    tp_assert(robCount_ > 0);
    const Cycles complete = rob_[robHead_];
    const Cycles at = commit_.reserve(std::max(complete, lastCommit_));
    lastCommit_ = at;
    // Conditional wrap instead of a modulo: the ROB size is not a
    // power of two, so `%` would be an integer division per commit.
    robHead_ = robHead_ + 1 == rob_.size() ? 0 : robHead_ + 1;
    --robCount_;
    return at;
}

bool
RobCore::step(InstCount quantum)
{
    tp_assert(stream_.has_value());
    trace::InstrStream &stream = *stream_;

    // The per-instruction loop below works on local copies of every
    // hot member: the memory hierarchy (and the block buffer) are
    // written through references the compiler cannot prove distinct
    // from `this`, so member state would otherwise be reloaded and
    // spilled around every cache access. Locals pin it in registers;
    // everything is written back after the loop (and before the
    // drain below). The arithmetic is unchanged — results are
    // bit-identical to the per-member formulation.
    const std::size_t rob_size = rob_.size();
    Cycles *const rob = rob_.data();
    Cycles *const hist = hist_.data();
    std::size_t rob_head = robHead_;
    std::size_t rob_count = robCount_;
    Cycles last_commit = lastCommit_;
    WidthLimiter dispatch = dispatch_;
    WidthLimiter commit = commit_;
    std::uint64_t inst_index = instIndex_;
    std::uint64_t loads = 0, stores = 0, l1_misses = 0;
    // dispatch_.reserve returns nondecreasing cycles, so the max
    // over the block is the last dispatch cycle (applied once at
    // write-back instead of per instruction).
    Cycles last_disp = lastEventCycle_;

    InstCount executed = 0;
    InstCount remaining = quantum;
    while (remaining > 0) {
        const InstCount want =
            std::min<InstCount>(kBlockSize, remaining);
        const InstCount got = stream.fillBlock(block_.data(), want);
        for (InstCount i = 0; i < got; ++i) {
            const trace::Instr &in = block_[i];

            // Free a ROB slot first if the window is full: dispatch
            // of this instruction cannot precede the head's commit.
            Cycles slot_free = 0;
            if (rob_count == rob_size) {
                const Cycles complete = rob[rob_head];
                slot_free = commit.reserve(
                    std::max(complete, last_commit));
                last_commit = slot_free;
                rob_head =
                    rob_head + 1 == rob_size ? 0 : rob_head + 1;
                --rob_count;
            }

            const Cycles disp =
                dispatch.reserve(std::max(slot_free, Cycles{0}));

            // Register-dependency ready time from the completion
            // history. Unconditional load + select: the index wraps
            // harmlessly when depDist exceeds inst_index, and the
            // select replaces a badly-predicted branch.
            const std::uint64_t dep = inst_index - in.depDist;
            const Cycles dep_ready = hist[dep % kHistSize];
            const bool use_dep =
                in.depDist != 0 && in.depDist <= inst_index;
            const Cycles ready =
                use_dep && dep_ready > disp ? dep_ready : disp;

            // Resolve execution latency. One branch separates the
            // memory classes from the rest (the class value is
            // random, so fewer tests mean fewer mispredicts);
            // selects do the load/store split.
            static_assert(
                static_cast<unsigned>(trace::InstrClass::Store) ==
                static_cast<unsigned>(trace::InstrClass::Load) + 1);
            Cycles complete;
            const unsigned mem_cls =
                static_cast<unsigned>(in.cls) -
                static_cast<unsigned>(trace::InstrClass::Load);
            if (mem_cls <= 1) {
                const bool is_store = mem_cls != 0;
                const mem::AccessResult r =
                    mem_.access(id_, in.addr, is_store, ready);
                // Stores retire through the store buffer: the cache
                // state and bandwidth are affected, but commit is
                // not delayed by the write latency.
                complete = is_store ? ready + 1
                                    : ready + in.execLat + r.latency;
                loads += is_store ? 0 : 1;
                stores += is_store ? 1 : 0;
                l1_misses +=
                    !is_store && r.level != mem::HitLevel::L1 ? 1
                                                              : 0;
            } else {
                complete = ready + in.execLat;
            }
            if (complete <= disp)
                complete = disp + 1;

            // Insert into ROB and history (conditional wrap: both
            // operands are < rob_size here, the commit above freed
            // a slot).
            std::size_t tail = rob_head + rob_count;
            if (tail >= rob_size)
                tail -= rob_size;
            rob[tail] = complete;
            ++rob_count;
            hist[inst_index % kHistSize] = complete;
            ++inst_index;

            last_disp = std::max(last_disp, disp);
        }
        executed += got;
        remaining -= got;
        if (got < want)
            break; // stream exhausted
    }

    robHead_ = rob_head;
    robCount_ = rob_count;
    lastCommit_ = last_commit;
    dispatch_ = dispatch;
    commit_ = commit;
    instIndex_ = inst_index;
    stats_.instructions += executed;
    stats_.loads += loads;
    stats_.stores += stores;
    stats_.l1Misses += l1_misses;
    lastEventCycle_ = last_disp;

    if (!stream.done())
        return false;

    // Task over: drain the pipeline so finishTime() is the commit
    // cycle of the last instruction.
    while (robCount_ > 0)
        commitHead();
    lastEventCycle_ = std::max(lastEventCycle_, lastCommit_);
    stats_.cycles = lastCommit_ > taskStart_
                        ? lastCommit_ - taskStart_
                        : Cycles{1};
    stream_.reset();
    return true;
}

void
RobCore::state(StateIo &io, const trace::TaskType *type,
               const trace::TaskInstance *inst)
{
    bool has_stream = stream_.has_value();
    io.flag(has_stream);
    if (io.loading()) {
        stream_.reset();
        if (has_stream) {
            if (type == nullptr || inst == nullptr)
                io.corrupt("core state (in-flight stream, no task)");
            stream_.emplace(*type, *inst);
        }
        dispatch_.width = config_.issueWidth;
        commit_.width = config_.commitWidth;
    }
    if (stream_.has_value())
        stream_->state(io);
    io.pod(taskStart_);
    io.pod(lastEventCycle_);
    io.pod(lastCommit_);
    io.pod(dispatch_.cycle);
    io.pod(dispatch_.used);
    io.pod(commit_.cycle);
    io.pod(commit_.used);
    io.block(rob_);
    io.pod<std::uint64_t>(robHead_);
    io.pod<std::uint64_t>(robCount_);
    if (io.loading() &&
        (robHead_ >= rob_.size() || robCount_ > rob_.size()))
        io.corrupt("ROB pointers");
    io.block(hist_);
    io.pod(instIndex_);
    io.pod(stats_.instructions);
    io.pod(stats_.cycles);
    io.pod(stats_.loads);
    io.pod(stats_.stores);
    io.pod(stats_.l1Misses);
}

Cycles
RobCore::finishTime() const
{
    tp_assert(!stream_.has_value());
    return lastCommit_;
}

} // namespace tp::cpu
