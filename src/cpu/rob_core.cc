#include "cpu/rob_core.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tp::cpu {

RobCore::RobCore(const CoreConfig &config, mem::Hierarchy &mem,
                 ThreadId id)
    : config_(config), mem_(mem), id_(id),
      rob_(config.robSize, 0)
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
    lastCommit_ = start;
    dispatch_.reset(start, config_.issueWidth);
    commit_.reset(start, config_.commitWidth);
    robHead_ = 0;
    robCount_ = 0;
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
    std::size_t rob_head = robHead_;
    std::size_t rob_count = robCount_;
    Cycles last_commit = lastCommit_;
    WidthLimiter dispatch = dispatch_;
    WidthLimiter commit = commit_;

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

            const Cycles disp = dispatch.reserve(slot_free);

            // Register-dependency ready time from the ROB ring, which
            // holds the last rob_count instructions in order. A
            // producer further back committed no later than the head
            // commit above, which dispatch cannot precede, so it
            // never delays this instruction. Unconditional load +
            // select (conditional wraps: every operand stays below
            // 2 * rob_size), as a branch here mispredicts badly.
            const bool use_dep =
                in.depDist != 0 && in.depDist <= rob_count;
            std::size_t dep =
                rob_head + rob_count - (use_dep ? in.depDist : 0);
            if (dep >= rob_size)
                dep -= rob_size;
            const Cycles dep_ready = rob[dep];
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
            } else {
                complete = ready + in.execLat;
            }
            if (complete <= disp)
                complete = disp + 1;

            // Insert at the tail (conditional wrap as above).
            std::size_t tail = rob_head + rob_count;
            if (tail >= rob_size)
                tail -= rob_size;
            rob[tail] = complete;
            ++rob_count;
        }
        remaining -= got;
        if (got < want)
            break; // stream exhausted
    }

    robHead_ = rob_head;
    robCount_ = rob_count;
    lastCommit_ = last_commit;
    dispatch_ = dispatch;
    commit_ = commit;

    if (!stream.done())
        return false;

    // Task over: drain the pipeline so finishTime() is the commit
    // cycle of the last instruction.
    while (robCount_ > 0)
        commitHead();
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
}

Cycles
RobCore::finishTime() const
{
    tp_assert(!stream_.has_value());
    return lastCommit_;
}

} // namespace tp::cpu
