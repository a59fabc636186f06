/**
 * @file
 * Warm-state checkpoints at sample boundaries (live-points).
 *
 * A TaskPoint run alternates detailed sampling with fast-forwarding;
 * every Sampling->Fast transition is a *sample boundary*: the IPC
 * histories are freshly full and the microarchitectural state is as
 * warm as the methodology ever makes it. A checkpoint captures the
 * complete dynamic simulation state at such a boundary — packed cache
 * tag/LRU arrays and the sharers directory, ROB cores with their
 * in-flight instruction streams, runtime scheduler queues and the
 * dependency tracker, the sampling controller (histories, estimator,
 * phase machinery) and every RNG stream position — so a later run can
 * restore it and continue *bit-identically* to the run that recorded
 * it, instead of replaying the prefix.
 *
 * That turns one serial job into independently replayable interval
 * slices (see harness/plan_shard.hh): slice i restores checkpoint i
 * and stops at boundary i+1; concatenating the slices' task records
 * reproduces the serial run byte for byte. Checkpoints are purely an
 * accelerator — a missing or damaged checkpoint file degrades to
 * replaying the slice from the start, never to a different answer.
 *
 * On-disk format (envelope around the opaque state payload):
 *
 *   u64  kCheckpointMagic
 *   u32  kCheckpointFormatVersion
 *   u64  boundary index
 *   u64  payload length
 *   ...  payload (controller state, then engine state)
 *   u64  FNV-1a checksum of everything above
 *
 * Truncation, bit flips and version skew all surface as the
 * recoverable IoError (common/binary_io.hh), which callers treat as
 * checkpoint-absent.
 */

#ifndef TP_SIM_CHECKPOINT_HH
#define TP_SIM_CHECKPOINT_HH

#include <cstdint>
#include <functional>
#include <string>

namespace tp::sim {

/** Envelope magic: "TPCKPT1" + format byte. */
constexpr std::uint64_t kCheckpointMagic = 0x5450434b50543101ULL;
/**
 * Payload layout version. Each component declares its layout once,
 * in `state(StateIo &)` (common/binary_io.hh); bump this whenever
 * any of them changes shape. CheckpointFormat.PayloadDigestsArePinned
 * (tests/test_checkpoint.cc) pins the payload bytes and must be
 * re-pinned together with the bump.
 *
 * v2: cache junk lines are anonymous (one sentinel tag word, one LRU
 * tick per aging call) and the per-cache junk-tag counter is gone.
 * A v1 store is version skew: its slices cold-replay once.
 */
constexpr std::uint32_t kCheckpointFormatVersion = 2;

/** One recorded sample boundary. */
struct Checkpoint
{
    /**
     * 1-based index of the sample boundary this state was captured
     * at (the i-th Sampling->Fast transition observed by the engine
     * run loop).
     */
    std::uint64_t boundary = 0;
    /**
     * Opaque serialized state: controller first, then engine. Only
     * Engine::run() produces or consumes it.
     */
    std::string state;
};

/**
 * @return `cp` framed in the checkpoint envelope (see file comment).
 */
std::string serializeCheckpoint(const Checkpoint &cp);

/**
 * Parse a checkpoint envelope.
 * @param blob serialized bytes as produced by serializeCheckpoint()
 * @param name label for error messages (usually the cache key/path)
 * @throws IoError on bad magic, version skew, truncation or a
 *         checksum mismatch
 */
Checkpoint deserializeCheckpoint(const std::string &blob,
                                 const std::string &name);

/**
 * Optional checkpoint behaviour of one Engine::run() call.
 *
 * All fields are independent: a recording run sets `record`; a slice
 * run sets `restore` (or starts from scratch when the checkpoint was
 * missing) and a `stopBoundary`; the final slice leaves stopBoundary
 * at 0 and runs to completion.
 */
struct CheckpointHooks
{
    /** Called with the captured state at every sample boundary. */
    std::function<void(Checkpoint &&)> record;
    /** State to restore before the first event; nullptr = cold. */
    const Checkpoint *restore = nullptr;
    /**
     * Stop (before processing any further event) once this sample
     * boundary is reached; 0 = run to the end of the application.
     */
    std::uint64_t stopBoundary = 0;
};

} // namespace tp::sim

#endif // TP_SIM_CHECKPOINT_HH
