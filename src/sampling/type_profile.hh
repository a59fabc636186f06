/**
 * @file
 * Per-task-type sampling state (paper Section III-B).
 */

#ifndef TP_SAMPLING_TYPE_PROFILE_HH
#define TP_SAMPLING_TYPE_PROFILE_HH

#include <cstdint>

#include "common/types.hh"
#include "sampling/ipc_history.hh"

namespace tp::sampling {

/**
 * Sampling state of one task type: the two IPC histories plus
 * whether the type has been seen.
 */
class TypeProfile
{
  public:
    /** @param history_size the paper's H parameter */
    explicit TypeProfile(std::size_t history_size);

    /** Record a valid (warmed) sample. */
    void addValidSample(double ipc);

    /** Record any detailed execution (warmup or unwarmed leftover). */
    void addAnySample(double ipc);

    /** Discard the valid history (on resampling). */
    void clearValid();

    /** @return history of valid samples. */
    const IpcHistory &valid() const { return valid_; }

    /** @return history of all samples. */
    const IpcHistory &all() const { return all_; }

    /**
     * Predict the fast-forward IPC for this type: mean of the valid
     * history; if empty, mean of the all-samples history; if that is
     * empty too, 0 (caller must trigger resampling).
     */
    double predictIpc() const;

    /** @return true if any instance of this type was ever observed. */
    bool seen() const { return seen_; }

    /** Mark the type as observed. */
    void markSeen() { seen_ = true; }

    /** Checkpoint histories + seen flag (history size is fixed). */
    void
    state(StateIo &io)
    {
        valid_.state(io);
        all_.state(io);
        io.flag(seen_);
    }

  private:
    IpcHistory valid_;
    IpcHistory all_;
    bool seen_ = false;
};

} // namespace tp::sampling

#endif // TP_SAMPLING_TYPE_PROFILE_HH
