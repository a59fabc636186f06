/**
 * @file
 * Fixed-capacity FIFO of IPC samples (paper Section III-B).
 *
 * For each task type TaskPoint maintains two of these: the *history of
 * valid samples* (measured after proper warmup) and the *history of
 * all samples* (every detailed execution, warmed or not). A newly
 * added element replaces the oldest when the buffer is full.
 */

#ifndef TP_SAMPLING_IPC_HISTORY_HH
#define TP_SAMPLING_IPC_HISTORY_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/binary_io.hh"

namespace tp::sampling {

/** See file comment. */
class IpcHistory
{
  public:
    /** @param capacity the paper's history size H (> 0) */
    explicit IpcHistory(std::size_t capacity);

    /** Append a sample, evicting the oldest when full. */
    void add(double ipc);

    /** Drop all samples (resampling discards valid histories). */
    void clear();

    /** @return number of stored samples. */
    std::size_t size() const { return size_; }

    /** @return capacity H. */
    std::size_t capacity() const { return buf_.size(); }

    /** @return true when size() == capacity(). */
    bool full() const { return size_ == buf_.size(); }

    /** @return true when no samples are stored. */
    bool empty() const { return size_ == 0; }

    /** @return arithmetic mean of the stored samples (0 if empty). */
    double mean() const;

    /** Checkpoint contents + ring position (capacity is fixed). */
    void
    state(StateIo &io)
    {
        io.block(buf_);
        io.pod<std::uint64_t>(next_);
        io.pod<std::uint64_t>(size_);
        if (io.loading() && (next_ >= buf_.size() || size_ > buf_.size()))
            io.corrupt("IPC-history position");
    }

  private:
    std::vector<double> buf_;
    std::size_t next_ = 0; //!< slot receiving the next sample
    std::size_t size_ = 0;
};

} // namespace tp::sampling

#endif // TP_SAMPLING_IPC_HISTORY_HH
