/**
 * @file
 * System-noise model emulating native execution (paper Fig. 1).
 *
 * The paper motivates TaskPoint with IPC variation measured on a real
 * SandyBridge-EP machine. Bare detailed simulation is noise-free, so
 * to reproduce the *native* variation figure we perturb each task's
 * detailed duration with (a) multiplicative log-normal jitter (DVFS,
 * TLB/OS micro-events) and (b) rare additive preemption stalls
 * (scheduler ticks, daemons). Disabled by default; enabled only by the
 * Fig. 1 bench. DESIGN.md documents this substitution.
 */

#ifndef TP_SIM_NOISE_HH
#define TP_SIM_NOISE_HH

#include "common/rng.hh"
#include "common/types.hh"

namespace tp::sim {

/** Noise parameters. */
struct NoiseConfig
{
    bool enabled = false;
    /** Log-space sigma of the multiplicative jitter. */
    double sigma = 0.025;
    /** Per-task probability of a preemption stall. */
    double preemptProb = 0.004;
    /** Mean cycles of one preemption stall (exponential). */
    double preemptMeanCycles = 200000.0;
    std::uint64_t seed = 0x5eed;
};

/** Applies NoiseConfig to task durations. */
class NoiseModel
{
  public:
    explicit NoiseModel(const NoiseConfig &config);

    /**
     * Perturb one detailed task duration.
     * @return the adjusted duration (>= 1); identity when disabled
     */
    Cycles perturb(Cycles duration);

    /** @return true if the model changes durations. */
    bool enabled() const { return config_.enabled; }

    /** Checkpoint the RNG position (config is fixed). */
    void state(StateIo &io) { rng_.state(io); }

  private:
    NoiseConfig config_;
    Rng rng_;
};

} // namespace tp::sim

#endif // TP_SIM_NOISE_HH
