/**
 * @file
 * The benchmark's workloads. Each one owns its deterministic
 * inputs (made from the workload seed at setup), one kind of op, the
 * reference results that op is checked against, and the layer calls the
 * traced run issues on each op's inputs. Workloads reach the library
 * only through its public headers.
 */
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"

namespace gsfbench {

/** The obs::metrics() counters the benchmark reads, by name. */
const std::vector<std::string> &watchedCounters();

/** Per-counter deltas over some interval (an op, a loop). */
using CounterDelta = std::map<std::string, double>;

/** Current value of every watched counter. */
CounterDelta readCounters();

/** after - before, counter by counter. */
CounterDelta deltaOf(const CounterDelta &before, const CounterDelta &after);

struct WorkloadConfig
{
    std::uint64_t seed = 1;
    std::string work_dir;           ///< Scratch files live here.
    bool perturb_reference = false; ///< Self-check: corrupt an op's
                                    ///< reference.
    bool perturb_layer_reference = false;   ///< Self-check: corrupt a
                                            ///< layer check's reference.
};

struct OpResult
{
    double items = 0.0;     ///< Items the op completed.
    int failed = 0;         ///< Ops newly found wrong by this op's check.
};

/** Per-layer values of one traced op, keyed by metric name. */
using LayerSample = std::map<std::string, double>;

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Deterministic setup from the seed. Called several times per
     *  run, also between ops (the driver reports the median); the last
     *  call's products serve the ops that follow it. */
    virtual void setup() = 0;

    /** Ops in one full rotation over the workload's inputs. */
    virtual std::size_t rotation() const = 0;

    /** Ops whose outputs are checked together; a timed loop always
     *  ends on a multiple of this. */
    virtual std::size_t group() const { return 1; }

    /** Runs and checks op @p i (inputs are picked by i mod rotation). */
    virtual OpResult op(std::size_t i) = 0;

    /**
     * Traced run only: issues the layer calls of op @p i on that op's
     * inputs inside spans under @p parent. @p op_ms and @p op_counts are
     * the op's own wall time and counter deltas. Fills @p out with
     * per-layer values and "covered_ms", the part of the op the layer
     * spans account for. Returns 1 if a check on a layer call's output
     * failed, else 0.
     */
    virtual int layers(std::size_t i, double op_ms,
                       const CounterDelta &op_counts, SpanLog &log,
                       int parent, LayerSample &out) = 0;

    /** Counters this workload's ops must leave at zero (bypassed
     *  layers) and must move (exercised layers). */
    virtual std::vector<std::string> mustStayZero() const = 0;
    virtual std::vector<std::string> mustMove() const = 0;
};

/** nullptr for an unknown workload name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const WorkloadConfig &config);

} // namespace gsfbench
