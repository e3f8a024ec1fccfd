#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <optional>
#include <random>
#include <stdexcept>

#include "carbon/model.h"
#include "carbon/sku.h"
#include "cluster/allocator.h"
#include "cluster/trace_binary.h"
#include "cluster/trace_gen.h"
#include "cluster/trace_stats.h"
#include "common/diskcache.h"
#include "gsf/adoption.h"
#include "gsf/design_space.h"
#include "gsf/eval_cache.h"
#include "gsf/evaluator.h"
#include "gsf/pareto.h"
#include "gsf/search.h"
#include "gsf/sizing.h"
#include "obs/metrics.h"
#include "perf/app.h"
#include "perf/model.h"

namespace gsfbench {

namespace fs = std::filesystem;
using namespace gsku;

const std::vector<std::string> &
watchedCounters()
{
    static const std::vector<std::string> names = {
        "evalcache.hits",       "evalcache.misses",
        "evalcache.stale",      "evalcache.corrupt",
        "evalcache.stores",     "sizer.sizings",
        "sizer.replays",        "allocator.placements",
        "allocator.replays",    "allocator.green_fallbacks",
        "search.evals",         "search.moves",
        "search.accepted",      "trace.binary_records_read",
    };
    return names;
}

CounterDelta
readCounters()
{
    const obs::MetricsSnapshot snap = obs::metrics().snapshot();
    CounterDelta out;
    for (const std::string &name : watchedCounters()) {
        out[name] = static_cast<double>(snap.counter(name));
    }
    return out;
}

CounterDelta
deltaOf(const CounterDelta &before, const CounterDelta &after)
{
    CounterDelta out;
    for (const auto &[name, value] : after) {
        out[name] = value - before.at(name);
    }
    return out;
}

namespace {

/** Bit-pattern equality: the outputs are deterministic to the last
 *  bit, so the checks compare bits, not values within a tolerance. */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** The next double above @p v: the smallest possible wrong reference. */
double
nudged(double v)
{
    return std::nextafter(v, std::numeric_limits<double>::infinity());
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** 0..n-1 in an order drawn from @p seed (Fisher-Yates on mt19937_64,
 *  whose output sequence the standard fixes). */
std::vector<std::size_t>
permutation(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> order(n);
    for (std::size_t k = 0; k < n; ++k) {
        order[k] = k;
    }
    std::mt19937_64 rng(seed);
    for (std::size_t k = n; k > 1; --k) {
        std::swap(order[k - 1], order[rng() % k]);
    }
    return order;
}

bool
sameRow(const carbon::SavingsRow &a, const carbon::SavingsRow &b)
{
    return a.sku_name == b.sku_name &&
           sameBits(a.per_core.operational.asKg(),
                    b.per_core.operational.asKg()) &&
           sameBits(a.per_core.embodied.asKg(),
                    b.per_core.embodied.asKg()) &&
           sameBits(a.operational_savings, b.operational_savings) &&
           sameBits(a.embodied_savings, b.embodied_savings) &&
           sameBits(a.total_savings, b.total_savings);
}

bool
sameGroup(const cluster::GroupMetrics &a, const cluster::GroupMetrics &b)
{
    return a.servers == b.servers && a.vms_placed == b.vms_placed &&
           sameBits(a.mean_core_packing, b.mean_core_packing) &&
           sameBits(a.mean_mem_packing, b.mean_mem_packing) &&
           sameBits(a.mean_max_mem_utilization, b.mean_max_mem_utilization);
}

bool
sameReplay(const cluster::MultiReplayResult &a,
           const cluster::MultiReplayResult &b)
{
    if (a.success != b.success || a.placed != b.placed ||
        a.rejected != b.rejected || a.green_placed != b.green_placed ||
        a.green_fallbacks != b.green_fallbacks ||
        !sameGroup(a.baseline, b.baseline) ||
        a.greens.size() != b.greens.size()) {
        return false;
    }
    for (std::size_t g = 0; g < a.greens.size(); ++g) {
        if (!sameGroup(a.greens[g], b.greens[g])) {
            return false;
        }
    }
    return true;
}

// ---------------------------------------------------------------------
// evaluate: GsfEvaluator::evaluateCluster over a trace family x CI grid
// ---------------------------------------------------------------------

class EvaluateWorkload final : public Workload
{
  public:
    explicit EvaluateWorkload(const WorkloadConfig &config)
        : config_(config),
          trace_order_(permutation(kTraces, config.seed)),
          ci_order_(permutation(kGrid.size(), ~config.seed))
    {
        // bench_sweep's scaled-down Fig. 11 family.
        params_.target_concurrent_vms = 300.0;
        params_.duration_h = 24.0 * 7.0;
    }

    void setup() override
    {
        family_ = cluster::TraceGenerator(params_).generateFamily(
            kTraces, kFamilySeed);
        reference_ = evaluator_.sweep(family_, baseline_, green_, kGrid)
                         .mean_savings;
        if (config_.perturb_reference) {
            reference_[1] = nudged(reference_[1]);
        }
    }

    std::size_t rotation() const override
    {
        return kTraces * kGrid.size();
    }

    std::size_t group() const override { return kTraces; }

    OpResult op(std::size_t i) override
    {
        const std::size_t t = traceOf(i);
        const std::size_t c = ciOf(i);
        savings_[t] =
            evaluator_
                .evaluateCluster(family_[t], baseline_, green_,
                                 CarbonIntensity::kgPerKwh(kGrid[c]))
                .savings;
        OpResult r;
        r.items = 1.0;
        if ((i + 1) % kTraces == 0) {
            // The sweep's per-CI mean, summed in trace order.
            double sum = 0.0;
            for (double s : savings_) {
                sum += s;
            }
            const double mean = sum / static_cast<double>(kTraces);
            if (!sameBits(mean, reference_[c])) {
                r.failed = static_cast<int>(kTraces);
            }
        }
        return r;
    }

    int layers(std::size_t i, double op_ms, const CounterDelta &,
               SpanLog &log, int parent, LayerSample &out) override
    {
        const long id = static_cast<long>(i);
        const cluster::VmTrace &trace = family_[traceOf(i)];
        const CarbonIntensity ci = CarbonIntensity::kgPerKwh(kGrid[ciOf(i)]);

        cluster::AdoptionTable table;
        const double adoption_ms =
            log.time("gsf.adoption.buildTable", parent, id, [&] {
                table = evaluator_.adoptionModel().buildTable(
                    baseline_, green_, ci);
            });
        gsf::SizingResult sizing;
        const double sizing_ms =
            log.time("gsf.sizing.size", parent, id, [&] {
                sizing = sizer_.size(trace, baseline_, green_, table);
            });
        const cluster::ClusterSpec spec{baseline_, green_,
                                        sizing.mixed_baselines,
                                        sizing.mixed_greens};
        const double replay_ms =
            log.time("cluster.allocator.replay", parent, id, [&] {
                allocator_.replay(trace, spec, table);
            });
        out["evaluate.adoption_ms"] = adoption_ms;
        out["evaluate.sizing_ms"] = sizing_ms;
        out["evaluate.residual_ms"] = op_ms - sizing_ms - adoption_ms;
        out["allocator.bounded_replay_us"] = replay_ms * 1e3;
        out["covered_ms"] = sizing_ms + adoption_ms;

        if (i % rotation() == 0) {
            // Once per rotation: the family generator setup runs.
            std::size_t vms = 0;
            const double gen_ms =
                log.time("cluster.trace_gen.generateFamily", parent, id,
                         [&] {
                             for (const cluster::VmTrace &t :
                                  cluster::TraceGenerator(params_)
                                      .generateFamily(kTraces,
                                                      kFamilySeed)) {
                                 vms += t.vms.size();
                             }
                         });
            out["trace_gen.ns_per_vm"] =
                gen_ms * 1e6 / static_cast<double>(vms);
        }
        return 0;
    }

    std::vector<std::string> mustStayZero() const override
    {
        return {"evalcache.hits", "evalcache.misses", "evalcache.stale",
                "evalcache.corrupt", "evalcache.stores", "search.evals",
                "trace.binary_records_read"};
    }

    std::vector<std::string> mustMove() const override
    {
        return {"sizer.sizings", "sizer.replays", "allocator.placements"};
    }

  private:
    static constexpr std::size_t kTraces = 8;
    inline static const std::vector<double> kGrid = {0.05, 0.1, 0.15,
                                                     0.2,  0.3, 0.4};

    /** bench_sweep's family. Every seed evaluates the same 48 (trace,
     *  CI) pairs: families drawn per seed differ in op cost by up to
     *  the generator's +/-35% per-trace load jitter, more than any
     *  bound could absorb. The seed permutes the order ops are issued
     *  in: CIs group by group, traces within a group (each group is
     *  one CI's 8 traces, checked together). */
    static constexpr std::uint64_t kFamilySeed = 7;

    std::size_t traceOf(std::size_t i) const
    {
        return trace_order_[i % kTraces];
    }

    std::size_t ciOf(std::size_t i) const
    {
        return ci_order_[(i / kTraces) % kGrid.size()];
    }

    WorkloadConfig config_;
    std::vector<std::size_t> trace_order_;
    std::vector<std::size_t> ci_order_;
    cluster::TraceGenParams params_;
    const carbon::ServerSku baseline_ = carbon::StandardSkus::baseline();
    const carbon::ServerSku green_ = carbon::StandardSkus::greenFull();
    const gsf::GsfEvaluator evaluator_{gsf::GsfEvaluator::Options{}};
    const gsf::ClusterSizer sizer_{cluster::ReplayOptions{}};
    const cluster::VmAllocator allocator_{cluster::ReplayOptions{}};
    std::vector<cluster::VmTrace> family_;
    std::vector<double> reference_;
    std::vector<double> savings_ = std::vector<double>(kTraces, 0.0);
};

// ---------------------------------------------------------------------
// fleet: streaming replay of pre-written gsku-trace-v1 files
// ---------------------------------------------------------------------

class FleetWorkload final : public Workload
{
  public:
    explicit FleetWorkload(const WorkloadConfig &config)
        : config_(config), allocator_(replayOptions()),
          order_(permutation(kFiles, config.seed))
    {
        // bench_fleet's one-year generator, sized by Little's law for
        // about kEvents events (arrival + departure) per file.
        params_.duration_h = 24.0 * 365.0;
        params_.mean_lifetime_h = 48.0;
        params_.load_jitter = 0.0;
        params_.target_concurrent_vms = (kEvents / 2.0) *
                                        params_.mean_lifetime_h /
                                        params_.duration_h;
    }

    void setup() override
    {
        const cluster::TraceGenerator generator(params_);
        files_.clear();
        for (std::size_t f = 0; f < kFiles; ++f) {
            File file;
            file.seed = kFirstFileSeed + f;
            file.path = config_.work_dir + "/fleet-" + std::to_string(f) +
                        ".gskutrc";
            file.events =
                2.0 * static_cast<double>(
                          generator.generateToBinary(file.seed, file.path));
            cluster::TraceStats stats;
            {
                cluster::BinaryTraceReader reader(file.path);
                stats = cluster::summarizeTrace(reader);
            }
            file.spec = clusterFor(stats);
            // Reference: the materializing path, not the streaming one
            // the ops take.
            file.reference = allocator_.replay(
                cluster::readTraceBinary(file.path), file.spec);
            files_.push_back(file);
        }
        if (config_.perturb_reference) {
            files_[0].reference.placed += 1;
        }
    }

    std::size_t rotation() const override { return kFiles; }

    OpResult op(std::size_t i) override
    {
        const File &file = files_[order_[i % kFiles]];
        cluster::BinaryTraceReader reader(file.path);
        const cluster::MultiReplayResult result =
            allocator_.replay(reader, file.spec);
        OpResult r;
        r.items = file.events;
        r.failed = sameReplay(result, file.reference) ? 0 : 1;
        return r;
    }

    int layers(std::size_t i, double op_ms, const CounterDelta &,
               SpanLog &log, int parent, LayerSample &out) override
    {
        const long id = static_cast<long>(i);
        const File &file = files_[order_[i % kFiles]];

        cluster::VmRequest vm;
        const double decode_ms =
            log.time("cluster.trace_binary.decode", parent, id, [&] {
                cluster::BinaryTraceReader reader(file.path);
                while (reader.next(&vm)) {
                }
            });
        // Placement alone: the same streaming replay fed from memory.
        const cluster::VmTrace trace = cluster::readTraceBinary(file.path);
        const double place_ms =
            log.time("cluster.allocator.replay_stream", parent, id, [&] {
                cluster::VectorTraceReader reader(trace);
                allocator_.replay(reader, file.spec);
            });
        out["trace_binary.decode_ns_per_event"] =
            decode_ms * 1e6 / file.events;
        out["allocator.stream_ns_per_event"] =
            (op_ms - decode_ms) * 1e6 / file.events;
        out["covered_ms"] = decode_ms + place_ms;

        if (i % rotation() == 0) {
            const std::string path = config_.work_dir + "/trace_gen.gskutrc";
            std::uint64_t vms = 0;
            const double gen_ms =
                log.time("cluster.trace_gen.generateToBinary", parent, id,
                         [&] {
                             vms = cluster::TraceGenerator(params_)
                                       .generateToBinary(file.seed, path);
                         });
            out["trace_gen.ns_per_vm"] =
                gen_ms * 1e6 / static_cast<double>(vms);
        }
        return 0;
    }

    std::vector<std::string> mustStayZero() const override
    {
        return {"evalcache.hits",   "evalcache.misses",
                "evalcache.stale",  "evalcache.corrupt",
                "evalcache.stores", "sizer.sizings",
                "sizer.replays",    "search.evals"};
    }

    std::vector<std::string> mustMove() const override
    {
        return {"allocator.placements", "trace.binary_records_read"};
    }

  private:
    static constexpr double kEvents = 200'000.0;
    static constexpr std::size_t kFiles = 4;

    /** bench_fleet's seed and the next three. As on `evaluate`, every
     *  seed replays the same files (per-seed files differ in peak
     *  size, so in memory and op cost); the seed permutes their
     *  order. */
    static constexpr std::uint64_t kFirstFileSeed = 42;

    struct File
    {
        std::uint64_t seed = 0;
        std::string path;
        double events = 0.0;
        cluster::MultiClusterSpec spec;
        cluster::MultiReplayResult reference;
    };

    /** bench_fleet's replay: every VM is offered, none aborts it. */
    static cluster::ReplayOptions replayOptions()
    {
        cluster::ReplayOptions options;
        options.stop_on_reject = false;
        return options;
    }

    /** bench_fleet's cluster: a 15%-headroom baseline group plus a
     *  GreenSKU group that Gen1/Gen2 VMs adopt at 1.05 inflation. */
    static cluster::MultiClusterSpec
    clusterFor(const cluster::TraceStats &stats)
    {
        const carbon::ServerSku baseline = carbon::StandardSkus::baseline();
        const carbon::ServerSku green = carbon::StandardSkus::greenFull();
        cluster::AdoptionTable adoption = cluster::AdoptionTable::none();
        for (std::size_t app = 0; app < perf::AppCatalog::all().size();
             ++app) {
            adoption.set(app, carbon::Generation::Gen1,
                         cluster::AdoptionDecision{true, 1.05});
            adoption.set(app, carbon::Generation::Gen2,
                         cluster::AdoptionDecision{true, 1.05});
        }
        cluster::MultiClusterSpec spec;
        spec.baseline_sku = baseline;
        spec.baselines = static_cast<int>(
            std::ceil(1.15 * stats.peak_concurrent_cores /
                      static_cast<double>(baseline.cores)));
        cluster::GreenGroupSpec group;
        group.sku = green;
        group.count = static_cast<int>(
            std::ceil(0.30 * stats.peak_concurrent_cores /
                      static_cast<double>(green.cores)));
        group.adoption = adoption;
        spec.greens.push_back(group);
        return spec;
    }

    WorkloadConfig config_;
    cluster::TraceGenParams params_;
    const cluster::VmAllocator allocator_;
    std::vector<std::size_t> order_;
    std::vector<File> files_;
};

// ---------------------------------------------------------------------
// search: SkuSearch::anneal with the seed rotating, eval cache off
// ---------------------------------------------------------------------

class SearchWorkload final : public Workload
{
  public:
    explicit SearchWorkload(const WorkloadConfig &config)
        : config_(config), order_(permutation(kSeeds, config.seed))
    {
    }

    void setup() override
    {
        // Reference rows: the exhaustive explorer, cache off.
        const std::vector<gsf::RankedDesign> ranked =
            explorer_.explore(baseline_, gsf::SearchOptions{}.range);
        rows_.clear();
        for (const gsf::RankedDesign &d : ranked) {
            rows_.emplace(d.sku.name, d.savings);
        }
        // Reference archives: one anneal per seed, cache off. An op's
        // anneal must render the same bytes, whatever ran before it in
        // the process.
        renders_.clear();
        for (std::size_t k = 0; k < kSeeds; ++k) {
            renders_.push_back(anneal(k + 1).archive.render());
        }
        if (config_.perturb_reference) {
            // Rank 1: the design the anneals are expected to find.
            carbon::SavingsRow &top = rows_.at(ranked.front().sku.name);
            top.total_savings = nudged(top.total_savings);
        }
    }

    std::size_t rotation() const override { return kSeeds; }

    OpResult op(std::size_t i) override
    {
        const gsf::SearchResult result = anneal(annealSeed(i));
        OpResult r;
        r.items = 1.0;
        const bool same = check(result) && result.archive.render() ==
                                               renders_[order_[i % kSeeds]];
        r.failed = same ? 0 : 1;
        return r;
    }

    int layers(std::size_t i, double op_ms, const CounterDelta &op_counts,
               SpanLog &log, int parent, LayerSample &out) override
    {
        const long id = static_cast<long>(i);
        if (lattice_.empty()) {
            buildLattice();
            warmCache(log, parent, id, out);
        }
        const double evals = op_counts.at("search.evals");

        // Cold candidate evaluations on a slice of the feasible lattice.
        const double eval_ms = median(sliceTimes(
            lattice_, i, [&](const carbon::ServerSku &sku) {
                return log.time("gsf.search.evaluate", parent, id,
                                [&] { search_.evaluate(baseline_, sku); });
            }));
        out["search.eval_us"] = eval_ms * 1e3;
        out["search.residual_ms"] = op_ms - evals * eval_ms;
        out["covered_ms"] = evals * eval_ms;

        // The same anneal on the warmed cache: every lookup must hit,
        // and the archive must render byte-identical to the cold run.
        gsf::configureEvalCache(cache_dir_);
        const CounterDelta before = readCounters();
        gsf::SearchResult warm;
        out["search.warm_anneal_ms"] =
            log.time("gsf.search.anneal_warm", parent, id,
                     [&] { warm = anneal(annealSeed(i)); });
        const CounterDelta c = deltaOf(before, readCounters());
        const double lookups = c.at("evalcache.hits") +
                               c.at("evalcache.misses") +
                               c.at("evalcache.stale") +
                               c.at("evalcache.corrupt");
        out["evalcache.hit_ratio"] =
            lookups > 0.0 ? c.at("evalcache.hits") / lookups : 0.0;
        const bool warm_ok = lookups > 0.0 &&
                             c.at("evalcache.hits") == lookups &&
                             c.at("evalcache.stores") == 0.0 &&
                             warm.archive.render() ==
                                 warm_renders_[order_[i % kSeeds]];
        out["evalcache.hit_us"] =
            median(sliceTimes(cached_, i, [&](const carbon::ServerSku &sku) {
                return log.time("gsf.eval_cache.hit", parent, id,
                                [&] { search_.evaluate(baseline_, sku); });
            })) *
            1e3;
        gsf::configureEvalCache("");

        // DiskCache reads and writes on a copy of the warmed directory;
        // each put rewrites a record with its own payload, so the copy
        // keeps its record count.
        std::vector<double> get_ms;
        std::vector<double> put_ms;
        for (std::size_t k = 0; k < kSlice; ++k) {
            const std::string &key =
                cached_keys_[(i * kSlice + k) % cached_keys_.size()];
            CacheGetResult got;
            get_ms.push_back(log.time("common.diskcache.get", parent, id,
                                      [&] { got = copy_->get(key); }));
            put_ms.push_back(log.time("common.diskcache.put", parent, id,
                                      [&] { copy_->put(key, got.payload); }));
        }
        out["diskcache.get_us"] = median(get_ms) * 1e3;
        out["diskcache.put_us"] = median(put_ms) * 1e3;
        out["diskcache.records"] = static_cast<double>(copy_->size());
        return warm_ok ? 0 : 1;
    }

    std::vector<std::string> mustStayZero() const override
    {
        return {"sizer.sizings",        "sizer.replays",
                "allocator.placements", "allocator.replays",
                "trace.binary_records_read",
                "evalcache.hits",       "evalcache.misses",
                "evalcache.stale",      "evalcache.corrupt",
                "evalcache.stores"};
    }

    std::vector<std::string> mustMove() const override
    {
        return {"search.evals", "search.moves"};
    }

  private:
    /** Anneal seeds 1..8 at every run seed, in an order the run seed
     *  permutes. The traced run warms the eval cache with the same
     *  eight anneals, so its record count (which per-lookup cost grows
     *  with) is the same for every run seed. */
    static constexpr std::size_t kSeeds = 8;
    static constexpr std::size_t kSlice = 8;   ///< Layer calls per op.

    std::uint64_t annealSeed(std::size_t i) const
    {
        return order_[i % kSeeds] + 1;
    }

    gsf::SearchResult anneal(std::uint64_t seed) const
    {
        gsf::SearchOptions options;
        options.seed = seed;
        return search_.anneal(baseline_, options);
    }

    bool check(const gsf::SearchResult &result) const
    {
        const auto row = rows_.find(result.best.sku.name);
        if (!result.found || row == rows_.end() ||
            !sameRow(result.best.savings, row->second)) {
            return false;
        }
        const std::vector<gsf::ParetoPoint> points =
            result.archive.points();
        for (const gsf::ParetoPoint &a : points) {
            for (const gsf::ParetoPoint &b : points) {
                if (gsf::ParetoArchive::dominates(a.objectives,
                                                  b.objectives)) {
                    return false;
                }
            }
        }
        return true;
    }

    /** Times @p call on kSlice candidates of @p skus, a different slice
     *  for each op. */
    template <typename F>
    static std::vector<double>
    sliceTimes(const std::vector<carbon::ServerSku> &skus, std::size_t i,
               F &&call)
    {
        std::vector<double> ms;
        for (std::size_t k = 0; k < kSlice; ++k) {
            ms.push_back(call(skus[(i * kSlice + k) % skus.size()]));
        }
        return ms;
    }

    /** The feasible lattice of the default range. */
    void buildLattice()
    {
        const gsf::DesignRange range = gsf::SearchOptions{}.range;
        for (int ddr5 : range.ddr5_dimms) {
            for (int cxl : range.cxl_ddr4_dimms) {
                for (int ssd : range.new_ssds) {
                    for (int reused : range.reused_ssds) {
                        if (auto sku = explorer_.buildCandidate(
                                ddr5, cxl, ssd, reused)) {
                            lattice_.push_back(*sku);
                        }
                    }
                }
            }
        }
    }

    /**
     * Warms an eval cache with the eight anneals (the stores), keeping
     * their cold renders as the warm anneals' references, then copies
     * it for the DiskCache calls and finds the candidates it holds by
     * probing the copy, never the live cache.
     */
    void warmCache(SpanLog &log, int parent, long id, LayerSample &out)
    {
        cache_dir_ = config_.work_dir + "/evalcache";
        gsf::configureEvalCache(cache_dir_);
        out["evalcache.warm_s"] =
            log.time("gsf.eval_cache.warm", parent, id, [&] {
                for (std::size_t k = 0; k < kSeeds; ++k) {
                    warm_renders_.push_back(
                        anneal(k + 1).archive.render());
                }
            }) /
            1e3;
        gsf::configureEvalCache("");
        if (config_.perturb_layer_reference) {
            warm_renders_[0] += "perturbed\n";
        }

        const std::string copy_dir = config_.work_dir + "/evalcache-copy";
        fs::copy(cache_dir_, copy_dir, fs::copy_options::recursive);
        copy_ = std::make_unique<DiskCache>(copy_dir, gsf::kEvalCacheSchema,
                                            0);
        for (const carbon::ServerSku &sku : lattice_) {
            const std::string key = gsf::searchEvalCacheKey(
                baseline_, sku, carbon::ModelParams{}, gsf::TcoParams{},
                perf::PerfConfig{});
            if (copy_->get(key).hit()) {
                cached_.push_back(sku);
                cached_keys_.push_back(key);
            }
        }
        if (cached_.empty()) {
            throw std::runtime_error("warmed cache holds no candidate");
        }
    }

    WorkloadConfig config_;
    std::vector<std::size_t> order_;
    const carbon::ServerSku baseline_ = carbon::StandardSkus::baseline();
    const gsf::SkuSearch search_;
    const gsf::DesignSpaceExplorer explorer_{search_.carbonModel(),
                                             search_.constraints()};
    std::map<std::string, carbon::SavingsRow> rows_;
    std::vector<std::string> renders_;  ///< Setup's renders, by seed.

    // Traced run only: the lattice, the warmed cache and its copy.
    std::vector<carbon::ServerSku> lattice_;
    std::string cache_dir_;
    std::vector<std::string> warm_renders_;  ///< The warming anneals'
                                             ///< renders, by seed.
    std::vector<carbon::ServerSku> cached_;
    std::vector<std::string> cached_keys_;
    std::unique_ptr<DiskCache> copy_;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const WorkloadConfig &config)
{
    if (name == "evaluate") {
        return std::make_unique<EvaluateWorkload>(config);
    }
    if (name == "fleet") {
        return std::make_unique<FleetWorkload>(config);
    }
    if (name == "search") {
        return std::make_unique<SearchWorkload>(config);
    }
    return nullptr;
}

} // namespace gsfbench
