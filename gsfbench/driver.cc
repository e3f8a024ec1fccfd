/**
 * @file
 * gsfbench: the repository benchmark driver. Runs one workload per
 * process as a closed loop with a single caller (the next op is issued
 * when the previous one returns: GSF is a batch tool with one waiting
 * user), on a worker pool pinned to one thread.
 *
 *   gsfbench --workload <evaluate|fleet|search>
 *            --seed <n> --seconds <s> --trace <0|1>
 *            --work-dir <dir> [--spans <path>] [--perturb-reference]
 *            [--perturb-layer-reference]
 *
 * --trace 0 measures the end-to-end metrics for --seconds of ops, with
 * setup rounds spread over that window. --trace 1 sets up once, then
 * spends the first half untraced and the second half traced: each op
 * is followed by the layer calls of its inputs inside spans, which are
 * written to --spans at exit. The last stdout line is one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: value}}.
 * gsfbench/run.py builds this driver and attaches units.
 */
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "gsf/eval_cache.h"
#include "spans.h"
#include "workloads.h"

extern char **environ;

namespace gsfbench {
namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string work_dir;
    std::string spans_path;
    bool perturb = false;
    bool perturb_layer = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "gsfbench: " << why
              << "\nusage: gsfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --work-dir <dir> "
                 "[--spans <path>] [--perturb-reference] "
                 "[--perturb-layer-reference]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage("missing value for " + arg);
            }
            return argv[++i];
        };
        try {
            if (arg == "--workload") {
                a.workload = value();
            } else if (arg == "--seed") {
                a.seed = std::stoull(value());
            } else if (arg == "--seconds") {
                a.seconds = std::stod(value());
            } else if (arg == "--trace") {
                a.trace = std::stoi(value()) != 0;
            } else if (arg == "--work-dir") {
                a.work_dir = value();
            } else if (arg == "--spans") {
                a.spans_path = value();
            } else if (arg == "--perturb-reference") {
                a.perturb = true;
            } else if (arg == "--perturb-layer-reference") {
                a.perturb_layer = true;
            } else {
                usage("unknown option '" + arg + "'");
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + arg);
        }
    }
    if (a.workload.empty() || a.work_dir.empty() || a.seconds <= 0.0) {
        usage("--workload, --work-dir and a positive --seconds are "
              "required");
    }
    return a;
}

/** Unsets every GSKU_* variable before the library reads any of them
 *  (GSKU_EVAL_CACHE would turn `evaluate` into cache hits,
 *  GSKU_THREADS would resize the pool, the obs variables would add
 *  recording work). Returns the names cleared. */
std::vector<std::string>
clearGskuEnvironment()
{
    std::vector<std::string> names;
    for (char **env = environ; *env != nullptr; ++env) {
        const std::string entry = *env;
        if (entry.rfind("GSKU_", 0) == 0) {
            names.push_back(entry.substr(0, entry.find('=')));
        }
    }
    for (const std::string &name : names) {
        unsetenv(name.c_str());
    }
    return names;
}

/** A fixed CPU loop, timed: recorded at the start and end of every run
 *  so host drift shows beside the figures (never divided into them). */
double
hostProbeMs()
{
    const Clock::time_point start = Clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 20'000'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    const double ms = msBetween(start, Clock::now());
    volatile std::uint64_t sink = x;
    (void)sink;
    return ms;
}

double
cpuSeconds()
{
    rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/** Peak RSS since the last resetPeakRss(), from VmHWM. getrusage's
 *  ru_maxrss is not used: across exec it keeps the parent's peak when
 *  that is larger, so a small driver launched from Python would report
 *  Python's RSS, and it cannot be reset. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;
        }
    }
    throw std::runtime_error("VmHWM missing from /proc/self/status");
}

/** Resets VmHWM to the current RSS, so the next peakRssMb() covers only
 *  what runs after this call, not a setup's reference replay. The heap
 *  that setup freed is first handed back to the system: glibc keeps it
 *  otherwise, and the reset would start from it (15-21 MB on fleet,
 *  against 4.5 MB trimmed). */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.flush();
    if (!clear) {
        throw std::runtime_error("cannot reset VmHWM via "
                                 "/proc/self/clear_refs");
    }
}

/** Percentile by the nearest-rank rule on a sorted copy. */
double
percentile(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double
median(const std::vector<double> &v)
{
    std::vector<double> s = v;
    std::sort(s.begin(), s.end());
    const std::size_t n = s.size();
    return n % 2 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

/** One timed closed loop's raw results. Wall time, CPU time, counters
 *  and peak RSS cover the ops only, never the setup rounds between
 *  them. */
struct Loop
{
    std::vector<double> op_ms;
    double items = 0.0;
    long failed = 0;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double peak_rss_mb = 0.0;
    CounterDelta counts;
    std::vector<double> setup_s;    ///< Every timed setup.
};

/** A percentile is reported only with at least this many samples, i.e.
 *  with at least 10 beyond the p90. */
constexpr std::size_t kP90Samples = 100;

/** Setup rounds of an untraced run: one before the first op, then one
 *  at each op-group boundary where the rounds so far took less than
 *  this share of the ops' time. Spread over the run, the setups see the
 *  same host as the ops. This host's speed changes from one stretch of
 *  0.1 s to a few seconds to the next, by up to 1.8x, so a few setup
 *  windows catch a few such stretches, and their median jumps between
 *  runs even when the ops' median holds. */
constexpr double kSetupShare = 0.3;

/** A setup round repeats setup() for at least this long (once, if one
 *  setup takes longer). */
constexpr double kSetupRoundMs = 20.0;

/** One setup round, each setup timed into @p setup_s, then one untimed
 *  warm-up op. Returns the round's milliseconds. */
double
setupRound(Workload &w, std::vector<double> &setup_s)
{
    const Clock::time_point round = Clock::now();
    do {
        const Clock::time_point start = Clock::now();
        w.setup();
        setup_s.push_back(msBetween(start, Clock::now()) / 1e3);
    } while (msBetween(round, Clock::now()) < kSetupRoundMs);
    w.op(0);
    return msBetween(round, Clock::now());
}

/** Runs ops from @p next until @p seconds of ops have run, at least
 *  @p min_ops ops ran, and the loop sits on a check-group boundary.
 *  A setup round runs before the first op and, if @p spread_setups,
 *  also between op groups (kSetupShare). Untraced: nothing but the op
 *  is timed. */
Loop
runLoop(Workload &w, std::size_t &next, double seconds, std::size_t min_ops,
        bool spread_setups)
{
    Loop loop;
    for (const std::string &name : watchedCounters()) {
        loop.counts[name] = 0.0;
    }
    // The ops between two setup rounds form a segment.
    CounterDelta counts0;
    double cpu0 = 0.0;
    double rounds_s = 0.0;
    Clock::time_point t0;
    auto beginSegment = [&] {
        rounds_s += setupRound(w, loop.setup_s) / 1e3;
        resetPeakRss();
        counts0 = readCounters();
        cpu0 = cpuSeconds();
        t0 = Clock::now();
    };
    auto endSegment = [&](Clock::time_point now) {
        loop.wall_s += msBetween(t0, now) / 1e3;
        loop.cpu_s += cpuSeconds() - cpu0;
        loop.peak_rss_mb = std::max(loop.peak_rss_mb, peakRssMb());
        for (const auto &[name, v] : deltaOf(counts0, readCounters())) {
            loop.counts[name] += v;
        }
    };

    beginSegment();
    Clock::time_point now;
    for (;;) {
        const Clock::time_point start = Clock::now();
        const OpResult r = w.op(next++);
        now = Clock::now();
        loop.op_ms.push_back(msBetween(start, now));
        loop.items += r.items;
        loop.failed += r.failed;
        if (next % w.group() != 0) {
            continue;
        }
        const double ran_s = loop.wall_s + msBetween(t0, now) / 1e3;
        if (ran_s >= seconds && loop.op_ms.size() >= min_ops) {
            break;
        }
        if (spread_setups && rounds_s < kSetupShare * ran_s) {
            endSegment(now);
            beginSegment();
        }
    }
    endSegment(now);
    return loop;
}

/** The traced half: every op runs inside a span, then its layer calls.
 *  Also runs at least one full rotation so the count metrics cover
 *  every input exactly once. */
struct Traced
{
    Loop loop;
    std::vector<LayerSample> samples;
    CounterDelta rotation_counts;   ///< Over the first full rotation.
    long layer_failed = 0;          ///< Ops failed by a layer check.
};

Traced
runTraced(Workload &w, std::size_t &next, double seconds, SpanLog &log,
          const std::string &workload)
{
    Traced t;
    for (const std::string &name : watchedCounters()) {
        t.loop.counts[name] = 0.0;
        t.rotation_counts[name] = 0.0;
    }
    const Clock::time_point t0 = Clock::now();
    std::size_t done = 0;
    Clock::time_point now = t0;
    do {
        const std::size_t i = next++;
        const int root = log.begin(workload + ".traced_op",
                                   -1, static_cast<long>(i));
        const CounterDelta before = readCounters();
        const int call = log.begin(workload + ".op", root,
                                   static_cast<long>(i));
        const OpResult r = w.op(i);
        const double op_ms = log.end(call);
        const CounterDelta counts = deltaOf(before, readCounters());
        LayerSample sample;
        const int layer_failed =
            w.layers(i, op_ms, counts, log, root, sample);
        sample["op_ms"] = op_ms;
        log.end(root);

        t.loop.op_ms.push_back(op_ms);
        t.loop.items += r.items;
        t.loop.failed += std::max(r.failed, layer_failed);
        t.layer_failed += layer_failed;
        for (const auto &[name, v] : counts) {
            t.loop.counts[name] += v;
            if (done < w.rotation()) {
                t.rotation_counts[name] += v;
            }
        }
        t.samples.push_back(sample);
        ++done;
        now = Clock::now();
    } while (next % w.group() != 0 || done < w.rotation() ||
             msBetween(t0, now) < seconds * 1e3);
    t.loop.wall_s = msBetween(t0, now) / 1e3;
    return t;
}

/** Counts per op over one rotation; ratios of counts where the
 *  denominator is a count of attempts. Layers a workload bypasses read
 *  0. */
std::map<std::string, double>
countMetrics(const CounterDelta &c, double ops)
{
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    return {
        {"sizing.replays_per_sizing",
         ratio(c.at("sizer.replays"), c.at("sizer.sizings"))},
        {"allocator.placements_per_op",
         ratio(c.at("allocator.placements"), ops)},
        {"allocator.green_fallbacks_per_op",
         ratio(c.at("allocator.green_fallbacks"), ops)},
        {"search.evals_per_op", ratio(c.at("search.evals"), ops)},
        {"search.moves_per_op", ratio(c.at("search.moves"), ops)},
        {"search.accept_ratio",
         ratio(c.at("search.accepted"), c.at("search.moves"))},
    };
}

std::string
num(double v, int digits = 4)
{
    std::ostringstream s;
    s << std::fixed << std::setprecision(digits) << v;
    return s.str();
}

/** Exact decimal for the JSON line: every digit of the double. */
std::string
exact(double v)
{
    std::ostringstream s;
    s << std::setprecision(17) << v;
    return s.str();
}

void
printLoop(const std::string &label, const Loop &loop)
{
    const std::size_t n = loop.op_ms.size();
    std::cout << label << ": " << n << " ops in " << num(loop.wall_s, 3)
              << " s, op_p50_ms " << num(median(loop.op_ms)) << " (n=" << n
              << ")";
    if (n >= kP90Samples) {
        std::cout << ", op_p90_ms " << num(percentile(loop.op_ms, 90.0))
                  << " (n=" << n << ", " << n - (n * 9 + 9) / 10
                  << " beyond)";
    } else {
        std::cout << ", op_p90_ms not reported (n<100)";
    }
    std::cout << ", failed " << loop.failed << "\n";
}

int
runBenchmark(const Args &args, const std::vector<std::string> &cleared)
{
    std::filesystem::create_directories(args.work_dir);

    // One thread: this host's usable parallelism is unreliable, so the
    // benchmark judges single-thread work until thread scaling gets a
    // benchmark of its own.
    gsku::ThreadPool::resetGlobal(1);
    gsku::gsf::configureEvalCache("");

    WorkloadConfig config;
    config.seed = args.seed;
    config.work_dir = args.work_dir;
    config.perturb_reference = args.perturb;
    config.perturb_layer_reference = args.perturb_layer;
    std::unique_ptr<Workload> w = makeWorkload(args.workload, config);
    if (!w) {
        usage("unknown workload '" + args.workload + "'");
    }

    const double probe_start_ms = hostProbeMs();

    std::size_t next = 0;
    const double loop_seconds = args.trace ? args.seconds / 2.0
                                           : args.seconds;
    // An untraced run always has enough ops for op_p90_ms, and spreads
    // its setups over the run; a traced run sets up once.
    const Loop untraced =
        runLoop(*w, next, loop_seconds, args.trace ? 0 : kP90Samples,
                !args.trace);
    const std::vector<double> &setup_s = untraced.setup_s;
    Loop all = untraced;
    SpanLog log;
    Traced traced;
    if (args.trace) {
        traced = runTraced(*w, next, loop_seconds, log, args.workload);
        all.op_ms.insert(all.op_ms.end(), traced.loop.op_ms.begin(),
                         traced.loop.op_ms.end());
        all.failed += traced.loop.failed;
        for (const auto &[name, v] : traced.loop.counts) {
            all.counts[name] += v;
        }
    }
    const double probe_end_ms = hostProbeMs();

    // Exercise and bypass: each workload must run the layers it claims
    // and none of the others, on every op it timed.
    std::vector<std::string> violations;
    for (const std::string &name : w->mustStayZero()) {
        if (all.counts.at(name) != 0.0) {
            violations.push_back(name + " moved (" +
                                 num(all.counts.at(name), 0) +
                                 ") but must stay 0");
        }
    }
    for (const std::string &name : w->mustMove()) {
        if (all.counts.at(name) <= 0.0) {
            violations.push_back(name + " did not move");
        }
    }

    const double ops = static_cast<double>(untraced.op_ms.size());
    std::cout << "gsfbench " << args.workload << " seed " << args.seed
              << (args.trace ? " (traced run)" : "") << "\n"
              << "pool_threads: 1, eval_cache: off, work_dir: "
              << args.work_dir << ", cleared env:";
    for (const std::string &name : cleared) {
        std::cout << ' ' << name;
    }
    std::cout << (cleared.empty() ? " none" : "") << "\n"
              << "host_probe_ms: start " << num(probe_start_ms, 2)
              << ", end " << num(probe_end_ms, 2) << "\n"
              << "setup_s:";
    for (double s : setup_s) {
        std::cout << ' ' << num(s, 4);
    }
    std::cout << " (median " << num(median(setup_s), 4) << ")\n"
              << "peak RSS of the ops: " << num(untraced.peak_rss_mb, 2)
              << " MB (VmHWM, reset after each setup round)\n";
    printLoop("untraced", untraced);
    std::cout << "counter deltas per op (untraced):";
    for (const auto &[name, v] : untraced.counts) {
        std::cout << ' ' << name << '=' << num(v / ops, 2);
    }
    std::cout << "\n";
    for (const std::string &v : violations) {
        std::cout << "BYPASS VIOLATION: " << v << "\n";
    }

    std::map<std::string, double> metrics;
    if (!args.trace) {
        metrics = {
            {"items_per_s", untraced.items / untraced.wall_s},
            {"op_p50_ms", median(untraced.op_ms)},
            {"op_p90_ms", percentile(untraced.op_ms, 90.0)},
            {"cpu_ms_per_op", untraced.cpu_s * 1e3 / ops},
            {"max_rss_mb", untraced.peak_rss_mb},
            {"setup_s", median(setup_s)},
        };
    } else {
        printLoop("traced", traced.loop);
        std::cout << "layer checks failed: " << traced.layer_failed << "\n";
        std::map<std::string, std::vector<double>> values;
        std::vector<double> residual_share;
        for (const LayerSample &s : traced.samples) {
            for (const auto &[name, v] : s) {
                values[name].push_back(v);
            }
            residual_share.push_back((s.at("op_ms") - s.at("covered_ms")) /
                                     s.at("op_ms"));
        }
        for (const auto &[name, v] : values) {
            if (name != "op_ms" && name != "covered_ms") {
                metrics[name] = median(v);
            }
        }
        for (const auto &[name, v] : countMetrics(
                 traced.rotation_counts,
                 static_cast<double>(w->rotation()))) {
            metrics[name] = v;
        }
        metrics["trace.residual_share"] = median(residual_share);
        metrics["trace.overhead_ms"] =
            median(traced.loop.op_ms) - median(untraced.op_ms);

        std::cout << "untraced op_p50_ms " << num(median(untraced.op_ms))
                  << ", items_per_s "
                  << num(untraced.items / untraced.wall_s, 2)
                  << "; traced op_p50_ms "
                  << num(median(traced.loop.op_ms)) << "\n"
                  << "per-layer (" << traced.samples.size()
                  << " traced ops; counts over one rotation of "
                  << w->rotation() << " ops):\n";
        for (const auto &[name, v] : metrics) {
            std::cout << "  " << std::left << std::setw(36) << name
                      << std::right << std::setw(16) << num(v) << "\n";
        }
        if (!args.spans_path.empty()) {
            if (log.writeChromeTrace(args.spans_path)) {
                std::cout << "spans: " << log.spans().size() << " written to "
                          << args.spans_path << "\n";
            } else {
                std::cerr << "gsfbench: cannot write " << args.spans_path
                          << "\n";
                return 1;
            }
        }
    }

    const long attempted = static_cast<long>(all.op_ms.size());
    const bool correct = all.failed == 0 && violations.empty();
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << all.failed << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, v] : metrics) {
        std::cout << (first ? "" : ", ") << '"' << name
                  << "\": " << exact(v);
        first = false;
    }
    std::cout << "}}" << std::endl;
    return 0;
}

} // namespace
} // namespace gsfbench

int
main(int argc, char **argv)
{
    const std::vector<std::string> cleared =
        gsfbench::clearGskuEnvironment();
    const gsfbench::Args args = gsfbench::parseArgs(argc, argv);
    try {
        return gsfbench::runBenchmark(args, cleared);
    } catch (const std::exception &e) {
        std::cerr << "gsfbench: " << e.what() << "\n";
        return 1;
    }
}
