// Command benchmark is the repository's one benchmark: five named
// workloads, fourteen client-observed end-to-end metrics on two clocks that
// are never mixed, and a per-layer trace taken from outside the packages
// under test. See README.md in this directory.
//
//	go run -C benchmark . --workload ingest_bulk --seed 42 --seconds 10 --trace 0
//	go run -C benchmark . --workload ingest_bulk --seed 42 --seconds 10 --trace 1
//	go run -C benchmark . -aa 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

var procStart = time.Now()

// runConfig is one invocation's arguments.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// size scales every workload's fixed work (events per repetition,
	// preload, offered duration). 1 is the benchmark; the smoke tests run
	// at 1/100.
	size float64
	// outDir is where the traced run writes its spans.
	outDir string
}

// harness carries what every workload's driver needs: the configuration,
// the tracer (nil when untraced), the metric set being filled, and the
// set-up clock.
type harness struct {
	cfg runConfig
	tr  *tracer
	m   metricSet

	// Set-up time is everything before timing starts. It is reported as
	// the one-off part (process start to the first set-up, input generation
	// that happens once) plus the median of the set-ups a run repeats (one
	// per repetition on the CPU workloads, three on the live ones) plus the
	// warm-up, so that work moved into any of them shows.
	setupOnce    float64
	setupSamples sample
	warmupS      float64

	attempted, failed int
	info              map[string]any
}

func newHarness(cfg runConfig) *harness {
	h := &harness{cfg: cfg, m: metricSet{}, info: map[string]any{}}
	if cfg.trace {
		// Wall clock; a live run switches it to its simulated clock.
		h.tr = newTracer(func() time.Duration { return time.Since(procStart) })
	}
	return h
}

func (h *harness) setupS() float64 {
	return h.setupOnce + h.setupSamples.median() + h.warmupS
}

// scaled sizes a workload constant by cfg.size, never below min.
func (h *harness) scaled(n, min int) int {
	v := int(float64(n) * h.cfg.size)
	if v < min {
		v = min
	}
	return v
}

// note records a value in the run's envelope (sample counts, repeats,
// lateness, validity readings): printed, never gated.
func (h *harness) note(key string, v any) { h.info[key] = v }

var workloads = map[string]func(*harness) error{
	"ingest_bulk":   runIngestBulk,
	"ingest_client": runIngestClient,
	"query_mix":     runQueryMix,
	"commit_open":   runCommitOpen,
	"fabric_mixed":  runFabricMixed,
}

// runOne runs one workload and returns its outcome; any oracle or validity
// violation is an error and yields no metrics.
func runOne(cfg runConfig) (outcome, map[string]any, error) {
	run, ok := workloads[cfg.workload]
	if !ok {
		return outcome{}, nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
	}
	h := newHarness(cfg)
	if err := run(h); err != nil {
		return outcome{}, h.info, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if s := h.m.strays(); len(s) > 0 {
		return outcome{}, h.info, fmt.Errorf("%s: metrics outside the tables: %v", cfg.workload, s)
	}
	h.m.set("setup_s", h.setupS())
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	if h.attempted < 1 {
		return outcome{}, h.info, fmt.Errorf("%s: nothing attempted", cfg.workload)
	}
	return outcome{Correct: true, Attempted: h.attempted, Failed: h.failed, metrics: h.m, defs: defs}, h.info, nil
}

// envelope is printed on the line before the result: what produced the
// numbers.
func envelope(cfg runConfig, info map[string]any) map[string]any {
	env := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"commit":     commitHash(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"live_scale": liveScale,
	}
	for k, v := range info {
		env[k] = v
	}
	return env
}

func commitHash() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() {
	var cfg runConfig
	var trace, aa int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: ingest_bulk, ingest_client, query_mix, commit_open or fabric_mixed")
	flag.Int64Var(&cfg.seed, "seed", 42, "generator seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "how long the timed region measures")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
	flag.IntVar(&aa, "aa", 0, "run every workload this many times from this build and report each metric's spread against its bound")
	flag.StringVar(&cfg.outDir, "out", ".bench_build", "directory the traced run writes its spans to")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json as the metric tables define it, and exit")
	flag.Parse()
	if *printManifest {
		b, err := manifest()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Println(string(b))
		return
	}
	cfg.trace = trace != 0
	cfg.size = 1

	if aa > 0 {
		if err := runAA(aa, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive")
		os.Exit(2)
	}
	out, info, err := runOne(cfg)
	if err != nil {
		if len(info) > 0 {
			if b, jerr := json.Marshal(envelope(cfg, info)); jerr == nil {
				fmt.Fprintln(os.Stderr, string(b))
			}
		}
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if b, err := json.Marshal(envelope(cfg, info)); err == nil {
		fmt.Println(string(b))
	}
	fmt.Println(string(line))
}
