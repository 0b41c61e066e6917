// Command perfbench is the repository's benchmark: one seeded command
// that measures served requests, truth-table regeneration and
// checkpointed transients end to end, takes them apart layer by layer,
// and checks every output it times.
//
// It is normally started through run.sh from the repository root, which
// builds swserve and this program from the checkout first:
//
//	bash perfbench/run.sh --workload serve-behavioral --seed 1 --seconds 10 --trace 0
//
// -trace 0 prints the end-to-end metrics of an untraced run; -trace 1
// runs the same workload traced and prints the per-layer metrics,
// including the traced operation latency that the tracing overhead is
// computed from (noise.py). The last line of standard
// output is one JSON object: {"correct","attempted","failed","metrics"}.
// A failed check makes the exit code non-zero. README.md describes the
// workloads, the metrics and the noise study.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// env is what every workload runs with.
type env struct {
	seed    int64
	seconds time.Duration
	trace   bool
	setups  int    // set-ups per run; setup_s is their median
	swserve string // path of the swserve binary under test
	tmp     string // per-run scratch directory, removed on exit
	log     io.Writer
}

// logf writes a progress line to standard error.
func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, "perfbench: "+format+"\n", args...)
}

// workload is one named input set of the benchmark.
type workload struct {
	name string
	why  string
	// setups is how many times a run sets the workload up from scratch:
	// setup_s is the median, and the last set-up is the one measured.
	// Cheap set-ups repeat more often, so process-start jitter averages
	// out.
	setups int
	config map[string]any
	run    func(ctx context.Context, e *env, r *report) error
}

// workloads lists every workload, in BENCHMARK.json order.
var workloads = []workload{
	{
		name:   "serve-behavioral",
		why:    "HTTP, JSON, fingerprint, tier lookup and history indexing carry almost all the time; the solver does no work",
		setups: 15,
		config: map[string]any{
			"loop": "closed", "connections": 1, "flags": "-store -history",
			"backend": "behavioral", "gates": behavioralGates, "specs": behavioralSpecs,
			"materials": behavioralMaterials, "mix": mixDescription,
		},
		run: func(ctx context.Context, e *env, r *report) error { return runServe(ctx, e, r, false) },
	},
	{
		name:   "serve-micromag-warm",
		why:    "cache and surrogate answers with zero solver steps, so per-request micromag backend construction dominates",
		setups: 3,
		config: map[string]any{
			"loop": "closed", "connections": 1, "flags": "-store -history -surrogate xor,maj3",
			"backend": "micromag", "spec": "reduced", "gates": []string{"xor", "maj3"},
			"modes": []string{"micromag", "auto", "surrogate (xor only)"}, "mix": mixDescription,
			"warmup": "every xor and maj3 case computed before timing",
		},
		run: func(ctx context.Context, e *env, r *report) error { return runServe(ctx, e, r, true) },
	},
	{
		name:   "tables-micromag",
		why:    "cold Tables I and II on the solver: LLG stepping, setup and lock-in do the work and the result store writes",
		setups: 9,
		config: map[string]any{
			"in_process": true, "spec": "reduced", "tables": "I (MAJ3 after CalibrateI3) and II (XOR)",
			"engine": "fresh per regeneration, 1 worker, temp DiskStore", "stepping": "serial",
			"bands": fmt.Sprintf("golden micromag tolerance %.2f", tableTol),
		},
		run: runTables,
	},
	{
		name:   "transient-checkpointed",
		why:    "the only path through checkpoint, probe and health: one XOR case paused mid-transient and resumed",
		setups: 21,
		config: map[string]any{
			"in_process": true, "spec": "reduced", "gate": "xor", "probes": true, "health": true,
			"checkpoint_every_steps": checkpointEvery, "pause": "StopAtStep at half the transient",
		},
		run: runTransient,
	},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: "+workloadNames())
	seed := fl.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fl.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fl.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of a traced run")
	swserve := fl.String("swserve", "", "swserve binary built from the checkout under test")
	root := fl.String("root", ".", "repository root (provenance: commit and source digest)")
	commit := fl.String("commit", "unknown", "commit of the checkout under test, when known")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", *name, workloadNames())
		return 2
	case *seconds <= 0 || (*trace != 0 && *trace != 1):
		fmt.Fprintln(stderr, "perfbench: need -seconds > 0 and -trace 0 or 1")
		return 2
	}
	tmp, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	e := &env{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1,
		setups: w.setups, swserve: *swserve, tmp: tmp, log: stderr}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	r := newReport()
	if err := w.run(ctx, e, r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	metrics, err := r.metricsFor(e.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}

	prov := map[string]any{
		"host": map[string]any{"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"go_version": runtime.Version(), "os": runtime.GOOS, "arch": runtime.GOARCH},
		"commit": *commit, "source_sha256": sourceDigest(*root),
		"seed": *seed, "seconds": *seconds, "trace": *trace, "setups": w.setups,
		"workload": map[string]any{"name": w.name, "why": w.why, "config": w.config},
		"verdicts": r.verdicts,
	}
	pj, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Fprintln(stdout, string(pj))
	for _, line := range r.table(e.trace) {
		fmt.Fprintln(stdout, line)
	}
	fmt.Fprintf(stdout, "  %d of %d operations failed\n", r.failed, r.attempted)
	for _, f := range r.failures {
		fmt.Fprintf(stderr, "perfbench: FAILED: %s\n", f)
	}
	correct := r.failed == 0 && r.attempted > 0
	out, _ := json.Marshal(map[string]any{"correct": correct, "attempted": r.attempted,
		"failed": r.failed, "metrics": metrics})
	fmt.Fprintln(stdout, string(out))
	if !correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// sourceDigest hashes the Go sources and module files under root (build
// output excluded), identifying the code under test when the checkout
// carries no git metadata.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
