package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"spinwave"
	"spinwave/internal/checkpoint"
	"spinwave/internal/detect"
)

// checkpointEvery is the snapshot cadence of the checkpointed transient
// (the checkpoint package's default).
const checkpointEvery = 2000

// runTransient is the transient-checkpointed workload: one XOR case
// (picked by the seed) with checkpointing, probes and health on, paused
// at half the transient (StopAtStep) and resumed to the end. The
// resumed readouts must equal an uninterrupted run's bit for bit.
func runTransient(ctx context.Context, e *env, r *report) error {
	inputs := allCases(2)[rand.New(rand.NewSource(e.seed)).Intn(4)]
	options := func(ck *spinwave.CheckpointConfig) []spinwave.MicromagOption {
		o := []spinwave.MicromagOption{
			spinwave.WithProbes(spinwave.ProbeConfig{Enabled: true}),
			spinwave.WithHealth(spinwave.HealthConfig{Enabled: true}),
		}
		if ck != nil {
			o = append(o, spinwave.WithCheckpoint(*ck))
		}
		return o
	}
	// run evaluates the case under a fresh run ID, tallies its health
	// verdict per segment kind, and fails on a violated one.
	verdicts := map[string]map[string]int{}
	run := func(segment string, b *spinwave.Micromagnetic) (map[string]detect.Readout, error) {
		id := spinwave.NewRunID()
		out, err := b.RunContext(spinwave.WithRunID(ctx, id), inputs)
		rep, ok := spinwave.HealthFor(id)
		if !ok {
			return out, fmt.Errorf("run %s: no health verdict", id)
		}
		if verdicts[segment] == nil {
			verdicts[segment] = map[string]int{}
		}
		verdicts[segment][rep.Verdict]++
		if rep.Verdict == "violated" {
			return out, fmt.Errorf("run %s: health verdict violated", id)
		}
		return out, err
	}
	defer func() {
		for seg, counts := range verdicts {
			var parts []string
			for _, v := range sortedKeys(counts) {
				parts = append(parts, fmt.Sprintf("%s=%d", v, counts[v]))
			}
			r.verdicts["health."+seg] = strings.Join(parts, " ")
		}
	}()

	var ref map[string]detect.Readout
	var total int
	var setups []float64
	for i := 0; i < e.setups; i++ {
		t0 := time.Now()
		b, err := spinwave.NewMicromagnetic(spinwave.XOR, options(nil)...)
		if err != nil {
			return err
		}
		if ref, err = run("uninterrupted", b); err != nil {
			return fmt.Errorf("uninterrupted reference run: %w", err)
		}
		total = int(b.Duration() / b.Dt())
		setups = append(setups, time.Since(t0).Seconds())
		e.logf("set-up %d: %.3fs", i+1, setups[i])
	}
	r.e2e["setup_s"] = median(setups)

	var pairs atomic.Int64
	count := func(string, checkpoint.Snapshot) { pairs.Add(1) }
	n := 0
	lastDir := ""
	transientOp := func() (time.Duration, error) {
		dir := filepath.Join(e.tmp, fmt.Sprintf("ck-%d", n))
		n++
		if lastDir != "" {
			_ = os.RemoveAll(lastDir)
		}
		lastDir = dir
		t0 := time.Now()
		b1, err := spinwave.NewMicromagnetic(spinwave.XOR, options(&spinwave.CheckpointConfig{
			Dir: dir, EverySteps: checkpointEvery, StopAtStep: total / 2, OnSnapshot: count})...)
		if err != nil {
			return time.Since(t0), err
		}
		if _, err := run("paused", b1); !errors.Is(err, spinwave.ErrRunPaused) {
			return time.Since(t0), fmt.Errorf("first segment: got %v, want a pause at step %d", err, total/2)
		}
		b2, err := spinwave.NewMicromagnetic(spinwave.XOR, options(&spinwave.CheckpointConfig{
			Dir: dir, EverySteps: checkpointEvery, Resume: true, OnSnapshot: count})...)
		if err != nil {
			return time.Since(t0), err
		}
		out, err := run("resumed", b2)
		lat := time.Since(t0)
		if err != nil {
			return lat, fmt.Errorf("resumed segment: %w", err)
		}
		if err := sameReadouts(out, ref); err != nil {
			return lat, fmt.Errorf("resumed readouts differ from the uninterrupted run: %w", err)
		}
		return lat, nil
	}

	if !e.trace {
		p, err := repeatFor(ctx, e, e.seconds, transientOp, r)
		if err != nil {
			return err
		}
		return setOpE2E(r, p)
	}
	traced, spans, diff, err := tracedPhase(ctx, e, e.seconds, transientOp, r)
	if err != nil {
		return err
	}
	ops := float64(len(traced.secs))
	perOp := float64(pairs.Load()) / ops

	// Time the checkpoint layer's public calls on the last run's field.
	t0 := time.Now()
	st, err := checkpoint.Latest(lastDir)
	resume := time.Since(t0)
	if err != nil || st == nil {
		return fmt.Errorf("checkpoint.Latest(%s): %v (state %v)", lastDir, err, st != nil)
	}
	saveDir := filepath.Join(e.tmp, "save-probe")
	var saves []float64
	for i := 0; i < 5; i++ {
		man := st.Manifest
		man.Step += i + 1
		t0 = time.Now()
		if _, err := checkpoint.Save(saveDir, man, st.Mesh, st.M, 2); err != nil {
			return err
		}
		saves = append(saves, ms(time.Since(t0)))
	}
	save := median(saves)
	solverLayers(r, traced, spans, diff, time.Duration(float64(pairs.Load())*save*float64(time.Millisecond)))
	set := r.setLayer
	set("checkpoint.pairs", perOp)
	set("checkpoint.bytes_per_pair", pairBytes(lastDir, st.Manifest.Step))
	set("checkpoint.save_ms", save)
	set("checkpoint.resume_ms", ms(resume))
	b, err := spinwave.NewMicromagnetic(spinwave.XOR, options(nil)...)
	if err != nil {
		return err
	}
	set("core.fingerprint_us", timeEach(200, func(int) { fingerprint(b) }))
	set("core.new_backend_us.micromag", timeEach(200, func(int) {
		_, _ = spinwave.NewMicromagnetic(spinwave.XOR, options(nil)...)
	}))
	busy := 0.0
	for _, s := range traced.secs {
		busy += s
	}
	set("trace.unattributed_share", 1-spanSeconds(spans)/busy)
	return nil
}

// pairBytes is the on-disk size of the snapshot pair at step (OVF field
// plus manifest).
func pairBytes(dir string, step int) float64 {
	prefix := fmt.Sprintf("ck-%012d.", step)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	total := int64(0)
	for _, en := range entries {
		if strings.HasPrefix(en.Name(), prefix) {
			if fi, err := en.Info(); err == nil {
				total += fi.Size()
			}
		}
	}
	return float64(total)
}
