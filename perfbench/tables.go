package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"spinwave"
	"spinwave/internal/core"
	"spinwave/internal/detect"
	"spinwave/internal/engine"
)

// runTables is the tables-micromag workload: regenerate Tables I (MAJ3,
// after CalibrateI3) and II (XOR) cold on the micromagnetic backend at
// ReducedSpec, as swtables -backend micromag -workers 1 does, each time
// with a fresh engine and an empty DiskStore. The paper's tables are fixed
// inputs; the seed only orders them.
func runTables(ctx context.Context, e *env, r *report) error {
	xorFirst := rand.New(rand.NewSource(e.seed)).Intn(2) == 1
	var xor, maj3 *spinwave.Micromagnetic
	var setups, calib, newUS []float64
	for i := 0; i < e.setups; i++ {
		t0 := time.Now()
		x, err := spinwave.NewMicromagnetic(spinwave.XOR)
		if err != nil {
			return err
		}
		newUS = append(newUS, us(time.Since(t0)))
		t1 := time.Now()
		m, err := spinwave.NewMicromagnetic(spinwave.MAJ3)
		if err != nil {
			return err
		}
		newUS = append(newUS, us(time.Since(t1)))
		c0 := time.Now()
		if _, err := m.CalibrateI3(); err != nil {
			return fmt.Errorf("CalibrateI3: %w", err)
		}
		calib = append(calib, time.Since(c0).Seconds())
		setups = append(setups, time.Since(t0).Seconds())
		e.logf("set-up %d: %.3fs", i+1, setups[i])
		xor, maj3 = x, m
	}
	r.e2e["setup_s"] = median(setups)

	var tiers map[engine.Source]int
	var last []*core.TruthTable
	n := 0
	regen := func() (time.Duration, error) {
		dir := filepath.Join(e.tmp, fmt.Sprintf("tables-%d", n))
		n++
		defer os.RemoveAll(dir)
		t0 := time.Now()
		store, err := engine.OpenDiskStore(dir)
		if err != nil {
			return time.Since(t0), err
		}
		// One worker: with two CPU-bound workers on a 2-CPU host the
		// regeneration time also followed the load of the host's other
		// tenants (spread 0.22 against 0.12 over five runs each).
		eng := engine.New(engine.WithDiskStore(store), engine.WithWorkers(1))
		var t1, t2 *core.TruthTable
		var s1, s2 engine.Source
		var err1, err2 error
		if xorFirst {
			t2, s2, err2 = eng.XORTableTiered(ctx, xor, false, engine.ModeDirect)
		}
		t1, s1, err1 = eng.MajorityTableTiered(ctx, maj3, engine.ModeDirect)
		if !xorFirst {
			t2, s2, err2 = eng.XORTableTiered(ctx, xor, false, engine.ModeDirect)
		}
		lat := time.Since(t0)
		switch {
		case err1 != nil:
			return lat, fmt.Errorf("table I: %w", err1)
		case err2 != nil:
			return lat, fmt.Errorf("table II: %w", err2)
		}
		tiers[s1] += len(t1.Cases)
		tiers[s2] += len(t2.Cases)
		last = []*core.TruthTable{t1, t2}
		if s1 != engine.SourceMicromag || s2 != engine.SourceMicromag {
			return lat, fmt.Errorf("cold tables answered by %q and %q, want %q", s1, s2, engine.SourceMicromag)
		}
		if err := checkTableI(t1, tableTol); err != nil {
			return lat, err
		}
		return lat, checkTableII(t2, tableTol)
	}

	tiers = map[engine.Source]int{}
	if !e.trace {
		p, err := repeatFor(ctx, e, e.seconds, regen, r)
		if err != nil {
			return err
		}
		return setOpE2E(r, p)
	}
	traced, spans, diff, err := tracedPhase(ctx, e, e.seconds, regen, r)
	if err != nil {
		return err
	}
	solverLayers(r, traced, spans, diff, 0)
	ops := float64(len(traced.secs))
	set := r.setLayer
	set("core.calibrate_i3_s", median(calib))
	set("core.new_backend_us.micromag", mean(newUS))
	set("core.fingerprint_us", timeEach(200, func(int) { fingerprint(xor); fingerprint(maj3) })/2)
	rows := 0
	for _, c := range tiers {
		rows += c
	}
	for _, t := range []engine.Source{engine.SourceCache, engine.SourceDisk, engine.SourceSurrogate,
		engine.SourceBehavioral, engine.SourceMicromag} {
		set("engine.tier_share."+string(t), ratio(float64(tiers[t]), float64(rows)))
	}
	hits, misses := diff.sum("spinwave_engine_cache_hits_total"), diff.sum("spinwave_engine_cache_misses_total")
	set("engine.cache_hit_ratio", ratio(hits, hits+misses))
	set("engine.queue_wait_ms", 1e3*diff.sum("spinwave_engine_queue_wait_seconds_sum")/ops)
	set("engine.disk_writes", diff.sum("spinwave_engine_disk_writes_total", label("result", "ok"))/ops)
	putMS, err := probeDiskPut(filepath.Join(e.tmp, "put-probe"), last)
	if err != nil {
		return err
	}
	set("engine.disk_put_ms", putMS)
	busy := 0.0
	for _, s := range traced.secs {
		busy += s
	}
	set("trace.unattributed_share", 1-spanSeconds(spans)/busy)
	return nil
}

// probeDiskPut times DiskStore.Put of the last regeneration's readouts
// into a fresh store, in milliseconds per entry: the result store's
// write path on the same data.
func probeDiskPut(dir string, tables []*core.TruthTable) (float64, error) {
	defer os.RemoveAll(dir)
	store, err := engine.OpenDiskStore(dir)
	if err != nil {
		return 0, err
	}
	var puts []float64
	for ti, tt := range tables {
		for ci, c := range tt.Cases {
			out := map[string]detect.Readout{}
			for _, o := range c.Outputs {
				out[o.Name] = detect.Readout{Probe: o.Name, Amplitude: o.Amplitude, Phase: o.Phase}
			}
			t0 := time.Now()
			if err := store.Put(fmt.Sprintf("probe-%d-%d", ti, ci), out); err != nil {
				return 0, err
			}
			puts = append(puts, ms(time.Since(t0)))
		}
	}
	return mean(puts), nil
}
