package core

import (
	"testing"

	"spinwave/internal/grid"
	"spinwave/internal/health"
	"spinwave/internal/layout"
	"spinwave/internal/material"
)

// TestFingerprintMemoized pins the memoized fingerprints to a fresh
// canonical recompute: after construction, after a successful
// CalibrateI3 (the trim is part of the identity), and after a failed one
// (which must restore the previous trim and its fingerprint).
func TestFingerprintMemoized(t *testing.T) {
	b, err := NewBehavioral(XOR, layout.PaperSpec(), material.FeCoB())
	if err != nil {
		t.Fatal(err)
	}
	if fp, ok := b.Fingerprint(); !ok || fp != b.fingerprint() {
		t.Errorf("behavioral fingerprint %q ok=%v, recompute %q", fp, ok, b.fingerprint())
	}

	cfg := MicromagConfig{Spec: layout.ReducedSpec(), Mat: material.FeCoB(), I3PhaseTrim: 0.3}
	mk := func(cfg MicromagConfig) *Micromagnetic {
		m, err := NewMicromagnetic(MAJ3, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	check := func(when string, m *Micromagnetic, trim float64) {
		t.Helper()
		fp, ok := m.Fingerprint()
		if !ok || fp != m.fingerprint() {
			t.Errorf("%s: fingerprint %q ok=%v, recompute %q", when, fp, ok, m.fingerprint())
		}
		c := cfg
		c.I3PhaseTrim = trim
		if fresh, _ := mk(c).Fingerprint(); fp != fresh {
			t.Errorf("%s: fingerprint %q, a fresh backend with trim %g has %q", when, fp, trim, fresh)
		}
	}
	m := mk(cfg)
	check("construction", m, 0.3)

	mutated := cfg
	mutated.RegionMutator = func(_ grid.Mesh, r grid.Region) grid.Region { return r }
	if fp, ok := mk(mutated).Fingerprint(); ok || fp != "" {
		t.Errorf("region-mutated backend fingerprint %q ok=%v, want uncacheable", fp, ok)
	}

	if testing.Short() {
		t.Skip("calibration runs micromagnetic transients")
	}
	trim, err := m.CalibrateI3()
	if err != nil {
		t.Fatal(err)
	}
	check("successful CalibrateI3", m, trim)

	// A destabilized integrator aborts the first calibration run.
	bad := cfg
	bad.DtScale = 20
	bad.Health = health.Config{Enabled: true, AbortOnCritical: true}
	mb := mk(bad)
	before, _ := mb.Fingerprint()
	if _, err := mb.CalibrateI3(); err == nil {
		t.Fatal("destabilized calibration succeeded")
	}
	if after, _ := mb.Fingerprint(); after != before || after != mb.fingerprint() {
		t.Errorf("failed CalibrateI3: fingerprint %q, before %q, recompute %q", after, before, mb.fingerprint())
	}
	if mb.cfg.I3PhaseTrim != 0.3 {
		t.Errorf("failed CalibrateI3 left trim %g, want the previous 0.3", mb.cfg.I3PhaseTrim)
	}
}
