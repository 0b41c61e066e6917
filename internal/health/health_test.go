package health

import (
	"math"
	"strings"
	"testing"
	"time"

	"spinwave/internal/grid"
	"spinwave/internal/journal"
	"spinwave/internal/mag"
	"spinwave/internal/material"
	"spinwave/internal/obs"
	"spinwave/internal/vec"
)

// testConfig is a monitor config with the stall watchdog disabled and a
// per-step sweep cadence, so unit tests drive every rule synchronously.
func testConfig() Config {
	return Config{Enabled: true, Every: 1, StallAfter: -1}
}

// uniformField builds an n-cell field with every cell set to v.
func uniformField(n int, v vec.Vector) vec.Field {
	f := make(vec.Field, n)
	for i := range f {
		f[i] = v
	}
	return f
}

// fullRegion marks all n cells as material.
func fullRegion(n int) grid.Region {
	r := make(grid.Region, n)
	for i := range r {
		r[i] = true
	}
	return r
}

func TestSeverityAndVerdictStrings(t *testing.T) {
	if Info.String() != "info" || Warn.String() != "warn" || Critical.String() != "critical" {
		t.Error("severity names wrong")
	}
	if Healthy.String() != "healthy" || Degraded.String() != "degraded" || Violated.String() != "violated" {
		t.Error("verdict names wrong")
	}
}

func TestConfigWithDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Every != 64 || c.Debounce != 2 || c.NormDriftMax != 1e-9 {
		t.Errorf("sweep defaults wrong: %+v", c)
	}
	if c.AmplitudeMax != 0.5 || c.SaturationMax != 0.95 {
		t.Errorf("amplitude defaults wrong: %+v", c)
	}
	if c.EnergyEvery != 512 || c.EnergyDriftMax != 0.01 {
		t.Errorf("energy defaults wrong: %+v", c)
	}
	if c.DtCollapseFactor != 1.0/50 || c.StallAfter != 60*time.Second {
		t.Errorf("dt/stall defaults wrong: %+v", c)
	}
	// Explicit values survive; negative StallAfter (disabled) survives.
	c2 := Config{Every: 7, StallAfter: -1}.WithDefaults()
	if c2.Every != 7 || c2.StallAfter != -1 {
		t.Errorf("explicit values overridden: %+v", c2)
	}
}

// TestFiniteRuleFiresImmediately checks the NaN sweep ignores the
// debounce, trips the critical latch on the first sweep, and that Err
// surfaces the abort only under AbortOnCritical.
func TestFiniteRuleFiresImmediately(t *testing.T) {
	const n = 16
	f := uniformField(n, vec.Vector{Z: 1})
	f[5].X = math.NaN()

	m := NewMonitor(testConfig(), fullRegion(n), "rfinite")
	m.ObserveStep(1, 1e-12, f)
	if !m.Tripped() {
		t.Fatal("NaN field did not trip the monitor on the first sweep")
	}
	if v := m.Verdict(); v != Violated {
		t.Errorf("verdict %v, want Violated", v)
	}
	alerts := m.Alerts()
	if len(alerts) != 1 || alerts[0].Rule != RuleFinite || alerts[0].Severity != Critical {
		t.Errorf("alerts %+v, want one critical %s", alerts, RuleFinite)
	}
	if err := m.Err(); err != nil {
		t.Errorf("Err without AbortOnCritical = %v, want nil", err)
	}
	m.Finish()

	cfg := testConfig()
	cfg.AbortOnCritical = true
	m2 := NewMonitor(cfg, fullRegion(n), "rfinite2")
	m2.ObserveStep(1, 1e-12, f)
	err := m2.Err()
	if err == nil || !strings.Contains(err.Error(), RuleFinite) {
		t.Errorf("Err with AbortOnCritical = %v, want non_finite abort", err)
	}
	m2.Finish()
}

// TestNormDriftDebounce checks the norm rule waits for Debounce
// consecutive failing sweeps and fires at most once.
func TestNormDriftDebounce(t *testing.T) {
	const n = 8
	drifted := uniformField(n, vec.Vector{Z: 1.001}) // ||m|²−1| ≈ 2e-3, amp 0

	m := NewMonitor(testConfig(), fullRegion(n), "rnorm")
	m.ObserveStep(1, 1e-12, drifted)
	if len(m.Alerts()) != 0 {
		t.Fatal("norm rule fired before the debounce threshold")
	}
	m.ObserveStep(2, 2e-12, drifted)
	alerts := m.Alerts()
	if len(alerts) != 1 || alerts[0].Rule != RuleNorm || alerts[0].Severity != Critical {
		t.Fatalf("alerts %+v, want one critical %s", alerts, RuleNorm)
	}
	// Latched: further failing sweeps do not re-fire.
	m.ObserveStep(3, 3e-12, drifted)
	if len(m.Alerts()) != 1 {
		t.Error("norm rule fired twice for one run")
	}
	m.Finish()
}

// TestNormDebounceResets checks a healthy sweep between two failing
// ones resets the consecutive-failure streak.
func TestNormDebounceResets(t *testing.T) {
	const n = 8
	good := uniformField(n, vec.Vector{Z: 1})
	bad := uniformField(n, vec.Vector{Z: 1.001})

	m := NewMonitor(testConfig(), fullRegion(n), "rreset")
	m.ObserveStep(1, 1e-12, bad)
	m.ObserveStep(2, 2e-12, good) // streak resets
	m.ObserveStep(3, 3e-12, bad)
	if len(m.Alerts()) != 0 {
		t.Errorf("alerts %+v after interleaved healthy sweep, want none", m.Alerts())
	}
	m.Finish()
}

// TestAmplitudeTiers checks the two-tier amplitude rule: past
// AmplitudeMax fires the advisory linear-regime alert, past
// SaturationMax the critical saturation alert — the signature of a
// destabilized integrator hidden by per-step renormalization.
func TestAmplitudeTiers(t *testing.T) {
	const n = 8
	// amp 0.6, |m| = 1 exactly: only the linear-regime rule fails.
	tipped := uniformField(n, vec.Vector{X: 0.6, Z: 0.8})
	m := NewMonitor(testConfig(), fullRegion(n), "ramp")
	m.ObserveStep(1, 1e-12, tipped)
	m.ObserveStep(2, 2e-12, tipped)
	alerts := m.Alerts()
	if len(alerts) != 1 || alerts[0].Rule != RuleAmplitude || alerts[0].Severity != Info {
		t.Fatalf("alerts %+v, want one info %s", alerts, RuleAmplitude)
	}
	if v := m.Verdict(); v != Healthy {
		t.Errorf("verdict %v after info alert, want Healthy", v)
	}
	m.Finish()

	// amp 0.98: both tiers fail; saturation is critical.
	sat := uniformField(n, vec.Vector{X: 0.98, Z: math.Sqrt(1 - 0.98*0.98)})
	m2 := NewMonitor(testConfig(), fullRegion(n), "rsat")
	m2.ObserveStep(1, 1e-12, sat)
	m2.ObserveStep(2, 2e-12, sat)
	if v := m2.Verdict(); v != Violated {
		t.Errorf("verdict %v after saturation, want Violated", v)
	}
	var rules []string
	for _, a := range m2.Alerts() {
		rules = append(rules, a.Rule)
	}
	if len(rules) != 2 || rules[0] != RuleAmplitude || rules[1] != RuleSaturation {
		t.Errorf("rules %v, want [%s %s]", rules, RuleAmplitude, RuleSaturation)
	}
	if !m2.Tripped() {
		t.Error("saturation did not trip the critical latch")
	}
	m2.Finish()
}

// TestDtCollapse drives the observed inter-step dt far below its first
// value and expects the warn-severity collapse alert after debounce.
func TestDtCollapse(t *testing.T) {
	const n = 4
	f := uniformField(n, vec.Vector{Z: 1})
	cfg := testConfig()
	cfg.Every = 1 << 20 // keep field sweeps out of the way

	m := NewMonitor(cfg, fullRegion(n), "rdt")
	m.ObserveStep(1, 1e-12, f) // establishes prevT
	m.ObserveStep(2, 2e-12, f) // firstDt = 1e-12
	m.ObserveStep(3, 2.001e-12, f)
	if len(m.Alerts()) != 0 {
		t.Fatal("dt rule fired before debounce")
	}
	m.ObserveStep(4, 2.002e-12, f)
	alerts := m.Alerts()
	if len(alerts) != 1 || alerts[0].Rule != RuleDt || alerts[0].Severity != Warn {
		t.Fatalf("alerts %+v, want one warn %s", alerts, RuleDt)
	}
	if v := m.Verdict(); v != Degraded {
		t.Errorf("verdict %v after warn alert, want Degraded", v)
	}
	m.Finish()
}

// TestDtAfterResume attaches a monitor to a solver restored mid-run: its
// first observation is a later step at the restored time, which is no
// interval, so steady steps stay healthy — and a collapse after the
// resume still fires.
func TestDtAfterResume(t *testing.T) {
	const n = 4
	f := uniformField(n, vec.Vector{Z: 1})
	cfg := testConfig()
	cfg.Every = 1 << 20 // keep field sweeps out of the way

	m := NewMonitor(cfg, fullRegion(n), "rresume")
	const t0, dt = 5e-9, 1e-12 // restored at step 5000
	for step := 5001; step <= 5010; step++ {
		m.ObserveStep(step, t0+float64(step-5000)*dt, f)
	}
	if alerts := m.Alerts(); len(alerts) != 0 {
		t.Fatalf("resumed steady run raised %+v", alerts)
	}
	if v := m.Verdict(); v != Healthy {
		t.Fatalf("verdict %v for a steady resumed run, want Healthy", v)
	}
	last := t0 + 10*dt
	m.ObserveStep(5011, last+dt/1000, f)
	m.ObserveStep(5012, last+2*dt/1000, f)
	alerts := m.Alerts()
	if len(alerts) != 1 || alerts[0].Rule != RuleDt {
		t.Fatalf("alerts %+v after a post-resume collapse, want one %s", alerts, RuleDt)
	}
	m.Finish()
}

// TestEnergyDrift arms the energy rule with a real field evaluator and
// feeds it a field whose exchange energy grows — in an undriven damped
// run that is numerical energy injection and must fire the warn alert.
func TestEnergyDrift(t *testing.T) {
	mesh := grid.MustMesh(8, 8, 2e-9, 2e-9, 1e-9)
	region := grid.FullRegion(mesh)
	ev, err := mag.NewEvaluator(mesh, region, material.FeCoB())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Every = 1 << 20 // isolate the energy rule
	cfg.EnergyEvery = 1
	m := NewMonitor(cfg, region, "renergy", WithEvaluator(ev), WithDriven(false))
	defer m.Finish()

	// Baseline: uniform out-of-plane state, minimal exchange energy.
	calm := uniformField(mesh.NCells(), vec.Vector{Z: 1})
	m.ObserveStep(1, 1e-12, calm)

	// A checkerboard of ±z has far higher exchange energy than uniform.
	rough := make(vec.Field, mesh.NCells())
	for i := range rough {
		if i%2 == 0 {
			rough[i] = vec.Vector{Z: 1}
		} else {
			rough[i] = vec.Vector{Z: -1}
		}
	}
	m.ObserveStep(2, 2e-12, rough)
	m.ObserveStep(3, 3e-12, rough) // debounce 2
	alerts := m.Alerts()
	if len(alerts) != 1 || alerts[0].Rule != RuleEnergy || alerts[0].Severity != Warn {
		t.Fatalf("alerts %+v, want one warn %s", alerts, RuleEnergy)
	}

	// A driven monitor must keep the rule disarmed on the same fields.
	md := NewMonitor(cfg, region, "rdriven", WithEvaluator(ev), WithDriven(true))
	defer md.Finish()
	md.ObserveStep(1, 1e-12, calm)
	md.ObserveStep(2, 2e-12, rough)
	md.ObserveStep(3, 3e-12, rough)
	if len(md.Alerts()) != 0 {
		t.Errorf("driven run fired energy alerts %+v", md.Alerts())
	}
}

// TestStallWatchdog starves the step counter and waits for the
// background watchdog to fire the stall alert.
func TestStallWatchdog(t *testing.T) {
	cfg := testConfig()
	cfg.StallAfter = 40 * time.Millisecond
	m := NewMonitor(cfg, fullRegion(4), "rstall")
	defer m.Finish()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if alerts := m.Alerts(); len(alerts) > 0 {
			if alerts[0].Rule != RuleStall || alerts[0].Severity != Warn {
				t.Fatalf("alerts %+v, want warn %s", alerts, RuleStall)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("stall watchdog never fired")
}

// TestFinishEmitsJournalAndRegistry checks the alert and verdict journal
// events (the schema tools/journalcheck validates), the metrics counter,
// and the report registry publication.
func TestFinishEmitsJournalAndRegistry(t *testing.T) {
	const n = 8
	f := uniformField(n, vec.Vector{Z: 1})
	f[0].Y = math.Inf(1)

	ring := journal.NewRingSink(16)
	defer journal.Default().Attach(ring)()
	before := obs.Default().Counter("spinwave_health_alerts_total",
		obs.L("rule", RuleFinite), obs.L("severity", "critical")).Value()

	m := NewMonitor(testConfig(), fullRegion(n), "rjournal")
	m.ObserveStep(1, 1e-12, f)
	rep := m.Finish()
	if rep.Verdict != "violated" || rep.Run != "rjournal" || len(rep.Alerts) != 1 {
		t.Errorf("report %+v, want violated rjournal with 1 alert", rep)
	}
	// Finish is idempotent: the second call returns the same verdict
	// without re-emitting.
	if again := m.Finish(); again.Verdict != rep.Verdict {
		t.Error("second Finish changed the verdict")
	}

	evs := ring.EventsFor("rjournal")
	var names []string
	for _, e := range evs {
		names = append(names, e.Name)
	}
	if len(evs) != 2 || evs[0].Name != "alert" || evs[1].Name != "health.verdict" {
		t.Fatalf("journal events %v, want [alert health.verdict]", names)
	}
	if evs[0].Fields["rule"] != RuleFinite || evs[0].Fields["severity"] != "critical" {
		t.Errorf("alert fields %+v", evs[0].Fields)
	}
	if evs[1].Fields["verdict"] != "violated" {
		t.Errorf("verdict fields %+v", evs[1].Fields)
	}

	after := obs.Default().Counter("spinwave_health_alerts_total",
		obs.L("rule", RuleFinite), obs.L("severity", "critical")).Value()
	if after != before+1 {
		t.Errorf("critical alert counter went %d -> %d, want +1", before, after)
	}

	got, ok := Default().Get("rjournal")
	if !ok || got.Verdict != "violated" {
		t.Errorf("registry report %+v ok=%v, want violated", got, ok)
	}
}

// TestHealthySweepZeroAlloc pins the healthy-path contract: a full
// field sweep on the cadence step allocates nothing, so an attached
// monitor preserves the zero-alloc stepping loop.
func TestHealthySweepZeroAlloc(t *testing.T) {
	const n = 256
	f := uniformField(n, vec.Vector{X: 1e-3, Z: math.Sqrt(1 - 1e-6)})
	m := NewMonitor(testConfig(), fullRegion(n), "ralloc")
	defer m.Finish()

	step := 0
	tNow := 0.0
	allocs := testing.AllocsPerRun(100, func() {
		step++
		tNow += 1e-12
		m.ObserveStep(step, tNow, f)
	})
	if allocs > 0 {
		t.Errorf("healthy ObserveStep allocates %g per step, want 0", allocs)
	}
}

// TestRegistryEviction checks the bounded report registry evicts
// oldest-first and serves lookups by run ID.
func TestRegistryEviction(t *testing.T) {
	r := NewRegistry(2)
	r.Put(Report{Run: "a", Verdict: "healthy"})
	r.Put(Report{Run: "b", Verdict: "degraded"})
	r.Put(Report{Run: "c", Verdict: "violated"})
	if _, ok := r.Get("a"); ok {
		t.Error("oldest report not evicted")
	}
	if got, ok := r.Get("c"); !ok || got.Verdict != "violated" {
		t.Errorf("Get(c) = %+v ok=%v", got, ok)
	}
	runs := r.Runs()
	if len(runs) != 2 {
		t.Errorf("Runs() = %v, want 2 entries", runs)
	}
	// Re-putting an existing run updates in place without eviction.
	r.Put(Report{Run: "c", Verdict: "healthy"})
	if got, _ := r.Get("c"); got.Verdict != "healthy" {
		t.Error("Put did not update existing run")
	}
	if _, ok := r.Get("b"); !ok {
		t.Error("update evicted an unrelated run")
	}
}
