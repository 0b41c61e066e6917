// Package health is the numerical health monitor of the observability
// stack (DESIGN.md §12): a streaming invariant-watchdog engine that
// rides the LLG solver's StepObserver hook — the same zero-overhead-
// when-disabled pattern as internal/probe — and *judges* a run while it
// executes instead of merely recording it. The paper's gate logic is
// only valid in the linear forward-volume spin-wave regime, and the
// fan-out readout assumes the solver stayed numerically sane for the
// whole transient; the monitor turns both assumptions into checked
// invariants:
//
//   - magnetization-norm drift — max over material cells of ||m|²−1|
//     (renormalization should pin it to round-off; drift means a broken
//     stepper or corrupted state);
//   - NaN/Inf sentinel sweep — the first non-finite cell makes every
//     subsequent readout meaningless, so it is a critical alert the
//     moment it appears, not a post-mortem CheckFinite discovery;
//   - linear-regime amplitude bound — the in-plane precession amplitude
//     max|m_xy| must stay below the small-signal threshold, or the run
//     has left the linear regime the gate's phase logic is designed in
//     (the amplitude-saturation failure mode of Mahmoud et al.,
//     arXiv:2109.05219);
//   - amplitude saturation — a second, critical tier of the same bound:
//     max|m_xy| ≈ 1 means the magnetization has tipped fully out of the
//     perpendicular equilibrium, which is how a destabilized fixed-step
//     integrator fails under per-step renormalization (|m| stays 1, so
//     the norm and finiteness rules never see it);
//   - energy-budget drift — in a damped, undriven run the total
//     micromagnetic energy (internal/energy via mag.Evaluator) must be
//     non-increasing; growth signals numerical energy injection;
//   - adaptive-dt collapse — the observed inter-step dt shrinking far
//     below its initial value means the error controller is fighting a
//     stiff or blown-up state and the run will crawl forever;
//   - wall-clock stall watchdog — a background goroutine that alerts
//     when no integrator step has been committed for a configurable
//     wall-clock window (a wedged pool, a livelocked solver).
//
// Failed checks feed a debounced rule engine: a rule must fail on
// Debounce consecutive evaluations before it fires (NaN fires
// immediately), each rule fires at most once per run, and every alert
// fans out through all three observability channels — a journal "alert"
// event (validated by tools/journalcheck), the obs default registry
// (spinwave_health_alerts_total by rule and severity), and a slog
// warning stamped with the run ID. The per-run verdict aggregates the
// worst severity seen: Healthy, Degraded (warn) or Violated (critical);
// with Config.AbortOnCritical set the solver loop is asked to stop
// within one step of the first critical alert.
//
// The healthy path allocates nothing: ObserveStep does a handful of
// compares between cadences and one allocation-free field sweep per
// cadence, so attaching a monitor preserves the PR 3 zero-alloc
// stepping loop (pinned by a test, like probe.Recorder).
package health

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"spinwave/internal/grid"
	"spinwave/internal/journal"
	"spinwave/internal/mag"
	"spinwave/internal/vec"
)

// Severity ranks an alert.
type Severity int

const (
	// Info alerts are advisory; they do not change the run verdict.
	Info Severity = iota
	// Warn alerts degrade the run verdict: the result is suspect but the
	// run keeps going.
	Warn
	// Critical alerts violate the run verdict: the readout cannot be
	// trusted, and with AbortOnCritical the run is stopped.
	Critical
)

// String names the severity ("info", "warn", "critical").
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warn:
		return "warn"
	case Critical:
		return "critical"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// Verdict is the per-run health outcome.
type Verdict int

const (
	// Healthy: no warn or critical alert fired.
	Healthy Verdict = iota
	// Degraded: at least one warn alert fired, none critical.
	Degraded
	// Violated: at least one critical alert fired.
	Violated
)

// String names the verdict ("healthy", "degraded", "violated").
func (v Verdict) String() string {
	switch v {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Violated:
		return "violated"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Rule names identify the invariant checks in alerts, journal events and
// metric labels.
const (
	// RuleNorm is the magnetization-norm drift check.
	RuleNorm = "norm_drift"
	// RuleFinite is the NaN/Inf sentinel sweep.
	RuleFinite = "non_finite"
	// RuleAmplitude is the linear-regime amplitude bound.
	RuleAmplitude = "linear_regime"
	// RuleSaturation is the critical tier of the amplitude bound: the
	// magnetization tipped (nearly) fully into the plane.
	RuleSaturation = "saturation"
	// RuleEnergy is the damped-run energy-drift check.
	RuleEnergy = "energy_drift"
	// RuleDt is the adaptive-dt collapse/underflow check.
	RuleDt = "dt_collapse"
	// RuleStall is the wall-clock stall watchdog.
	RuleStall = "stall"
)

// Config tunes a Monitor. The zero Config monitors nothing; callers
// enable it explicitly (core backends skip building a Monitor entirely
// when Enabled is false, so disabled health checks cost one nil check
// per step in the solver loop).
type Config struct {
	// Enabled switches monitoring on.
	Enabled bool
	// Every is the field-sweep cadence in committed steps (default 64):
	// norm, finiteness and amplitude are checked on one allocation-free
	// pass over the magnetization every Every steps, keeping the healthy-
	// path overhead within the E-OBS3 ≤3% budget.
	Every int
	// Debounce is how many consecutive failing evaluations a rule needs
	// before it fires (default 2). The NaN/Inf rule ignores it and fires
	// on the first failure — a non-finite cell never heals.
	Debounce int
	// NormDriftMax bounds ||m|²−1| per cell (default 1e-9; the solver
	// renormalizes after every accepted step, so drift above round-off
	// means corrupted state).
	NormDriftMax float64
	// AmplitudeMax bounds the in-plane precession amplitude
	// max √(mx²+my²) (default 0.5 — far beyond the small-signal regime
	// the 2 mT drive excites; tighten it to police a specific linearity
	// budget).
	AmplitudeMax float64
	// AmplitudeSeverity is the severity of the linear-regime rule
	// (default Info — advisory; raise it to police a strict linearity
	// budget). Saturation has its own always-critical rule below.
	AmplitudeSeverity Severity
	// SaturationMax is the critical amplitude tier (default 0.95):
	// max √(mx²+my²) beyond it means the magnetization left the
	// perpendicular equilibrium entirely — a blown-up integrator hidden
	// by per-step renormalization. Negative disables the rule.
	SaturationMax float64
	// EnergyEvery is the energy-drift cadence in steps (default 512,
	// matching the probe cadence; < 0 disables). The check only arms for
	// undriven runs (see Monitor options) — driven antennas legitimately
	// pump energy in.
	EnergyEvery int
	// EnergyDriftMax is the allowed relative growth of the total energy
	// over the first sample in a damped run (default 0.01).
	EnergyDriftMax float64
	// DtCollapseFactor flags an observed inter-step dt below
	// DtCollapseFactor × the first observed dt (default 1/50; only
	// adaptive runs ever shrink dt, so fixed-step runs never trip it).
	DtCollapseFactor float64
	// StallAfter is the wall-clock window with no committed step that
	// trips the stall watchdog (default 60s; ≤ 0 disables the watchdog
	// goroutine).
	StallAfter time.Duration
	// AbortOnCritical asks the driving loop to stop the run within one
	// step of the first critical alert (surfaced via Monitor.Err).
	AbortOnCritical bool
}

// WithDefaults returns the config with unset fields replaced by the
// documented defaults.
func (c Config) WithDefaults() Config {
	if c.Every < 1 {
		c.Every = 64
	}
	if c.Debounce < 1 {
		c.Debounce = 2
	}
	if c.NormDriftMax == 0 {
		c.NormDriftMax = 1e-9
	}
	if c.AmplitudeMax == 0 {
		c.AmplitudeMax = 0.5
	}
	if c.SaturationMax == 0 {
		c.SaturationMax = 0.95
	}
	if c.EnergyEvery == 0 {
		c.EnergyEvery = 512
	}
	if c.EnergyDriftMax == 0 {
		c.EnergyDriftMax = 0.01
	}
	if c.DtCollapseFactor == 0 {
		c.DtCollapseFactor = 1.0 / 50
	}
	if c.StallAfter == 0 {
		c.StallAfter = 60 * time.Second
	}
	return c
}

// Alert is one fired rule.
type Alert struct {
	// Rule is the invariant that fired (RuleNorm, RuleFinite, ...).
	Rule string `json:"rule"`
	// Severity is the alert severity ("info", "warn", "critical" in
	// JSON).
	Severity Severity `json:"-"`
	// SeverityName is the rendered severity for JSON consumers.
	SeverityName string `json:"severity"`
	// Message is the human-readable description.
	Message string `json:"message"`
	// Value is the measured quantity that broke the invariant.
	Value float64 `json:"value"`
	// Threshold is the configured bound it broke.
	Threshold float64 `json:"threshold"`
	// Step is the solver step at which the rule fired (0 for the stall
	// watchdog, which runs off the solver goroutine).
	Step int `json:"step"`
	// Time is the simulation time at the firing step, seconds.
	Time float64 `json:"t"`
}

// rule is the debounce state of one invariant.
type rule struct {
	name     string
	severity Severity
	debounce int // consecutive failures required
	fails    int // current consecutive-failure streak
	fired    bool
}

// Monitor evaluates the invariants against a running solver. It
// implements llg.StepObserver; ObserveStep is called on the solver
// goroutine and must stay allocation-free on the healthy path, while
// Verdict/Alerts/Err may be called concurrently from other goroutines.
type Monitor struct {
	cfg    Config
	region grid.Region
	ev     *mag.Evaluator // nil → energy rule disarmed
	driven bool           // sources present → energy rule disarmed
	runID  string
	ctx    context.Context // carries the run ID for slog correlation

	// Hot-path state, touched only by the solver goroutine.
	prevT    float64
	seen     bool // prevT holds an observed step's time
	firstDt  float64
	baseE    float64 // first energy sample
	haveE    bool
	rules    [7]rule // indexed by the rIdx constants
	checks   int64
	lastStep atomic.Int64 // read by the stall watchdog

	// tripped flips once a critical alert fires; read lock-free by the
	// driving loop's abort poll.
	tripped atomic.Bool

	// mu guards the recorded alerts and the verdict aggregation, which
	// HTTP handlers and Finish read while the solver goroutine appends.
	mu      sync.Mutex
	alerts  []Alert
	worst   Severity
	any     bool
	stopped bool

	stopWatch chan struct{} // closes to stop the watchdog goroutine
	watchDone chan struct{}
}

// Rule indices into Monitor.rules.
const (
	rNorm = iota
	rFinite
	rAmp
	rSat
	rEnergy
	rDt
	rStall
)

// Option customizes NewMonitor beyond the config.
type Option func(*Monitor)

// WithEvaluator arms the energy-drift rule with the run's field
// evaluator (its EnergyBudget is allocation-free after Prepare).
func WithEvaluator(ev *mag.Evaluator) Option {
	return func(m *Monitor) { m.ev = ev }
}

// WithDriven marks the run as externally driven (antennas, thermal
// field): the energy-drift rule is disarmed, since sources legitimately
// inject energy.
func WithDriven(driven bool) Option {
	return func(m *Monitor) { m.driven = driven }
}

// NewMonitor builds a monitor for one run over the given material
// region. The run ID stamps every alert's journal event and log line.
func NewMonitor(cfg Config, region grid.Region, runID string, opts ...Option) *Monitor {
	cfg = cfg.WithDefaults()
	m := &Monitor{
		cfg:    cfg,
		region: region,
		runID:  runID,
		ctx:    journal.WithRunID(context.Background(), runID),
	}
	for _, o := range opts {
		o(m)
	}
	if m.ev != nil {
		m.ev.Prepare() // eager, so the first energy sweep never allocates
	}
	m.rules = [7]rule{
		rNorm:   {name: RuleNorm, severity: Critical, debounce: cfg.Debounce},
		rFinite: {name: RuleFinite, severity: Critical, debounce: 1},
		rAmp:    {name: RuleAmplitude, severity: cfg.AmplitudeSeverity, debounce: cfg.Debounce},
		rSat:    {name: RuleSaturation, severity: Critical, debounce: cfg.Debounce},
		rEnergy: {name: RuleEnergy, severity: Warn, debounce: cfg.Debounce},
		rDt:     {name: RuleDt, severity: Warn, debounce: cfg.Debounce},
		rStall:  {name: RuleStall, severity: Warn, debounce: 1},
	}
	initMetrics()
	if cfg.StallAfter > 0 {
		m.stopWatch = make(chan struct{})
		m.watchDone = make(chan struct{})
		go m.watch()
	}
	return m
}

// Config returns the monitor's effective (defaulted) configuration.
func (m *Monitor) Config() Config { return m.cfg }

// ObserveStep implements llg.StepObserver: it evaluates the streaming
// invariants for the committed step. Between cadences it costs a few
// compares and one atomic store; on a cadence step it runs one
// allocation-free sweep over the magnetization.
func (m *Monitor) ObserveStep(step int, t float64, mfield vec.Field) {
	m.lastStep.Store(int64(step))

	// dt tracking: the observed inter-step interval is the solver's
	// committed dt for both fixed and adaptive runs. An interval needs a
	// previous observation, or step 1 (whose predecessor is t = 0): a
	// monitor on a resumed solver first sees a later step at the
	// restored time, and that gap is no step at all.
	if m.seen || step == 1 {
		dt := t - m.prevT
		if m.firstDt == 0 && dt > 0 {
			m.firstDt = dt
		}
		if m.firstDt > 0 && !m.rules[rDt].fired {
			bound := m.cfg.DtCollapseFactor * m.firstDt
			if dt <= 0 || dt < bound {
				m.fail(rDt, step, t, dt, bound,
					"integrator step size collapsed (error controller fighting a stiff or blown-up state)")
			} else {
				m.pass(rDt)
			}
		}
	}
	m.prevT, m.seen = t, true

	if step%m.cfg.Every == 0 {
		m.sweep(step, t, mfield)
	}
	if m.ev != nil && !m.driven && m.cfg.EnergyEvery > 0 && step%m.cfg.EnergyEvery == 0 {
		m.energyCheck(step, t, mfield)
	}
}

// sweep is the per-cadence field pass: norm drift, finiteness and the
// linear-regime amplitude bound in one loop, allocation-free.
func (m *Monitor) sweep(step int, t float64, mfield vec.Field) {
	m.checks++
	mChecks.Inc()
	worstNorm := 0.0 // max ||m|²−1|
	worstAmp2 := 0.0 // max mx²+my²
	finite := true
	for i := range mfield {
		if !m.region[i] {
			continue
		}
		v := mfield[i]
		n2 := v.X*v.X + v.Y*v.Y + v.Z*v.Z
		if math.IsNaN(n2) || math.IsInf(n2, 0) {
			finite = false
			break
		}
		if d := math.Abs(n2 - 1); d > worstNorm {
			worstNorm = d
		}
		if a2 := v.X*v.X + v.Y*v.Y; a2 > worstAmp2 {
			worstAmp2 = a2
		}
	}
	if !finite {
		m.fail(rFinite, step, t, math.NaN(), 0,
			"non-finite magnetization (solver blew up)")
		return // norm/amplitude are meaningless on a non-finite field
	}
	m.pass(rFinite)
	if worstNorm > m.cfg.NormDriftMax {
		m.fail(rNorm, step, t, worstNorm, m.cfg.NormDriftMax,
			"magnetization norm drifted off the unit sphere")
	} else {
		m.pass(rNorm)
	}
	amp := math.Sqrt(worstAmp2)
	if amp > m.cfg.AmplitudeMax {
		m.fail(rAmp, step, t, amp, m.cfg.AmplitudeMax,
			"precession amplitude left the linear small-signal regime")
	} else {
		m.pass(rAmp)
	}
	if m.cfg.SaturationMax > 0 {
		if amp > m.cfg.SaturationMax {
			m.fail(rSat, step, t, amp, m.cfg.SaturationMax,
				"magnetization tipped fully out of equilibrium (destabilized integrator)")
		} else {
			m.pass(rSat)
		}
	}
}

// energyCheck compares the total micromagnetic energy against the first
// sample: in a damped, undriven run it must not grow.
func (m *Monitor) energyCheck(step int, t float64, mfield vec.Field) {
	total := m.ev.EnergyBudget(mfield).Total()
	if math.IsNaN(total) || math.IsInf(total, 0) {
		return // the finiteness rule owns blown-up fields
	}
	if !m.haveE {
		m.baseE, m.haveE = total, true
		return
	}
	scale := math.Abs(m.baseE)
	if scale == 0 {
		scale = 1
	}
	growth := (total - m.baseE) / scale
	if growth > m.cfg.EnergyDriftMax {
		m.fail(rEnergy, step, t, growth, m.cfg.EnergyDriftMax,
			"energy grew in a damped run (numerical energy injection)")
	} else {
		m.pass(rEnergy)
	}
}

// pass resets a rule's consecutive-failure streak.
func (m *Monitor) pass(idx int) { m.rules[idx].fails = 0 }

// fail records one failing evaluation of a rule and fires the alert
// once the debounce threshold is met. Called on the solver goroutine
// (or the watchdog goroutine for rStall — the rules array is only
// touched concurrently for distinct indices).
func (m *Monitor) fail(idx, step int, t, value, threshold float64, msg string) {
	r := &m.rules[idx]
	if r.fired {
		return
	}
	r.fails++
	if r.fails < r.debounce {
		return
	}
	r.fired = true
	m.emit(Alert{
		Rule: r.name, Severity: r.severity, SeverityName: r.severity.String(),
		Message: msg, Value: value, Threshold: threshold, Step: step, Time: t,
	})
}

// emit fans one alert out to the journal, the metrics registry and the
// process logger, and folds it into the verdict. Alerts are rare and
// debounced, so allocating here does not violate the healthy-path
// zero-alloc contract.
func (m *Monitor) emit(a Alert) {
	m.mu.Lock()
	m.alerts = append(m.alerts, a)
	m.any = true
	if a.Severity > m.worst {
		m.worst = a.Severity
	}
	m.mu.Unlock()
	if a.Severity == Critical {
		m.tripped.Store(true)
	}

	alertCounter(a.Rule, a.Severity).Inc()
	journal.Default().Emit(m.runID, "alert",
		journal.F("rule", a.Rule),
		journal.F("severity", a.SeverityName),
		journal.F("message", a.Message),
		journal.F("value", a.Value),
		journal.F("threshold", a.Threshold),
		journal.F("step", a.Step))
	lvl := slog.LevelWarn
	if a.Severity == Critical {
		lvl = slog.LevelError
	}
	slog.Default().Log(m.ctx, lvl, "health alert",
		"rule", a.Rule, "severity", a.SeverityName, "value", a.Value,
		"threshold", a.Threshold, "step", a.Step, "msg", a.Message)
}

// watch is the stall watchdog goroutine: it fires when the committed
// step counter stops advancing for a full StallAfter window.
func (m *Monitor) watch() {
	defer close(m.watchDone)
	interval := m.cfg.StallAfter / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	last := m.lastStep.Load()
	stuck := time.Duration(0)
	for {
		select {
		case <-m.stopWatch:
			return
		case <-tick.C:
			now := m.lastStep.Load()
			if now != last {
				last, stuck = now, 0
				continue
			}
			stuck += interval
			if stuck >= m.cfg.StallAfter && !m.rules[rStall].fired {
				m.fail(rStall, int(now), 0, stuck.Seconds(), m.cfg.StallAfter.Seconds(),
					"no integrator step committed within the stall window")
			}
		}
	}
}

// Tripped reports whether a critical alert has fired — the driving
// loop's abort poll when AbortOnCritical is set (one atomic load).
func (m *Monitor) Tripped() bool { return m.tripped.Load() }

// ErrAborted is the sentinel wrapped by every abort error a Monitor
// returns under AbortOnCritical, so callers (and HTTP error mappers)
// can classify a health abort with errors.Is without string matching.
var ErrAborted = errors.New("health: run aborted by critical alert")

// Err returns the abort error when a critical alert fired under
// AbortOnCritical, else nil. The error wraps ErrAborted.
func (m *Monitor) Err() error {
	if !m.cfg.AbortOnCritical || !m.tripped.Load() {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, a := range m.alerts {
		if a.Severity == Critical {
			return fmt.Errorf("%w: run %s, critical %s alert at step %d: %s",
				ErrAborted, m.runID, a.Rule, a.Step, a.Message)
		}
	}
	return fmt.Errorf("%w: run %s", ErrAborted, m.runID)
}

// Verdict aggregates the alerts fired so far into the run verdict.
func (m *Monitor) Verdict() Verdict {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.verdictLocked()
}

func (m *Monitor) verdictLocked() Verdict {
	switch {
	case m.worst >= Critical:
		return Violated
	case m.worst >= Warn && m.any:
		return Degraded
	default:
		return Healthy
	}
}

// Alerts returns a copy of the alerts fired so far, in firing order.
func (m *Monitor) Alerts() []Alert {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Alert(nil), m.alerts...)
}

// Checks returns the number of field-sweep evaluations performed.
func (m *Monitor) Checks() int64 { return m.checks }

// Report is the frozen outcome of a monitored run, published in the
// registry at Finish and scored by tools/swdoctor and the deep health
// endpoint.
type Report struct {
	// Run is the run ID.
	Run string `json:"run"`
	// Verdict is the rendered verdict ("healthy", "degraded",
	// "violated").
	Verdict string `json:"verdict"`
	// Alerts are the fired alerts in order.
	Alerts []Alert `json:"alerts,omitempty"`
	// Checks is the number of field sweeps evaluated.
	Checks int64 `json:"checks"`
	// Steps is the last committed solver step observed.
	Steps int64 `json:"steps"`
}

// Finish stops the watchdog, emits the per-run "health.verdict" journal
// event, folds the verdict into the metrics registry and publishes the
// report under the run ID. It is idempotent; the first call wins.
func (m *Monitor) Finish() Report {
	m.mu.Lock()
	if m.stopped {
		v := m.verdictLocked()
		rep := Report{Run: m.runID, Verdict: v.String(),
			Alerts: append([]Alert(nil), m.alerts...), Checks: m.checks, Steps: m.lastStep.Load()}
		m.mu.Unlock()
		return rep
	}
	m.stopped = true
	m.mu.Unlock()

	if m.stopWatch != nil {
		close(m.stopWatch)
		<-m.watchDone
	}
	m.mu.Lock()
	v := m.verdictLocked()
	rep := Report{Run: m.runID, Verdict: v.String(),
		Alerts: append([]Alert(nil), m.alerts...), Checks: m.checks, Steps: m.lastStep.Load()}
	m.mu.Unlock()

	verdictCounter(v).Inc()
	mLastVerdict.Set(float64(v))
	journal.Default().Emit(m.runID, "health.verdict",
		journal.F("verdict", rep.Verdict),
		journal.F("alerts", len(rep.Alerts)),
		journal.F("checks", rep.Checks))
	if v != Healthy {
		slog.Default().Log(m.ctx, slog.LevelWarn, "run health verdict",
			"verdict", rep.Verdict, "alerts", len(rep.Alerts))
	}
	Default().Put(rep)
	return rep
}
