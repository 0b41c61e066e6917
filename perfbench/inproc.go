package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"time"

	"spinwave"
	"spinwave/internal/core"
	"spinwave/internal/obs"
)

// The in-process workloads (tables-micromag, transient-checkpointed)
// call the library directly. Their operation is timed by the caller;
// the traced phase installs a span sink through the public
// spinwave.SetSpanSink and diffs the process metrics registry around
// the phase.

// timedOp runs one operation and returns the time that counts as its
// latency (set-up and clean-up of scratch files excluded).
type timedOp func() (time.Duration, error)

// opPhase is the outcome of running one operation back to back.
type opPhase struct {
	secs []float64 // per-operation latency in seconds
}

// repeatFor runs op back to back until d has elapsed, and at least
// once. Every run is checked and counted; a failed one keeps its time.
func repeatFor(ctx context.Context, e *env, d time.Duration, op timedOp, r *report) (*opPhase, error) {
	p := &opPhase{}
	start := time.Now()
	for len(p.secs) == 0 || time.Since(start) < d {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		lat, err := op()
		r.op(err)
		e.logf("operation %d: %.3fs", len(p.secs)+1, lat.Seconds())
		p.secs = append(p.secs, lat.Seconds())
	}
	return p, nil
}

// setOpE2E fills the end-to-end metrics of an in-process workload from
// its untraced phase: the operation's latency mean and p90, and this
// process's peak RSS.
func setOpE2E(r *report, p *opPhase) error {
	msecs := make([]float64, len(p.secs))
	for i, s := range p.secs {
		msecs[i] = 1e3 * s
	}
	r.e2e["latency_mean_ms"] = mean(msecs)
	r.e2e["latency_p90_ms"] = percentile(msecs, 0.9)
	rss, err := vmHWM(0)
	if err != nil {
		return err
	}
	r.e2e["peak_rss_mb"] = rss
	return nil
}

// tracedPhase runs op for d with spans collected and the process
// metrics diffed around it.
func tracedPhase(ctx context.Context, e *env, d time.Duration, op timedOp, r *report) (*opPhase, map[string]spanStat, promSample, error) {
	before, err := scrapeSelf()
	if err != nil {
		return nil, nil, nil, err
	}
	sink := &obs.CollectingSink{}
	prev := spinwave.SetSpanSink(sink)
	p, err := repeatFor(ctx, e, d, op, r)
	spinwave.SetSpanSink(prev)
	if err != nil {
		return nil, nil, nil, err
	}
	after, err := scrapeSelf()
	if err != nil {
		return nil, nil, nil, err
	}
	return p, sumSpans(sink.Spans()), after.diff(before), nil
}

// scrapeSelf reads this process's metrics registry in exposition form.
func scrapeSelf() (promSample, error) {
	var buf bytes.Buffer
	if err := obs.Default().WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return parsePromText(&buf)
}

// solverLayers fills the per-layer metrics of the solver path from a
// traced phase: the traced operation latency, steps, stepping rate,
// transient self time, band kernel time, per-case setup and lock-in.
// transientChildren is time spent inside transient spans by other
// layers (checkpoint saves), subtracted to give self time.
func solverLayers(r *report, traced *opPhase, spans map[string]spanStat, diff promSample, transientChildren time.Duration) {
	ops := float64(len(traced.secs))
	busy := 0.0
	for _, s := range traced.secs {
		busy += s
	}
	steps := diff.sum("spinwave_llg_steps_total")
	tr, setup, lockin := spans["micromag.transient"], spans["micromag.setup"], spans["micromag.lockin"]
	set := r.setLayer
	set("llg.steps", steps/ops)
	set("llg.steps_per_s", ratio(steps, busy))
	set("llg.transient_s", (tr.total-transientChildren).Seconds()/ops)
	set("llg.band_us", 1e6*diff.histMean("spinwave_llg_band_seconds"))
	set("core.micromag_setup_ms", ratio(ms(setup.total), float64(setup.n)))
	set("detect.lockin_ms", ratio(ms(lockin.total), float64(lockin.n)))
	set("trace.latency_mean_ms", 1e3*mean(traced.secs))
}

// spanSeconds is the summed duration of the solver's spans.
func spanSeconds(spans map[string]spanStat) float64 {
	total := time.Duration(0)
	for _, name := range []string{"micromag.setup", "micromag.transient", "micromag.lockin"} {
		total += spans[name].total
	}
	return total.Seconds()
}

// tableTol is the fan-out tolerance golden_test.go applies to the
// micromagnetic tables.
const tableTol = 0.02

// checkTableI applies the golden Table I bands (golden_test.go) and
// returns the first violation.
func checkTableI(tt *core.TruthTable, fanoutTol float64) error {
	if len(tt.Cases) != 8 {
		return fmt.Errorf("table I has %d cases, want 8", len(tt.Cases))
	}
	if !tt.AllCorrect() {
		return fmt.Errorf("table I decodes incorrectly")
	}
	if m := tt.FanOutMatched(); m > fanoutTol {
		return fmt.Errorf("table I fan-out mismatch |O1-O2| = %.4f, want <= %.4f", m, fanoutTol)
	}
	refPhase := tt.Cases[0].Outputs[0].Phase
	for _, c := range tt.Cases {
		ones := 0
		for _, in := range c.Inputs {
			if in {
				ones++
			}
		}
		unanimous := ones == 0 || ones == len(c.Inputs)
		wantLogic := ones*2 > len(c.Inputs)
		for _, o := range c.Outputs {
			if unanimous && math.Abs(o.Normalized-1) > 0.1 {
				return fmt.Errorf("table I %v %s: unanimous row normalized %.3f, want 1±0.1", c.Inputs, o.Name, o.Normalized)
			}
			if !unanimous && (o.Normalized < 0.02 || o.Normalized > 0.5) {
				return fmt.Errorf("table I %v %s: mixed row normalized %.3f, want [0.02, 0.5]", c.Inputs, o.Name, o.Normalized)
			}
			want := refPhase
			if wantLogic {
				want += math.Pi
			}
			if d := math.Abs(wrapPhase(o.Phase - want)); d > 0.2 {
				return fmt.Errorf("table I %v %s: phase %.3f rad is %.3f from its boundary", c.Inputs, o.Name, o.Phase, d)
			}
			if o.Logic != wantLogic {
				return fmt.Errorf("table I %v %s: decoded %v, want %v", c.Inputs, o.Name, o.Logic, wantLogic)
			}
		}
	}
	return nil
}

// checkTableII applies the golden Table II bands.
func checkTableII(tt *core.TruthTable, fanoutTol float64) error {
	if len(tt.Cases) != 4 {
		return fmt.Errorf("table II has %d cases, want 4", len(tt.Cases))
	}
	if !tt.AllCorrect() {
		return fmt.Errorf("table II decodes incorrectly")
	}
	if m := tt.FanOutMatched(); m > fanoutTol {
		return fmt.Errorf("table II fan-out mismatch |O1-O2| = %.4f, want <= %.4f", m, fanoutTol)
	}
	for _, c := range tt.Cases {
		destructive := c.Inputs[0] != c.Inputs[1]
		for _, o := range c.Outputs {
			if destructive && o.Normalized > 0.1 {
				return fmt.Errorf("table II %v %s: destructive row normalized %.3f, want <= 0.1", c.Inputs, o.Name, o.Normalized)
			}
			if !destructive && math.Abs(o.Normalized-1) > 0.1 {
				return fmt.Errorf("table II %v %s: constructive row normalized %.3f, want 1±0.1", c.Inputs, o.Name, o.Normalized)
			}
			if o.Logic != destructive {
				return fmt.Errorf("table II %v %s: decoded %v, want %v", c.Inputs, o.Name, o.Logic, destructive)
			}
		}
	}
	return nil
}

// wrapPhase maps an angle to (-π, π].
func wrapPhase(p float64) float64 {
	for p > math.Pi {
		p -= 2 * math.Pi
	}
	for p <= -math.Pi {
		p += 2 * math.Pi
	}
	return p
}
