package main

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"spinwave"
	"spinwave/internal/core"
	"spinwave/internal/detect"
	"spinwave/internal/engine"
)

// references holds the in-process answers every served readout is
// compared with, computed by the same public API swserve calls, for the
// same backends and inputs. Its engine stays warm afterwards, so the
// layer probes can time the engine's hit path in-process.
type references struct {
	eng      *engine.Engine
	backends map[selector]core.Backend
	fps      map[selector]string
	mu       sync.Mutex
	exact    map[string]map[string]detect.Readout // selector/bits
	sur      map[string]map[string]detect.Readout // selector/bits, surrogate tier
}

func refKey(s selector, inputs []bool) string { return s.String() + "/" + bits(inputs) }

func bits(inputs []bool) string {
	var b strings.Builder
	for _, v := range inputs {
		if v {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// allCases enumerates every input vector of an n-input gate.
func allCases(n int) [][]bool {
	out := make([][]bool, 1<<n)
	for i := range out {
		c := make([]bool, n)
		for j := range c {
			c[j] = i&(1<<(n-1-j)) != 0
		}
		out[i] = c
	}
	return out
}

// newBackend builds the backend swserve builds for a request selecting
// s: the paper spec by default for behavioral, the reduced spec for
// micromag, FeCoB by default, serial stepping.
func newBackend(s selector) (core.Backend, error) {
	kind, err := gateKind(s.Gate)
	if err != nil {
		return nil, err
	}
	mat := spinwave.FeCoB()
	if s.Material != "" {
		if mat, err = spinwave.MaterialByName(s.Material); err != nil {
			return nil, err
		}
	}
	spec := spinwave.PaperSpec()
	if s.Micromag {
		spec = spinwave.ReducedSpec()
	}
	switch s.Spec {
	case "":
	case "paper":
		spec = spinwave.PaperSpec()
	case "paper-micromag":
		spec = spinwave.PaperMicromagSpec()
	case "reduced":
		spec = spinwave.ReducedSpec()
	default:
		return nil, fmt.Errorf("unknown spec %q", s.Spec)
	}
	if s.Micromag {
		return spinwave.NewMicromagnetic(kind, spinwave.WithSpec(spec), spinwave.WithMaterial(mat),
			spinwave.WithWorkers(0))
	}
	return spinwave.NewBehavioral(kind, spec, mat)
}

func gateKind(gate string) (core.GateKind, error) {
	switch gate {
	case "maj3":
		return core.MAJ3, nil
	case "maj3single":
		return core.MAJ3Single, nil
	case "xor":
		return core.XOR, nil
	case "maj5":
		return core.MAJ5, nil
	}
	return 0, fmt.Errorf("unknown gate %q", gate)
}

// engineMode maps a request's mode field to the engine mode swserve
// resolves it to.
func engineMode(mode string) engine.Mode {
	switch mode {
	case "auto":
		return engine.ModeAuto
	case "surrogate":
		return engine.ModeSurrogateOnly
	}
	return engine.ModeDirect
}

// fingerprint returns b's canonical fingerprint.
func fingerprint(b core.Backend) string {
	if f, ok := b.(core.Fingerprinter); ok {
		if fp, ok := f.Fingerprint(); ok {
			return fp
		}
	}
	return ""
}

// buildReferences evaluates every case of every backend in sels
// in-process. withSurrogate also builds and admits the xor surrogate and
// records its answers, the reference for surrogate-mode responses.
func buildReferences(ctx context.Context, sels []selector, withSurrogate bool) (*references, error) {
	refs := &references{eng: engine.New(), backends: map[selector]core.Backend{}, fps: map[selector]string{},
		exact: map[string]map[string]detect.Readout{}, sur: map[string]map[string]detect.Readout{}}
	type job struct {
		sel    selector
		inputs []bool
	}
	var jobs []job
	for _, s := range sels {
		b, err := newBackend(s)
		if err != nil {
			return nil, fmt.Errorf("reference backend %s: %w", s, err)
		}
		refs.backends[s] = b
		refs.fps[s] = fingerprint(b)
		for _, c := range allCases(inputCount(s.Gate)) {
			jobs = append(jobs, job{s, c})
		}
	}
	err := refs.eng.Map(ctx, len(jobs), func(ctx context.Context, i int) error {
		j := jobs[i]
		res, err := refs.eng.EvalTiered(ctx, refs.backends[j.sel], j.inputs, engine.ModeDirect)
		if err != nil {
			return fmt.Errorf("reference %s %v: %w", j.sel, j.inputs, err)
		}
		refs.mu.Lock()
		refs.exact[refKey(j.sel, j.inputs)] = res.Readouts
		refs.mu.Unlock()
		return nil
	})
	if err != nil || !withSurrogate {
		return refs, err
	}
	xor := selector{Gate: "xor", Micromag: true}
	src, ok := refs.backends[xor].(spinwave.SurrogateSource)
	if !ok {
		return nil, fmt.Errorf("reference: %s cannot build a surrogate", xor)
	}
	model, err := spinwave.BuildSurrogate(ctx, src)
	if err != nil {
		return nil, fmt.Errorf("reference surrogate: %w", err)
	}
	if err := refs.eng.AdmitSurrogate(model); err != nil {
		return nil, fmt.Errorf("reference surrogate: %w", err)
	}
	for _, c := range allCases(2) {
		res, err := refs.eng.EvalTiered(ctx, refs.backends[xor], c, engine.ModeSurrogateOnly)
		if err != nil {
			return nil, fmt.Errorf("reference surrogate %v: %w", c, err)
		}
		refs.sur[refKey(xor, c)] = res.Readouts
	}
	return refs, nil
}

// want returns the reference readouts for one case of a request.
func (r *references) want(q request, inputs []bool) (map[string]detect.Readout, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if q.Mode == "surrogate" {
		v, ok := r.sur[refKey(q.Sel, inputs)]
		return v, ok
	}
	v, ok := r.exact[refKey(q.Sel, inputs)]
	return v, ok
}

// sameReadouts reports whether got equals want bit for bit.
func sameReadouts(got, want map[string]detect.Readout) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d outputs, want %d", len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			return fmt.Errorf("output %s missing", name)
		}
		if g != w {
			return fmt.Errorf("output %s = %+v, want %+v", name, g, w)
		}
	}
	return nil
}
