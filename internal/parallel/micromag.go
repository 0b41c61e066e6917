package parallel

import (
	"context"
	"fmt"
	"math"
	"sync"

	"spinwave/internal/core"
	"spinwave/internal/detect"
	"spinwave/internal/dispersion"
	"spinwave/internal/excite"
	"spinwave/internal/grid"
	"spinwave/internal/layout"
	"spinwave/internal/llg"
	"spinwave/internal/material"
	"spinwave/internal/units"
	"spinwave/internal/vec"
)

// MicromagXOR runs the n-bit frequency-parallel XOR gate in the full LLG
// solver: every input antenna is driven with the superposition of its n
// channel tones (multiple single-tone antennas over the same cells — the
// field sources add linearly), and every output probe is lock-in
// analyzed once per channel frequency.
type MicromagXOR struct {
	Spec     layout.Spec
	Mat      material.Params
	Channels []Channel
	FBase    float64 // common base frequency of the channel grid

	L      *layout.Layout
	Mesh   grid.Mesh
	Region grid.Region

	dt          float64
	duration    float64
	sampleEvery int
	basePeriods int // lock-in window in whole base periods
	driveField  float64

	refMu sync.Mutex           // guards refs for concurrent Run callers
	refs  map[string][]float64 // per-output, per-channel reference amplitude
}

// NewMicromagXOR prepares the n-bit parallel XOR simulation. Channel
// carriers share a base-frequency grid, so a readout window holding whole
// base periods contains an integer number of every carrier's periods —
// the lock-ins are then orthogonal and a strong channel cannot leak into
// a destructively-interfering one.
func NewMicromagXOR(spec layout.Spec, mat material.Params, nbits int) (*MicromagXOR, error) {
	plan, err := PlanXORChannels(spec, mat, nbits)
	if err != nil {
		return nil, err
	}
	channels := plan.Channels
	l, err := layout.BuildXOR(spec)
	if err != nil {
		return nil, err
	}
	cell := spec.Lambda / 11
	l.AlignAxisToCells(cell)
	mesh, err := l.Mesh(cell, units.NM(1))
	if err != nil {
		return nil, err
	}
	region := l.Rasterize(mesh)
	if region.Count() == 0 {
		return nil, fmt.Errorf("parallel: empty rasterization")
	}
	model, err := dispersion.New(mat, mesh.Dz, dispersion.LocalDemag)
	if err != nil {
		return nil, err
	}
	// Timing is governed by the slowest channel (longest wavelength).
	minVg := math.Inf(1)
	minF := math.Inf(1)
	for _, ch := range channels {
		if vg := model.GroupVelocity(ch.K); vg < minVg {
			minVg = vg
		}
		if ch.Freq < minF {
			minF = ch.Freq
		}
	}
	b := l.Bounds()
	travel := (b.Width() + b.Height()) / minVg
	const basePeriods = 2
	window := basePeriods / plan.FBase
	duration := 3/minF + 1.6*travel + window + 1/minF
	return &MicromagXOR{
		Spec:        spec,
		Mat:         mat,
		Channels:    channels,
		FBase:       plan.FBase,
		L:           l,
		Mesh:        mesh,
		Region:      region,
		dt:          llg.StableDt(mesh, mat),
		duration:    duration,
		sampleEvery: 2,
		basePeriods: basePeriods,
		driveField:  2e-3,
	}, nil
}

// Duration returns the per-case simulated time.
func (p *MicromagXOR) Duration() float64 { return p.duration }

// runCase simulates one (wordA, wordB) case and returns the raw per-
// channel lock-in amplitudes at each output. A cancelled context aborts
// the transient within one integrator step.
func (p *MicromagXOR) runCase(ctx context.Context, a, b Word) (map[string][]float64, error) {
	if len(a) != len(p.Channels) || len(b) != len(p.Channels) {
		return nil, fmt.Errorf("parallel: %w: words need %d bits", layout.ErrBadInputCount, len(p.Channels))
	}
	s, err := llg.New(p.Mesh, p.Region, p.Mat, p.dt)
	if err != nil {
		return nil, err
	}
	ramp := p.Spec.Tail
	if ramp <= 0 {
		ramp = 3 * p.Spec.Lambda
	}
	for _, ti := range p.L.Terminations() {
		n := p.L.Nodes[ti]
		s.AddAbsorberTowards(n.Pos.X, n.Pos.Y, ramp, 0.5)
	}
	rAnt := math.Max(p.Spec.Width/2, 1.5*p.Mesh.Dx)
	words := map[string]Word{"I1": a, "I2": b}
	for name, w := range words {
		ni, err := p.L.NodeByName(name)
		if err != nil {
			return nil, err
		}
		pos := p.L.Nodes[ni].Pos
		cells := p.Region.DiscCells(p.Mesh, pos.X, pos.Y, rAnt)
		if len(cells) == 0 {
			return nil, fmt.Errorf("parallel: antenna %s empty", name)
		}
		for ci, ch := range p.Channels {
			ant, err := excite.NewAntenna(fmt.Sprintf("%s.ch%d", name, ci), cells,
				vec.UnitX, p.driveField, ch.Freq, 0)
			if err != nil {
				return nil, err
			}
			ant.SetLogic(w[ci])
			ant.Env = excite.RampEnvelope(3 / ch.Freq)
			s.Eval.Sources = append(s.Eval.Sources, ant)
		}
	}
	probes := map[string]*detect.Probe{}
	for _, oi := range p.L.Outputs() {
		n := p.L.Nodes[oi]
		cells := p.Region.DiscCells(p.Mesh, n.Pos.X, n.Pos.Y, rAnt)
		pr, err := detect.NewProbe(n.Name, cells)
		if err != nil {
			return nil, err
		}
		probes[n.Name] = pr
	}
	if err := s.RunContext(ctx, p.duration, func(step int) bool {
		if step%p.sampleEvery == 0 {
			for _, pr := range probes {
				pr.Sample(s.Time, s.M)
			}
		}
		return true
	}); err != nil {
		return nil, fmt.Errorf("parallel: case aborted: %w", err)
	}
	if err := s.CheckFinite(); err != nil {
		return nil, err
	}
	out := map[string][]float64{}
	for name, pr := range probes {
		amps := make([]float64, len(p.Channels))
		for ci, ch := range p.Channels {
			// Orthogonal window: basePeriods whole base periods contain
			// basePeriods·BaseMultiple whole periods of this carrier.
			periods := p.basePeriods * ch.BaseMultiple
			r, err := pr.LockIn(ch.Freq, periods)
			if err != nil {
				return nil, err
			}
			amps[ci] = r.Amplitude
		}
		out[name] = amps
	}
	return out, nil
}

// references lazily computes the all-zeros amplitudes per channel. The
// mutex serializes concurrent first callers; later callers reuse the
// memoized result.
func (p *MicromagXOR) references(ctx context.Context) (map[string][]float64, error) {
	p.refMu.Lock()
	defer p.refMu.Unlock()
	if p.refs != nil {
		return p.refs, nil
	}
	zero := make(Word, len(p.Channels))
	refs, err := p.runCase(ctx, zero, zero)
	if err != nil {
		return nil, err
	}
	for name, amps := range refs {
		for ci, a := range amps {
			if a <= 0 {
				return nil, fmt.Errorf("parallel: zero reference on %s channel %d", name, ci)
			}
		}
	}
	p.refs = refs
	return refs, nil
}

// Run evaluates XOR(a, b) per channel and returns the decoded output
// words plus the normalized per-channel amplitudes.
func (p *MicromagXOR) Run(a, b Word) (map[string]Word, map[string][]float64, error) {
	return p.RunContext(context.Background(), a, b)
}

// RunContext is Run with cancellation: a cancelled or expired context
// aborts the multi-tone transient within one integrator step.
func (p *MicromagXOR) RunContext(ctx context.Context, a, b Word) (map[string]Word, map[string][]float64, error) {
	refs, err := p.references(ctx)
	if err != nil {
		return nil, nil, err
	}
	raw, err := p.runCase(ctx, a, b)
	if err != nil {
		return nil, nil, err
	}
	words := map[string]Word{}
	norm := map[string][]float64{}
	for name, amps := range raw {
		w := make(Word, len(amps))
		ns := make([]float64, len(amps))
		for ci, amp := range amps {
			ns[ci] = amp / refs[name][ci]
			w[ci] = ns[ci] <= 0.5 // threshold detection per channel
		}
		words[name] = w
		norm[name] = ns
	}
	return words, norm, nil
}

// compile-time check that the package stays aligned with core's naming.
var _ = core.XOR
