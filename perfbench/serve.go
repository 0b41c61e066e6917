package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"spinwave/internal/core"
	"spinwave/internal/detect"
	"spinwave/internal/runhistory"
)

// streamLen is how many requests of the seeded stream are generated;
// the stream wraps around after that (every answer is warm by then).
const streamLen = 1 << 15

// evalReply, caseReply and tableReply have the wire shape of swserve's
// /v1/eval and /v1/table responses: the checks decode replies into them,
// and the layer probe encodes them to time the encoder on the same
// bytes.
type evalReply struct {
	Gate        string      `json:"gate"`
	Backend     string      `json:"backend"`
	Mode        string      `json:"mode"`
	Fingerprint string      `json:"fingerprint,omitempty"`
	Results     []caseReply `json:"results"`
}

type caseReply struct {
	Inputs  []bool                    `json:"inputs"`
	Outputs map[string]detect.Readout `json:"outputs"`
	Source  string                    `json:"source,omitempty"`
	Run     string                    `json:"run,omitempty"`
}

type tableReply struct {
	*core.TruthTable
	Mode        string `json:"mode"`
	Source      string `json:"source,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
}

// checkReply validates one response against the request's expectations
// and the in-process references, and returns the tier of every case it
// answered.
func checkReply(q request, refs *references, status int, body []byte) ([]string, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %.200s", q.Path(), q.Body, status, body)
	}
	wantFP := refs.fps[q.Sel]
	if q.Kind == "eval" {
		var rep evalReply
		if err := json.Unmarshal(body, &rep); err != nil {
			return nil, fmt.Errorf("%s %s: %w", q.Path(), q.Body, err)
		}
		if len(rep.Results) != len(q.Cases) {
			return nil, fmt.Errorf("%s %s: %d results for %d cases", q.Path(), q.Body, len(rep.Results), len(q.Cases))
		}
		if rep.Fingerprint != wantFP {
			return nil, fmt.Errorf("%s %s: fingerprint %s, in-process %s", q.Path(), q.Body, rep.Fingerprint, wantFP)
		}
		tiers := make([]string, len(rep.Results))
		for i, res := range rep.Results {
			tiers[i] = res.Source
			if res.Source != q.WantSource {
				return tiers, fmt.Errorf("%s %s: case %d answered by %q, want %q", q.Path(), q.Body, i, res.Source, q.WantSource)
			}
			if bits(res.Inputs) != bits(q.Cases[i]) {
				return tiers, fmt.Errorf("%s %s: case %d echoes inputs %v", q.Path(), q.Body, i, res.Inputs)
			}
			want, ok := refs.want(q, q.Cases[i])
			if !ok {
				return tiers, fmt.Errorf("%s %s: no reference for case %d", q.Path(), q.Body, i)
			}
			if err := sameReadouts(res.Outputs, want); err != nil {
				return tiers, fmt.Errorf("%s %s: case %d readouts differ from the in-process reference: %w", q.Path(), q.Body, i, err)
			}
		}
		return tiers, nil
	}
	var rep tableReply
	if err := json.Unmarshal(body, &rep); err != nil {
		return nil, fmt.Errorf("%s %s: %w", q.Path(), q.Body, err)
	}
	if rep.TruthTable == nil {
		return nil, fmt.Errorf("%s %s: reply holds no table", q.Path(), q.Body)
	}
	tiers := make([]string, len(rep.Cases))
	for i := range tiers {
		tiers[i] = rep.Source
	}
	switch {
	case len(rep.Cases) != q.WantRows:
		return tiers, fmt.Errorf("%s %s: %d rows, want %d", q.Path(), q.Body, len(rep.Cases), q.WantRows)
	case rep.Source != q.WantSource:
		return tiers, fmt.Errorf("%s %s: answered by %q, want %q", q.Path(), q.Body, rep.Source, q.WantSource)
	case rep.Fingerprint != wantFP:
		return tiers, fmt.Errorf("%s %s: fingerprint %s, in-process %s", q.Path(), q.Body, rep.Fingerprint, wantFP)
	}
	for _, c := range rep.Cases {
		if !c.Correct {
			return tiers, fmt.Errorf("%s %s: row %v decodes incorrectly", q.Path(), q.Body, c.Inputs)
		}
	}
	return tiers, nil
}

// sample is one timed request. Failed requests keep their latency.
type sample struct {
	kind  string
	lat   time.Duration
	bytes int
	err   error
	tiers []string
}

// phase is the outcome of one timed closed-loop interval.
type phase struct {
	samples []sample // one per request sent, in stream order
}

func (p *phase) latenciesMS(kind string) []float64 {
	var out []float64
	for _, s := range p.samples {
		if kind == "" || s.kind == kind {
			out = append(out, ms(s.lat))
		}
	}
	return out
}

// poster sends one request body to a path and returns the status and
// reply; *swserve implements it, tests substitute their own.
type poster interface {
	post(path string, body []byte) (int, []byte, error)
}

// closedLoop sends the stream's requests back to back over one
// connection for d, each as soon as the previous reply is in, as the
// curl examples of the README's swserve section and tools/historysmoke
// do. One connection keeps the client and the server to about one busy
// CPU between them: with two, both CPUs of a 2-CPU host were busy and
// the figures followed how the host's other tenants were scheduled.
// Every request sent is timed and checked; a failure is recorded with
// its latency, never dropped.
func closedLoop(ctx context.Context, srv poster, stream []request, refs *references, d time.Duration, r *report) *phase {
	p := &phase{}
	deadline := time.Now().Add(d)
	for ctx.Err() == nil && time.Now().Before(deadline) {
		q := stream[len(p.samples)%len(stream)]
		t0 := time.Now()
		status, body, err := srv.post(q.Path(), q.Body)
		s := sample{kind: q.Kind, lat: time.Since(t0), bytes: len(body)}
		if err == nil {
			s.tiers, err = checkReply(q, refs, status, body)
		}
		s.err = err
		r.op(err)
		p.samples = append(p.samples, s)
	}
	return p
}

// runServe is the serve-behavioral and serve-micromag-warm workload.
func runServe(ctx context.Context, e *env, r *report, micromag bool) error {
	sels := universe(micromag)
	stream := serveStream(micromag, e.seed, streamLen)
	e.logf("computing in-process references for %d backends", len(sels))
	refs, err := buildReferences(ctx, sels, micromag)
	if err != nil {
		return err
	}
	var extra []string
	if micromag {
		extra = []string{"-surrogate", "xor,maj3"}
	}

	// Set up from scratch e.setups times; the last server is measured.
	var srv *swserve
	var setups []float64
	for i := 0; i < e.setups; i++ {
		if srv != nil {
			srv.stop()
		}
		dir := filepath.Join(e.tmp, fmt.Sprintf("serve-%d", i))
		t0 := time.Now()
		srv, err = startSwserve(ctx, e.swserve, dir, extra...)
		if err != nil {
			return err
		}
		if err := warmUp(srv, sels, refs, r); err != nil {
			srv.stop()
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		e.logf("set-up %d: %.3fs", i+1, setups[i])
	}
	defer srv.stop()
	r.e2e["setup_s"] = median(setups)

	ledger, err := srv.deepHealth()
	if err != nil {
		return err
	}
	build := 0.0
	for _, m := range ledger.Surrogate.Models {
		r.verdicts["surrogate."+m.Gate] = m.State
		build += m.BuildSeconds
		if m.State == "admitted" {
			r.layer["surrogate.admitted."+m.Gate] = 1
		}
	}
	r.layer["surrogate.build_s"] = build

	catalog0 := srv.catalogBytes()
	p, diff, err := timedPhase(ctx, srv, stream, refs, e.seconds, r)
	if err != nil {
		return err
	}
	lat := p.latenciesMS("")
	if !e.trace {
		r.e2e["latency_mean_ms"] = mean(lat)
		r.e2e["latency_p90_ms"] = percentile(lat, 0.9)
		rss, err := srv.peakRSSMB()
		if err != nil {
			return err
		}
		r.e2e["peak_rss_mb"] = rss
		return nil
	}

	// Traced: the layers the server's metrics diff gives for the timed
	// phase, then every layer probed in-process on its requests.
	serveLayers(r, p, diff, srv.catalogBytes()-catalog0)
	r.setLayer("trace.latency_mean_ms", mean(lat))
	attributed, err := probeServeLayers(ctx, e, r, refs, stream, p)
	if err != nil {
		return err
	}
	// Client latency = loopback overhead + handler; what the in-process
	// replay does not cover of the handler is unattributed.
	r.setLayer("trace.unattributed_share",
		ratio(r.layer["swserve.handler_ms"]-attributed, mean(lat)))
	return nil
}

// warmUp requests every exact truth table of every backend the workload
// touches, so the timed phase is served from the result store.
func warmUp(srv *swserve, sels []selector, refs *references, r *report) error {
	for _, s := range sels {
		// A fresh server computes each backend's first table.
		q := request{Kind: "table", Sel: s, Mode: "behavioral", WantSource: "behavioral", WantRows: 1 << inputCount(s.Gate)}
		if s.Micromag {
			q.Mode, q.WantSource = "micromag", "micromag"
		}
		body, err := json.Marshal(wireRequest{Gate: s.Gate, Mode: q.Mode, Spec: s.Spec, Material: s.Material})
		if err != nil {
			return err
		}
		q.Body = body
		status, reply, err := srv.post(q.Path(), body)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", s, err)
		}
		_, err = checkReply(q, refs, status, reply)
		r.op(err)
	}
	return nil
}

// timedPhase runs the closed loop for d with /metrics scraped around it,
// and checks the acceptance rule that a serve workload's timed phase
// takes no solver steps.
func timedPhase(ctx context.Context, srv *swserve, stream []request, refs *references, d time.Duration, r *report) (*phase, promSample, error) {
	before, err := srv.scrape()
	if err != nil {
		return nil, nil, err
	}
	p := closedLoop(ctx, srv, stream, refs, d, r)
	after, err := srv.scrape()
	if err != nil {
		return nil, nil, err
	}
	diff := after.diff(before)
	var stepErr error
	if steps := diff.sum("spinwave_llg_steps_total"); steps != 0 {
		stepErr = fmt.Errorf("timed phase took %.0f solver steps, want 0", steps)
	}
	r.op(stepErr)
	return p, diff, nil
}

// serveLayers fills the per-layer metrics the client and the server's
// own /metrics diff give for one traced phase.
func serveLayers(r *report, p *phase, diff promSample, catalogGrowth float64) {
	set := r.setLayer
	set("client.eval_p50_ms", percentile(p.latenciesMS("eval"), 0.5))
	set("client.eval_p90_ms", percentile(p.latenciesMS("eval"), 0.9))
	set("client.table_p50_ms", percentile(p.latenciesMS("table"), 0.5))
	set("client.table_p90_ms", percentile(p.latenciesMS("table"), 0.9))
	set("client.p99_ms", percentile(p.latenciesMS(""), 0.99))

	evalL, tableL := label("path", "/v1/eval"), label("path", "/v1/table")
	handlerSum := diff.sum("swserve_http_request_seconds_sum", evalL) + diff.sum("swserve_http_request_seconds_sum", tableL)
	handlerN := diff.sum("swserve_http_request_seconds_count", evalL) + diff.sum("swserve_http_request_seconds_count", tableL)
	handlerMS := 1e3 * ratio(handlerSum, handlerN)
	set("swserve.handler_ms", handlerMS)
	set("swserve.client_overhead_ms", mean(p.latenciesMS(""))-handlerMS)
	bytesTotal := 0
	tiers := map[string]float64{}
	cases := 0.0
	for _, s := range p.samples {
		bytesTotal += s.bytes
		for _, t := range s.tiers {
			tiers[t]++
			cases++
		}
	}
	set("swserve.response_bytes", ratio(float64(bytesTotal), float64(len(p.samples))))
	for _, t := range []string{"cache", "disk", "surrogate", "behavioral", "micromag"} {
		set("engine.tier_share."+t, ratio(tiers[t], cases))
	}
	hits, misses := diff.sum("spinwave_engine_cache_hits_total"), diff.sum("spinwave_engine_cache_misses_total")
	set("engine.cache_hit_ratio", ratio(hits, hits+misses))
	set("engine.queue_wait_ms", 1e3*ratio(diff.sum("spinwave_engine_queue_wait_seconds_sum"), float64(len(p.samples))))
	set("engine.disk_writes", diff.sum("spinwave_engine_disk_writes_total", label("result", "ok")))
	set("surrogate.evals", diff.sum("spinwave_engine_surrogate_evals_total"))
	set("surrogate.eval_us", 1e6*diff.histMean("spinwave_engine_surrogate_seconds"))
	records := diff.sum("spinwave_history_indexed_total")
	set("runhistory.records", records)
	set("runhistory.bytes_per_record", ratio(catalogGrowth, records))
	set("llg.steps", diff.sum("spinwave_llg_steps_total"))
}

// probeServeLayers replays the traced phase's requests in-process,
// timing each public call the handler makes — decode, backend
// construction, fingerprint, tiered evaluation on a warm engine, history
// append, encode — and returns the mean attributed time per request in
// milliseconds.
func probeServeLayers(ctx context.Context, e *env, r *report, refs *references, stream []request, p *phase) (float64, error) {
	const maxProbe = 2000
	n := len(p.samples)
	if n > maxProbe {
		n = maxProbe
	}
	dir := filepath.Join(e.tmp, "probe-history")
	defer os.RemoveAll(dir)
	cat, err := runhistory.Open(dir)
	if err != nil {
		return 0, err
	}
	times := map[string][]float64{} // layer -> per-call microseconds
	var perRequest []float64
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		q := stream[i%len(stream)]
		total := 0.0
		// timed runs f, files its duration under layer (unless empty)
		// and, when it is part of the handler's path, under the
		// request's total.
		timed := func(layer string, onPath bool, f func() error) error {
			t0 := time.Now()
			err := f()
			d := us(time.Since(t0))
			if layer != "" {
				times[layer] = append(times[layer], d)
			}
			if onPath {
				total += d
			}
			return err
		}
		var b core.Backend
		var fpv string
		var resp any
		var tiers []string
		newLayer := "core.new_backend_us.behavioral"
		if q.Sel.Micromag {
			newLayer = "core.new_backend_us.micromag"
		}
		err := errors.Join(
			timed("swserve.decode_us", true, func() error {
				dec := json.NewDecoder(bytes.NewReader(q.Body))
				dec.DisallowUnknownFields()
				var w wireRequest
				return dec.Decode(&w)
			}),
			timed(newLayer, true, func() (err error) {
				b, err = newBackend(q.Sel)
				return err
			}),
		)
		if err != nil {
			return 0, err
		}
		// Evaluation fingerprints inside EvalTiered; a table handler
		// fingerprints twice more on top of its table call.
		_ = timed("core.fingerprint_us", q.Kind == "table", func() error { fpv = fingerprint(b); return nil })
		if q.Kind == "table" {
			total += times["core.fingerprint_us"][len(times["core.fingerprint_us"])-1]
			err = timed("", true, func() error {
				tt, src, err := inProcessTable(ctx, refs, b, q)
				resp = tableReply{TruthTable: tt, Mode: q.Mode, Source: string(src), Fingerprint: fpv}
				tiers = []string{string(src)}
				return err
			})
		} else {
			er := evalReply{Gate: b.Kind().String(), Backend: b.Name(), Mode: q.Mode, Fingerprint: fpv}
			for _, c := range q.Cases {
				err = errors.Join(err, timed("engine.eval_tiered_us", true, func() error {
					res, err := refs.eng.EvalTiered(ctx, b, c, engineMode(q.Mode))
					er.Results = append(er.Results, caseReply{Inputs: c, Outputs: res.Readouts,
						Source: string(res.Source), Run: "r0000000000000000"})
					tiers = append(tiers, string(res.Source))
					return err
				}))
			}
			resp = er
		}
		err = errors.Join(err,
			timed("runhistory.append_us", true, func() error { return appendHistory(cat, q, b, fpv, tiers) }),
			timed("swserve.encode_us", true, func() error {
				buf.Reset()
				enc := json.NewEncoder(&buf)
				enc.SetIndent("", "  ")
				return enc.Encode(resp)
			}),
		)
		if err != nil {
			return 0, err
		}
		perRequest = append(perRequest, total/1e3)
	}
	for _, layer := range []string{"swserve.decode_us", "core.new_backend_us.behavioral", "core.new_backend_us.micromag",
		"core.fingerprint_us", "engine.eval_tiered_us", "runhistory.append_us", "swserve.encode_us"} {
		r.setLayer(layer, mean(times[layer]))
	}
	return mean(perRequest), nil
}
