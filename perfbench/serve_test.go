package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"spinwave/internal/core"
	"spinwave/internal/detect"
)

// fakeServer answers /v1/eval from the references, corrupting the reply
// in turn: a correct answer, a 500, a readout one ulp off, a wrong tier,
// a transport error.
type fakeServer struct {
	refs *references
	reqs map[string]request
	n    atomic.Int64
}

func (f *fakeServer) post(path string, body []byte) (int, []byte, error) {
	q := f.reqs[string(body)]
	want, _ := f.refs.want(q, q.Cases[0])
	out := map[string]detect.Readout{}
	for k, v := range want {
		out[k] = v
	}
	source := q.WantSource
	switch f.n.Add(1) % 5 {
	case 1:
		return http.StatusInternalServerError, []byte(`{"error":{"code":"internal"}}`), nil
	case 2:
		for k, v := range out {
			v.Amplitude = v.Amplitude*(1+1e-15) + 1e-300
			out[k] = v
			break
		}
	case 3:
		source = "behavioral"
	case 4:
		return 0, nil, errors.New("connection reset")
	}
	reply := map[string]any{"fingerprint": f.refs.fps[q.Sel], "results": []map[string]any{
		{"inputs": q.Cases[0], "outputs": out, "source": source, "run": "r1"}}}
	data, err := json.Marshal(reply)
	return http.StatusOK, data, err
}

func TestFailuresAreCountedNotDropped(t *testing.T) {
	sel := selector{Gate: "xor", Spec: "paper", Material: "fecob"}
	refs, err := buildReferences(context.Background(), []selector{sel}, false)
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeServer{refs: refs, reqs: map[string]request{}}
	var stream []request
	for _, c := range allCases(2) {
		body, _ := json.Marshal(wireRequest{Gate: "xor", Mode: "behavioral", Spec: "paper", Material: "fecob", Inputs: c})
		q := request{Kind: "eval", Sel: sel, Mode: "behavioral", Cases: [][]bool{c}, Body: body, WantSource: "cache"}
		f.reqs[string(body)] = q
		stream = append(stream, q)
	}
	r := newReport()
	p := closedLoop(context.Background(), f, stream, refs, 50*time.Millisecond, r)
	if int64(len(p.samples)) != r.attempted {
		t.Fatalf("%d samples for %d attempted requests: a request was dropped", len(p.samples), r.attempted)
	}
	failed := int64(0)
	for _, s := range p.samples {
		if s.err != nil {
			failed++
		}
	}
	if failed != r.failed {
		t.Errorf("%d failed samples, report counts %d", failed, r.failed)
	}
	// Four of every five replies are wrong; allow for the loop stopping
	// mid-cycle.
	if ok := r.attempted - r.failed; r.attempted < 10 || ok > r.attempted/5+1 {
		t.Errorf("%d of %d requests passed, want about a fifth", ok, r.attempted)
	}
	if got := len(p.latenciesMS("")); int64(got) != r.attempted {
		t.Errorf("latency sample holds %d of %d requests", got, r.attempted)
	}
}

func TestTableReplyChecks(t *testing.T) {
	sel := selector{Gate: "maj3", Spec: "reduced", Material: "yig"}
	refs, err := buildReferences(context.Background(), []selector{sel}, false)
	if err != nil {
		t.Fatal(err)
	}
	q := request{Kind: "table", Sel: sel, Mode: "behavioral", WantSource: "cache", WantRows: 8}
	tt, _, err := inProcessTable(context.Background(), refs, refs.backends[sel], q)
	if err != nil {
		t.Fatal(err)
	}
	reply := func(source string, mutate func(*tableReply)) []byte {
		te := tableReply{TruthTable: tt, Mode: "behavioral", Source: source, Fingerprint: refs.fps[sel]}
		if mutate != nil {
			mutate(&te)
		}
		data, _ := json.Marshal(te)
		return data
	}
	if _, err := checkReply(q, refs, http.StatusOK, reply("cache", nil)); err != nil {
		t.Fatalf("correct table rejected: %v", err)
	}
	if _, err := checkReply(q, refs, http.StatusOK, reply("behavioral", nil)); err == nil {
		t.Error("table from the wrong tier accepted")
	}
	if _, err := checkReply(q, refs, http.StatusServiceUnavailable, reply("cache", nil)); err == nil {
		t.Error("non-200 table accepted")
	}
	bad := reply("cache", func(te *tableReply) {
		cp := *te.TruthTable
		cp.Cases = append([]core.CaseResult(nil), cp.Cases...)
		cp.Cases[3].Correct = false
		te.TruthTable = &cp
	})
	if _, err := checkReply(q, refs, http.StatusOK, bad); err == nil {
		t.Error("table with an incorrect row accepted")
	}
}
