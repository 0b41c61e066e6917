package main

import (
	"bytes"
	"testing"
)

func TestStreamSameSeedSameRequests(t *testing.T) {
	for _, micromag := range []bool{false, true} {
		a := serveStream(micromag, 7, 2000)
		b := serveStream(micromag, 7, 2000)
		c := serveStream(micromag, 8, 2000)
		same := 0
		for i := range a {
			if !bytes.Equal(a[i].Body, b[i].Body) || a[i].Kind != b[i].Kind || a[i].WantSource != b[i].WantSource {
				t.Fatalf("micromag=%v: request %d differs between two streams of seed 7", micromag, i)
			}
			if bytes.Equal(a[i].Body, c[i].Body) {
				same++
			}
		}
		if same == len(a) {
			t.Errorf("micromag=%v: seeds 7 and 8 gave the same stream", micromag)
		}
	}
}

func TestStreamMix(t *testing.T) {
	const n = 20000
	kinds := map[string]int{}
	for _, q := range serveStream(false, 1, n) {
		switch {
		case q.Kind == "eval" && len(q.Cases) == 1:
			kinds["single"]++
		case q.Kind == "eval":
			kinds["batch"]++
			if len(q.Cases) != batchCases {
				t.Fatalf("batch of %d cases, want %d", len(q.Cases), batchCases)
			}
		case q.Derived != "":
			kinds["derived"]++
			if q.Sel.Gate != "maj3" && q.Sel.Gate != "maj3single" {
				t.Fatalf("derived table on %s", q.Sel.Gate)
			}
		default:
			kinds["table"]++
		}
		if q.WantSource != "cache" {
			t.Fatalf("behavioral request expects source %q, want cache", q.WantSource)
		}
	}
	for kind, want := range map[string]float64{"single": 0.25, "batch": 0.25, "table": 0.25, "derived": 0.25} {
		if got := float64(kinds[kind]) / n; got < want-0.02 || got > want+0.02 {
			t.Errorf("%s share = %.3f, want %.2f", kind, got, want)
		}
	}
	for _, q := range serveStream(true, 1, n) {
		if q.Mode == "surrogate" && (q.Sel.Gate != "xor" || q.WantSource != "surrogate") {
			t.Fatalf("surrogate-mode request %s expects %q", q.Body, q.WantSource)
		}
	}
}
