package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
)

// The serve workloads drive swserve with a seeded request stream, a
// pure function of (workload, seed), sent in order over one connection.

// The behavioral universe is every gate, spec and material /v1/spec
// lists.
var (
	behavioralGates     = []string{"maj3", "maj3single", "xor", "maj5"}
	behavioralSpecs     = []string{"paper", "paper-micromag", "reduced"}
	behavioralMaterials = []string{"fecob", "yig", "permalloy"}
	derivedGates        = []string{"and", "or", "nand", "nor"}
)

// The request mix has no measured traffic to follow: the repository
// holds no client of /v1/eval or /v1/table besides tools/historysmoke.
// It therefore takes the four request shapes the README's swserve
// section shows, one example each, in equal shares: a single /v1/eval,
// a batch /v1/eval of batchCases cases (the README example and
// historysmoke both send two), a /v1/table and a derived /v1/table.
// Backends are drawn uniformly from the gates, specs and materials
// above. Any other weighting is an assumption; the per-kind latencies
// are reported per layer (client.{eval,table}_*).
const batchCases = 2

// mixDescription documents the request mix genRequest draws from.
const mixDescription = "per request, equal shares of the README's four swserve request shapes: single /v1/eval, batch /v1/eval (2 cases), /v1/table, derived /v1/table"

// selector names one backend identity in the request vocabulary.
type selector struct {
	Gate, Spec, Material string
	Micromag             bool
}

func (s selector) String() string {
	kind := "behavioral"
	if s.Micromag {
		kind = "micromag"
	}
	return fmt.Sprintf("%s/%s/%s/%s", kind, s.Gate, s.Spec, s.Material)
}

// inputCount is the number of logic inputs of a gate.
func inputCount(gate string) int {
	switch gate {
	case "xor":
		return 2
	case "maj5":
		return 5
	default:
		return 3
	}
}

// universe lists the backends a serve workload touches. The micromag
// workload uses the server defaults (reduced spec, FeCoB), the identity
// its startup surrogates are built for.
func universe(micromag bool) []selector {
	if micromag {
		return []selector{{Gate: "xor", Micromag: true}, {Gate: "maj3", Micromag: true}}
	}
	var out []selector
	for _, g := range behavioralGates {
		for _, s := range behavioralSpecs {
			for _, m := range behavioralMaterials {
				out = append(out, selector{Gate: g, Spec: s, Material: m})
			}
		}
	}
	return out
}

// wireRequest is the JSON body of a /v1/eval or /v1/table request.
type wireRequest struct {
	Gate     string   `json:"gate"`
	Mode     string   `json:"mode,omitempty"`
	Spec     string   `json:"spec,omitempty"`
	Material string   `json:"material,omitempty"`
	Inputs   []bool   `json:"inputs,omitempty"`
	Cases    [][]bool `json:"cases,omitempty"`
	Derived  string   `json:"derived,omitempty"`
}

// request is one generated request plus what a correct answer looks
// like.
type request struct {
	Kind    string // "eval" or "table"
	Sel     selector
	Mode    string
	Cases   [][]bool // eval: the cases sent, in order
	Derived string
	Body    []byte
	// WantSource is the tier that must answer: after warm-up every exact
	// or auto request is a cache hit, every surrogate-mode request a
	// surrogate evaluation.
	WantSource string
	// WantRows is a table's row count.
	WantRows int
}

// Path is the endpoint the request is posted to.
func (q request) Path() string { return "/v1/" + q.Kind }

// serveStream generates the first n requests of a workload's stream.
func serveStream(micromag bool, seed int64, n int) []request {
	rng := rand.New(rand.NewSource(seed))
	sels := universe(micromag)
	out := make([]request, n)
	for i := range out {
		out[i] = genRequest(rng, micromag, sels)
	}
	return out
}

func genRequest(rng *rand.Rand, micromag bool, sels []selector) request {
	shape := rng.Intn(4) // single eval, batch eval, table, derived table
	var q request
	if shape == 3 {
		// Derived gates pin I3 on the MAJ3 structure.
		var maj []selector
		for _, s := range sels {
			if s.Gate == "maj3" || s.Gate == "maj3single" {
				maj = append(maj, s)
			}
		}
		q.Sel = maj[rng.Intn(len(maj))]
	} else {
		q.Sel = sels[rng.Intn(len(sels))]
	}
	q.Mode = "behavioral"
	if micromag {
		modes := []string{"micromag", "auto"}
		if q.Sel.Gate == "xor" {
			// Only the xor surrogate is expected to pass admission.
			modes = append(modes, "surrogate")
		}
		q.Mode = modes[rng.Intn(len(modes))]
	}
	q.WantSource = "cache"
	if q.Mode == "surrogate" {
		q.WantSource = "surrogate"
	}
	n := inputCount(q.Sel.Gate)
	randCase := func() []bool {
		c := make([]bool, n)
		for i := range c {
			c[i] = rng.Intn(2) == 1
		}
		return c
	}
	w := wireRequest{Gate: q.Sel.Gate, Mode: q.Mode, Spec: q.Sel.Spec, Material: q.Sel.Material}
	switch shape {
	case 0:
		q.Kind = "eval"
		q.Cases = [][]bool{randCase()}
		w.Inputs = q.Cases[0]
	case 1:
		q.Kind = "eval"
		q.Cases = make([][]bool, batchCases)
		for i := range q.Cases {
			q.Cases[i] = randCase()
		}
		w.Cases = q.Cases
	case 2:
		q.Kind = "table"
		q.WantRows = 1 << n
	default:
		q.Kind = "table"
		q.Derived = derivedGates[rng.Intn(len(derivedGates))]
		q.WantRows = 4
		w.Derived = q.Derived
	}
	body, err := json.Marshal(w)
	if err != nil {
		panic(err) // a wireRequest always marshals
	}
	q.Body = body
	return q
}
