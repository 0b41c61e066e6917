package main

import (
	"context"
	"strings"
	"time"

	"spinwave"
	"spinwave/internal/core"
	"spinwave/internal/engine"
	"spinwave/internal/obs"
	"spinwave/internal/runhistory"
)

// inProcessTable evaluates a table request on the references' warm
// engine, the call swserve's table handler makes.
func inProcessTable(ctx context.Context, refs *references, b core.Backend, q request) (*core.TruthTable, engine.Source, error) {
	mode := engineMode(q.Mode)
	switch {
	case q.Derived != "":
		d := map[string]core.DerivedGate{"and": core.AND, "or": core.OR, "nand": core.NAND, "nor": core.NOR}[q.Derived]
		return refs.eng.DerivedTableTiered(ctx, b, d, mode)
	case b.Kind() == core.XOR:
		return refs.eng.XORTableTiered(ctx, b, false, mode)
	default:
		return refs.eng.MajorityTableTiered(ctx, b, mode)
	}
}

// appendHistory indexes one request the way swserve does: one record
// per eval case, one per table.
func appendHistory(cat *runhistory.Catalog, q request, b core.Backend, fp string, tiers []string) error {
	gate := strings.ToLower(q.Sel.Gate)
	if q.Kind == "table" {
		_, err := cat.Append(runhistory.Record{ID: spinwave.NewRunID(), Kind: "table", Gate: gate, Backend: b.Name(),
			Fingerprint: fp, Tier: tiers[0], Cases: q.WantRows, WallNS: 1})
		return err
	}
	recs := make([]runhistory.Record, len(q.Cases))
	for i, c := range q.Cases {
		recs[i] = runhistory.Record{ID: spinwave.NewRunID(), Kind: "eval", Gate: gate, Backend: b.Name(),
			Fingerprint: fp, Inputs: runhistory.InputsLabel(c), Tier: tiers[i], Cases: 1, WallNS: 1}
	}
	_, err := cat.Append(recs...)
	return err
}

// spanStat is the summed duration and count of one span name.
type spanStat struct {
	total time.Duration
	n     int
}

// sumSpans totals the spans the program emitted during a traced phase
// (micromag.setup, .transient, .lockin) by name.
func sumSpans(spans []obs.FinishedSpan) map[string]spanStat {
	out := map[string]spanStat{}
	for _, s := range spans {
		st := out[s.Name]
		st.total += s.Duration
		st.n++
		out[s.Name] = st
	}
	return out
}
